"""Scores a recovered tree against ground truth by triple classification.

For an ordered triple (i, j, k) of leaves, the recovered tree classifies it
correctly when the comparison "shared path of (i,j) at least as long as
shared path of (i,k)" comes out the same in both trees. The accuracy p is
the fraction of correct triples over the full |X|^3 cube, repeated indices
included; a self-share counts the leaf's full depth, which makes every
degenerate triple classify correctly in any pair of trees, so a
distinct-triples variant is reported alongside for sharper comparisons.

Both variants come from one exact integer count of correct triples, and
only the order of shared lengths within a row enters it, so the count
works on ranks. One DFS per tree gives its leaf order, the leaves' depths
and the LCA depths of consecutive leaves; the LCA depth of any two leaves
is a range minimum of the latter. Ranking those at most 2m - 1 values
before anything is expanded gives each tree's m x m matrix of shared-length
ranks, in its own DFS order and in the smallest unsigned dtype that holds
them: uint8 up to 256 ranks, else uint16 (see `shared_rank_matrix`). The
count reads the truth's matrix in the recovered tree's order, one block of
rows at a time, and builds per-row histograms of rank pairs (see
`_correct_triples`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError
from .model import NodeId, RoutingTree


def _shared_len(tree: RoutingTree, i: NodeId, j: NodeId) -> int:
    # links from the root to the lowest common ancestor of i and j (0 when
    # their paths split at the root); for i == j, the leaf's own depth
    if i == j:
        return tree.depth_links(i)
    return tree.depth_links(tree.lca(i, j))


def _check_leaves(recovered: RoutingTree, truth: RoutingTree, ids) -> None:
    for x in ids:
        if x not in recovered or not recovered.is_leaf(x):
            raise InputError(f"{x!r} is not a leaf of the recovered tree")
        if x not in truth or not truth.is_leaf(x):
            raise InputError(f"{x!r} is not a leaf of the truth tree")


def classify_triple(
    i: NodeId, j: NodeId, k: NodeId, recovered: RoutingTree, truth: RoutingTree
) -> int:
    """1 when both trees agree on whether the (i,j) shared path is at least
    as long as the (i,k) shared path, else 0."""
    _check_leaves(recovered, truth, (i, j, k))
    rec = _shared_len(recovered, i, j) >= _shared_len(recovered, i, k)
    tru = _shared_len(truth, i, j) >= _shared_len(truth, i, k)
    return 1 if rec == tru else 0


def shared_rank_matrix(tree: RoutingTree, leaves) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``leaves`` in ``tree``'s DFS order, as indices into
    ``leaves``, and the matrix of their shared-path lengths (links from the
    root to the LCA; the diagonal holds each leaf's depth) in that order,
    each length replaced by its dense rank among the lengths present, in
    the smallest unsigned dtype that holds the ranks. Raises InputError
    for an empty or repeated list, or an id that is not a leaf of ``tree``.

    One DFS lists the leaves in visiting order with their depths. The LCA
    of two consecutive leaves sits one link above the shallowest node
    entered between them, and the LCA depth of any two leaves is the
    minimum of those gaps between them in DFS order. So the m requested
    leaves' m depths and m - 1 consecutive gaps hold every value of the
    matrix, and ranking those 2m - 1 values ranks it: min commutes with a
    monotone map."""
    ids = list(leaves)
    if not ids:
        raise InputError("leaves must not be empty")
    position: dict[NodeId, int] = {}
    depths, gaps = [], []
    low = 0  # shallowest depth entered since the last leaf
    stack = [(tree.root, 0)]
    while stack:
        node, depth = stack.pop()
        low = min(low, depth)
        if tree.is_leaf(node):
            if position:
                gaps.append(low - 1)
            position[node] = len(depths)
            depths.append(depth)
            low = depth
        else:
            stack.extend((c, depth + 1) for c in reversed(tree.children(node)))
    try:
        pos = np.array([position[x] for x in ids], dtype=np.intp)
    except KeyError as exc:
        raise InputError(f"{exc.args[0]!r} is not a leaf of the tree") from None
    order = np.argsort(pos)
    visit = pos[order]
    if (np.diff(visit) == 0).any():
        raise InputError("leaves must be distinct")
    m = len(visit)
    # the gap between two consecutive requested leaves is the minimum over
    # the DFS gaps they span
    gap = np.minimum.reduceat(np.array(gaps[: visit[-1]], dtype=np.int64), visit[:-1])
    values, rank = np.unique(np.concatenate((gap, np.array(depths, dtype=np.int64)[visit])), return_inverse=True)
    rank = rank.astype(np.min_scalar_type(len(values) - 1))
    # entry (r, c > r) is the minimum of gap ranks r .. c - 1, so each row
    # of the upper triangle is a running minimum over one sliding window of
    # the gap ranks padded with zeros: one accumulate for all rows. Rows
    # m + 1 long, read back m long, each start on the diagonal, and the
    # padding's zeros fall below it.
    padded = np.zeros(2 * m - 1, dtype=rank.dtype)
    padded[: m - 1] = rank[: m - 1]
    sheared = np.zeros((m, m + 1), dtype=rank.dtype)
    np.minimum.accumulate(sliding_window_view(padded, m), axis=1, out=sheared[:, 1:])
    ranks = sheared.ravel()[: m * m].reshape(m, m)
    ranks += ranks.T
    np.fill_diagonal(ranks, rank[m - 1 :])
    return order, ranks


# histogram cells (and index entries) built per block of rows, which keeps
# the kernel's scratch arrays to a few MB; a block holds at least one row
_BLOCK_CELLS = 1 << 18


def _correct_triples(rec: np.ndarray, tru: np.ndarray, perm: np.ndarray) -> int:
    """Number of ordered triples (i, j, k) with
    ``(rec[i,j] >= rec[i,k]) == (t[i,j] >= t[i,k])``, counted exactly, where
    ``t = tru[perm][:, perm]`` is ``tru`` read in ``rec``'s leaf order.

    For each row i, H[i, a, b] counts the k with (rec, t) ranks (a, b).
    Two cumulative sums give le[i, a, b], the k with rec <= a and t <= b;
    inclusion-exclusion gives gt, the k with rec > a and t > b. A j with
    ranks (a, b) agrees with exactly the k counted by le + gt, so
    correct = sum(H * (le + gt)). That is O(n^2 + n * A * B) for A and B
    ranks per tree, instead of comparing n^2 pairs per row. Each block of
    rows gathers its rows of t from ``tru``.

    Exactness: every array holds counts; H * (le + gt) sums to at most n^2
    per row, so the int64 total is at most n^3 < 2^63 for any n below 2^21,
    far past any n whose n x n matrices fit in memory. The result is a
    Python int."""
    n = rec.shape[0]
    width = int(tru.max()) + 1
    cells = (int(rec.max()) + 1) * width
    block = max(1, _BLOCK_CELLS // max(cells, n))
    correct = 0
    for start in range(0, n, block):
        rows = min(block, n - start)
        code = np.multiply(rec[start : start + rows], width, dtype=np.int64)
        code += tru[perm[start : start + rows]][:, perm]
        code += np.arange(0, rows * cells, cells, dtype=np.int64)[:, None]
        hist = np.bincount(code.ravel(), minlength=rows * cells).reshape(rows, -1, width)
        le = hist.cumsum(axis=1).cumsum(axis=2)
        gt = n - le[:, :, -1:] - le[:, -1:, :] + le
        correct += int((hist * (le + gt)).sum())
    return correct


@dataclass(frozen=True)
class AccuracyReport:
    """Aggregate triple-classification outcome for one recovered tree."""

    p: float
    p_distinct: float | None
    n_leaves: int


def score_trees(recovered: RoutingTree, truth: RoutingTree, X=None) -> AccuracyReport:
    """Both accuracy variants over X (defaults to all shared leaves), from
    one exact integer count of correct triples (see `_correct_triples`).
    Each p is a Python-int division, so it is the correctly rounded
    fraction; ``p_distinct`` is None below 3 leaves."""
    ids = sorted(set(recovered.leaves & truth.leaves if X is None else X))
    if not ids:
        raise InputError("X must not be empty")
    _check_leaves(recovered, truth, ids)
    n = len(ids)
    rec_order, rec = shared_rank_matrix(recovered, ids)
    tru_order, tru = shared_rank_matrix(truth, ids)
    # the truth's index of each leaf, taken in the recovered tree's order
    correct = _correct_triples(rec, tru, np.argsort(tru_order)[rec_order])
    # every degenerate triple classifies correctly, so it is counted in
    # `correct` and subtracted for p_distinct
    distinct = n * (n - 1) * (n - 2)
    return AccuracyReport(
        p=correct / n**3,
        p_distinct=(correct - (n**3 - distinct)) / distinct if n >= 3 else None,
        n_leaves=n,
    )

