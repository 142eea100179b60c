"""Scores a recovered tree against ground truth by triple classification.

For an ordered triple (i, j, k) of leaves, the recovered tree classifies it
correctly when the comparison "shared path of (i,j) at least as long as
shared path of (i,k)" comes out the same in both trees. The accuracy p is
the fraction of correct triples over the full |X|^3 cube, repeated indices
included; a self-share counts the leaf's full depth, which makes every
degenerate triple classify correctly in any pair of trees, so a
distinct-triples variant is reported alongside for sharper comparisons.

Both variants come from one exact integer count of correct triples, made
from per-row histograms of shared-path lengths (see `_correct_triples`).
The shared-path lengths come from one DFS per tree: the LCA depth of two
leaves is a range minimum of the LCA depths of consecutive leaves in DFS
order (see `shared_length_matrix`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .model import NodeId, RoutingTree


def _shared_len(tree: RoutingTree, i: NodeId, j: NodeId) -> int:
    # like shared_path_length but defined on i == j as the leaf's depth
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


def shared_length_matrix(tree: RoutingTree, leaf_order) -> np.ndarray:
    """Matrix of pairwise shared-path lengths (links from the root to the
    LCA) over the leaves in ``leaf_order``; the diagonal holds each leaf's
    depth. Raises InputError for an id that is not a leaf of ``tree``.

    One DFS lists the leaves in visiting order with their depths. The LCA
    of two consecutive leaves sits one link above the shallowest node
    entered between them, and the LCA depth of any two leaves is the
    minimum of those gaps between them in DFS order."""
    ids = list(leaf_order)
    if not ids:
        raise InputError("leaf_order must not be empty")
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
    # the requested leaves in DFS order; the gap between two consecutive
    # ones is the minimum over the DFS gaps they span
    visit, rank = np.unique(pos, return_inverse=True)
    m = len(visit)
    shared = np.zeros((m, m), dtype=np.int64)
    if m > 1:
        gap = np.minimum.reduceat(np.array(gaps[: visit[-1]], dtype=np.int64), visit[:-1])
        for r in range(m - 1):
            np.minimum.accumulate(gap[r:], out=shared[r, r + 1 :])
        shared += shared.T
    shared[np.diag_indices(m)] = np.array(depths, dtype=np.int64)[visit]
    return shared[np.ix_(rank, rank)]


# histogram cells (and index entries) built per block of rows, which keeps
# the kernel's scratch arrays to a few MB; a block holds at least one row
_BLOCK_CELLS = 1 << 18


def _dense_ranks(lengths: np.ndarray) -> np.ndarray:
    """Each length replaced by its rank among the distinct lengths present.

    Only the order of lengths enters a comparison, and a tree over n leaves
    has at most 2n - 1 distinct shared lengths (n leaf depths, n - 1
    branching LCAs), so relay chains cannot inflate the histograms."""
    present = np.zeros(int(lengths.max()) + 1, dtype=bool)
    present[lengths] = True
    return (np.cumsum(present) - 1)[lengths]


def _correct_triples(rec: np.ndarray, tru: np.ndarray) -> int:
    """Number of ordered triples (i, j, k) with
    ``(rec[i,j] >= rec[i,k]) == (tru[i,j] >= tru[i,k])``, counted exactly.

    For each row i, H[i, a, b] counts the k with (rec, tru) lengths (a, b).
    Two cumulative sums give le[i, a, b], the k with rec <= a and tru <= b;
    inclusion-exclusion gives gt, the k with rec > a and tru > b. A j with
    lengths (a, b) agrees with exactly the k counted by le + gt, so
    correct = sum(H * (le + gt)). That is O(n^2 + n * A * B) for A and B
    distinct lengths per tree, instead of comparing n^2 pairs per row.

    Exactness: every array holds counts; H * (le + gt) sums to at most n^2
    per row, so the int64 total is at most n^3 < 2^63 for any n below 2^21,
    far past any n whose n x n matrices fit in memory. The result is a
    Python int."""
    n = rec.shape[0]
    rec, tru = _dense_ranks(rec), _dense_ranks(tru)
    width = int(tru.max()) + 1
    cells = (int(rec.max()) + 1) * width
    block = max(1, _BLOCK_CELLS // max(cells, n))
    correct = 0
    for start in range(0, n, block):
        rows = min(block, n - start)
        code = rec[start : start + rows] * width + tru[start : start + rows]
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
    correct = _correct_triples(shared_length_matrix(recovered, ids), shared_length_matrix(truth, ids))
    # every degenerate triple classifies correctly, so it is counted in
    # `correct` and subtracted for p_distinct
    distinct = n * (n - 1) * (n - 2)
    return AccuracyReport(
        p=correct / n**3,
        p_distinct=(correct - (n**3 - distinct)) / distinct if n >= 3 else None,
        n_leaves=n,
    )

