from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covtomo import accuracy
from covtomo.accuracy import _shared_len, classify_triple, score_trees, shared_rank_matrix
from covtomo.errors import InputError
from covtomo.model import RoutingTree, branching_skeleton

from treegen import build_tree, leaves_under, random_truth_tree, relabel_routers


def shared_length_matrix(tree, leaf_order):
    """Reference: the int64 matrix of pairwise shared-path lengths over
    ``leaf_order``, the diagonal holding each leaf's depth, from range
    minima of consecutive-leaf LCA depths in DFS order."""
    position, depths, gaps = {}, [], []
    low = 0
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
    pos = np.array([position[x] for x in leaf_order], dtype=np.intp)
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


def _dense_ranks(lengths):
    """Each length replaced by its rank among the distinct lengths present."""
    present = np.zeros(int(lengths.max()) + 1, dtype=bool)
    present[lengths] = True
    return (np.cumsum(present) - 1)[lengths]


def reference_correct_triples(rec, tru):
    """Reference count of ordered triples (i, j, k) with
    ``(rec[i,j] >= rec[i,k]) == (tru[i,j] >= tru[i,k])`` over two n x n
    int64 length matrices in the same leaf order, from per-row histograms
    of dense-ranked lengths (see `accuracy._correct_triples`)."""
    n = rec.shape[0]
    rec, tru = _dense_ranks(rec), _dense_ranks(tru)
    width = int(tru.max()) + 1
    cells = (int(rec.max()) + 1) * width
    block = max(1, (1 << 18) // max(cells, n))
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


def reference_score(recovered, truth, X):
    """(p, p_distinct) from the int64 reference matrices and count."""
    ids = sorted(X)
    n = len(ids)
    correct = reference_correct_triples(shared_length_matrix(recovered, ids), shared_length_matrix(truth, ids))
    distinct = n * (n - 1) * (n - 2)
    return correct / n**3, (correct - (n**3 - distinct)) / distinct if n >= 3 else None


def brute_force_p(recovered, truth, leaves, distinct=False):
    """Independent oracle: enumerate every ordered triple via classify_triple."""
    total = 0
    correct = 0
    for i in leaves:
        for j in leaves:
            for k in leaves:
                if distinct and len({i, j, k}) < 3:
                    continue
                total += 1
                correct += classify_triple(i, j, k, recovered, truth)
    return Fraction(correct, total)


def star():
    tree = RoutingTree("root")
    for leaf in ("a", "b", "c"):
        tree.add_leaf(leaf, "root")
    return tree


def caterpillar():
    return build_tree("root", [(1.0, ["a", "b"]), "c"])


def test_identical_trees_every_triple_correct():
    tree = caterpillar()
    for i in "abc":
        for j in "abc":
            for k in "abc":
                assert classify_triple(i, j, k, tree, tree) == 1
    assert score_trees(tree, tree, {"a", "b", "c"}).p == 1.0


def test_degenerate_triples_classify_correctly():
    # repeated indices compare a self-share, identical on both sides
    assert classify_triple("a", "a", "c", star(), caterpillar()) == 1
    assert classify_triple("a", "c", "a", star(), caterpillar()) == 1
    assert classify_triple("a", "c", "c", star(), caterpillar()) == 1
    rng = np.random.default_rng(31)
    for _ in range(20):
        t1, _ = random_truth_tree(rng, 5)
        t2, _ = random_truth_tree(rng, 5)
        leaves = sorted(t1.leaves)
        for i in leaves:
            for j in leaves:
                assert classify_triple(i, i, j, t1, t2) == 1
                assert classify_triple(i, j, i, t1, t2) == 1
                assert classify_triple(i, j, j, t1, t2) == 1


def test_star_recovered_for_caterpillar_truth():
    recovered, truth = star(), caterpillar()
    # spec-walked triples: (a,b,c) agrees (>= holds on both sides),
    # (a,c,b) disagrees (truth orders strictly, the star ties)
    assert classify_triple("a", "b", "c", recovered, truth) == 1
    assert classify_triple("a", "c", "b", recovered, truth) == 0
    expected = brute_force_p(recovered, truth, ["a", "b", "c"])
    assert expected == Fraction(25, 27)
    assert score_trees(recovered, truth, {"a", "b", "c"}).p == float(expected)


def test_single_leaf_accuracy_is_one():
    t1 = build_tree("root", (1.0, ["a", "b"]))
    t2 = star()
    # only 'a' in X: the lone degenerate triple matches on both sides
    t2b = RoutingTree("root")
    t2b.add_leaf("a", "root")
    t1b = build_tree("root", (1.0, ["a"]))
    assert score_trees(t1b, t2b, {"a"}).p == 1.0
    with pytest.raises(InputError):
        score_trees(t1, t2, set())


def test_unknown_leaf_errors():
    with pytest.raises(InputError):
        score_trees(star(), caterpillar(), {"a", "zz"})
    with pytest.raises(InputError):
        classify_triple("a", "b", "zz", star(), caterpillar())


def test_accuracy_in_unit_interval_and_relabel_invariant():
    rng = np.random.default_rng(32)
    for _ in range(25):
        t1, _ = random_truth_tree(rng, int(rng.integers(2, 8)))
        t2, _ = random_truth_tree(rng, len(t1.leaves))
        p = score_trees(t1, t2, t1.leaves).p
        assert 0.0 <= p <= 1.0
        assert score_trees(relabel_routers(t1), t2, t1.leaves).p == p
        assert score_trees(t1, relabel_routers(t2), t1.leaves).p == p


def test_optimized_matches_brute_force():
    rng = np.random.default_rng(33)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        t1, _ = random_truth_tree(rng, n)
        t2, _ = random_truth_tree(rng, n)
        leaves = sorted(t1.leaves)
        report = score_trees(t1, t2, leaves)
        assert report.p == float(brute_force_p(t1, t2, leaves))
        if n >= 3:
            assert report.p_distinct == float(brute_force_p(t1, t2, leaves, distinct=True))


def test_score_trees_reports_both_variants():
    report = score_trees(star(), caterpillar())
    assert report.n_leaves == 3
    assert report.p == float(Fraction(25, 27))
    assert report.p_distinct == float(Fraction(4, 6))
    # degenerate triples dilute p toward 1 by a known factor
    n = 3
    degenerate = n**3 - n * (n - 1) * (n - 2)
    assert report.p * n**3 == pytest.approx(report.p_distinct * (n**3 - degenerate) + degenerate)


def test_score_trees_defaults_to_every_shared_leaf():
    rng = np.random.default_rng(34)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        t1, _ = random_truth_tree(rng, n)
        t2, _ = random_truth_tree(rng, n)
        leaves = sorted(t1.leaves)
        size = int(rng.integers(1, n + 1))
        assert score_trees(t1, t2) == score_trees(t1, t2, leaves)
        for ids in (leaves, rng.choice(leaves, size=size, replace=False).tolist()):
            report = score_trees(t1, t2, ids)
            assert report.n_leaves == len(ids)
            assert (report.p_distinct is None) == (len(ids) < 3)


def test_shared_rank_matrix_rejects_empty_and_repeated_leaves():
    with pytest.raises(InputError, match="must not be empty"):
        shared_rank_matrix(caterpillar(), [])
    with pytest.raises(InputError, match="must be distinct"):
        shared_rank_matrix(caterpillar(), ["a", "c", "a"])


@st.composite
def routing_trees(draw, leaves):
    """Star, caterpillar or random branching over ``leaves`` in a drawn
    order, with single-child relay chains drawn above some nodes."""
    order = draw(st.permutations(leaves))
    shape = draw(st.sampled_from(["star", "caterpillar", "random"]))
    tree = RoutingTree("root")
    if shape == "star":
        for leaf in order:
            tree.add_leaf(leaf, "root")
    elif shape == "caterpillar":
        spine = "root"
        for leaf in order[:-2]:
            tree.add_leaf(leaf, spine)
            spine = tree.add_router(spine, 0.0)
        for leaf in order[-2:]:
            tree.add_leaf(leaf, spine)
    else:
        tree.add_leaf(order[0], "root")
        for leaf in order[1:]:
            target = draw(st.sampled_from(sorted(tree.nodes())))
            if target == "root":
                tree.add_leaf(leaf, "root")
            elif draw(st.booleans()):
                tree.add_leaf(leaf, tree.insert_router_above(target, 0.0))
            else:
                tree.add_leaf(leaf, tree.parent(target))
    for node in draw(st.lists(st.sampled_from(sorted(tree.nodes())), max_size=4)):
        for _ in range(draw(st.integers(0, 6)) if node != "root" else 0):
            tree.insert_router_above(node, 0.0)
    return tree


@st.composite
def scored_pairs(draw):
    """Two trees over the same leaves, shaped independently (a star can
    meet a deep caterpillar), and X a subset of the leaves, usually strict."""
    leaves = [f"h{i:02d}" for i in range(draw(st.integers(2, 12)))]
    recovered = draw(routing_trees(leaves))
    truth = draw(routing_trees(leaves))
    size = draw(st.integers(1, len(leaves) if draw(st.booleans()) else len(leaves) - 1))
    return recovered, truth, draw(st.permutations(leaves))[:size]


@settings(max_examples=200)
@given(scored_pairs())
def test_counting_kernel_equals_brute_force(pair):
    recovered, truth, X = pair
    p = float(brute_force_p(recovered, truth, X))
    distinct = float(brute_force_p(recovered, truth, X, distinct=True)) if len(X) >= 3 else None
    # all rows in one block, then one row per block as at large n
    for block_cells in (accuracy._BLOCK_CELLS, 1):
        with mock.patch.object(accuracy, "_BLOCK_CELLS", block_cells):
            report = score_trees(recovered, truth, X)
            assert (report.p, report.p_distinct) == (p, distinct)


@st.composite
def leaf_orders(draw):
    """A tree from `routing_trees` (up to 30 leaves, so caterpillars run
    deep) and a permuted, usually partial order of its leaves."""
    leaves = [f"h{i:02d}" for i in range(draw(st.integers(2, 30)))]
    tree = draw(routing_trees(leaves))
    return tree, draw(st.permutations(leaves))[: draw(st.integers(1, len(leaves)))]


@settings(max_examples=200)
@given(leaf_orders())
def test_shared_rank_matrix_equals_dense_ranks_of_brute_force(case):
    tree, order = case
    lengths = np.array([[_shared_len(tree, a, b) for b in order] for a in order], dtype=np.int64)
    assert np.array_equal(shared_length_matrix(tree, order), lengths)
    visit, ranks = shared_rank_matrix(tree, order)
    assert sorted(visit.tolist()) == list(range(len(order)))
    want = _dense_ranks(lengths[np.ix_(visit, visit)])
    assert ranks.dtype == np.min_scalar_type(int(want.max()))
    assert np.array_equal(ranks, want)
    # visit lists the leaves in DFS order
    dfs = [leaf for leaf in leaves_under(tree, tree.root) if leaf in set(order)]
    assert [order[i] for i in visit] == dfs


@settings(max_examples=50)
@given(leaf_orders(), st.data())
def test_shared_rank_matrix_rejects_non_leaves(case, data):
    tree, order = case
    other = data.draw(st.sampled_from(sorted(set(tree.nodes()) - tree.leaves) + ["zz"]))
    at = data.draw(st.integers(0, len(order)))
    with pytest.raises(InputError, match=f"{other!r} is not a leaf of the tree"):
        shared_rank_matrix(tree, order[:at] + [other] + order[at:])


@st.composite
def treegen_pairs(draw):
    """Two `treegen.random_truth_tree` trees over the same leaves, up to 40
    of them, with relays drawn at a shared probability, and X a subset of
    the leaves, usually strict."""
    n = draw(st.integers(2, 40))
    relay_prob = draw(st.sampled_from([0.0, 0.25, 1.0]))
    seeds = draw(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)))
    recovered, truth = (random_truth_tree(np.random.default_rng(seed), n, relay_prob=relay_prob)[0] for seed in seeds)
    leaves = sorted(recovered.leaves)
    size = draw(st.integers(1, n if draw(st.booleans()) else n - 1))
    return recovered, truth, draw(st.permutations(leaves))[:size]


@settings(max_examples=150, deadline=None)
@given(st.one_of(treegen_pairs(), scored_pairs()))
def test_score_equals_int64_reference(pair):
    recovered, truth, X = pair
    want = reference_score(recovered, truth, X)
    for block_cells in (accuracy._BLOCK_CELLS, 1):
        with mock.patch.object(accuracy, "_BLOCK_CELLS", block_cells):
            report = score_trees(recovered, truth, X)
            assert (report.p, report.p_distinct) == want


def relay_caterpillar(n, relays):
    """Caterpillar over the leaves of an n-leaf `random_truth_tree` whose
    spine carries ``relays`` single-child routers between branchings, so
    with relays >= 1 no LCA depth equals a leaf depth and the tree has
    2n - 1 distinct shared lengths."""
    tree = RoutingTree("src")
    spine = "src"
    for i in range(n - 1):
        tree.add_leaf(f"h{i:02d}", spine)
        for _ in range(relays + 1):
            spine = tree.add_router(spine, 0.0)
    tree.add_leaf(f"h{n - 1:02d}", spine)
    return tree


@pytest.mark.parametrize("n", [128, 129, 130])
def test_deep_caterpillar_ranks_need_uint16(n):
    deep = relay_caterpillar(n, relays=2)
    leaves = sorted(deep.leaves)
    _, ranks = shared_rank_matrix(deep, leaves)
    assert int(ranks.max()) + 1 == 2 * n - 1
    assert ranks.dtype == (np.uint8 if 2 * n - 1 <= 256 else np.uint16)
    rng = np.random.default_rng(n)
    subset = sorted(rng.choice(leaves, size=n // 2, replace=False).tolist())
    for other in (relay_caterpillar(n, relays=0), random_truth_tree(rng, n)[0]):
        for recovered, truth in ((deep, other), (other, deep)):
            for X in (leaves, subset):
                want = reference_score(recovered, truth, X)
                for block_cells in (accuracy._BLOCK_CELLS, 1):
                    with mock.patch.object(accuracy, "_BLOCK_CELLS", block_cells):
                        report = score_trees(recovered, truth, X)
                        assert (report.p, report.p_distinct) == want


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 14), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.5, 1.0]))
def test_score_equals_score_against_skeletons(n, seed_a, seed_b, relay_prob):
    # every lowest common ancestor of two leaves branches, so splicing the
    # single-child relays keeps the order of each row of shared lengths
    recovered, _ = random_truth_tree(np.random.default_rng(seed_a), n, relay_prob=relay_prob)
    truth, _ = random_truth_tree(np.random.default_rng(seed_b), n, relay_prob=relay_prob)
    want = score_trees(recovered, truth)
    for pair in ((branching_skeleton(recovered), truth), (recovered, branching_skeleton(truth))):
        got = score_trees(*pair)
        assert (got.p, got.p_distinct) == (want.p, want.p_distinct)
