import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from covtomo.model import CovarianceMatrix
from covtomo.ordering import dfs_order

from treegen import build_tree, covariance_matrix_from_tree, leaves_under, random_truth_tree, restrict


def is_valid_dfs_order(order, cov: CovarianceMatrix) -> bool:
    """The defining consecutive-minimum property of DFS leaf orders: for
    every i < j < k in the order, cov(x_i, x_k) must not exceed
    min(cov(x_i, x_j), cov(x_j, x_k))."""
    order = list(order)
    assert sorted(order) == sorted(cov.receivers)
    idx = [cov.index(r) for r in order]
    v = cov.values
    n = len(order)
    for i in range(n):
        for j in range(i + 1, n):
            vij = v[idx[i], idx[j]]
            for k in range(j + 1, n):
                vik = v[idx[i], idx[k]]
                if vik > min(vij, v[idx[j], idx[k]]):
                    return False
    return True


def caterpillar_cov():
    tree = build_tree("root", (1.0, [(4.0, ["a", "b"]), "c"]))
    return covariance_matrix_from_tree(tree)


def test_single_receiver():
    cov = CovarianceMatrix(("only",), np.zeros((1, 1)))
    assert dfs_order(cov) == ["only"]


def test_two_receivers_any_order_valid():
    cov = CovarianceMatrix(("a", "b"), np.array([[2.0, 1.0], [1.0, 2.0]]))
    order = dfs_order(cov)
    assert sorted(order) == ["a", "b"]
    assert is_valid_dfs_order(order, cov)
    assert is_valid_dfs_order(list(reversed(order)), cov)


def test_caterpillar_keeps_deep_pair_adjacent():
    cov = caterpillar_cov()
    # enumeration oracle: with cov(a,b) > cov(a,c) == cov(b,c), the valid DFS
    # orders are exactly the four that keep a and b adjacent
    from itertools import permutations

    valid = {p for p in permutations("abc") if abs(p.index("a") - p.index("b")) == 1}
    assert valid == {("a", "b", "c"), ("b", "a", "c"), ("c", "a", "b"), ("c", "b", "a")}
    order = dfs_order(cov)
    assert tuple(order) in valid


def test_is_valid_examples():
    cov = caterpillar_cov()
    assert is_valid_dfs_order(["a", "b", "c"], cov)
    assert not is_valid_dfs_order(["a", "c", "b"], cov)


def test_noiseless_orders_valid_on_random_trees():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        tree, _ = random_truth_tree(rng, int(rng.integers(2, 11)))
        cov = covariance_matrix_from_tree(tree)
        order = dfs_order(cov)
        assert sorted(order) == sorted(tree.leaves)
        assert is_valid_dfs_order(order, cov)
        assert is_valid_dfs_order(list(reversed(order)), cov)


def test_order_matches_some_true_dfs_traversal():
    # stronger than the covariance property: each subtree's leaves must be
    # contiguous in the output
    rng = np.random.default_rng(77)
    for _ in range(50):
        tree, _ = random_truth_tree(rng, int(rng.integers(3, 10)))
        order = dfs_order(covariance_matrix_from_tree(tree))
        position = {leaf: i for i, leaf in enumerate(order)}
        for node in tree.nodes():
            if tree.is_leaf(node):
                continue
            spots = sorted(position[l] for l in leaves_under(tree, node))
            assert spots == list(range(spots[0], spots[0] + len(spots)))


def test_deterministic_and_independent_of_matrix_row_order():
    rng = np.random.default_rng(5)
    tree, _ = random_truth_tree(rng, 8)
    cov = covariance_matrix_from_tree(tree)
    shuffled_ids = list(cov.receivers)
    rng.shuffle(shuffled_ids)
    shuffled = restrict(cov, shuffled_ids)
    assert dfs_order(cov) == dfs_order(cov) == dfs_order(shuffled)


def reference_bisect(cov: CovarianceMatrix, ids) -> list:
    """Recursive restatement of `dfs_order` over the sorted ids: the pivot
    pair is the row-major argmin off the diagonal, then each other leaf in
    turn joins p unless its covariance with q is larger (a NaN comparison
    sends it to q), and p's side is ordered first."""
    if len(ids) <= 2:
        return list(ids)
    idx = np.array([cov.index(r) for r in ids])
    sub = cov.values[np.ix_(idx, idx)]
    masked = sub.astype(float, copy=True)
    np.fill_diagonal(masked, np.inf)
    pi, qi = divmod(int(np.argmin(masked)), len(ids))
    if pi > qi:
        pi, qi = qi, pi
    side_p, side_q = [ids[pi]], [ids[qi]]
    for t, x in enumerate(ids):
        if t in (pi, qi):
            continue
        if sub[t, pi] >= sub[t, qi]:
            side_p.append(x)
        else:
            side_q.append(x)
    return reference_bisect(cov, sorted(side_p)) + reference_bisect(cov, sorted(side_q))


@st.composite
def tied_matrices(draw):
    """Symmetric matrices over shuffled receiver ids whose entries come
    from a few values, so that pivot pairs and sides tie often; NaN
    entries come up too."""
    n = draw(st.integers(1, 14))
    ids = draw(st.lists(st.text("abcxyz", min_size=1, max_size=3), min_size=n, max_size=n, unique=True))
    pool = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, -1.0, float("nan")]), min_size=1, max_size=4))
    values = np.array(draw(st.lists(st.sampled_from(pool), min_size=n * n, max_size=n * n))).reshape(n, n)
    values = np.triu(values) + np.triu(values, 1).T
    return CovarianceMatrix(tuple(ids), values)


@settings(max_examples=400)
@given(tied_matrices())
def test_dfs_order_equals_recursive_reference(cov):
    assert dfs_order(cov) == reference_bisect(cov, sorted(cov.receivers))


def test_dfs_order_equals_recursive_reference_on_noisy_trees():
    rng = np.random.default_rng(9)
    for _ in range(30):
        tree, _ = random_truth_tree(rng, int(rng.integers(3, 40)))
        cov = covariance_matrix_from_tree(tree)
        noise = np.round(rng.normal(0, 0.3, cov.values.shape), 1)
        # a matrix must be symmetric: each entry above the diagonal is mirrored below it
        noisy = CovarianceMatrix(cov.receivers, cov.values + np.triu(noise) + np.triu(noise, 1).T)
        for m in (cov, noisy):
            assert dfs_order(m) == reference_bisect(m, sorted(m.receivers))


def test_deep_caterpillar_orders_without_recursion():
    # leaf i leaves the spine below i + 1 shared links: 1,100 bisection
    # levels, past Python's default recursion limit
    n = 1100
    i = np.arange(n)
    values = np.minimum.outer(i, i) + 1.0
    values[i, i] = i + 2.0
    ids = [f"r{k:04d}" for k in range(n)]
    cov = CovarianceMatrix(tuple(reversed(ids)), values[::-1, ::-1].copy())
    assert dfs_order(cov) == ids
