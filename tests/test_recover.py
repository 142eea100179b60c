import numpy as np
import pytest

from covtomo.errors import ConfigError, InputError
from covtomo.model import (
    CovarianceMatrix,
    RoutingTree,
    trees_topologically_equal,
)
from covtomo.ordering import dfs_order
from covtomo.recover import (
    Case,
    RecoveryConfig,
    classify_case,
    find_attachment_router,
    recover_tree,
)

from treegen import build_tree, covariance_matrix_from_tree, random_truth_tree


def test_classify_case_rules():
    assert classify_case(5.0, 5.1, 0.5) is Case.SAME_SET
    assert classify_case(6.0, 5.0, 0.5) is Case.DEEPER
    assert classify_case(4.0, 5.0, 0.5) is Case.SHALLOWER


def test_classify_case_boundaries_prefer_splits():
    # exactly rho apart resolves away from SAME_SET, matching the printed >=
    assert classify_case(5.5, 5.0, 0.5) is Case.DEEPER
    assert classify_case(4.5, 5.0, 0.5) is Case.SHALLOWER
    with pytest.raises(InputError):
        classify_case(1.0, 1.0, 0.0)


def label_chain():
    # leaf-upward labels [9, 5, 2]
    return build_tree("root", (2.0, [(5.0, [(9.0, ["x", "y"])])]))


def labeled(tree, value):
    return next(n for n, cov in tree.router_cov.items() if cov == value)


def test_find_attachment_exact():
    tree = label_chain()
    router, exact = find_attachment_router(tree, "x", 5.0, 0.5)
    assert router == labeled(tree, 5.0)
    assert exact


def test_find_attachment_hidden():
    tree = label_chain()
    router, exact = find_attachment_router(tree, "x", 4.0, 0.5)
    assert router == labeled(tree, 5.0)
    assert not exact


def test_find_attachment_zero_target_reaches_root():
    tree = label_chain()
    router, exact = find_attachment_router(tree, "x", 0.0, 0.5)
    assert router == "root"
    assert exact


def test_find_attachment_requires_leaf():
    tree = label_chain()
    with pytest.raises(InputError):
        find_attachment_router(tree, labeled(tree, 5.0), 1.0, 0.5)


@pytest.mark.parametrize(
    "rho", [0.0, -1, float("inf"), float("nan"), True, "0.5", None, pytest.param(10**400, id="401-digits")]
)
def test_recovery_config_requires_a_positive_finite_rho(rho):
    with pytest.raises(ConfigError, match=r"^rho must be a positive finite number, got "):
        RecoveryConfig(rho)


@pytest.mark.parametrize("rho", [1, 0.35, np.float64(0.35), np.float32(0.35)])
def test_recovery_config_accepts_real_rho(rho):
    assert RecoveryConfig(rho).rho == rho


def test_recover_single_leaf():
    cov = CovarianceMatrix(("a",), np.zeros((1, 1)))
    tree = recover_tree("src", ["a"], cov, RecoveryConfig(0.5))
    tree.validate()
    assert tree.parent("a") == "src"
    assert tree.leaves == {"a"}


@pytest.mark.parametrize("sigma", [4.0, 0.2, -1.5], ids=["above-rho", "below-rho", "negative"])
def test_recover_two_leaves_bootstrap(sigma):
    # the second leaf goes DEEPER: one fresh router under the source holds
    # both, labeled with the pair covariance clamped to the source's 0.0
    cov = CovarianceMatrix(("a", "b"), np.array([[5.0, sigma], [sigma, 5.0]]))
    tree = recover_tree("src", ["a", "b"], cov, RecoveryConfig(0.5))
    tree.validate()
    router = tree.parent("a")
    assert tree.children("src") == (router,) and tree.children(router) == ("a", "b")
    assert tree.router_cov[router] == max(sigma, 0.0)


def test_recover_four_leaves_hand_walk():
    # truth: src -> T(1) -> {A(3) -> {a, b}, B(2) -> {c, d}}
    truth = build_tree("src", (1.0, [(3.0, ["a", "b"]), (2.0, ["c", "d"])]))
    cov = covariance_matrix_from_tree(truth)
    tree = recover_tree("src", ["a", "b", "c", "d"], cov, RecoveryConfig(0.5))
    tree.validate()
    # hand walk: b goes deeper, router(3){a,b}; c triggers the hidden-router case
    # (target 1 below label 3), d a new deeper router(2) beside c
    assert trees_topologically_equal(tree, truth)
    assert tree.router_cov[tree.lca("a", "b")] == 3.0
    assert tree.router_cov[tree.lca("c", "d")] == 2.0
    assert tree.router_cov[tree.lca("a", "c")] == 1.0


def test_recover_sibling_fanout_uses_same_router():
    truth = build_tree("src", (2.0, ["a", "b", "c"]))
    cov = covariance_matrix_from_tree(truth)
    tree = recover_tree("src", ["a", "b", "c"], cov, RecoveryConfig(0.5))
    parents = {tree.parent(x) for x in "abc"}
    assert len(parents) == 1


def test_recover_unknown_leaf_errors():
    cov = CovarianceMatrix(("a", "b"), np.array([[1.0, 0.5], [0.5, 1.0]]))
    with pytest.raises(InputError):
        recover_tree("src", ["a", "zz"], cov, RecoveryConfig(0.1))
    with pytest.raises(InputError):
        recover_tree("src", [], cov, RecoveryConfig(0.1))


@pytest.mark.parametrize(
    "source, leaves, message",
    [
        ("a", ["a", "b"], "host 'a' already exists"),
        ("src", ["a", "r0", "b"], "host 'r0' is in the router-id namespace"),
        ("src", ["a", "b", "a"], "host 'a' appears more than once"),
    ],
    ids=["source", "router-id", "repeated"],
)
def test_recover_refuses_leaves_the_tree_cannot_hold(source, leaves, message):
    cov = CovarianceMatrix(("a", "b", "r0"), np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]]))
    with pytest.raises(InputError) as info:
        recover_tree(source, leaves, cov, RecoveryConfig(0.1))
    assert str(info.value) == message


def test_exact_recovery_on_random_trees():
    rng = np.random.default_rng(42)
    for _ in range(50):
        tree, v_min = random_truth_tree(rng, int(rng.integers(2, 11)))
        cov = covariance_matrix_from_tree(tree)
        rho = float(rng.uniform(0.1, 0.9)) * v_min
        recovered = recover_tree("src", dfs_order(cov), cov, RecoveryConfig(rho))
        recovered.validate()
        assert trees_topologically_equal(recovered, tree)


def test_labels_come_from_the_matrix():
    rng = np.random.default_rng(43)
    for _ in range(25):
        tree, v_min = random_truth_tree(rng, int(rng.integers(2, 10)))
        cov = covariance_matrix_from_tree(tree)
        rho = 0.5 * v_min
        recovered = recover_tree("src", dfs_order(cov), cov, RecoveryConfig(rho))
        entries = set()
        n = len(cov.receivers)
        for i in range(n):
            for j in range(n):
                entries.add(float(cov.values[i, j]))
        for node in recovered.nodes():
            if recovered.is_router(node):
                label = recovered.router_cov[node]
                assert any(abs(label - e) < rho or label == e for e in entries)


def test_recovery_scale_idempotence():
    rng = np.random.default_rng(44)
    for gamma in (0.5, 2.0, 1024.0, 3.7):
        tree, v_min = random_truth_tree(rng, 8)
        cov = covariance_matrix_from_tree(tree)
        rho = 0.4 * v_min
        base = recover_tree("src", dfs_order(cov), cov, RecoveryConfig(rho))
        scaled_cov = CovarianceMatrix(cov.receivers, cov.values * gamma)
        scaled = recover_tree(
            "src", dfs_order(scaled_cov), scaled_cov, RecoveryConfig(rho * gamma)
        )
        assert trees_topologically_equal(base, scaled)
