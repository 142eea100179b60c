import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covtomo.dynamic import JoinContext, attach_peer, remove_peer, select_representatives
from covtomo.errors import InputError
from covtomo.model import (
    RoutingTree,
    covariance_matrix_from_tree,
    shared_covariance,
    trees_topologically_equal,
)
from covtomo.ordering import dfs_order
from covtomo.recover import RecoveryConfig, recover_tree

from treegen import build_tree, random_truth_tree


def oracle_for(truth):
    return lambda a, b: shared_covariance(truth, a, b)


def test_representative_is_leaf_child_itself():
    tree = build_tree("src", (1.0, ["a", (2.0, ["b", "c"])]))
    router = tree.parent("a")
    reps = select_representatives(tree, router)
    assert reps["a"] == "a"


def test_representative_lexicographic_smallest():
    tree = build_tree("src", (1.0, [(2.0, ["h7", "h3"]), "h9"]))
    router = tree.lca("h7", "h3")
    outer = tree.parent(router)
    reps = select_representatives(tree, outer)
    assert reps[router] == "h3"


def test_representatives_three_children_distinct():
    tree = build_tree(
        "src",
        (1.0, [(2.0, ["h1", "h2"]), (3.0, ["h3", (4.0, ["h4", "h5"])]), "h6"]),
    )
    base = tree.children("src")[0]
    reps = select_representatives(tree, base)
    assert len(reps) == 3
    assert len(set(reps.values())) == 3
    for child, rep in reps.items():
        assert rep in tree.leaves_under(child)


def test_representatives_reject_leaf():
    tree = build_tree("src", (1.0, ["a", "b"]))
    with pytest.raises(InputError):
        select_representatives(tree, "a")


def test_join_context_best_rep_maximizes():
    truth = build_tree("src", (1.0, [(3.0, ["a", "b"]), (2.0, ["c", "d"]), "k"]))
    tree = build_tree("src", (1.0, [(3.0, ["a", "b"]), (2.0, ["c", "d"])]))
    base = tree.children("src")[0]
    ctx = JoinContext.build(tree, base, "k", oracle_for(truth))
    assert ctx.best_rep == "a"  # ties across subtrees break to the smallest id
    assert ctx.best_cov == 1.0
    assert ctx.ref_cov == 1.0


def test_attach_same_set_at_shared_router():
    # truth: k shares exactly the path down to the existing router
    truth = build_tree("src", (2.0, ["a", "b", "k"]))
    tree = build_tree("src", (2.0, ["a", "b"]))
    attach_peer(tree, oracle_for(truth), "k", RecoveryConfig(0.5))
    tree.validate()
    assert trees_topologically_equal(tree, truth)


def test_attach_nothing_shared_lands_at_root_side():
    # k's covariance with everyone is far below the shared router's label:
    # the walk overshoots and case 7 pulls the attachment to the root
    tree = build_tree("src", (2.0, ["a", "b"]))
    oracle = lambda a, b: 0.0 if "k" in (a, b) else 2.0
    attach_peer(tree, oracle, "k", RecoveryConfig(0.5))
    tree.validate()
    assert tree.parent("k") == "src"


def test_attach_deeper_creates_branch_at_leaf():
    # truth: k is a sibling of a under a deeper router
    truth = build_tree("src", (2.0, [(5.0, ["a", "k"]), "b"]))
    tree = build_tree("src", (2.0, ["a", "b"]))
    attach_peer(tree, oracle_for(truth), "k", RecoveryConfig(0.5))
    tree.validate()
    assert trees_topologically_equal(tree, truth)
    assert tree.router_cov[tree.lca("a", "k")] == 5.0
    # agrees with static recovery over the same three leaves
    cov = covariance_matrix_from_tree(truth)
    static = recover_tree("src", dfs_order(cov), cov, RecoveryConfig(0.5))
    assert trees_topologically_equal(tree, static)


def test_attach_hidden_router_above_descend_overshoot():
    # truth: k branches between the trunk and the {a,b} router
    truth = build_tree(
        "src", (1.0, [(1.5, [(3.0, ["a", "b"]), "k"]), (2.0, ["c", "d"])])
    )
    visible = build_tree("src", (1.0, [(3.0, ["a", "b"]), (2.0, ["c", "d"])]))
    attach_peer(visible, oracle_for(truth), "k", RecoveryConfig(0.25))
    visible.validate()
    assert trees_topologically_equal(visible, truth)
    assert visible.router_cov[visible.lca("a", "k")] == 1.5


def test_attach_existing_peer_rejected():
    tree = build_tree("src", (1.0, ["a", "b"]))
    with pytest.raises(InputError):
        attach_peer(tree, lambda a, b: 1.0, "a", RecoveryConfig(0.5))


def test_attach_into_empty_and_single_leaf_trees():
    from covtomo.model import RoutingTree

    truth = build_tree("src", (2.0, ["a", "k"]))
    empty = RoutingTree("src")
    attach_peer(empty, oracle_for(truth), "a", RecoveryConfig(0.5))
    assert empty.parent("a") == "src"
    attach_peer(empty, oracle_for(truth), "k", RecoveryConfig(0.5))
    empty.validate()
    assert trees_topologically_equal(empty, truth)


def test_remove_keeps_router_with_two_children():
    tree = build_tree("src", (1.0, ["a", "b", "c"]))
    router = tree.parent("a")
    remove_peer(tree, "c")
    tree.validate()
    assert tree.children(router) == ("a", "b")


def test_remove_splices_single_child_router():
    tree = build_tree("src", (1.0, [(2.0, ["a", "b"]), "c"]))
    outer = tree.parent("c")
    remove_peer(tree, "b")
    tree.validate()
    assert tree.parent("a") == outer
    assert all(len(tree.children(r)) >= 2 for r in tree.nodes() if tree.is_router(r))


def test_remove_requires_leaf():
    tree = build_tree("src", (1.0, ["a", "b"]))
    with pytest.raises(InputError):
        remove_peer(tree, tree.parent("a"))
    with pytest.raises(InputError):
        remove_peer(tree, "nope")


def test_remove_then_reattach_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(40):
        truth, v_min = random_truth_tree(rng, int(rng.integers(3, 9)))
        cov = covariance_matrix_from_tree(truth)
        rho = 0.5 * v_min
        tree = recover_tree("src", dfs_order(cov), cov, RecoveryConfig(rho))
        victim = sorted(truth.leaves)[int(rng.integers(len(truth.leaves)))]
        reference = tree.copy()
        remove_peer(tree, victim)
        attach_peer(tree, oracle_for(truth), victim, RecoveryConfig(rho))
        tree.validate()
        assert trees_topologically_equal(tree, reference)


def test_attach_then_remove_round_trip():
    truth = build_tree("src", (2.0, [(5.0, ["a", "k"]), "b"]))
    tree = build_tree("src", (2.0, ["a", "b"]))
    reference = tree.copy()
    attach_peer(tree, oracle_for(truth), "k", RecoveryConfig(0.5))
    remove_peer(tree, "k")
    assert trees_topologically_equal(tree, reference)


def test_leave_one_out_matches_static_recovery():
    rng = np.random.default_rng(18)
    for _ in range(40):
        truth, v_min = random_truth_tree(rng, int(rng.integers(2, 9)))
        cov = covariance_matrix_from_tree(truth)
        rho = float(rng.uniform(0.2, 0.8)) * v_min
        config = RecoveryConfig(rho)
        full = recover_tree("src", dfs_order(cov), cov, config)
        for held_out in sorted(truth.leaves):
            rest = [l for l in sorted(truth.leaves) if l != held_out]
            sub = cov.restrict(rest)
            partial = recover_tree("src", dfs_order(sub), sub, config)
            attach_peer(partial, oracle_for(truth), held_out, config)
            partial.validate()
            assert trees_topologically_equal(partial, full)


def test_attach_terminates_by_strict_descent():
    # every DEEPER step moves the base strictly deeper; a long chain exercises it
    truth = build_tree(
        "src",
        (1.0, [(2.0, [(3.0, [(4.0, ["a", "k"]), "b"]), "c"]), "d"]),
    )
    tree = build_tree("src", (1.0, [(2.0, [(3.0, ["a", "b"]), "c"]), "d"]))
    attach_peer(tree, oracle_for(truth), "k", RecoveryConfig(0.4))
    tree.validate()
    assert trees_topologically_equal(tree, truth)


def check_min_leaf(tree):
    expected = {}
    for node in tree.nodes():
        leaves = tree.leaves_under(node)
        if leaves:
            expected[node] = min(leaves)
            assert tree.min_leaf_under(node) == expected[node]
        else:
            with pytest.raises(InputError):
                tree.min_leaf_under(node)
    # no entry outlives its node
    assert tree._min_leaf == expected


# (operation, which node it picks, the new leaf's number); growing is drawn
# more often than removing so that removals hit routers with many children
OPS = st.tuples(
    st.sampled_from(["leaf", "leaf", "router", "insert", "attach", "attach", "remove", "copy"]),
    st.integers(0, 10**6),
    st.integers(0, 999),
)


@settings(max_examples=200)
@given(ops=st.lists(OPS, min_size=8, max_size=40), salt=st.integers(0, 2**16))
def test_min_leaf_tracks_every_mutation(ops, salt):
    # a deterministic pseudo-random covariance per leaf pair: attach_peer
    # keeps labels monotone whatever values it is given
    def oracle(a, b):
        return zlib.crc32(f"{min(a, b)}|{max(a, b)}|{salt}".encode()) % 9 / 2.0

    tree = RoutingTree("src")
    snapshots = []
    for kind, pick, name in ops:
        leaf = f"h{name:03d}"
        inner = sorted(n for n in tree.nodes() if not tree.is_leaf(n))
        below_root = sorted(n for n in tree.nodes() if n != tree.root)
        if kind == "leaf" and leaf not in tree:
            tree.add_leaf(leaf, inner[pick % len(inner)])
        elif kind == "router" and leaf not in tree:
            parent = inner[pick % len(inner)]
            rid = tree.add_router(parent, tree.router_cov[parent] + pick % 5)
            tree.add_leaf(leaf, rid)
        elif kind == "insert" and below_root:
            node = below_root[pick % len(below_root)]
            low = tree.router_cov[tree.parent(node)]
            high = tree.router_cov.get(node, low + 4.0)
            tree.insert_router_above(node, low + (high - low) * (pick % 3) / 2)
        elif kind == "attach" and leaf not in tree:
            attach_peer(tree, oracle, leaf, RecoveryConfig(0.5 + pick % 3))
        elif kind == "remove" and tree.leaves:
            remove_peer(tree, sorted(tree.leaves)[pick % len(tree.leaves)])
        elif kind == "copy":
            snapshots.append((tree.copy(), tree.to_dict()))
        tree.validate()
        check_min_leaf(tree)
        for dup, shape in snapshots:
            assert dup.to_dict() == shape
            check_min_leaf(dup)
    with pytest.raises(InputError):
        tree.min_leaf_under("nowhere")
