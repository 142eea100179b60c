import itertools
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covtomo import dynamic
from covtomo.dynamic import attach_peer
from covtomo.errors import InputError
from covtomo.model import RoutingTree, trees_topologically_equal
from covtomo.ordering import dfs_order
from covtomo.recover import Case, RecoveryConfig, classify_case, recover_tree

from treegen import (
    build_tree,
    covariance_matrix_from_tree,
    leaves_under,
    random_truth_tree,
    restrict,
    shared_covariance,
    without_leaf,
)


def oracle_for(truth):
    return lambda a, b: shared_covariance(truth, a, b)


def representatives(tree, m):
    """The join walk's representative leaf of each child of ``m``."""
    return {c: tree.min_leaf_under(c) for c in tree.children(m)}


def test_representative_is_leaf_child_itself():
    tree = build_tree("src", (1.0, ["a", (2.0, ["b", "c"])]))
    router = tree.parent("a")
    reps = representatives(tree, router)
    assert reps["a"] == "a"


def test_representative_lexicographic_smallest():
    tree = build_tree("src", (1.0, [(2.0, ["h7", "h3"]), "h9"]))
    router = tree.lca("h7", "h3")
    outer = tree.parent(router)
    reps = representatives(tree, outer)
    assert reps[router] == "h3"


def test_representatives_three_children_distinct():
    tree = build_tree(
        "src",
        (1.0, [(2.0, ["h1", "h2"]), (3.0, ["h3", (4.0, ["h4", "h5"])]), "h6"]),
    )
    base = tree.children("src")[0]
    reps = representatives(tree, base)
    assert len(reps) == 3
    assert len(set(reps.values())) == 3
    for child, rep in reps.items():
        assert rep in leaves_under(tree, child)


def test_attach_peer_best_rep_maximizes():
    tree = build_tree("src", (1.0, [(3.0, ["a", "b"]), (2.0, ["c", "d"])]))
    existing = oracle_for(tree.copy())
    # k shares 4.0 with a and with c, the representatives of both subtrees
    shared = {"a": 4.0, "b": 3.0, "c": 4.0, "d": 2.0}

    def oracle(x, y):
        return shared[y] if x == "k" else existing(x, y)

    attach_peer(tree, oracle, "k", RecoveryConfig(0.5))
    tree.validate()
    # the tie across subtrees breaks to the smallest id, a: the walk descends
    # into a's subtree and pins a fresh branch point above a
    assert set(tree.children(tree.parent("k"))) == {"a", "k"}
    assert tree.router_cov[tree.parent("k")] == 4.0


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


@pytest.mark.parametrize(
    "peer, message",
    [
        ("r99", "host 'r99' is in the router-id namespace"),
        # r1 is the tree's router, and still refused by its name
        ("r1", "host 'r1' is in the router-id namespace"),
        ("src", "host 'src' already exists"),
        ("q1", "peer 'q1' is already in the tree"),
    ],
    ids=["router-id", "tree-router", "root", "other-node"],
)
def test_attach_refuses_peer_names_before_the_walk(peer, message):
    tree = RoutingTree("src")
    tree.add_router("src", 1.0, router_id="r1")
    tree.add_router("r1", 2.0, router_id="q1")
    for leaf, parent in (("a", "r1"), ("b", "q1"), ("c", "q1")):
        tree.add_leaf(leaf, parent)
    shape = tree.to_dict()

    def oracle(a, b):
        raise AssertionError("the walk must not start")

    with pytest.raises(InputError, match=f"^{message}$"):
        attach_peer(tree, oracle, peer, RecoveryConfig(0.5))
    assert tree.to_dict() == shape


def test_attach_into_empty_and_single_leaf_trees():
    from covtomo.model import RoutingTree

    truth = build_tree("src", (2.0, ["a", "k"]))
    empty = RoutingTree("src")
    attach_peer(empty, oracle_for(truth), "a", RecoveryConfig(0.5))
    assert empty.parent("a") == "src"
    attach_peer(empty, oracle_for(truth), "k", RecoveryConfig(0.5))
    empty.validate()
    assert trees_topologically_equal(empty, truth)


def test_remove_then_reattach_round_trip():
    # the recovered tree without one leaf takes that leaf back where it was
    rng = np.random.default_rng(17)
    for _ in range(40):
        truth, v_min = random_truth_tree(rng, int(rng.integers(3, 9)))
        cov = covariance_matrix_from_tree(truth)
        rho = 0.5 * v_min
        reference = recover_tree("src", dfs_order(cov), cov, RecoveryConfig(rho))
        victim = sorted(truth.leaves)[int(rng.integers(len(truth.leaves)))]
        tree = without_leaf(reference, victim)
        attach_peer(tree, oracle_for(truth), victim, RecoveryConfig(rho))
        tree.validate()
        assert trees_topologically_equal(tree, reference)


def join_steps(tree, oracle, k, config):
    """attach_peer, returning the case of each step of its walk."""
    steps = []

    def classify(*args):
        steps.append(classify_case(*args))
        return steps[-1]

    with mock.patch.object(dynamic, "classify_case", classify):
        attach_peer(tree, oracle, k, config)
    return steps


def test_attach_then_remove_round_trip():
    # join then leave is the identity on the skeleton, whatever the oracle
    # says: every placement adds the peer to an existing node or below one
    # fresh router, which the peer's departure would splice out again
    reached = set()

    @settings(max_examples=300)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 12), st.data())
    def join_then_leave(seed, n, data):
        rng = np.random.default_rng(seed)
        truth, v_min = random_truth_tree(rng, n)
        leaves = sorted(truth.leaves)
        k = data.draw(st.sampled_from(leaves))
        scale = data.draw(st.sampled_from([0.0, 0.3 * v_min, 2.0]))
        noise = {frozenset(pair): float(rng.normal(0.0, scale)) for pair in itertools.combinations(leaves, 2)}
        oracle = lambda a, b: shared_covariance(truth, a, b) + noise[frozenset((a, b))]
        tree = without_leaf(truth, k)
        before = tree.copy()
        rho = data.draw(st.floats(0.2, 0.9)) * v_min
        steps = join_steps(tree, oracle, k, RecoveryConfig(rho))
        tree.validate()
        assert all(case is Case.DEEPER for case in steps[:-1])
        if len(steps) >= 2:
            reached.add("deeper descent")
        if steps[-1] is Case.SHALLOWER and tree.parent(k) not in before:
            reached.add("shallower, hidden router")
        elif steps[-1] is Case.DEEPER:
            assert tree.parent(k) not in before
            reached.add("deeper at a leaf")
        else:
            reached.add(steps[-1].value)
        # the join adds the peer and at most one router
        assert len(set(tree.nodes()) - set(before.nodes()) - {k}) <= 1
        left = without_leaf(tree, k)
        assert trees_topologically_equal(left, before)
        # and no router the join made is left behind
        assert set(left.nodes()) <= set(before.nodes())

    join_then_leave()
    assert reached >= {"same_set", "deeper at a leaf", "deeper descent", "shallower, hidden router"}


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
            sub = restrict(cov, rest)
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
        leaves = leaves_under(tree, node)
        if leaves:
            expected[node] = min(leaves)
            assert tree.min_leaf_under(node) == expected[node]
        else:
            with pytest.raises(InputError):
                tree.min_leaf_under(node)
    # no entry outlives its node
    assert tree._min_leaf == expected


# (operation, which node it picks, the new leaf's number)
OPS = st.tuples(
    st.sampled_from(["leaf", "leaf", "router", "insert", "splice", "attach", "attach", "copy"]),
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
        relays = sorted(n for n in tree.nodes() if tree.is_router(n) and len(tree.children(n)) == 1)
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
        elif kind == "splice" and relays:
            tree.splice_router(relays[pick % len(relays)])
        elif kind == "attach" and leaf not in tree:
            attach_peer(tree, oracle, leaf, RecoveryConfig(0.5 + pick % 3))
        elif kind == "copy":
            snapshots.append((tree.copy(), tree.to_dict()))
        tree.validate()
        check_min_leaf(tree)
        for dup, shape in snapshots:
            assert dup.to_dict() == shape
            check_min_leaf(dup)
    with pytest.raises(InputError):
        tree.min_leaf_under("nowhere")
