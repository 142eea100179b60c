import json

import numpy as np
import pytest

from covtomo.accuracy import _shared_len
from covtomo.errors import InputError, InvariantError
from covtomo.model import (
    CovarianceMatrix,
    RoutingTree,
    branching_skeleton,
    trees_topologically_equal,
)

from treegen import (
    build_tree,
    cluster_family,
    covariance_matrix_from_tree,
    random_truth_tree,
    relabel_routers,
    shared_covariance,
)


def star():
    tree = RoutingTree("root")
    for leaf in ("a", "b", "c"):
        tree.add_leaf(leaf, "root")
    return tree


def caterpillar():
    # root -> {inner -> {a, b}, c}
    return build_tree("root", [(3.0, ["a", "b"]), "c"])


def test_shared_path_length_star_is_zero():
    assert _shared_len(star(), "a", "b") == 0


def test_shared_path_length_single_shared_router():
    tree = build_tree("root", (1.0, ["a", "b"]))
    assert _shared_len(tree, "a", "b") == 1


@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_shared_path_length_sender_chain(h):
    # sender chained to the fan-out router through h links
    tree = RoutingTree("f")
    node = "f"
    for i in range(h):
        node = tree.add_router(node, float(i + 1))
    tree.add_leaf("a", node)
    tree.add_leaf("b", node)

    # traversal oracle: count parent hops from the fan-out router to the root
    hops, cur = 0, tree.lca("a", "b")
    while tree.parent(cur) is not None:
        hops += 1
        cur = tree.parent(cur)
    assert hops == h
    assert _shared_len(tree, "a", "b") == h


def test_shared_path_length_bounds_on_random_trees():
    rng = np.random.default_rng(11)
    for _ in range(20):
        tree, _ = random_truth_tree(rng, int(rng.integers(2, 11)))
        leaves = sorted(tree.leaves)
        for i in leaves:
            for j in leaves:
                if i == j:
                    continue
                length = _shared_len(tree, i, j)
                assert 0 <= length <= tree.depth_links(i) - 1


def test_trees_topologically_equal_identity():
    tree = caterpillar()
    assert trees_topologically_equal(tree, tree.copy())


def test_trees_topologically_equal_ignores_relay_router():
    with_relay = build_tree("root", (1.0, [(2.0, [(3.0, ["a", "b"]), "c"])]))
    without = build_tree("root", (1.0, [(3.0, ["a", "b"]), "c"]))
    assert trees_topologically_equal(with_relay, without)


def test_star_vs_caterpillar_not_equal():
    assert not trees_topologically_equal(star(), caterpillar())
    # exhaustive cross-check on the 3-leaf case via the cluster-family oracle
    assert cluster_family(star()) != cluster_family(caterpillar())


def test_trees_topologically_equal_leaf_set_mismatch():
    other = build_tree("root", (1.0, ["a", "b"]))
    with pytest.raises(InputError):
        trees_topologically_equal(star(), other)


def test_topological_equality_matches_cluster_family_oracle():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        t1, _ = random_truth_tree(rng, n)
        t2, _ = random_truth_tree(rng, n)
        expected = cluster_family(t1) == cluster_family(t2)
        assert trees_topologically_equal(t1, t2) == expected


def test_topological_equality_is_equivalence_relation():
    rng = np.random.default_rng(23)
    for _ in range(15):
        base, _ = random_truth_tree(rng, int(rng.integers(3, 9)))
        relabeled = relabel_routers(base)
        with_relay = base.copy()
        some_router = sorted(n for n in base.nodes() if base.is_router(n))[0]
        parent_cov = with_relay.router_cov.get(with_relay.parent(some_router), 0.0)
        with_relay.insert_router_above(some_router, parent_cov)
        variants = [base, relabeled, with_relay]
        for a in variants:
            assert trees_topologically_equal(a, a)
            for b in variants:
                assert trees_topologically_equal(a, b)
                assert trees_topologically_equal(b, a)


def recursive_canonical_form(tree, node):
    """The recursive form `trees_topologically_equal` compared, as its reference."""
    if tree.is_leaf(node):
        return ("leaf", node)
    return ("node", tuple(sorted(recursive_canonical_form(tree, c) for c in tree.children(node))))


def reference_topologically_equal(t1, t2):
    s1, s2 = branching_skeleton(t1), branching_skeleton(t2)
    return recursive_canonical_form(s1, s1.root) == recursive_canonical_form(s2, s2.root)


def test_topological_equality_equals_recursive_form():
    rng = np.random.default_rng(11)
    seen = set()
    for _ in range(150):
        n = int(rng.integers(2, 7))
        t1, _ = random_truth_tree(rng, n)
        t2, _ = random_truth_tree(rng, n)
        for a, b in ((t1, t2), (t2, t1), (t1, relabel_routers(t2)), (relabel_routers(t1), t1)):
            want = reference_topologically_equal(a, b)
            assert trees_topologically_equal(a, b) == want
            seen.add(want)
    assert seen == {True, False}


def deep_caterpillar(leaves, prefix):
    """One router per level below the root, each holding the next leaf and
    the next router; the last router holds the last two leaves."""
    tree = RoutingTree("s")
    parent = "s"
    for i, leaf in enumerate(leaves[:-1]):
        parent = tree.add_router(parent, float(i + 1), router_id=f"{prefix}{i}")
        tree.add_leaf(leaf, parent)
    tree.add_leaf(leaves[-1], parent)
    return tree


def test_topological_equality_of_any_depth():
    # 5000 branching levels, far past Python's recursion limit
    leaves = [f"l{i}" for i in range(5001)]
    chain = deep_caterpillar(leaves, "r")
    with pytest.raises(RecursionError):
        reference_topologically_equal(chain, chain)
    assert trees_topologically_equal(chain, deep_caterpillar(leaves, "q"))
    with_relay = chain.copy()
    with_relay.insert_router_above("r2500", 2500.0)
    assert trees_topologically_equal(chain, with_relay)
    # the same leaves, the top one and one 4999 levels down swapped
    swapped = deep_caterpillar(leaves[4999:5000] + leaves[1:4999] + leaves[:1] + leaves[5000:], "r")
    assert not trees_topologically_equal(chain, swapped)
    # the two deepest leaves are siblings, so swapping them changes nothing
    assert trees_topologically_equal(chain, deep_caterpillar(leaves[:4999] + leaves[:4998:-1], "r"))


def test_branching_skeleton_drops_relays_only():
    with_relay = build_tree("root", (1.0, [(2.0, [(3.0, ["a", "b"]), "c"])]))
    skel = branching_skeleton(with_relay)
    skel.validate()
    assert all(len(skel.children(n)) >= 2 for n in skel.nodes() if skel.is_router(n))
    assert trees_topologically_equal(skel, with_relay)


def test_splice_router_takes_single_child_routers_only():
    tree = build_tree("root", (1.0, [(2.0, [(3.0, ["a", "b"]), "c"])]))
    relay, bare = tree.children("root")[0], tree.add_router("root", 1.0)
    for router, message in (
        (tree.parent("a"), "has 2 children, not one"),
        (bare, "has 0 children, not one"),
        ("a", "not an internal router"),
    ):
        with pytest.raises(InputError, match=message):
            tree.splice_router(router)
    tree.splice_router(relay)
    assert tree.children("root") == (tree.parent("c"), bare) and relay not in tree
    assert tree.min_leaf_under(tree.parent("c")) == tree.min_leaf_under("root") == "a"


def test_validate_rejects_label_decrease():
    tree = build_tree("root", (5.0, [(2.0, ["a", "b"]), "c"]))
    with pytest.raises(InvariantError):
        tree.validate()


def test_validate_passes_on_random_trees():
    rng = np.random.default_rng(3)
    for _ in range(10):
        tree, _ = random_truth_tree(rng, 8)
        tree.validate()


def test_tree_dict_round_trip():
    rng = np.random.default_rng(5)
    tree, _ = random_truth_tree(rng, 7)
    clone = RoutingTree.from_dict(tree.to_dict())
    clone.validate()
    assert clone.to_dict() == tree.to_dict()
    assert trees_topologically_equal(tree, clone)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["children"][0].update(cov=float("nan")), "has label nan, not finite"),
        (lambda d: d["children"][0].update(cov=float("inf")), "has label inf, not finite"),
        (lambda d: d.update(cov=float("-inf")), "node 'root' has label -inf, not finite"),
        (lambda d: d["children"][0]["children"][0].update(id=7), "node id 7 is not a string"),
        (lambda d: d.update(id=None), "node id None is not a string"),
    ],
    ids=["nan-label", "inf-label", "root-label", "int-leaf-id", "null-root-id"],
)
def test_tree_from_dict_refuses_non_string_ids_and_non_finite_labels(edit, message):
    data = caterpillar().to_dict()
    edit(data)
    with pytest.raises(InputError, match=message):
        RoutingTree.from_dict(data)


@pytest.mark.parametrize("receivers", [[1, 2], ["a", 2], "ab", None])
def test_matrix_from_dict_refuses_receivers_other_than_strings(receivers):
    with pytest.raises(InputError, match="^receivers must be a list of strings$"):
        CovarianceMatrix.from_dict({"receivers": receivers, "values": [[1.0, 0.5], [0.5, 1.0]]})


def test_matrix_constructor_refuses_an_asymmetric_matrix():
    # accepted before, recover_tree read one triangle of it (a router labeled 1.0)
    with pytest.raises(InputError) as exc:
        CovarianceMatrix(("a", "b"), np.array([[5.0, 4.0], [1.0, 5.0]]))
    assert str(exc.value) == "entry ('a', 'b') is 4.0 but ('b', 'a') is 1.0: not symmetric"


@pytest.mark.parametrize("mirror", [float("nan"), 2.0], ids=["nan", "number"])
def test_matrix_constructor_reads_nan_against_its_mirror(mirror):
    values = np.array([[1.0, float("nan")], [mirror, 1.0]])
    if np.isnan(mirror):
        assert CovarianceMatrix(("a", "b"), values).receivers == ("a", "b")
    else:
        with pytest.raises(InputError, match=r"^entry \('a', 'b'\) is nan but \('b', 'a'\) is 2.0: not symmetric$"):
            CovarianceMatrix(("a", "b"), values)


@pytest.mark.parametrize(
    "entry, message",
    [(True, "is True, not a number"), (None, "is nan, not finite"), (float("inf"), "is inf, not finite")],
)
def test_matrix_from_dict_names_a_bad_entry_before_its_asymmetry(entry, message):
    # numpy reads True as 1.0 and None as NaN, neither equal to the mirror's 2.0
    data = {"receivers": ["a", "b"], "values": [[3.0, entry], [2.0, 3.0]]}
    with pytest.raises(InputError) as exc:
        CovarianceMatrix.from_dict(data)
    assert str(exc.value) == f"entry ('a', 'b') {message}"


def recursive_to_dict(tree, node):
    """The recursive form `RoutingTree.to_dict` had, as its reference."""
    cov = None if node in tree.leaves else tree.router_cov.get(node, 0.0)
    return {"id": node, "cov": cov, "children": [recursive_to_dict(tree, c) for c in tree.children(node)]}


def test_tree_dict_equals_recursive_form():
    rng = np.random.default_rng(8)
    for n_leaves in (2, 7, 40):
        tree, _ = random_truth_tree(rng, n_leaves)
        got, want = tree.to_dict(), recursive_to_dict(tree, tree.root)
        assert json.dumps(got) == json.dumps(want) and got == want


def test_tree_dict_of_any_depth():
    # a chain of 5000 routers, far past Python's recursion limit
    tree = RoutingTree("s")
    parent = "s"
    for i in range(5000):
        parent = tree.add_router(parent, float(i + 1))
        tree.add_leaf(f"l{i}", parent)
    entry, depth = tree.to_dict()["children"][0], 0
    while len(entry["children"]) == 2:
        leaf, entry = entry["children"]
        assert leaf == {"id": f"l{depth}", "cov": None, "children": []}
        depth += 1
    assert depth == 4999 and entry["cov"] == 5000.0
    assert entry["children"] == [{"id": "l4999", "cov": None, "children": []}]


def test_shared_covariance_reads_lca_label():
    tree = caterpillar()
    inner_label = tree.router_cov[tree.lca("a", "b")]
    assert shared_covariance(tree, "a", "b") == inner_label
    assert shared_covariance(tree, "a", "c") == 0.0


def test_covariance_matrix_from_tree_symmetric():
    rng = np.random.default_rng(9)
    tree, _ = random_truth_tree(rng, 6)
    cov = covariance_matrix_from_tree(tree)
    cov.validate()
    for i in sorted(tree.leaves):
        for j in sorted(tree.leaves):
            if i != j:
                assert cov.get(i, j) == shared_covariance(tree, i, j)
