"""Test helpers: hand-built and random ground-truth routing trees, queries
on trees and matrices that only the tests need, and logs built from dicts.

Random trees model a single-homed source (the root has exactly one egress
link), carry strictly positive link delay variances, and may contain
single-child relay routers, which leaf covariances cannot see. Router
labels hold cumulative shared-path variance, so
`covariance_matrix_from_tree` yields the exact noiseless covariances.
"""

import numpy as np

from covtomo.errors import InputError
from covtomo.model import CovarianceMatrix, MeasurementLog, NodeId, RoutingTree


def path_from_root(tree: RoutingTree, node):
    """The nodes from the root down to ``node``, both included."""
    return [*reversed(tree.ancestors(node)), node]


def leaves_under(tree: RoutingTree, node):
    """All leaf descendants of ``node`` (``node`` itself if a leaf), in DFS
    order."""
    out = []
    stack = [node]
    while stack:
        cur = stack.pop()
        if tree.is_leaf(cur):
            out.append(cur)
        else:
            stack.extend(reversed(tree.children(cur)))
    return out


def restrict(cov: CovarianceMatrix, receivers) -> CovarianceMatrix:
    """The submatrix over ``receivers``, in their order."""
    ids = tuple(receivers)
    idx = [cov.index(r) for r in ids]
    return CovarianceMatrix(ids, cov.values[np.ix_(idx, idx)])


def log_from_dicts(sender_ts, arrivals) -> MeasurementLog:
    """The log of ``sender_ts`` ({k: ts} over k = 0..n-1) and ``arrivals``
    ({receiver: {k: ts}}; a missing k is a lost packet), its columns filled
    as the log reader fills them."""
    ids = sorted(arrivals)
    n = len(sender_ts)
    present = np.zeros((len(ids), n), dtype=bool)
    recv = np.zeros((len(ids), n), dtype=np.int64)
    for i, receiver in enumerate(ids):
        for k, ts in arrivals[receiver].items():
            present[i, k] = True
            recv[i, k] = ts
    return MeasurementLog(ids, np.array([sender_ts[k] for k in range(n)], dtype=np.int64), recv, present)


def _require_leaf(tree: RoutingTree, node: NodeId) -> None:
    if node not in tree:
        raise InputError(f"unknown leaf id {node!r}")
    if not tree.is_leaf(node):
        raise InputError(f"{node!r} is not a leaf")


def shared_covariance(tree: RoutingTree, i: NodeId, j: NodeId) -> float:
    """Covariance implied by the tree's router labels for a leaf pair: the
    label of their lowest common ancestor. Exact when labels hold cumulative
    shared-path delay variance, as in simulator ground truth."""
    _require_leaf(tree, i)
    _require_leaf(tree, j)
    if i == j:
        raise InputError("shared_covariance needs two distinct leaves")
    return tree.router_cov[tree.lca(i, j)]


def covariance_matrix_from_tree(tree: RoutingTree) -> CovarianceMatrix:
    """Analytic covariance matrix over the tree's leaves, sorted.
    Off-diagonal entries come from shared_covariance; the diagonal holds the
    label of each leaf's parent (the leaf's own last-hop variance is
    unidentifiable from pair covariances and never read by the inference)."""
    ids = tuple(sorted(tree.leaves))
    n = len(ids)
    values = np.zeros((n, n), dtype=float)
    for a in range(n):
        parent = tree.parent(ids[a])
        values[a, a] = tree.router_cov.get(parent, 0.0)
        for b in range(a + 1, n):
            cov = shared_covariance(tree, ids[a], ids[b])
            values[a, b] = cov
            values[b, a] = cov
    return CovarianceMatrix(ids, values)


def without_leaf(tree: RoutingTree, leaf):
    """Copy of ``tree`` without ``leaf``, as the peer's departure would
    leave it: walking up from ``leaf``, each router left with fewer than two
    children goes, spliced out when one child remains, up to the first
    node that keeps two. Every other node keeps its id and label."""
    dropped, spliced = {leaf}, set()
    node = tree.parent(leaf)
    while tree.is_router(node):
        rest = [c for c in tree.children(node) if c not in dropped]
        if len(rest) >= 2:
            break
        (spliced if rest else dropped).add(node)
        node = tree.parent(node)
    out = RoutingTree(tree.root)
    stack = [(tree.root, c) for c in reversed(tree.children(tree.root))]
    while stack:
        parent, node = stack.pop()
        if node in dropped:
            continue
        if tree.is_leaf(node):
            out.add_leaf(node, parent)
            continue
        if node not in spliced:
            out.add_router(parent, tree.router_cov[node], router_id=node)
            parent = node
        stack.extend((parent, c) for c in reversed(tree.children(node)))
    return out


def build_tree(root, spec):
    """Build a tree from a nested spec: a leaf is a string, an internal
    router is (cumulative_label, [children...])."""
    tree = RoutingTree(root)

    def grow(parent, node):
        if isinstance(node, str):
            tree.add_leaf(node, parent)
        else:
            label, kids = node
            rid = tree.add_router(parent, label)
            for kid in kids:
                grow(rid, kid)

    if isinstance(spec, list):
        for node in spec:
            grow(root, node)
    else:
        grow(root, spec)
    return tree


def random_truth_tree(rng: np.random.Generator, n_leaves, var_range=(0.5, 3.0), relay_prob=0.25):
    """Random routing tree with n_leaves hosts. Returns (tree, min_link_var)
    where min_link_var is the smallest single-link delay variance, the upper
    bound for a recovery threshold that still resolves every branch."""
    if n_leaves < 2:
        raise ValueError("need at least 2 leaves")
    lo, hi = var_range
    draw = lambda: float(rng.uniform(lo, hi))
    link_vars = []

    tree = RoutingTree("src")
    v0 = draw()
    link_vars.append(v0)
    first = tree.add_router("src", v0)
    tree.add_leaf("h00", first)
    tree.add_leaf("h01", first)
    for i in range(2, n_leaves):
        leaf = f"h{i:02d}"
        if rng.random() < 0.5:
            # deepen: branch below an existing leaf
            target = sorted(tree.leaves)[int(rng.integers(len(tree.leaves)))]
            inc = draw()
            link_vars.append(inc)
            parent_cov = tree.router_cov[tree.parent(target)]
            router = tree.insert_router_above(target, parent_cov + inc)
            tree.add_leaf(leaf, router)
        else:
            # widen: new sibling under an existing router
            routers = sorted(n for n in tree.nodes() if tree.is_router(n))
            tree.add_leaf(leaf, routers[int(rng.integers(len(routers)))])

    # single-child relays: subdivide router-to-router links, invisible to
    # leaf covariances but present in the raw truth
    for node in sorted(n for n in tree.nodes() if tree.is_router(n)):
        if rng.random() >= relay_prob:
            continue
        parent = tree.parent(node)
        lo_cov = tree.router_cov.get(parent, 0.0)
        hi_cov = tree.router_cov[node]
        frac = float(rng.uniform(0.25, 0.75))
        mid = lo_cov + frac * (hi_cov - lo_cov)
        # the undivided increment stays in link_vars; it is the sum of the
        # two parts, so it can never be the minimum
        link_vars.extend([mid - lo_cov, hi_cov - mid])
        tree.insert_router_above(node, mid)

    tree.validate()
    return tree, min(link_vars)


def cluster_family(tree: RoutingTree):
    """Independent topology fingerprint: the set of leaf clusters under each
    branching node. Two trees are topologically equal over the same leaves
    iff these laminar families coincide."""
    family = set()
    for node in tree.nodes():
        if tree.is_leaf(node):
            continue
        if node != tree.root and len(tree.children(node)) < 2:
            continue  # relay: same cluster as its child
        family.add(frozenset(leaves_under(tree, node)))
    return family


def relabel_routers(tree: RoutingTree, prefix="q"):
    """Copy of the tree with every internal router renamed."""
    mapping = {}
    counter = [0]

    def rename(node):
        if tree.is_router(node):
            counter[0] += 1
            mapping[node] = f"{prefix}{counter[0]}"
        else:
            mapping[node] = node
        return mapping[node]

    dup = RoutingTree(tree.root)

    def walk(parent_new, node):
        new = rename(node)
        if tree.is_leaf(node):
            dup.add_leaf(new, parent_new)
        else:
            dup.add_router(parent_new, tree.router_cov[node], router_id=new)
            for c in tree.children(node):
                walk(new, c)

    for c in tree.children(tree.root):
        walk(tree.root, c)
    return dup
