"""Incremental tomography: attach a joining peer to an existing tree without
re-running static recovery, and remove leaving peers.

The join walk starts at the root. At the current base router the peer's
covariance with the closest representative leaf is compared against the
covariance any two child representatives share (which measures the path
down to the base router itself):

* within rho        -> the peer is a child of the base router;
* at least rho more -> the peer belongs in the best child's branch: descend,
                       or pin a fresh branch point when that child is a leaf;
* at least rho less -> the peer split off above: reuse the static
                       attachment-point walk from the representative leaf.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .model import NodeId, RoutingTree
from .recover import Case, RecoveryConfig, attach_shallower, classify_case


def select_representatives(tree: RoutingTree, m: NodeId) -> dict[NodeId, NodeId]:
    """One destination leaf per child of ``m``: the child itself when it is a
    leaf, otherwise its lexicographically smallest descendant leaf."""
    if tree.is_leaf(m):
        raise InputError(f"{m!r} is a leaf, not an internal node")
    kids = tree.children(m)
    if not kids:
        raise InputError(f"{m!r} has no children")
    return {c: tree.min_leaf_under(c) for c in kids}


@dataclass(frozen=True)
class JoinContext:
    """Snapshot of one step of the join walk at base router ``base_router``."""

    base_router: NodeId
    children: tuple[NodeId, ...]
    representatives: dict[NodeId, NodeId]
    joining: NodeId
    best_child: NodeId
    best_rep: NodeId
    best_cov: float
    ref_cov: float

    @classmethod
    def build(cls, tree: RoutingTree, m: NodeId, k: NodeId, cov_oracle) -> "JoinContext":
        reps = select_representatives(tree, m)
        kids = tree.children(m)
        # reference covariance: what any two representatives share, i.e. the
        # path down to m; with a single child the recorded label of m already
        # stores that quantity
        if len(kids) >= 2:
            c1, c2 = sorted(kids)[:2]
            ref = cov_oracle(reps[c1], reps[c2])
        else:
            ref = tree.router_cov.get(m, 0.0)
        best_child = None
        best_rep = None
        best = None
        for c in kids:
            d = reps[c]
            v = cov_oracle(k, d)
            if best is None or v > best or (v == best and d < best_rep):
                best, best_child, best_rep = v, c, d
        return cls(
            base_router=m,
            children=tuple(kids),
            representatives=reps,
            joining=k,
            best_child=best_child,
            best_rep=best_rep,
            best_cov=best,
            ref_cov=ref,
        )


def attach_peer(tree: RoutingTree, cov_oracle, k: NodeId, config: RecoveryConfig) -> RoutingTree:
    """Attach the joining peer ``k`` to the tree in place and return it.

    ``cov_oracle`` must supply the pairwise covariance (ms^2) for any leaf
    pair involving ``k`` and existing leaves (from a measurement log covering
    k, or an analytic oracle in tests).
    """
    if k in tree:
        raise InputError(f"peer {k!r} is already in the tree")
    rho = config.rho
    m = tree.root
    while True:
        if not tree.children(m):
            # bare base (empty tree): nothing to compare against
            tree.add_leaf(k, m)
            return tree
        ctx = JoinContext.build(tree, m, k, cov_oracle)
        case = classify_case(ctx.best_cov, ctx.ref_cov, rho)
        if case is Case.SAME_SET:
            tree.add_leaf(k, m)
            return tree
        if case is Case.DEEPER:
            if tree.is_leaf(ctx.best_child):
                # no router to descend into: the peer's deeper share with
                # this single leaf pins the branch point
                label = max(ctx.best_cov, tree.router_cov.get(m, 0.0))
                router = tree.insert_router_above(ctx.best_child, label)
                tree.add_leaf(k, router)
                return tree
            m = ctx.best_child
            continue
        # SHALLOWER: the peer split off above m
        attach_shallower(tree, ctx.best_rep, k, ctx.best_cov, rho)
        return tree


def remove_peer(tree: RoutingTree, k: NodeId) -> RoutingTree:
    """Remove a leaving peer and splice out any router left with fewer than
    two children, keeping the branching skeleton intact."""
    if k not in tree or not tree.is_leaf(k):
        raise InputError(f"{k!r} is not a leaf of the tree")
    node = tree.parent(k)
    tree.remove_leaf(k)
    while node is not None and tree.is_router(node) and len(tree.children(node)) < 2:
        parent = tree.parent(node)
        tree.splice_router(node)
        node = parent
    return tree
