"""Static tomography: builds the routing tree from a DFS-ordered leaf list
and the covariance matrix by thresholded case analysis.

Leaves are processed left to right. For each new leaf the covariance with
its predecessor is compared against the predecessor pair's covariance using
the resolution threshold rho (the minimum covariance increment one extra
shared router can contribute), and `place_leaf` puts the leaf next to its
predecessor as the case says:

* within rho        -> the new leaf shares exactly the predecessor's
                       routers: attach it as a sibling of the predecessor;
* at least rho more -> the shared path is strictly deeper: create a router
                       below the predecessor's parent holding both;
* at least rho less -> the branch point sits higher up: walk the
                       predecessor's ancestors for the farthest router whose
                       label still covers the target, attaching there or
                       inserting a hidden router just above it.

`place_leaf` is the one placement step: the first leaf hangs under the
source, and every later one, the second as DEEPER, goes through it; the
join walk in `dynamic` uses it too, with the representative leaf it ends
at as the anchor. `recover_from_matrix` is the matrix-to-tree step that the
scenario runner and `covtomo recover` share: DFS order, then the walk.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass

from .errors import ConfigError, InputError
from .model import CovarianceMatrix, NodeId, RoutingTree, _finite, check_new_hosts
from .ordering import dfs_order


class Case(enum.Enum):
    SAME_SET = "same_set"
    DEEPER = "deeper"
    SHALLOWER = "shallower"


@dataclass(frozen=True)
class RecoveryConfig:
    """Recovery threshold: rho is the minimum single-router covariance
    increment, in ms^2: a positive real with a finite float value, not a
    bool. Every recovery and join states it; nothing derives it from the
    data."""

    rho: float

    def __post_init__(self):
        rho = self.rho
        if isinstance(rho, bool) or not isinstance(rho, numbers.Real) or not (_finite(rho) and rho > 0):
            raise ConfigError(f"rho must be a positive finite number, got {rho!r}")


def classify_case(sigma_cur: float, sigma_prev: float, rho: float) -> Case:
    """Three-way threshold test. Boundary equalities (exactly rho apart)
    resolve to DEEPER, then SHALLOWER, matching the printed >= conditions."""
    if not rho > 0:
        raise InputError(f"rho must be positive, got {rho}")
    if sigma_cur - sigma_prev >= rho:
        return Case.DEEPER
    if sigma_prev - sigma_cur >= rho:
        return Case.SHALLOWER
    return Case.SAME_SET


def find_attachment_router(
    tree: RoutingTree, from_leaf: NodeId, sigma_target: float, rho: float
) -> tuple[NodeId, bool]:
    """Walk the leaf's ancestors toward the root and return the farthest one
    (closest to the root) whose covariance label still reaches
    ``sigma_target``, plus whether the match is within rho (an exact
    attachment point rather than evidence of a hidden router).

    Falls back to the root when no ancestor qualifies (only reachable when
    the target dips to zero or below under noise)."""
    if not tree.is_leaf(from_leaf):
        raise InputError(f"{from_leaf!r} is not a leaf")
    found = None
    for anc in tree.ancestors(from_leaf):
        if tree.router_cov.get(anc, 0.0) >= sigma_target:
            found = anc
    node = found if found is not None else tree.root
    exact = abs(tree.router_cov.get(node, 0.0) - sigma_target) < rho
    return node, exact


def place_leaf(
    tree: RoutingTree, anchor: NodeId, new_leaf: NodeId, case: Case, sigma: float, rho: float
) -> None:
    """Attach ``new_leaf``, whose covariance with the leaf ``anchor`` is
    ``sigma``, where ``case`` puts it relative to ``anchor``: beside it
    (SAME_SET), below a router inserted just above it (DEEPER), or at the
    attachment router found from it, or below a hidden router inserted just
    above that one (SHALLOWER). New router labels are clamped to the parent's
    label."""
    if case is Case.SAME_SET:
        tree.add_leaf(new_leaf, tree.parent(anchor))
        return
    if case is Case.DEEPER:
        parent_cov = tree.router_cov.get(tree.parent(anchor), 0.0)
        tree.add_leaf(new_leaf, tree.insert_router_above(anchor, max(sigma, parent_cov)))
        return
    r_star, exact = find_attachment_router(tree, anchor, sigma, rho)
    if exact or tree.parent(r_star) is None:
        # direct attachment; the root branch also covers the degenerate
        # negative-target fallback where no insertion point exists above
        tree.add_leaf(new_leaf, r_star)
        return
    if tree.router_cov.get(r_star, 0.0) >= sigma + rho:
        # hidden router between r_star and its parent
        parent_cov = tree.router_cov.get(tree.parent(r_star), 0.0)
        hidden = tree.insert_router_above(r_star, max(sigma, parent_cov))
        tree.add_leaf(new_leaf, hidden)
    else:
        tree.add_leaf(new_leaf, r_star)


def recover_tree(source: NodeId, ordered_leaves, cov: CovarianceMatrix, config: RecoveryConfig) -> RoutingTree:
    """Recover the routing tree rooted at ``source`` over leaves given in an
    estimated DFS order.

    The first leaf hangs under the source. The second has no earlier pair
    to compare with, so it goes DEEPER: a fresh router under the source,
    labeled with their pair covariance clamped to the source's 0.0, holds
    both. Every later leaf dispatches on classify_case. Router labels
    record the covariance that created them, clamped to the parent's label
    so the tree stays monotone even under measurement noise.

    The leaves pass `model.check_new_hosts` against the source, so none is
    repeated, equal to the source, or a router id that the tree's own
    routers could take.
    """
    leaves = list(ordered_leaves)
    if not leaves:
        raise InputError("need at least one leaf")
    check_new_hosts(leaves, {source})
    for leaf in leaves:
        cov.index(leaf)  # raises InputError for unknown ids
    rho = config.rho

    tree = RoutingTree(source)
    tree.add_leaf(leaves[0], source)
    sigma_prev = None
    for prev, leaf in zip(leaves, leaves[1:]):
        sigma_cur = cov.get(leaf, prev)
        case = Case.DEEPER if sigma_prev is None else classify_case(sigma_cur, sigma_prev, rho)
        place_leaf(tree, prev, leaf, case, sigma_cur, rho)
        sigma_prev = sigma_cur
    return tree


def recover_from_matrix(source: NodeId, cov: CovarianceMatrix, config: RecoveryConfig) -> RoutingTree:
    """DFS order of ``cov``, then `recover_tree` from ``source`` at the
    threshold of ``config``. Returns the tree."""
    return recover_tree(source, dfs_order(cov), cov, config)
