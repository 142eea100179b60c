"""Incremental tomography: attach a joining peer to an existing tree without
re-running static recovery.

The join walk starts at the root. At the current base router the peer's
covariance with the closest representative leaf is compared against the
covariance any two child representatives share (which measures the path
down to the base router itself):

* within rho        -> the peer is a child of the base router;
* at least rho more -> the peer belongs in the best child's branch: descend,
                       or pin a fresh branch point when that child is a leaf;
* at least rho less -> the peer split off above the base router.

The last two leaf placements are the static walk's own step,
`recover.place_leaf`, anchored at the best child's representative leaf.
"""

from __future__ import annotations

from .errors import InputError
from .model import NodeId, RoutingTree, check_new_hosts
from .recover import Case, RecoveryConfig, classify_case, place_leaf


def attach_peer(tree: RoutingTree, cov_oracle, k: NodeId, config: RecoveryConfig) -> RoutingTree:
    """Attach the joining peer ``k`` to the tree in place and return it.

    ``cov_oracle`` must supply the pairwise covariance (ms^2) for any leaf
    pair involving ``k`` and existing leaves (from a measurement log covering
    k, or an analytic oracle in tests). Raises InputError, before the walk,
    when ``k`` cannot join: a host already has the name, it lies in the
    router-id namespace (`model.check_new_hosts`), or another node has it.
    """
    check_new_hosts([k], tree.leaves | {tree.root})
    if k in tree:
        raise InputError(f"peer {k!r} is already in the tree")
    rho = config.rho
    m = tree.root
    while True:
        kids = tree.children(m)
        if not kids:
            # bare base (empty tree): nothing to compare against
            tree.add_leaf(k, m)
            return tree
        # one representative leaf per child: the smallest leaf under it
        reps = {c: tree.min_leaf_under(c) for c in kids}
        # reference covariance: what any two representatives share, i.e. the
        # path down to m; with a single child the recorded label of m already
        # stores that quantity
        if len(reps) >= 2:
            c1, c2 = sorted(reps)[:2]
            ref_cov = cov_oracle(reps[c1], reps[c2])
        else:
            ref_cov = tree.router_cov.get(m, 0.0)
        # the child whose representative shares the most with k; ties go to
        # the smallest representative id
        best_cov = best_child = best_rep = None
        for c, d in reps.items():
            v = cov_oracle(k, d)
            if best_cov is None or v > best_cov or (v == best_cov and d < best_rep):
                best_cov, best_child, best_rep = v, c, d
        case = classify_case(best_cov, ref_cov, rho)
        if case is Case.SAME_SET:
            tree.add_leaf(k, m)
            return tree
        if case is Case.DEEPER and not tree.is_leaf(best_child):
            m = best_child
            continue
        # SHALLOWER: the peer split off above m; DEEPER at a leaf child: the
        # peer's deeper share with that leaf pins a fresh branch point
        place_leaf(tree, best_rep, k, case, best_cov, rho)
        return tree
