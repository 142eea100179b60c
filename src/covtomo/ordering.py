"""Arranges receivers into an estimated depth-first leaf order of the unknown
routing tree using only their pairwise delay covariances.

The procedure is recursive max-covariance bisection: the pair with minimal
covariance marks the topmost split relevant to the current leaf set; every
other leaf goes to the side whose pivot it shares more covariance with, and
the two sides are ordered recursively. On noiseless tree covariances with
strictly positive link variances this yields a valid DFS leaf order; under
noise the order degrades gracefully. All ties break lexicographically on
node ids, so runs are reproducible.
"""

from __future__ import annotations

import numpy as np

from .model import CovarianceMatrix, NodeId


def dfs_order(cov: CovarianceMatrix) -> list[NodeId]:
    """Permutation of the matrix's receivers consistent with a depth-first
    traversal of the underlying tree (exact on noiseless covariances)."""
    ids = sorted(cov.receivers)
    return _bisect(cov, ids)


def _bisect(cov: CovarianceMatrix, ids: list[NodeId]) -> list[NodeId]:
    if len(ids) <= 2:
        return list(ids)
    idx = np.array([cov.index(r) for r in ids])
    sub = cov.values[np.ix_(idx, idx)]
    masked = sub.astype(float, copy=True)
    np.fill_diagonal(masked, np.inf)
    # ids are sorted, so row-major argmin breaks value ties toward the
    # lexicographically smallest pivot pair
    flat = int(np.argmin(masked))
    pi, qi = divmod(flat, len(ids))
    if pi > qi:
        pi, qi = qi, pi
    side_p, side_q = [ids[pi]], [ids[qi]]
    for t, x in enumerate(ids):
        if t in (pi, qi):
            continue
        # ties go with the smaller-id pivot (p)
        if sub[t, pi] >= sub[t, qi]:
            side_p.append(x)
        else:
            side_q.append(x)
    side_p.sort()
    side_q.sort()
    return _bisect(cov, side_p) + _bisect(cov, side_q)
