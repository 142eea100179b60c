"""Arranges receivers into an estimated depth-first leaf order of the unknown
routing tree using only their pairwise delay covariances.

The procedure is max-covariance bisection: the pair with minimal
covariance marks the topmost split relevant to the current leaf set; every
other leaf goes to the side whose pivot it shares more covariance with, and
the two sides are ordered in turn, the pivot p's side first. On noiseless
tree covariances with strictly positive link variances this yields a valid
DFS leaf order; under noise the order degrades gracefully. All ties break
lexicographically on node ids, so runs are reproducible.

The bisection runs on an explicit stack of index arrays, so its depth (up
to one level per receiver, on a caterpillar tree) is not bounded by
Python's recursion limit. Each level copies its leaves' submatrix once and
assigns every leaf's side in one comparison.
"""

from __future__ import annotations

import numpy as np

from .model import CovarianceMatrix, NodeId


def dfs_order(cov: CovarianceMatrix) -> list[NodeId]:
    """Permutation of the matrix's receivers consistent with a depth-first
    traversal of the underlying tree (exact on noiseless covariances)."""
    ids = sorted(cov.receivers)
    # every index array below lists its leaves in id order
    stack = [np.array([cov.index(r) for r in ids], dtype=np.intp)]
    order: list[int] = []
    while stack:
        idx = stack.pop()
        if len(idx) <= 2:
            order.extend(idx.tolist())
            continue
        sub = cov.values[idx[:, None], idx].astype(float, copy=False)
        sub.flat[:: len(idx) + 1] = np.inf
        # row-major argmin breaks value ties toward the lexicographically
        # smallest pivot pair
        pi, qi = sorted(divmod(int(sub.argmin()), len(idx)))
        # ties go with the smaller-id pivot (p); a NaN sends a leaf to q
        to_p = sub[:, pi] >= sub[:, qi]
        to_p[pi], to_p[qi] = True, False
        stack += [idx[~to_p], idx[to_p]]
    return [cov.receivers[i] for i in order]
