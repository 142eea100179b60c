"""Delay-covariance estimation from packet-pair arrival logs.

The reference pipeline per receiver pair: align the pair indices both
receivers observed, normalize each receiver's arrivals into a delay-offset
series (constant path delay and any constant per-receiver clock offset
cancel, so no clock synchronization is needed), then take the unbiased
sample covariance of the two series. Series are integer microseconds;
covariances come out in ms^2. On integer series the estimate is
(n*sum(xy) - sum(x)*sum(y)) / (n*(n-1)*10^6) in exact integer arithmetic,
so it is bit-identical under constant shifts of either series and under
consistent permutation of the sample pairs.

`build_covariance_matrix` and `covariance_oracle_from_log` compute that
same value for every pair from the same kernel inputs. Whole-array
operations on the log's columns (`MeasurementLog.present`, `recv` and
`sender`) give the presence mask M and send-to-arrival offsets X
(receivers x pair indices, zero where lost, each row shifted by a
constant). A pair's sample count, cross sum and two sums over its common
indices are entries of

    N = M M^T,   Sx = X M^T,   Sy = M X^T,   Sxy = X X^T

(X is zero where M is, so Sxy needs no mask), and
cov = (N*Sxy - Sx*Sy) / (N*(N-1)*10^6) elementwise. The row shifts cancel
in the numerator. When no receiver lost a packet, M is all ones: N is the
number of pair indices n, Sx holds each row's sum of X and Sy its
transpose, so a loss-free session costs the one product X X^T. N then
stays the scalar n, a 1 x 1 block that broadcasts against the others, so
no count or denominator matrix is built either. Magnitude
guards keep every step exact (see `_columns` and `_cov_from_sums`), so
each entry equals the reference estimator bit for bit.

`build_covariance_matrix` reads all x all (`_pair_sums`). The pair oracle
of a join walk builds no block: it takes a pair's entries of N, Sx, Sy and
Sxy as 1-D dot products of the pair's two rows of X and M when the pair is
first asked for, exact by the same guards. The walks read a tenth of
what blocks of their peers x all would hold (27,000 of 258,000 pairs over
twelve batches of 50 joins from 105 receivers, seed 9). A dot product of
two rows runs on the calling thread, while a threaded OpenBLAS product
leaves its pool threads spinning for ~130 ms after it returns, on the CPU
that the join sessions' draw runs on (see `scenarios.run_dynamic_scenario`).
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple

import numpy as np

from .errors import InputError, InsufficientDataError, InvariantError
from .model import CovarianceMatrix, DelaySeries, MeasurementLog, NodeId

_US2_PER_MS2 = 10**6
_F64_EXACT = 2**53  # float64 holds every integer of smaller magnitude
_I64_LIMIT = 2**63
_ROW_BLOCK = 64  # receivers per block of `_columns`' offsets


def align_pairs(log: MeasurementLog, receivers) -> tuple[int, ...]:
    """Sorted pair indices at which every requested receiver has an arrival.

    The first surviving index becomes the baseline for normalization.
    Raises InsufficientDataError when fewer than 2 indices survive.
    """
    receivers = set(receivers)
    unknown = receivers - log.receivers
    if unknown:
        raise InputError(f"receivers not in log: {sorted(unknown)}")
    rows = [log.row(r) for r in receivers]
    common = np.flatnonzero(np.logical_and.reduce(log.present[rows], axis=0))
    if len(common) < 2:
        raise InsufficientDataError(
            f"only {len(common)} pair indices shared by {sorted(receivers)}"
        )
    return tuple(common.tolist())


def normalize_series(log: MeasurementLog, receiver: NodeId, aligned) -> DelaySeries:
    """Delay-offset series for one receiver over an aligned index set.

    Entry k is (t_recv(k) - t_recv(k0)) - (t_send(k) - t_send(k0)) with k0
    the first aligned index, the send times read from the log's sender
    column.
    """
    aligned = tuple(aligned)
    if not aligned:
        raise InputError("empty aligned index set")
    present = log.present[log.row(receiver)].tolist() if receiver in log.receivers else []
    missing = next((k for k in aligned if not (0 <= k < len(present) and present[k])), None)
    if missing is not None:
        raise InvariantError(f"receiver {receiver!r} missing arrival at k={missing}")
    idx = np.asarray(aligned, dtype=np.intp)
    recv = log.recv[log.row(receiver), idx].tolist()
    sender = log.sender[idx].tolist()
    values = tuple(int(t - recv[0] - (s - sender[0])) for t, s in zip(recv, sender))
    return DelaySeries(receiver=receiver, indices=aligned, values=values)


def _cov_ms2(n: int, sx: int, sy: int, sxy: int) -> float:
    # n*sum(xy) - sum(x)*sum(y) is shift-invariant in exact integer
    # arithmetic, so constant offsets cancel bit-exactly; int / int is
    # correctly rounded
    return (n * sxy - sx * sy) / (n * (n - 1) * _US2_PER_MS2)


def _exact_int_cov_ms2(xs, ys, n: int) -> float:
    return _cov_ms2(n, sum(xs), sum(ys), sum(x * y for x, y in zip(xs, ys)))


def estimate_covariance(sa: DelaySeries, sb: DelaySeries) -> float:
    """Unbiased sample covariance (divisor n-1) of two aligned series, ms^2.

    Negative estimates are preserved: the recovery cases threshold
    differences of these values and clamping would bias gap tests near zero.
    """
    if sa.indices != sb.indices:
        raise InputError("series cover different pair index sets")
    n = len(sa)
    if n < 2:
        raise InsufficientDataError("need at least 2 aligned samples")
    if all(isinstance(v, numbers.Integral) for v in sa.values) and all(
        isinstance(v, numbers.Integral) for v in sb.values
    ):
        return _exact_int_cov_ms2([int(v) for v in sa.values], [int(v) for v in sb.values], n)
    mean_a = math.fsum(sa.values) / n
    mean_b = math.fsum(sb.values) / n
    acc = math.fsum((x - mean_a) * (y - mean_b) for x, y in zip(sa.values, sb.values))
    return acc / (n - 1) / _US2_PER_MS2


class _Columns(NamedTuple):
    """The kernel's inputs over one receiver order (see `_columns`)."""

    x: np.ndarray  # shifted offsets X, zero where lost, (receivers, n)
    m: np.ndarray | None  # presence mask in the dtype of x; None when no packet was lost
    sums: np.ndarray  # each row's sum of X
    wide: bool  # the numerator needs Python ints


def _columns(log: MeasurementLog, ids) -> _Columns:
    """The kernel's inputs for ``ids``: row-shifted send-to-arrival offsets
    X over pair indices 0..n-1, zero where a packet was lost, their row
    sums, and the presence mask M of the same rows when some receiver lost
    a packet. Each row is shifted by its integer midrange, which minimises
    its largest |x|.

    Exactness contract, with n the most arrivals of any receiver and x the
    largest shifted offset:

    * The log holds timestamps below 2^62 in magnitude
      (`MeasurementLog`), so every offset, and its shifted value at an
      arrival, is an exact int64 (a lost slot may wrap; it is zeroed).
    * X and M are float64 only while n * x^2 < 2^53. Every product and
      partial sum of the BLAS sums, and each row sum, is then an integer
      below 2^53, so they are exact whatever the summation order.
    * The numerator then fits int64 while n^2 * x^2 < 2^63 (it is at most
      n^2 * x^2 by Cauchy-Schwarz, as is each of its two products), and the
      denominator while n^2 * 10^6 < 2^63; otherwise both are taken in
      Python ints (``wide``).
    * When the float64 guard fails, X and M hold Python ints
      (dtype=object), and numpy's object matmul sums them exactly with the
      same formula.
    """
    ids = tuple(ids)
    whole = ids == log.ids
    rows = slice(None) if whole else np.array([log.row(r) for r in ids], dtype=np.intp)
    counts = log.counts if whole else [log.counts[i] for i in rows]
    present = log.present[rows]
    complete = bool(present.all())
    # X is filled a block of rows at a time, so that no int64 array of every
    # row's offsets is held beside it
    blocks = [slice(i, i + _ROW_BLOCK) for i in range(0, len(ids), _ROW_BLOCK)]

    def offsets(block):
        return log.recv[block if whole else rows[block]] - log.sender

    # over the arrivals only; a row without arrivals reads +-bound
    bound = int(np.iinfo(np.int64).max)
    lo, hi = [], []
    for block in blocks:
        off = offsets(block)
        arrivals = True if complete else present[block]
        lo += off.min(axis=1, where=arrivals, initial=bound).tolist()
        hi += off.max(axis=1, where=arrivals, initial=-bound).tolist()
    # in Python ints, as lo + hi can overflow int64; a row without arrivals
    # gets mid 0 and a negative spread
    mids = [(a + b) // 2 for a, b in zip(lo, hi)]
    xmax = max([0] + [max(b - m, m - a) for a, b, m in zip(lo, hi, mids)])
    nmax = present.shape[1] if complete else max(counts, default=0)
    fits_f64 = nmax * xmax**2 < _F64_EXACT
    wide = not fits_f64 or nmax**2 * max(xmax**2, _US2_PER_MS2) >= _I64_LIMIT
    # shifted as the offsets are cast into X, then lost slots zeroed
    x = np.empty(present.shape, dtype=np.float64 if fits_f64 else object)
    shifts = np.array(mids, dtype=np.int64)[:, None]
    for block in blocks:
        np.subtract(offsets(block), shifts[block], out=x[block])
    m = None
    if not complete:
        x *= present
        m = present.astype(x.dtype)
    return _Columns(x, m, x.sum(axis=1), wide)


def _pair_sums(cols: _Columns):
    """N, Sx, Sy and Sxy of every receiver against every receiver, in the
    columns' dtype. N, Sx and Sy broadcast against Sxy: when no packet was
    lost, N is the number of pair indices n as a 1 x 1 block."""
    x, m, sums, _ = cols
    cross = x @ x.T
    if m is None:
        return np.full((1, 1), x.shape[1], dtype=x.dtype), sums[:, None], sums[None, :], cross
    sx = x @ m.T
    return m @ m.T, sx, sx.T, cross


def _cov_from_sums(counts, sx, sy, cross, wide: bool) -> np.ndarray:
    """(N*Sxy - Sx*Sy) / (N*(N-1)*10^6) elementwise over the shape of Sxy,
    each entry equal to Python's correctly rounded int / int on the exact
    numerator.

    Float64 sums are exact integers (see `_columns`) and are taken to int64,
    or to Python ints when ``wide``. A float64 division is correctly rounded
    only while numerator and denominator are below 2^53 in magnitude; the
    other entries are divided as Python ints. A pair with fewer than 2
    samples, which every caller refuses, gets a placeholder.
    """
    if counts.dtype != object:
        ints = object if wide else np.int64
        counts, sx, sy, cross = (a.astype(np.int64).astype(ints, copy=False) for a in (counts, sx, sy, cross))
    num = counts * cross - sx * sy
    den = counts * (counts - 1) * _US2_PER_MS2
    den[counts < 2] = 1
    if num.dtype == object:
        return (num / den).astype(np.float64)
    values = num / den
    inexact = (np.abs(num) >= _F64_EXACT) | (den >= _F64_EXACT)
    if inexact.any():
        dens = np.broadcast_to(den, num.shape)
        values[inexact] = [int(a) / int(b) for a, b in zip(num[inexact].tolist(), dens[inexact].tolist())]
    return values


def build_covariance_matrix(log: MeasurementLog, receivers) -> CovarianceMatrix:
    """Pairwise covariance matrix over the given receiver order.

    Each unordered pair is estimated over its own common index set (this
    keeps the most samples per pair), and the diagonal holds each
    receiver's sample variance over its own arrivals. All pairs come from
    one all-pairs kernel, read all x all (see the module docstring). Under
    the guards of `_columns` the products are exact float64 integer sums,
    the numerator is exact in int64 or Python ints, and every entry equals
    `estimate_covariance` on the pair's aligned series bit for bit; the
    matrix is exactly symmetric.

    Raises InputError for fewer than 2 receivers, one not in the log, or
    one listed twice (`CovarianceMatrix` refuses it), and
    InsufficientDataError for the first receiver with fewer than 2
    arrivals or pair with fewer than 2 common indices, in row-major order
    over the upper triangle (receiver i before the pairs (i, j > i)).
    """
    ids = tuple(receivers)
    if len(ids) < 2:
        raise InputError("need at least 2 receivers")
    unknown = set(ids) - set(log.receivers)
    if unknown:
        raise InputError(f"receivers not in log: {sorted(unknown)}")
    cols = _columns(log, ids)
    sums = _pair_sums(cols)
    counts = sums[0]
    if counts.min() < 2:
        i, j = np.argwhere(np.triu(counts < 2))[0]
        n = int(counts[i, j])
        if i == j:
            raise InsufficientDataError(f"receiver {ids[i]!r} has only {n} arrivals")
        raise InsufficientDataError(f"pair ({ids[i]!r}, {ids[j]!r}) shares only {n} pair indices")
    return CovarianceMatrix(ids, _cov_from_sums(*sums, cols.wide))


def covariance_oracle_from_log(log: MeasurementLog):
    """Pairwise-covariance provider backed by a measurement log, with a
    cache keyed by the sorted pair. A pair that cannot be estimated raises
    what `build_covariance_matrix` raises for it: InputError for a receiver
    not in the log, InsufficientDataError for fewer than 2 common indices.

    The kernel's columns are built once. A pair's sums are read when it is
    first asked for, from 1-D dot products of its two rows (see the module
    docstring), and divided as `_cov_ms2` divides them. Every value equals
    the matrix entry. The oracle keeps those columns (X, the row sums and,
    when a packet was lost, the mask M), not the log, so the caller's drop
    of the log frees it.
    """
    ids = sorted(log.receivers)
    index = {r: i for i, r in enumerate(ids)}
    x, m, sums, _ = _columns(log, ids)
    # exact integers (see `_columns`), so int() loses nothing
    sums = [int(v) for v in sums.tolist()]
    n_pairs = x.shape[1]
    cache: dict[tuple[NodeId, NodeId], float] = {}

    def oracle(a: NodeId, b: NodeId) -> float:
        key = (a, b) if a <= b else (b, a)
        if key in cache:
            return cache[key]
        if a not in index or b not in index:
            missing = a if a not in index else b
            raise InputError(f"no measurements for {missing!r} (pair ({a!r}, {b!r}))")
        i, j = index[a], index[b]
        if m is None:
            n, sx, sy = n_pairs, sums[i], sums[j]
        else:
            n, sx, sy = int(m[i].dot(m[j])), int(x[i].dot(m[j])), int(m[i].dot(x[j]))
        if n < 2:
            raise InsufficientDataError(f"pair ({a!r}, {b!r}) shares only {n} pair indices")
        cov = cache[key] = _cov_ms2(n, sx, sy, int(x[i].dot(x[j])))
        return cov

    return oracle
