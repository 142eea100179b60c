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
same value for every pair from one all-pairs kernel. Whole-array operations
on the log's columns (`MeasurementLog.present`, `recv` and `sender`) give a
presence mask M and send-to-arrival offsets X (receivers x pair indices,
zero where a packet was lost, each row shifted by a constant).
Each pair's sample count, cross sum and the two per-pair sums over its
common indices are then entries of

    N = M M^T,   Sxy = X X^T,   Sx = X M^T   (Sy = Sx^T)

and cov = (N*Sxy - Sx*Sx^T) / (N*(N-1)*10^6) elementwise. The row shifts
cancel in the numerator. Magnitude guards keep every step exact (see
`_columns` and `_cov_from_sums`), so each entry equals the reference
estimator bit for bit.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import InputError, InsufficientDataError, InvariantError, MeasurementGapError
from .model import CovarianceMatrix, DelaySeries, MeasurementLog, NodeId

_US2_PER_MS2 = 10**6
_F64_EXACT = 2**53  # float64 holds every integer of smaller magnitude
_I64_LIMIT = 2**63
_RAW_LIMIT = 2**62  # int64 timestamps below this give exact int64 differences


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
    the first aligned index; in fixed-interval mode the sender difference is
    (k - k0) * interval, in timestamped mode it is read from the recorded
    sender timestamps.
    """
    aligned = tuple(aligned)
    if not aligned:
        raise InputError("empty aligned index set")
    arr = log.arrivals.get(receiver, {})
    missing = next((k for k in aligned if k not in arr), None)
    if missing is not None:
        raise InvariantError(f"receiver {receiver!r} missing arrival at k={missing}")
    idx = np.asarray(aligned, dtype=np.intp)
    recv = log.recv[log.row(receiver), idx].tolist()
    k0, base = aligned[0], recv[0]
    if log.fixed_mode:
        sender_diff = [(k - k0) * log.interval_us for k in aligned]
    else:
        sender = log.sender[idx].tolist()
        sender_diff = [ts - sender[0] for ts in sender]
    values = tuple(int(t - base - d) for t, d in zip(recv, sender_diff))
    return DelaySeries(receiver=receiver, indices=aligned, values=values)


def _int_cov_ms2(n: int, sx: int, sy: int, sxy: int) -> float:
    # n*sum(xy) - sum(x)*sum(y) is shift-invariant in exact integer
    # arithmetic, so constant offsets cancel bit-exactly; int / int is
    # correctly rounded
    return (n * sxy - sx * sy) / (n * (n - 1) * _US2_PER_MS2)


def _exact_int_cov_ms2(xs, ys, n: int) -> float:
    return _int_cov_ms2(n, sum(xs), sum(ys), sum(x * y for x, y in zip(xs, ys)))


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


def _within_raw_limit(values) -> bool:
    return not values.size or (-_RAW_LIMIT < values.min() and values.max() < _RAW_LIMIT)


def _fill_columns(log: MeasurementLog, ids, dtype):
    """Presence mask and row-shifted send-to-arrival offsets over pair
    indices 0..n-1, plus the largest offset magnitude.

    With ``dtype=np.int64`` offsets are taken in int64 and stored as float64
    (OverflowError when a timestamp is 2^62 or more in magnitude); with
    ``dtype=object`` both arrays hold Python ints. Each row is shifted by
    its integer midrange, which minimises its largest |x|.
    """
    rows = [log.row(r) for r in ids]
    present, recv = log.present[rows], log.recv[rows]
    if dtype is np.int64:
        if recv.dtype == object or not (_within_raw_limit(log.sender) and _within_raw_limit(recv)):
            raise OverflowError("timestamps too large for int64 offsets")
        off = recv - log.sender
        bound = int(np.iinfo(np.int64).max)
    else:
        off = recv.astype(object) - log.sender.astype(object)
        bound = int(np.abs(off).max(initial=0)) + 1
    # absent slots read as +-bound, beyond every offset, so they never win
    lo = np.where(present, off, bound).min(axis=1, initial=bound).tolist()
    hi = np.where(present, off, -bound).max(axis=1, initial=-bound).tolist()
    # in Python ints, as lo + hi can overflow int64; a row without arrivals
    # gets mid 0 and a negative spread
    mids = [(a + b) // 2 for a, b in zip(lo, hi)]
    xmax = max([0] + [max(b - m, m - a) for a, b, m in zip(lo, hi, mids)])
    store = np.float64 if dtype is np.int64 else object
    shifted = np.where(present, off - np.array(mids, dtype=dtype)[:, None], 0)
    return present.astype(np.int64).astype(store), shifted.astype(store), xmax


def _columns(log: MeasurementLog, ids):
    """The kernel's inputs for ``ids``: presence mask M, shifted offsets X,
    and whether the numerator needs Python ints.

    Exactness contract, with n the most arrivals of any receiver and x the
    largest shifted offset:

    * M and X are float64 only while n * x^2 < 2^53. Every product and
      partial sum of the BLAS sums is then an integer below 2^53, so they
      are exact whatever the summation order.
    * The numerator then fits int64 while n^2 * x^2 < 2^63 (it is at most
      n^2 * x^2 by Cauchy-Schwarz, as is each of its two products), and the
      denominator while n^2 * 10^6 < 2^63; otherwise both are taken in
      Python ints (the returned flag).
    * When the float64 guard fails, or a timestamp is too large for int64
      offsets, M and X hold Python ints (dtype=object), and numpy's object
      matmul sums them exactly with the same formula.
    """
    try:
        mask, offsets, xmax = _fill_columns(log, ids, np.int64)
    except OverflowError:
        pass
    else:
        nmax = int(mask.sum(axis=1).max(initial=0))
        if nmax * xmax**2 < _F64_EXACT:
            return mask, offsets, nmax**2 * max(xmax**2, _US2_PER_MS2) >= _I64_LIMIT
    mask, offsets, _ = _fill_columns(log, ids, object)
    return mask, offsets, True


def _cov_from_sums(counts, cross, sums, wide: bool) -> np.ndarray:
    """(N*Sxy - Sx*Sx^T) / (N*(N-1)*10^6) elementwise, each entry equal to
    Python's correctly rounded int / int on the exact numerator.

    Float64 sums are exact integers (see `_columns`) and are taken to int64,
    or to Python ints when ``wide``. A float64 division is correctly rounded
    only while numerator and denominator are below 2^53 in magnitude; the
    other entries are divided as Python ints.
    """
    if counts.dtype != object:
        ints = object if wide else np.int64
        counts, cross, sums = (
            a.astype(np.int64).astype(ints, copy=False) for a in (counts, cross, sums)
        )
    num = counts * cross - sums * sums.T
    den = counts * (counts - 1) * _US2_PER_MS2
    if num.dtype == object:
        return (num / den).astype(np.float64)
    values = num / den
    for i, j in zip(*np.nonzero((np.abs(num) >= _F64_EXACT) | (den >= _F64_EXACT))):
        values[i, j] = int(num[i, j]) / int(den[i, j])
    return values


def build_covariance_matrix(log: MeasurementLog, receivers) -> CovarianceMatrix:
    """Pairwise covariance matrix over the given receiver order.

    Each unordered pair is estimated over its own common index set (this
    keeps the most samples per pair), and the diagonal holds each
    receiver's sample variance over its own arrivals. All pairs come from
    one all-pairs kernel: three matrix products of the presence mask and
    the shifted offsets (see the module docstring). Under the guards of
    `_columns` the products are exact float64 integer sums, the numerator
    is exact in int64 or Python ints, and every entry equals
    `estimate_covariance` on the pair's aligned series bit for bit; the
    matrix is exactly symmetric.

    Raises InsufficientDataError for the first receiver with fewer than 2
    arrivals or pair with fewer than 2 common indices, in row-major order
    over the upper triangle (receiver i before the pairs (i, j > i)).
    """
    ids = tuple(receivers)
    if len(ids) < 2:
        raise InputError("need at least 2 receivers")
    if len(set(ids)) != len(ids):
        raise InputError("duplicate receiver in list")
    unknown = set(ids) - set(log.receivers)
    if unknown:
        raise InputError(f"receivers not in log: {sorted(unknown)}")
    mask, offsets, wide = _columns(log, ids)
    counts = mask @ mask.T
    short = np.argwhere(np.triu(counts < 2))
    if len(short):
        i, j = short[0]
        n = int(counts[i, j])
        if i == j:
            raise InsufficientDataError(f"receiver {ids[i]!r} has only {n} arrivals")
        raise InsufficientDataError(f"pair ({ids[i]!r}, {ids[j]!r}) shares only {n} pair indices")
    values = _cov_from_sums(counts, offsets @ offsets.T, offsets @ mask.T, wide)
    return CovarianceMatrix(ids, values)


def covariance_oracle_from_log(log: MeasurementLog):
    """Pairwise-covariance provider backed by a measurement log, with a small
    cache; raises MeasurementGapError when a pair cannot be estimated.

    The kernel's columns are built once; each requested pair's sums are
    dot products of its two rows, so a value equals the matrix entry.
    """
    ids = sorted(log.receivers)
    row = {r: i for i, r in enumerate(ids)}
    mask, offsets, _ = _columns(log, ids)
    cache: dict[frozenset, float] = {}

    def oracle(a: NodeId, b: NodeId) -> float:
        key = frozenset((a, b))
        if key in cache:
            return cache[key]
        if a not in row or b not in row:
            missing = a if a not in row else b
            raise MeasurementGapError(f"no measurements for {missing!r} (pair ({a!r}, {b!r}))")
        i, j = row[a], row[b]
        n = int(mask[i] @ mask[j])
        if n < 2:
            raise MeasurementGapError(f"pair ({a!r}, {b!r}) shares only {n} pair indices")
        cov = _int_cov_ms2(
            n,
            int(offsets[i] @ mask[j]),
            int(mask[i] @ offsets[j]),
            int(offsets[i] @ offsets[j]),
        )
        cache[key] = cov
        return cov

    return oracle
