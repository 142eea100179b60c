import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covtomo.delay_cov import (
    align_pairs,
    build_covariance_matrix,
    covariance_oracle_from_log,
    estimate_covariance,
    normalize_series,
)
from covtomo.errors import InputError, InsufficientDataError, MeasurementGapError
from covtomo.model import DelaySeries, MeasurementLog

MS2 = 10**6  # us^2 per ms^2


def make_log(sender_ts, arrivals, interval_us=None):
    return MeasurementLog.from_dicts(dict(enumerate(sender_ts)), arrivals, interval_us)


def series(values, receiver="x", indices=None):
    idx = tuple(range(len(values))) if indices is None else tuple(indices)
    return DelaySeries(receiver=receiver, indices=idx, values=tuple(values))


def fixed_log(arrivals_by_receiver, n, delta):
    sender = [k * delta for k in range(n)]
    arrivals = {
        r: {k: ts for k, ts in entries.items()} for r, entries in arrivals_by_receiver.items()
    }
    return make_log(sender, arrivals, interval_us=delta)


# ----------------------------------------------------------------------
# align_pairs


def test_align_no_losses_identity():
    n = 100
    log = fixed_log({r: {k: k * 30 + 500 for k in range(n)} for r in ("a", "b")}, n, 30)
    assert align_pairs(log, {"a", "b"}) == tuple(range(n))


def test_align_drops_union_of_losses():
    arrivals_a = {k: k * 30 + 10 for k in range(10) if k != 3}
    arrivals_b = {k: k * 30 + 20 for k in range(10) if k != 7}
    log = fixed_log({"a": arrivals_a, "b": arrivals_b}, 10, 30)
    assert align_pairs(log, {"a", "b"}) == (0, 1, 2, 4, 5, 6, 8, 9)


def test_align_all_lost_is_insufficient():
    log = fixed_log({"a": {k: k * 30 + 10 for k in range(10)}, "b": {}}, 10, 30)
    with pytest.raises(InsufficientDataError):
        align_pairs(log, {"a", "b"})


def test_align_unknown_receiver():
    log = fixed_log({"a": {0: 5, 1: 35}}, 2, 30)
    with pytest.raises(InputError):
        align_pairs(log, {"a", "nope"})


# ----------------------------------------------------------------------
# normalize_series


def test_normalize_constant_delay_cancels():
    n, delta, d = 50, 30, 777
    log = fixed_log({"a": {k: k * delta + d for k in range(n)}}, n, delta)
    out = normalize_series(log, "a", align_pairs(log, {"a"}))
    assert out.values == (0,) * n


def test_normalize_fixed_mode_example():
    log = fixed_log({"a": {0: 100, 1: 135, 2: 162}}, 3, 30)
    out = normalize_series(log, "a", (0, 1, 2))
    assert out.values == (0, 5, 2)


def test_normalize_timestamped_example():
    log = make_log([0, 40, 70], {"a": {0: 10, 1: 55, 2: 95}})
    assert not log.fixed_mode
    out = normalize_series(log, "a", (0, 1, 2))
    assert out.values == (0, 5, 15)


def test_normalize_clock_offset_cancels():
    n, delta = 40, 25
    rng = np.random.default_rng(0)
    delays = rng.integers(100, 900, size=n)
    base = {k: k * delta + int(delays[k]) for k in range(n)}
    shifted = {k: ts + 123456 for k, ts in base.items()}
    log = fixed_log({"a": base, "b": shifted}, n, delta)
    sa = normalize_series(log, "a", align_pairs(log, {"a", "b"}))
    sb = normalize_series(log, "b", align_pairs(log, {"a", "b"}))
    assert sa.values == sb.values


def test_normalize_missing_arrival_is_internal_error():
    from covtomo.errors import InvariantError

    log = fixed_log({"a": {0: 10, 2: 70}}, 3, 30)
    with pytest.raises(InvariantError):
        normalize_series(log, "a", (0, 1, 2))


# ----------------------------------------------------------------------
# estimate_covariance


def test_covariance_with_constant_is_zero():
    sa = series([0, 4, -2, 9])
    sb = series([0, 0, 0, 0])
    assert estimate_covariance(sa, sb) == 0.0


def test_covariance_frozen_value():
    # by direct evaluation: mean 0.5, sum of squared deviations 5, divide by 3
    sa = series([0, 1, -1, 2])
    value = estimate_covariance(sa, sa)
    assert value == 20 / (12 * MS2)
    assert value * MS2 == pytest.approx(5 / 3, rel=1e-12)


def test_covariance_anticorrelated():
    value = estimate_covariance(series([0, 1, 2, 3]), series([3, 2, 1, 0]))
    assert value * MS2 == pytest.approx(-5 / 3, rel=1e-12)
    assert value < 0  # negative estimates are preserved, not clamped


def test_covariance_errors():
    with pytest.raises(InputError):
        estimate_covariance(series([0, 1]), series([0, 1, 2]))
    with pytest.raises(InsufficientDataError):
        estimate_covariance(series([0]), series([0]))


def test_covariance_symmetric_exactly():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        sa = series([int(v) for v in rng.integers(-1000, 1000, n)])
        sb = series([int(v) for v in rng.integers(-1000, 1000, n)])
        assert estimate_covariance(sa, sb) == estimate_covariance(sb, sa)


def test_covariance_permutation_invariant():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(3, 50))
        va = [int(v) for v in rng.integers(-500, 500, n)]
        vb = [int(v) for v in rng.integers(-500, 500, n)]
        perm = rng.permutation(n)
        sa, sb = series(va), series(vb)
        pa = series([va[i] for i in perm])
        pb = series([vb[i] for i in perm])
        assert estimate_covariance(sa, sb) == estimate_covariance(pa, pb)
        fa = series([float(v) for v in va])
        fb = series([float(v) for v in vb])
        pfa = series([float(va[i]) for i in perm])
        pfb = series([float(vb[i]) for i in perm])
        assert estimate_covariance(fa, fb) == estimate_covariance(pfa, pfb)


def test_affine_invariance():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(5, 80))
        va = rng.normal(0, 300, n)
        vb = 0.5 * va + rng.normal(0, 300, n)
        a, c = rng.uniform(0.1, 5, size=2)
        b, d = rng.uniform(-1000, 1000, size=2)
        sa, sb = series(va), series(vb)
        ta = series(a * va + b)
        tb = series(c * vb + d)
        base = estimate_covariance(sa, sb)
        assert estimate_covariance(ta, tb) == pytest.approx(a * c * base, rel=1e-9, abs=1e-15)
        # adding constants alone changes nothing
        assert estimate_covariance(series(va + 77.0), series(vb - 31.0)) == pytest.approx(
            base, rel=1e-9
        )


def test_correlation_coefficient_invariance_same_sign():
    # the normalized coefficient is invariant for any scalings of equal sign
    def coeff(sa, sb):
        return estimate_covariance(sa, sb) / math.sqrt(
            estimate_covariance(sa, sa) * estimate_covariance(sb, sb)
        )

    rng = np.random.default_rng(4)
    for sign in (1.0, -1.0):
        for _ in range(50):
            n = int(rng.integers(5, 60))
            va = rng.normal(0, 100, n)
            vb = 0.3 * va + rng.normal(0, 100, n)
            a, c = sign * rng.uniform(0.2, 4, size=2)
            b, d = rng.uniform(-500, 500, size=2)
            base = coeff(series(va), series(vb))
            transformed = coeff(series(a * va + b), series(c * vb + d))
            assert transformed == pytest.approx(base, rel=1e-9)


def test_delay_offset_series_equals_raw_delay_series_exactly():
    # the estimator on normalized series matches the estimator applied
    # directly to the underlying delay series, bit-exactly (integer inputs)
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(3, 60))
        delta = int(rng.integers(10, 50))
        da = rng.integers(100, 5000, n)
        db = rng.integers(100, 5000, n)
        log = fixed_log(
            {
                "a": {k: k * delta + int(da[k]) for k in range(n)},
                "b": {k: k * delta + int(db[k]) for k in range(n)},
            },
            n,
            delta,
        )
        aligned = align_pairs(log, {"a", "b"})
        sa = normalize_series(log, "a", aligned)
        sb = normalize_series(log, "b", aligned)
        direct = estimate_covariance(series([int(v) for v in da]), series([int(v) for v in db]))
        assert estimate_covariance(sa, sb) == direct


def test_unbiasedness_small():
    # shared component of known variance; mean estimate within 3 stderr
    rng = np.random.default_rng(6)
    sessions, n, true_var = 300, 400, 4.0
    shared = rng.normal(0, math.sqrt(true_var) * 1000, (sessions, n))
    ea = rng.normal(0, 1500, (sessions, n))
    eb = rng.normal(0, 1500, (sessions, n))
    estimates = []
    for s in range(sessions):
        sa = series(np.rint(shared[s] + ea[s]).astype(int).tolist())
        sb = series(np.rint(shared[s] + eb[s]).astype(int).tolist())
        estimates.append(estimate_covariance(sa, sb))
    mean = float(np.mean(estimates))
    stderr = float(np.std(estimates, ddof=1)) / math.sqrt(sessions)
    assert abs(mean - true_var) <= 3 * stderr


# ----------------------------------------------------------------------
# build_covariance_matrix


def test_matrix_identical_series_all_entries_equal():
    n, delta = 200, 30
    rng = np.random.default_rng(7)
    delays = rng.integers(100, 3000, size=n)
    entries = {k: k * delta + int(delays[k]) for k in range(n)}
    log = fixed_log({"a": dict(entries), "b": dict(entries)}, n, delta)
    cov = build_covariance_matrix(log, ["a", "b"])
    assert cov.get("a", "b") == cov.get("a", "a") == cov.get("b", "b")


def test_matrix_independent_series_near_zero():
    n, delta = 10_000, 30
    rng = np.random.default_rng(8)
    var_us2 = 1000.0**2  # 1 ms^2 per receiver, nothing shared
    da = np.rint(rng.normal(3000, 1000, n)).astype(int)
    db = np.rint(rng.normal(3000, 1000, n)).astype(int)
    log = fixed_log(
        {
            "a": {k: k * delta + int(da[k]) for k in range(n)},
            "b": {k: k * delta + int(db[k]) for k in range(n)},
        },
        n,
        delta,
    )
    cov = build_covariance_matrix(log, ["a", "b"])
    stderr = math.sqrt(var_us2 * var_us2 / (n - 1)) / 1e6
    assert abs(cov.get("a", "b")) <= 3 * stderr


def test_matrix_matches_scalar_estimator_exactly_with_losses():
    rng = np.random.default_rng(9)
    n, delta = 120, 25
    receivers = ["a", "b", "c"]
    arrivals = {}
    for r in receivers:
        entries = {}
        for k in range(n):
            if rng.random() < 0.1:
                continue  # lost
            entries[k] = k * delta + int(rng.integers(200, 4000))
        arrivals[r] = entries
    log = fixed_log(arrivals, n, delta)
    cov = build_covariance_matrix(log, receivers)
    cov.validate()
    for i, a in enumerate(receivers):
        for b in receivers[i + 1 :]:
            aligned = align_pairs(log, {a, b})
            expected = estimate_covariance(
                normalize_series(log, a, aligned), normalize_series(log, b, aligned)
            )
            assert cov.get(a, b) == expected
            assert cov.values[cov.index(a), cov.index(b)] == cov.values[cov.index(b), cov.index(a)]


def test_matrix_errors_name_the_pair():
    log = fixed_log({"a": {k: k * 30 + 10 for k in range(5)}, "b": {0: 11}}, 5, 30)
    with pytest.raises(InsufficientDataError, match="'b'"):
        build_covariance_matrix(log, ["a", "b"])
    with pytest.raises(InputError):
        build_covariance_matrix(log, ["a"])
    # the first failure in row-major order over the upper triangle wins:
    # receiver i is checked before the pairs (i, j > i), so the short pair
    # (a, b) is reported ahead of receiver c and its single arrival
    log = fixed_log({"a": {0: 10, 1: 40}, "b": {2: 70, 3: 100}, "c": {4: 130}}, 5, 30)
    with pytest.raises(InsufficientDataError) as err:
        build_covariance_matrix(log, ["a", "b", "c"])
    assert str(err.value) == "pair ('a', 'b') shares only 0 pair indices"
    with pytest.raises(InsufficientDataError) as err:
        build_covariance_matrix(log, ["c", "a", "b"])
    assert str(err.value) == "receiver 'c' has only 1 arrivals"


def test_oracle_from_log_matches_matrix_and_reports_gaps():
    rng = np.random.default_rng(10)
    n, delta = 150, 20
    arrivals = {
        r: {k: k * delta + int(rng.integers(100, 2000)) for k in range(n)} for r in ("a", "b")
    }
    arrivals["c"] = {0: 55}
    log = fixed_log(arrivals, n, delta)
    oracle = covariance_oracle_from_log(log)
    cov = build_covariance_matrix(log, ["a", "b"])
    assert oracle("a", "b") == cov.get("a", "b")
    with pytest.raises(MeasurementGapError, match="'c'"):
        oracle("a", "c")
    with pytest.raises(MeasurementGapError):
        oracle("a", "unknown")


# ----------------------------------------------------------------------
# exactness of the all-pairs kernel against the reference estimator


def reference_cov(log, a, b):
    aligned = align_pairs(log, {a, b})
    return estimate_covariance(normalize_series(log, a, aligned), normalize_series(log, b, aligned))


def assert_kernel_matches_reference(log):
    """Every matrix entry, diagonal included, and every oracle value equals
    the reference estimator bit for bit."""
    ids = sorted(log.receivers)
    cov = build_covariance_matrix(log, ids)
    cov.validate()
    oracle = covariance_oracle_from_log(log)
    for a in ids:
        for b in ids:
            want = reference_cov(log, a, b).hex()
            assert cov.get(a, b).hex() == want, (a, b)
            assert oracle(a, b).hex() == want, (a, b)


@pytest.mark.parametrize(
    "n, swing, clock",
    [
        (50, 2 * 10**11, 0),  # int64 products overflow: Python-int sums
        (2000, 3_800_000, 0),  # exact float64 sums, numerator beyond int64
        (2000, 2_999_999, 0),  # int64 numerator beyond 2^53: exact division
        (50, 1000, 2**64),  # timestamps beyond int64
    ],
)
def test_kernel_exact_at_large_magnitudes(n, swing, clock):
    # each delay is 0 or swing, so the offsets sit at the guards' worst case;
    # receivers share most of their bits, so off-diagonal entries are large too
    rng = np.random.default_rng(11)
    delta = 1000
    bits = rng.integers(0, 2, n) ^ (rng.random((6, n)) < 0.2)
    arrivals = {
        f"r{r}": {k: clock + k * delta + swing * int(bits[r, k]) for k in range(n)}
        for r in range(len(bits))
    }
    assert_kernel_matches_reference(fixed_log(arrivals, n, delta))


def test_kernel_exact_when_offsets_wrap_int64():
    # every timestamp fits int64, but the send-to-arrival offsets span 2^64
    n, delta = 40, 1000
    sender = [-(2**63) + k * delta for k in range(n)]
    jump = 2**64 - 2**20
    arrivals = {
        r: {k: sender[k] + (k % 2) * jump + k * step for k in range(n)}
        for r, step in (("a", 3), ("b", 5))
    }
    assert_kernel_matches_reference(make_log(sender, arrivals, interval_us=delta))


@st.composite
def lossy_logs(draw):
    """Integer logs in fixed-interval or timestamped mode where every pair of
    receivers shares at least the two anchor indices (often exactly those)."""
    n = draw(st.integers(2, 24))
    if draw(st.booleans()):
        interval = draw(st.integers(1, 1000))
        start = draw(st.integers(0, 10**6))
        sender = [start + k * interval for k in range(n)]
    else:
        interval = None
        gaps = draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n))
        sender = list(itertools.accumulate(gaps))
    anchors = set(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
    swing = draw(st.sampled_from([10, 10**4, 10**7, 10**11]))
    clock = draw(st.sampled_from([0, 10**9, 2**64]))
    arrivals = {}
    for r in range(draw(st.integers(2, 5))):
        present = anchors | draw(st.sets(st.integers(0, n - 1)))
        offset = draw(st.integers(0, clock))
        delays = draw(st.lists(st.integers(0, swing), min_size=n, max_size=n))
        arrivals[f"r{r}"] = {k: sender[k] + offset + delays[k] for k in sorted(present)}
    return make_log(sender, arrivals, interval_us=interval)


@settings(max_examples=150)
@given(lossy_logs())
def test_kernel_equals_reference_on_random_lossy_logs(log):
    log.validate()
    assert_kernel_matches_reference(log)
