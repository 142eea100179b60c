import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covtomo.delay_cov import (
    _columns,
    align_pairs,
    build_covariance_matrix,
    covariance_oracle_from_log,
    estimate_covariance,
    normalize_series,
)
from covtomo.errors import InputError, InsufficientDataError
from covtomo.model import TIMESTAMP_LIMIT_US, DelaySeries
from covtomo.simulator import SimulatorConfig, generate_topology, simulate_session

from treegen import log_from_dicts

MS2 = 10**6  # us^2 per ms^2


def make_log(sender_ts, arrivals):
    return log_from_dicts(dict(enumerate(sender_ts)), arrivals)


def series(values, receiver="x", indices=None):
    idx = tuple(range(len(values))) if indices is None else tuple(indices)
    return DelaySeries(receiver=receiver, indices=idx, values=tuple(values))


def even_log(arrivals_by_receiver, n, delta):
    sender = [k * delta for k in range(n)]
    arrivals = {
        r: {k: ts for k, ts in entries.items()} for r, entries in arrivals_by_receiver.items()
    }
    return make_log(sender, arrivals)


# ----------------------------------------------------------------------
# align_pairs


def test_align_no_losses_identity():
    n = 100
    log = even_log({r: {k: k * 30 + 500 for k in range(n)} for r in ("a", "b")}, n, 30)
    assert align_pairs(log, {"a", "b"}) == tuple(range(n))


def test_align_drops_union_of_losses():
    arrivals_a = {k: k * 30 + 10 for k in range(10) if k != 3}
    arrivals_b = {k: k * 30 + 20 for k in range(10) if k != 7}
    log = even_log({"a": arrivals_a, "b": arrivals_b}, 10, 30)
    assert align_pairs(log, {"a", "b"}) == (0, 1, 2, 4, 5, 6, 8, 9)


def test_align_all_lost_is_insufficient():
    log = even_log({"a": {k: k * 30 + 10 for k in range(10)}, "b": {}}, 10, 30)
    with pytest.raises(InsufficientDataError):
        align_pairs(log, {"a", "b"})


def test_align_unknown_receiver():
    log = even_log({"a": {0: 5, 1: 35}}, 2, 30)
    with pytest.raises(InputError):
        align_pairs(log, {"a", "nope"})


# ----------------------------------------------------------------------
# normalize_series


def test_normalize_constant_delay_cancels():
    n, delta, d = 50, 30, 777
    log = even_log({"a": {k: k * delta + d for k in range(n)}}, n, delta)
    out = normalize_series(log, "a", align_pairs(log, {"a"}))
    assert out.values == (0,) * n


def test_normalize_even_schedule_example():
    log = even_log({"a": {0: 100, 1: 135, 2: 162}}, 3, 30)
    out = normalize_series(log, "a", (0, 1, 2))
    assert out.values == (0, 5, 2)


def test_normalize_timestamped_example():
    log = make_log([0, 40, 70], {"a": {0: 10, 1: 55, 2: 95}})
    out = normalize_series(log, "a", (0, 1, 2))
    assert out.values == (0, 5, 15)


def test_normalize_clock_offset_cancels():
    n, delta = 40, 25
    rng = np.random.default_rng(0)
    delays = rng.integers(100, 900, size=n)
    base = {k: k * delta + int(delays[k]) for k in range(n)}
    shifted = {k: ts + 123456 for k, ts in base.items()}
    log = even_log({"a": base, "b": shifted}, n, delta)
    sa = normalize_series(log, "a", align_pairs(log, {"a", "b"}))
    sb = normalize_series(log, "b", align_pairs(log, {"a", "b"}))
    assert sa.values == sb.values


def test_normalize_missing_arrival_is_internal_error():
    from covtomo.errors import InvariantError

    log = even_log({"a": {0: 10, 2: 70}}, 3, 30)
    # the first aligned index without an arrival, whether the slot is empty,
    # outside the log or on a receiver the log does not hold
    for receiver, aligned, k in [("a", (0, 1, 2), 1), ("a", (0, 2, 3), 3), ("a", (-1, 0), -1), ("z", (2, 0), 2)]:
        with pytest.raises(InvariantError) as exc:
            normalize_series(log, receiver, aligned)
        assert str(exc.value) == f"receiver {receiver!r} missing arrival at k={k}"


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
        log = even_log(
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
    log = even_log({"a": dict(entries), "b": dict(entries)}, n, delta)
    cov = build_covariance_matrix(log, ["a", "b"])
    assert cov.get("a", "b") == cov.get("a", "a") == cov.get("b", "b")


def test_matrix_independent_series_near_zero():
    n, delta = 10_000, 30
    rng = np.random.default_rng(8)
    var_us2 = 1000.0**2  # 1 ms^2 per receiver, nothing shared
    da = np.rint(rng.normal(3000, 1000, n)).astype(int)
    db = np.rint(rng.normal(3000, 1000, n)).astype(int)
    log = even_log(
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
    log = even_log(arrivals, n, delta)
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
    log = even_log({"a": {k: k * 30 + 10 for k in range(5)}, "b": {0: 11}}, 5, 30)
    with pytest.raises(InsufficientDataError, match="'b'"):
        build_covariance_matrix(log, ["a", "b"])
    with pytest.raises(InputError):
        build_covariance_matrix(log, ["a"])
    # the first failure in row-major order over the upper triangle wins:
    # receiver i is checked before the pairs (i, j > i), so the short pair
    # (a, b) is reported ahead of receiver c and its single arrival
    log = even_log({"a": {0: 10, 1: 40}, "b": {2: 70, 3: 100}, "c": {4: 130}}, 5, 30)
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
    log = even_log(arrivals, n, delta)
    oracle = covariance_oracle_from_log(log)
    cov = build_covariance_matrix(log, ["a", "b"])
    assert oracle("a", "b") == cov.get("a", "b")
    with pytest.raises(InsufficientDataError, match="'c'"):
        oracle("a", "c")
    with pytest.raises(InputError):
        oracle("a", "unknown")


def test_oracle_agrees_with_matrix_both_ways_on_lossy_log():
    # bg 12e6 congests every link: ~40% loss, so each pair has its own
    # common index set
    cfg = SimulatorConfig(n_hosts=150, n_routers=50, seed=7, n_pairs=600, bg_rate_bytes_per_sec=12e6)
    log = simulate_session(generate_topology(cfg), cfg)
    ids = sorted(log.receivers)
    assert len(ids) >= 100 and log.present.mean() < 0.9
    cov = build_covariance_matrix(log, ids)
    forward, backward = covariance_oracle_from_log(log), covariance_oracle_from_log(log)
    rng = np.random.default_rng(3)
    pairs = [tuple(rng.choice(ids, size=2, replace=False)) for _ in range(300)] + [(ids[5], ids[5])]
    for a, b in pairs + pairs[:20]:
        want = cov.get(a, b).hex()
        assert forward(a, b).hex() == want, (a, b)
        assert backward(b, a).hex() == want, (a, b)
        assert forward(b, a).hex() == want, (a, b)


def test_oracle_gap_messages():
    log = even_log({"a": {0: 10, 1: 40, 2: 70}, "b": {0: 12, 1: 45, 2: 71}, "c": {1: 50}}, 3, 30)
    oracle = covariance_oracle_from_log(log)
    # the classes `build_covariance_matrix` raises for the same gaps
    for args, error, message in (
        (("a", "zz"), InputError, "no measurements for 'zz' (pair ('a', 'zz'))"),
        (("zz", "a"), InputError, "no measurements for 'zz' (pair ('zz', 'a'))"),
        (("a", "c"), InsufficientDataError, "pair ('a', 'c') shares only 1 pair indices"),
        (("c", "b"), InsufficientDataError, "pair ('c', 'b') shares only 1 pair indices"),
        (("c", "c"), InsufficientDataError, "pair ('c', 'c') shares only 1 pair indices"),
    ):
        with pytest.raises(error) as err:
            oracle(*args)
        assert str(err.value) == message
    assert oracle("b", "a") == oracle("a", "b") == build_covariance_matrix(log, ["a", "b"]).get("a", "b")


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
        (50, 1000, TIMESTAMP_LIMIT_US - 2**20),  # timestamps just below the log's limit
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
    log = even_log(arrivals, n, delta)
    # loss-free, so the kernel's pair count is the scalar n
    assert _columns(log, log.ids).m is None
    assert_kernel_matches_reference(log)


def test_kernel_exact_when_offsets_span_nearly_2_63():
    # senders at the bottom of the log's range and every other arrival near
    # its top: the send-to-arrival offsets span nearly 2^63, still exact in
    # int64, and X holds Python ints
    n, delta = 40, 1000
    sender = [-(TIMESTAMP_LIMIT_US - 1) + k * delta for k in range(n)]
    jump = 2**63 - 2**20
    arrivals = {
        r: {k: sender[k] + (k % 2) * jump + k * step for k in range(n)}
        for r, step in (("a", 3), ("b", 5))
    }
    log = make_log(sender, arrivals)
    assert int(log.recv.max()) > TIMESTAMP_LIMIT_US - 2**20
    cols = _columns(log, log.ids)
    assert cols.x.dtype == object and cols.wide
    assert_kernel_matches_reference(log)


@pytest.mark.parametrize("lost", [(), ((0, 3),), ((0, 0), (1, 1), (2, 2), (3, 3), (3, 4))], ids=["none", "some", "every"])
def test_kernel_exact_whether_no_some_or_every_index_lost(lost):
    # (receiver, pair index) slots lost: the indices where some receiver
    # lost its packet are none of the five, index 3 only, or each of them
    rng = np.random.default_rng(12)
    sender = [k * 1000 for k in range(5)]
    arrivals = {
        f"r{r}": {k: sender[k] + int(rng.integers(0, 10**6)) for k in range(5) if (r, k) not in lost}
        for r in range(4)
    }
    log = make_log(sender, arrivals)
    lossy = ~log.present.all(axis=0)
    assert lossy.sum() == len({k for _, k in lost})
    assert_kernel_matches_reference(log)


@st.composite
def lossy_logs(draw, loss_free=False):
    """Integer logs with evenly or unevenly spaced senders where every pair
    of receivers shares at least the two anchor indices (often exactly
    those), and a receiver may have every arrival, so that sessions with no
    index lost come up too; with ``loss_free`` every receiver has every
    arrival."""
    n = draw(st.integers(2, 24))
    if draw(st.booleans()):
        interval = draw(st.integers(1, 1000))
        start = draw(st.integers(0, 10**6))
        sender = [start + k * interval for k in range(n)]
    else:
        gaps = draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n))
        sender = list(itertools.accumulate(gaps))
    anchors = set(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
    swing = draw(st.sampled_from([10, 10**4, 10**7, 10**11]))
    clock = draw(st.sampled_from([0, 10**9, TIMESTAMP_LIMIT_US - 2**40]))
    arrivals = {}
    for r in range(draw(st.integers(2, 5))):
        every = loss_free or draw(st.booleans())
        present = set(range(n)) if every else anchors | draw(st.sets(st.integers(0, n - 1)))
        offset = draw(st.integers(0, clock))
        delays = draw(st.lists(st.integers(0, swing), min_size=n, max_size=n))
        arrivals[f"r{r}"] = {k: sender[k] + offset + delays[k] for k in sorted(present)}
    return make_log(sender, arrivals)


@settings(max_examples=150)
@given(lossy_logs())
def test_kernel_equals_reference_on_random_lossy_logs(log):
    log.validate()
    assert_kernel_matches_reference(log)


@settings(max_examples=100)
@given(lossy_logs(loss_free=True))
def test_kernel_equals_reference_on_random_loss_free_logs(log):
    assert log.present.all() and _columns(log, sorted(log.receivers)).m is None
    assert_kernel_matches_reference(log)


def test_loss_free_kernel_with_two_pair_indices():
    log = make_log([0, 7000], {"a": {0: 500, 1: 9100}, "b": {0: 900, 1: 7300}, "c": {0: 10, 1: 7010}})
    assert_kernel_matches_reference(log)


@pytest.mark.parametrize("n", [0, 1])
def test_loss_free_sessions_too_short_to_estimate(n):
    log = make_log(list(range(0, 100 * n, 100)), {r: {k: 100 * k + 5 for k in range(n)} for r in "abc"})
    with pytest.raises(InsufficientDataError) as err:
        build_covariance_matrix(log, ["b", "a", "c"])
    assert str(err.value) == f"receiver 'b' has only {n} arrivals"
    oracle = covariance_oracle_from_log(log)
    for a, b in (("a", "b"), ("c", "a"), ("b", "c"), ("c", "c")):
        with pytest.raises(InsufficientDataError) as err:
            oracle(a, b)
        assert str(err.value) == f"pair ({a!r}, {b!r}) shares only {n} pair indices"


@pytest.mark.parametrize("lost", [False, True], ids=["loss-free", "one-lost"])
def test_kernel_divides_as_python_ints_when_the_denominator_passes_2_53(lost):
    # two receivers over ~95,000 indices: N(N-1)10^6 >= 2^53
    rng = np.random.default_rng(22)
    n, delta = 95_000, 100
    delays = rng.integers(0, 60_000, (2, n)).tolist()  # small enough for int64 numerators
    arrivals = {r: {k: k * delta + delays[i][k] for k in range(n) if not (lost and i == 1 and k == 7)} for i, r in enumerate("ab")}
    log = even_log(arrivals, n, delta)
    assert (n - lost) * (n - lost - 1) * MS2 >= 2**53
    cols = _columns(log, log.ids)
    assert (cols.m is None) != lost and not cols.wide and cols.x.dtype == np.float64
    cov = build_covariance_matrix(log, ["a", "b"])
    oracle = covariance_oracle_from_log(log)
    for a, b in (("a", "a"), ("a", "b"), ("b", "b")):
        want = reference_cov(log, a, b)
        assert cov.get(a, b) == cov.get(b, a) == oracle(a, b) == want
