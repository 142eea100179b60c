"""Property tests of the columnar MeasurementLog against the dicts it is
built from."""

import itertools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covtomo.errors import InvariantError
from covtomo.logio import export_log, import_log
from covtomo.model import MeasurementLog

I64 = 2**63


@st.composite
def log_dicts(draw):
    """(sender_ts, arrivals, interval_us) in the form `import_log` gives back:
    evenly spaced senders carry their interval, receivers are in sorted
    order, some receivers have no arrivals, and timestamps may pass 2^63."""
    n = draw(st.integers(1, 12))
    clock = draw(st.sampled_from([0, 10**9, I64 - 2**20, 2**64]))
    if draw(st.booleans()):
        gaps = [draw(st.integers(1, 1000))] * (n - 1)
    else:
        gaps = draw(st.lists(st.integers(1, 10**6), min_size=n - 1, max_size=n - 1))
    sender = list(itertools.accumulate(gaps, initial=clock))
    interval = gaps[0] if n >= 2 and len(set(gaps)) == 1 else None
    names = draw(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=4, unique=True))
    arrivals = {}
    for r in sorted(names):
        ks = sorted(draw(st.sets(st.integers(0, n - 1))))
        delays = draw(st.lists(st.integers(0, 10**7), min_size=len(ks), max_size=len(ks)))
        arrivals[r] = {k: sender[k] + d for k, d in zip(ks, delays)}
    return dict(enumerate(sender)), arrivals, interval


def reference_validate(sender_ts, arrivals, interval_us):
    """The checks `validate()` makes, in their order, on the dicts."""
    n = len(sender_ts)
    if n < 1:
        raise InvariantError("log holds no packet pairs")
    for k in range(1, n):
        if sender_ts[k] <= sender_ts[k - 1]:
            raise InvariantError(f"sender timestamps not strictly increasing at k={k}")
    if interval_us is not None:
        for k in range(n):
            if sender_ts[k] - sender_ts[0] != k * interval_us:
                raise InvariantError(f"fixed-interval contract broken at k={k}")
    for r, entries in arrivals.items():
        for k, ts in entries.items():
            if ts < sender_ts[k]:
                raise InvariantError(f"arrival before send for ({r!r}, k={k})")


def fits_int64(sender_ts, arrivals):
    stamps = itertools.chain(sender_ts.values(), *(e.values() for e in arrivals.values()))
    return all(-I64 <= ts < I64 for ts in stamps)


@settings(max_examples=150)
@given(log_dicts())
def test_views_equal_the_input_dicts(dicts):
    sender_ts, arrivals, interval = dicts
    log = MeasurementLog.from_dicts(sender_ts, arrivals, interval)
    log.validate()
    assert log.ids == tuple(sorted(arrivals))
    assert log.receivers == frozenset(arrivals)
    assert log.n_pairs == len(sender_ts)
    assert (log.sender.dtype == object) == (not fits_int64(sender_ts, arrivals))
    assert log.recv.dtype == log.sender.dtype
    assert log.sender_ts == sender_ts and dict(log.sender_ts) == sender_ts
    assert list(log.arrivals) == sorted(arrivals)
    for r, entries in arrivals.items():
        view = log.arrivals[r]
        assert view == entries and dict(view.items()) == entries
        assert len(view) == len(entries)
        assert list(view) == log.present_indices(r) == sorted(entries)
        for k in range(-1, log.n_pairs + 1):
            assert log.arrival(r, k) == entries.get(k)
            assert (k in view) == (k in entries)
        assert not log.recv[log.row(r)][~log.present[log.row(r)]].any()
    assert log.arrival("no such receiver", 0) is None


@settings(max_examples=100)
@given(log_dicts(), st.data())
def test_equality_compares_ids_interval_and_present_arrivals(dicts, data):
    sender_ts, arrivals, interval = dicts
    log = MeasurementLog.from_dicts(sender_ts, arrivals, interval)
    assert log == MeasurementLog.from_dicts(dict(sender_ts), arrivals, interval)
    silent = dict(arrivals, **{"".join(arrivals) + "!": {}})  # a name longer than any drawn
    assert log != MeasurementLog.from_dicts(sender_ts, silent, interval)
    assert log != MeasurementLog.from_dicts(sender_ts, arrivals, 10**9 if interval is None else None)
    # an absent slot's stored value is not part of the log
    recv = log.recv.copy()
    recv[~log.present] = 7
    assert log == MeasurementLog(log.ids, log.sender, recv, log.present, interval)
    full = [(r, k) for r, entries in arrivals.items() for k in entries]
    if full:
        r, k = data.draw(st.sampled_from(full))
        moved = {q: dict(e) for q, e in arrivals.items()}
        moved[r][k] += 1
        assert log != MeasurementLog.from_dicts(sender_ts, moved, interval)
        del moved[r][k]
        assert log != MeasurementLog.from_dicts(sender_ts, moved, interval)
        gaps = sorted(set(range(len(sender_ts))) - set(arrivals[r]))
        if gaps:
            moved[r][data.draw(st.sampled_from(gaps))] = arrivals[r][k]
            assert log != MeasurementLog.from_dicts(sender_ts, moved, interval)


@settings(max_examples=100)
@given(log_dicts())
def test_export_then_import_is_the_identity(dicts):
    sender_ts, arrivals, interval = dicts
    log = MeasurementLog.from_dicts(sender_ts, arrivals, interval)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.ndjson"
        export_log(log, path)
        back = import_log(path)
        # the wire format has no record for a receiver without arrivals
        heard = {r: entries for r, entries in arrivals.items() if entries}
        assert back == MeasurementLog.from_dicts(sender_ts, heard, interval)
        assert back.sender.dtype == log.sender.dtype
        export_log(back, Path(tmp) / "again.ndjson")
        assert (Path(tmp) / "again.ndjson").read_bytes() == path.read_bytes()


@settings(max_examples=200)
@given(log_dicts(), st.sampled_from(["repeat_send", "shift_send", "early_arrival"]), st.data())
def test_validate_raises_the_dict_checks_messages(dicts, fault, data):
    sender_ts, arrivals, interval = dicts
    n = len(sender_ts)
    if fault == "repeat_send" and n >= 2:
        k = data.draw(st.integers(1, n - 1))
        sender_ts[k] = sender_ts[k - 1] - data.draw(st.integers(0, 3))
    elif fault == "shift_send":
        sender_ts[data.draw(st.integers(0, n - 1))] += data.draw(st.integers(1, 3))
    else:
        full = [(r, k) for r, entries in arrivals.items() for k in entries]
        if full:
            r, k = data.draw(st.sampled_from(full))
            arrivals[r][k] = sender_ts[k] - data.draw(st.integers(1, 10))
    log = MeasurementLog.from_dicts(sender_ts, arrivals, interval)
    try:
        reference_validate(sender_ts, arrivals, interval)
    except InvariantError as exc:
        with pytest.raises(InvariantError) as got:
            log.validate()
        assert str(got.value) == str(exc)
    else:
        log.validate()


@pytest.mark.parametrize(
    "sender_ts, arrivals, message",
    [
        ({0: 0, 2: 20}, {"a": {0: 1}}, "must cover pair indices 0..n-1"),
        ({0: 0, 1: 10}, {"a": {0: 1, 2: 25}}, "unknown pair index 2 at 'a'"),
        ({0: 0, 1: 10}, {"a": {-1: 1}}, "unknown pair index -1 at 'a'"),
    ],
)
def test_from_dicts_rejects_indices_outside_the_sender(sender_ts, arrivals, message):
    with pytest.raises(InvariantError, match=message):
        MeasurementLog.from_dicts(sender_ts, arrivals)


def test_columns_are_read_only():
    log = MeasurementLog.from_dicts({0: 0, 1: 10}, {"a": {0: 3}, "b": {}}, 10)
    assert len(log.arrivals["b"]) == 0 and log.arrivals["b"] == {}
    for column in (log.sender, log.recv, log.present):
        with pytest.raises(ValueError):
            column[0] = 1
    with pytest.raises(TypeError):
        log.arrivals["a"][1] = 5
    assert np.array_equal(log.present, [[True, False], [False, False]])
