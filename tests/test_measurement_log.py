"""Property tests of the columnar MeasurementLog against the dicts its
columns are filled from (`treegen.log_from_dicts`)."""

import itertools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covtomo.errors import InputError, InvariantError
from covtomo.logio import export_log, import_log
from covtomo.model import TIMESTAMP_LIMIT_US, MeasurementLog
from treegen import log_from_dicts

# the largest timestamp magnitude a log holds
EDGE = TIMESTAMP_LIMIT_US - 1
OUT_OF_RANGE = r"timestamps must lie strictly between -2\^62 and 2\^62 us"


@st.composite
def log_dicts(draw):
    """(sender_ts, arrivals) in the form `import_log` gives back: senders
    evenly or unevenly spaced, receivers in sorted order, some receivers
    without arrivals, and timestamps anywhere in the log's range: the
    first send may sit at its lower edge, or the last timestamp at its
    upper edge."""
    n = draw(st.integers(1, 12))
    clock = draw(st.sampled_from([0, 10**9, "low", "high"]))
    if draw(st.booleans()):
        gaps = [draw(st.integers(1, 1000))] * (n - 1)
    else:
        gaps = draw(st.lists(st.integers(1, 10**6), min_size=n - 1, max_size=n - 1))
    sender = list(itertools.accumulate(gaps, initial=0))
    names = draw(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=4, unique=True))
    arrivals = {}
    for r in sorted(names):
        ks = sorted(draw(st.sets(st.integers(0, n - 1))))
        delays = draw(st.lists(st.integers(0, 10**7), min_size=len(ks), max_size=len(ks)))
        arrivals[r] = {k: sender[k] + d for k, d in zip(ks, delays)}
    last = max(itertools.chain(sender, *(e.values() for e in arrivals.values())))
    shift = {"low": -EDGE, "high": EDGE - last}.get(clock, clock)
    arrivals = {r: {k: ts + shift for k, ts in e.items()} for r, e in arrivals.items()}
    return {k: ts + shift for k, ts in enumerate(sender)}, arrivals


def nudged(ts):
    """``ts`` moved by one toward 0, so it stays in the log's range."""
    return ts - 1 if ts > 0 else ts + 1


def in_range(sender_ts, arrivals):
    stamps = itertools.chain(sender_ts.values(), *(e.values() for e in arrivals.values()))
    return all(-EDGE <= ts <= EDGE for ts in stamps)


def reference_validate(sender_ts, arrivals):
    """The checks `validate()` makes, in their order, on the dicts."""
    n = len(sender_ts)
    if n < 1:
        raise InvariantError("log holds no packet pairs")
    for k in range(1, n):
        if sender_ts[k] <= sender_ts[k - 1]:
            raise InvariantError(f"sender timestamps not strictly increasing at k={k}")
    for r, entries in arrivals.items():
        for k, ts in entries.items():
            if ts < sender_ts[k]:
                raise InvariantError(f"arrival before send for ({r!r}, k={k})")


@settings(max_examples=150)
@given(log_dicts())
def test_views_equal_the_input_dicts(dicts):
    sender_ts, arrivals = dicts
    log = log_from_dicts(sender_ts, arrivals)
    log.validate()
    assert log.ids == tuple(sorted(arrivals))
    assert log.receivers == frozenset(arrivals)
    assert log.n_pairs == len(sender_ts)
    assert log.sender.dtype == log.recv.dtype == np.int64
    assert log.sender.tolist() == [sender_ts[k] for k in range(log.n_pairs)]
    assert list(log.arrivals) == sorted(arrivals)
    for r, entries in arrivals.items():
        row = log.row(r)
        present = np.flatnonzero(log.present[row]).tolist()
        assert present == sorted(entries)
        assert {k: log.recv[row, k] for k in present} == entries
        assert not log.recv[row][~log.present[row]].any()
        view = log.arrivals[r]
        assert view == entries and dict(view.items()) == entries
        assert len(view) == len(entries) == log.counts[row]
        assert list(view) == sorted(entries)
        for k in range(-1, log.n_pairs + 1):
            assert view.get(k) == entries.get(k)
            assert (k in view) == (k in entries)
    with pytest.raises(InputError, match="unknown receiver"):
        log.row("no such receiver")


@settings(max_examples=100)
@given(log_dicts(), st.data())
def test_equality_compares_ids_sender_and_present_arrivals(dicts, data):
    sender_ts, arrivals = dicts
    log = log_from_dicts(sender_ts, arrivals)
    assert log == log_from_dicts(dict(sender_ts), arrivals)
    silent = dict(arrivals, **{"".join(arrivals) + "!": {}})  # a name longer than any drawn
    assert log != log_from_dicts(sender_ts, silent)
    later = dict(sender_ts)
    k = data.draw(st.sampled_from(sorted(later)))
    later[k] = nudged(later[k])
    assert log != log_from_dicts(later, arrivals)
    # an absent slot's stored value is not part of the log
    recv = log.recv.copy()
    recv[~log.present] = 7
    assert log == MeasurementLog(log.ids, log.sender, recv, log.present)
    full = [(r, k) for r, entries in arrivals.items() for k in entries]
    if full:
        r, k = data.draw(st.sampled_from(full))
        moved = {q: dict(e) for q, e in arrivals.items()}
        moved[r][k] = nudged(moved[r][k])
        assert log != log_from_dicts(sender_ts, moved)
        del moved[r][k]
        assert log != log_from_dicts(sender_ts, moved)
        gaps = sorted(set(range(len(sender_ts))) - set(arrivals[r]))
        if gaps:
            moved[r][data.draw(st.sampled_from(gaps))] = arrivals[r][k]
            assert log != log_from_dicts(sender_ts, moved)


@settings(max_examples=100)
@given(log_dicts())
def test_export_then_import_is_the_identity(dicts):
    sender_ts, arrivals = dicts
    log = log_from_dicts(sender_ts, arrivals)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.ndjson"
        export_log(log, path)
        back = import_log(path)
        # the wire format has no record for a receiver without arrivals
        heard = {r: entries for r, entries in arrivals.items() if entries}
        assert back == log_from_dicts(sender_ts, heard)
        assert back.sender.dtype == log.sender.dtype
        export_log(back, Path(tmp) / "again.ndjson")
        assert (Path(tmp) / "again.ndjson").read_bytes() == path.read_bytes()


@settings(max_examples=200)
@given(log_dicts(), st.sampled_from(["repeat_send", "shift_send", "early_arrival"]), st.data())
def test_validate_raises_the_dict_checks_messages(dicts, fault, data):
    sender_ts, arrivals = dicts
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
    if not in_range(sender_ts, arrivals):
        # a fault at an edge of the range
        with pytest.raises(InputError, match=OUT_OF_RANGE):
            log_from_dicts(sender_ts, arrivals)
        return
    log = log_from_dicts(sender_ts, arrivals)
    try:
        reference_validate(sender_ts, arrivals)
    except InvariantError as exc:
        with pytest.raises(InvariantError) as got:
            log.validate()
        assert str(got.value) == str(exc)
    else:
        log.validate()


@pytest.mark.parametrize("column", ["sender", "recv"])
@pytest.mark.parametrize(
    "ts, accepted",
    [
        (EDGE, True),
        (-EDGE, True),
        (TIMESTAMP_LIMIT_US, False),
        (-TIMESTAMP_LIMIT_US, False),
        (2**63 - 1, False),
        (-(2**63), False),
    ],
)
def test_timestamps_must_lie_below_the_limit(column, ts, accepted):
    columns = {"sender": [0, 1], "recv": [0, 1]}
    columns[column] = [ts, ts + 1] if ts < 0 else [ts - 1, ts]
    args = (("a",), np.array(columns["sender"], np.int64), np.array([columns["recv"]], np.int64), np.ones((1, 2), bool))
    if accepted:
        log = MeasurementLog(*args)
        assert log.sender.tolist() == columns["sender"] and log.recv.tolist() == [columns["recv"]]
        return
    with pytest.raises(InputError, match=OUT_OF_RANGE):
        MeasurementLog(*args)


@pytest.mark.parametrize("dtype", [np.int32, np.uint64, np.float64, object])
@pytest.mark.parametrize("column", ["sender", "recv"])
def test_timestamp_columns_must_be_int64(column, dtype):
    columns = {"sender": np.array([0, 10], np.int64), "recv": np.array([[3, 12]], np.int64)}
    columns[column] = columns[column].astype(dtype)
    with pytest.raises(InputError, match=f"timestamps must be int64, got {np.dtype(dtype)}"):
        MeasurementLog(("a",), columns["sender"], columns["recv"], np.ones((1, 2), bool))


@pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.float64, object])
def test_presence_column_must_be_bool(dtype):
    # read as bool, 0/1 presence would index recv by position in __eq__
    present = np.array([[1, 0]], dtype)
    with pytest.raises(InputError, match=f"^presence must be bool, got {np.dtype(dtype)}$"):
        MeasurementLog(("a",), np.array([0, 10], np.int64), np.array([[3, 0]], np.int64), present)


def test_columns_are_read_only():
    log = log_from_dicts({0: 0, 1: 10}, {"a": {0: 3}, "b": {}})
    assert len(log.arrivals["b"]) == 0 and log.arrivals["b"] == {}
    assert log.counts == (1, 0)
    for column in (log.sender, log.recv, log.present):
        with pytest.raises(ValueError):
            column[0] = 1
    with pytest.raises(TypeError):
        log.arrivals["a"][1] = 5
    assert np.array_equal(log.present, [[True, False], [False, False]])
