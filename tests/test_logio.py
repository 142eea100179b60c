import itertools
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covtomo import logio
from covtomo.errors import LogFormatError
from covtomo.logio import (
    _parse_exported,
    _parse_lines,
    export_log,
    import_log,
    load_matrix,
    load_tree,
    save_matrix,
    save_tree,
)
from covtomo.model import TIMESTAMP_LIMIT_US, CovarianceMatrix, MeasurementLog
from covtomo.simulator import SimulatorConfig, generate_topology, simulate_session

from treegen import log_from_dicts, random_truth_tree, relabel_routers


def sample_log(with_losses=False):
    arrivals = {
        "a": {k: k * 30 + 100 + (k % 3) for k in range(6)},
        "b": {k: k * 30 + 250 for k in range(6)},
    }
    if with_losses:
        del arrivals["a"][2]
        del arrivals["b"][4]
    return log_from_dicts({k: k * 30 for k in range(6)}, arrivals)


def test_round_trip_identical(tmp_path):
    path = tmp_path / "log.ndjson"
    log = sample_log()
    export_log(log, path)
    back = import_log(path)
    assert back == log
    # and byte-identical on re-export
    second = tmp_path / "log2.ndjson"
    export_log(back, second)
    assert path.read_bytes() == second.read_bytes()


def test_round_trip_with_losses(tmp_path):
    path = tmp_path / "log.ndjson"
    log = sample_log(with_losses=True)
    export_log(log, path)
    back = import_log(path)
    assert back == log
    assert not back.present[back.row("a"), 2]


def test_simulated_log_round_trip(tmp_path):
    cfg = SimulatorConfig(n_hosts=6, n_routers=3, seed=2, n_pairs=50, pair_interval_us=2000)
    net = generate_topology(cfg)
    log = simulate_session(net, cfg)
    path = tmp_path / "log.ndjson"
    export_log(log, path)
    assert import_log(path) == log
    data = path.read_bytes()
    assert _parse_exported(data) == _parse_lines(data) == log


def reference_ndjson(log) -> bytes:
    """One json.dumps(record, sort_keys=True) per record."""
    lines = [
        json.dumps({"type": "send", "k": k, "ts_us": ts}, sort_keys=True)
        for k, ts in enumerate(log.sender.tolist())
    ]
    for row, receiver in enumerate(log.ids):
        recv = log.recv[row].tolist()
        for k in np.flatnonzero(log.present[row]).tolist():
            record = {"type": "recv", "receiver": receiver, "k": k, "ts_us": recv[k]}
            lines.append(json.dumps(record, sort_keys=True))
    return ("\n".join(lines) + "\n").encode("utf-8")


# the largest timestamp magnitude a log holds: 19 digits, past the array
# reader's 18
EDGE = TIMESTAMP_LIMIT_US - 1


# the last timestamp below is clock + 126
@pytest.mark.parametrize("clock", [0, -EDGE, EDGE - 126])
def test_export_bytes_equal_per_record_json_dumps(tmp_path, clock):
    names = ["plain", 'quo"te', "back\\slash", "pct%d%s%%", "na\u00efve-\u03c0\u03c1", "\U0001f600", "tab\t"]
    arrivals = {
        name: {k: clock + k * 30 + i for k in range(5) if (k + i) % 3} for i, name in enumerate(names)
    }
    log = log_from_dicts({k: clock + k * 30 for k in range(5)}, arrivals)
    path = tmp_path / "log.ndjson"
    export_log(log, path)
    assert path.read_bytes() == reference_ndjson(log)
    assert import_log(path) == log


RANGE_EDGES = [-EDGE, -EDGE + 1, -(10**18), -10001, -10000, -1, 0, 1, 9999, 10000, 10**18, EDGE - 1, EDGE]


@st.composite
def exportable_logs(draw):
    """Columns as `MeasurementLog` takes them, unchecked beyond that: any
    timestamps of the log's range (negative, out of order, its edges);
    receivers without arrivals; names with characters json.dumps escapes,
    ``%`` and non-ASCII characters."""
    n = draw(st.integers(0, 9))
    chars = st.one_of(st.sampled_from('a%"\\\t\x00\x1f\x7f é\U0001f600'), st.characters(codec="utf-8"))
    ids = sorted(draw(st.lists(st.text(chars, max_size=6), max_size=5, unique=True)))
    ints = st.one_of(st.integers(-EDGE, EDGE), st.sampled_from(RANGE_EDGES))
    sender = np.array(draw(st.lists(ints, min_size=n, max_size=n)), dtype=np.int64)
    present = np.array(draw(st.lists(st.booleans(), min_size=n * len(ids), max_size=n * len(ids))), bool)
    present = present.reshape(len(ids), n)
    recv = np.zeros(present.shape, dtype=np.int64)
    for i, k in zip(*np.nonzero(present)):
        recv[i, k] = draw(ints)
    return MeasurementLog(ids, sender, recv, present)


@settings(max_examples=300)
@given(exportable_logs())
def test_export_bytes_equal_reference_for_any_columns(log):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.ndjson"
        export_log(log, path)
        assert path.read_bytes() == reference_ndjson(log)


def test_export_spans_several_blocks_of_a_lossy_log(tmp_path):
    n_pairs = 2**14 + 100
    cfg = SimulatorConfig(n_hosts=12, n_routers=4, seed=3, n_pairs=n_pairs, bg_rate_bytes_per_sec=12e6)
    log = simulate_session(generate_topology(cfg), cfg)
    assert not log.present.all()
    path = tmp_path / "log.ndjson"
    export_log(log, path)
    # the file crosses the write boundary several times
    assert path.stat().st_size > 2 * logio._WRITE_BYTES
    assert path.read_bytes() == reference_ndjson(log)
    assert import_log(path) == log


def test_export_blocks_shrink_for_long_names(tmp_path, monkeypatch):
    names = ["a" * (logio._WRITE_BYTES // 3), "b" * 5, "c\\" * (logio._WRITE_BYTES // 5)]
    arrivals = {name: {k: 10 * k + i for k in range(7) if (k + i) % 4} for i, name in enumerate(names)}
    log = log_from_dicts({k: 10 * k for k in range(7)}, arrivals)
    path = tmp_path / "log.ndjson"
    # 1 makes every receiver boundary a write boundary; at 1 MiB the short
    # receiver is gathered into one write with the long one after it
    for write_bytes in (1, 2**20):
        monkeypatch.setattr(logio, "_WRITE_BYTES", write_bytes)
        export_log(log, path)
        assert path.read_bytes() == reference_ndjson(log)


def test_export_holds_one_write_and_one_receiver_at_a_time(tmp_path):
    # the desk lossy log: 105 receivers, 2000 pairs, ~38% of packets lost
    cfg = SimulatorConfig(n_pairs=2000, bg_rate_bytes_per_sec=12e6, seed=1)
    log = simulate_session(generate_topology(cfg), cfg)
    path = tmp_path / "log.ndjson"
    tracemalloc.start()
    try:
        export_log(log, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 8 * 2**20
    # about 4.1 MiB: the gathered receivers of one write and their joined
    # copy, plus one receiver's template, arguments and text
    assert peak < 6 * 2**20


def test_causality_violation_reports_line(tmp_path):
    path = tmp_path / "bad.ndjson"
    lines = [
        json.dumps({"type": "send", "k": 0, "ts_us": 100}),
        json.dumps({"type": "send", "k": 1, "ts_us": 200}),
        json.dumps({"type": "recv", "receiver": "a", "k": 1, "ts_us": 150}),
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogFormatError) as exc:
        import_log(path)
    assert exc.value.line == 3
    assert "before send" in str(exc.value)


def test_malformed_line_number(tmp_path):
    path = tmp_path / "bad.ndjson"
    path.write_text('{"type": "send", "k": 0, "ts_us": 0}\nnot json\n')
    with pytest.raises(LogFormatError) as exc:
        import_log(path)
    assert exc.value.line == 2


@pytest.mark.parametrize(
    "records,message",
    [
        ([{"type": "send", "k": 0, "ts_us": 0}, {"type": "send", "k": 0, "ts_us": 5}], "duplicate send"),
        (
            [
                {"type": "send", "k": 0, "ts_us": 0},
                {"type": "recv", "receiver": "a", "k": 0, "ts_us": 4},
                {"type": "recv", "receiver": "a", "k": 0, "ts_us": 6},
            ],
            "duplicate recv",
        ),
        ([{"type": "send", "k": 0, "ts_us": 10}, {"type": "send", "k": 1, "ts_us": 10}], "increasing"),
        ([{"type": "send", "k": 0, "ts_us": 0}, {"type": "send", "k": 2, "ts_us": 9}], "missing send"),
        ([{"type": "ping", "k": 0, "ts_us": 0}], "unknown record type"),
        ([{"type": "send", "k": 0}], "missing field"),
        ([{"type": "send", "k": 0, "ts_us": 1.5}], "integer"),
    ],
)
def test_format_errors(tmp_path, records, message):
    path = tmp_path / "bad.ndjson"
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    with pytest.raises(LogFormatError, match=message):
        import_log(path)


SEND0 = '{"type": "send", "k": 0, "ts_us": 100}'
SEND1 = '{"type": "send", "k": 1, "ts_us": 200}'


def recv(receiver, k, ts):
    return json.dumps({"type": "recv", "receiver": receiver, "k": k, "ts_us": ts}, ensure_ascii=False)


# full message and line of every error kind, and of which error wins when a
# log has several: any change to the parse loop must keep each one exactly
ERROR_TABLE = [
    (SEND0 + "\nnot json\n", "line 2: invalid JSON: Expecting value", 2),
    ("\ufeff" + SEND0 + "\n", "line 1: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)", 1),
    (SEND0 + " x\n", "line 1: invalid JSON: Extra data", 1),
    (SEND0 + "\n" + SEND1[:-1] + "\n", "line 2: invalid JSON: Expecting ',' delimiter", 2),
    (SEND0 + "\n[1, 2]\n", "line 2: record must be a JSON object", 2),
    (SEND0 + '\n{"type": "ping", "k": 0, "ts_us": 0}\n', "line 2: unknown record type 'ping'", 2),
    ('{"type": "send", "k": 0}\n', "line 1: missing field 'ts_us'", 1),
    ('{"type": "send", "k": 0, "ts_us": 1.5}\n', "line 1: field 'ts_us' must be an integer", 1),
    (SEND0 + "\n" + recv(7, 0, 150) + "\n", "line 2: field 'receiver' must be str", 2),
    # k is checked before the receiver
    (SEND0 + '\n{"type": "recv", "k": true, "ts_us": 150}\n', "line 2: field 'k' must be an integer", 2),
    (SEND0 + "\n" + SEND0 + "\n", "line 2: duplicate send record for k=0", 2),
    ('{"type": "send", "k": -1, "ts_us": 0}\n', "line 1: pair index must be non-negative", 1),
    # blank lines count
    (
        SEND0 + "\n\n" + recv("a", 0, 150) + "\n" + recv("a", 0, 160) + "\n",
        "line 4: duplicate recv record for ('a', k=0)",
        4,
    ),
    (recv("a", 0, 150) + "\n", "log contains no send records", None),
    (SEND0 + '\n{"type": "send", "k": 3, "ts_us": 400}\n' + SEND1 + "\n", "missing send record for k=2", None),
    (
        SEND0 + '\n{"type": "send", "k": 1, "ts_us": 100}\n',
        "sender timestamps not strictly increasing at k=1",
        None,
    ),
    # an error on a line beats a later error over the whole log
    (
        '{"type": "send", "k": 2, "ts_us": 0}\n\n{"type": "recv", "receiver": "a", "k": 0}\n',
        "line 3: missing field 'ts_us'",
        3,
    ),
    # of an unknown index and an early arrival, the earlier line is reported
    (
        SEND0 + "\n" + SEND1 + "\n" + recv("a", 5, 900) + "\n" + recv("b", 1, 150) + "\n",
        "line 3: recv for unknown pair index k=5",
        3,
    ),
    (
        SEND0 + "\n" + SEND1 + "\n" + recv("b", 1, 150) + "\n" + recv("a", 5, 900) + "\n",
        "line 3: arrival at 150 before send at 200 for ('b', k=1)",
        3,
    ),
    # lines end at \n, \r\n or \r only: a raw U+2028 in a name does not
    # start a new line, as str.splitlines would make it
    (
        "\r\n".join([SEND0, SEND1, recv("a\u2028b", 0, 150), recv("a\u2028b", 1, 150), ""]),
        "line 4: arrival at 150 before send at 200 for ('a\\u2028b', k=1)",
        4,
    ),
    # timestamps must lie strictly between -2^62 and 2^62, checked before
    # duplicates and arrival order
    (
        SEND0 + '\n{"type": "send", "k": 1, "ts_us": 4611686018427387904}\n',
        "line 2: field 'ts_us' must lie strictly between -2^62 and 2^62",
        2,
    ),
    (
        SEND0 + "\n" + SEND1 + "\n\n" + recv("a", 0, -(2**62)) + "\n",
        "line 4: field 'ts_us' must lie strictly between -2^62 and 2^62",
        4,
    ),
    (
        SEND0 + "\n" + recv("a", 0, 2**64) + "\n" + recv("a", 0, 150) + "\n",
        "line 2: field 'ts_us' must lie strictly between -2^62 and 2^62",
        2,
    ),
    # int() refuses literals of more than sys.get_int_max_str_digits()
    (
        SEND0 + '\n{"type": "send", "k": ' + "1" * 5001 + ', "ts_us": 200}\n',
        "line 2: invalid JSON: integer literal longer than 4300 digits",
        2,
    ),
]

# nesting past the recursion limit, and bytes that are not UTF-8, are errors
# of their line, and an error on an earlier line still wins; named cases,
# as a 200,000-byte text makes a poor test id
BAD_TEXT_ERRORS = {
    "nested_too_deeply": (SEND0 + "\n" + "[" * 200_000 + "\n", "line 2: invalid JSON: nested too deeply", 2),
    "earlier_error_beats_nesting": (
        SEND0 + "\n" + SEND0 + "\n" + "[" * 200_000 + "\n",
        "line 2: duplicate send record for k=0",
        2,
    ),
    "not_utf8": (
        (SEND0 + "\n" + recv("ab", 0, 150) + "\n").encode().replace(b"ab", b"a\xffb"),
        "line 2: invalid UTF-8: byte 0xff",
        2,
    ),
    "earlier_error_beats_not_utf8": (
        ("not json\n" + SEND0 + "\n" + recv("ab", 0, 150) + "\n").encode().replace(b"ab", b"a\xffb"),
        "line 1: invalid JSON: Expecting value",
        1,
    ),
    # 0xc3 starts a sequence that 0x28 does not continue, and 0x80 is a
    # stray continuation byte: the first bad byte is named
    "first_bad_byte_is_named": (
        (SEND0 + "\n\n" + recv("ab", 0, 150) + "\n").encode().replace(b"ab", b"\xc3\x28\x80"),
        "line 3: invalid UTF-8: byte 0xc3",
        3,
    ),
}
ERROR_CASES = ERROR_TABLE + [pytest.param(*case, id=name) for name, case in BAD_TEXT_ERRORS.items()]


def as_bytes(text) -> bytes:
    return text if isinstance(text, bytes) else text.encode("utf-8")


@pytest.mark.parametrize("text,message,line", ERROR_CASES)
def test_format_error_messages_exact(tmp_path, text, message, line):
    path = tmp_path / "bad.ndjson"
    path.write_bytes(as_bytes(text))
    with pytest.raises(LogFormatError) as exc:
        import_log(path)
    assert (str(exc.value), exc.value.line) == (message, line)


def test_19_digit_timestamps_import_through_the_line_loop(tmp_path):
    # EDGE has 19 digits, one more than the array reader takes
    assert len(str(EDGE)) == 19
    sender_ts = {0: EDGE - 10, 1: EDGE - 5}
    arrivals = {"a": {0: EDGE - 7, 1: EDGE}, "b": {1: EDGE - 1}}
    log = log_from_dicts(sender_ts, arrivals)
    path = tmp_path / "log.ndjson"
    export_log(log, path)
    data = path.read_bytes()
    assert b'"ts_us": 4611686018427387903' in data
    assert _parse_exported(data) is None
    assert import_log(path) == _parse_lines(data) == log


def test_missing_send_index_costs_nothing_per_absent_index(tmp_path):
    # a range over the absent indices would need ~100 GB here
    path = tmp_path / "bad.ndjson"
    huge = '{"type": "send", "k": 1000000000000000000, "ts_us": 900}'
    path.write_text("\n".join([SEND0, huge, SEND1, ""]))
    with pytest.raises(LogFormatError) as exc:
        import_log(path)
    assert (str(exc.value), exc.value.line) == ("missing send record for k=2", None)


def test_tree_and_matrix_files(tmp_path):
    rng = np.random.default_rng(12)
    tree, _ = random_truth_tree(rng, 6)
    tree_path = tmp_path / "tree.json"
    save_tree(tree, tree_path)
    assert load_tree(tree_path).to_dict() == tree.to_dict()

    cov = CovarianceMatrix(("a", "b"), np.array([[1.0, 0.25], [0.25, 1.0]]))
    cov_path = tmp_path / "cov.json"
    save_matrix(cov, cov_path)
    back = load_matrix(cov_path)
    assert back.receivers == cov.receivers
    assert np.array_equal(back.values, cov.values)


# ----------------------------------------------------------------------
# the two readers: _parse_exported must return None or the loop's log


def outcome(read, source):
    """The log `read` returns for `source`, or its error's (message, line)."""
    try:
        return read(source)
    except LogFormatError as exc:
        return (str(exc), exc.line)


BASE_LINES = [
    '{"k": 0, "ts_us": 100, "type": "send"}',
    '{"k": 1, "ts_us": 200, "type": "send"}',
    '{"k": 2, "ts_us": 300, "type": "send"}',
    '{"k": 0, "receiver": "a", "ts_us": 150, "type": "recv"}',
    '{"k": 2, "receiver": "a", "ts_us": 390, "type": "recv"}',
    '{"k": 1, "receiver": "b", "ts_us": 260, "type": "recv"}',
]


def base_text(lines=BASE_LINES, end="\n"):
    return end.join(lines) + end


def swapped(i, old, new):
    lines = list(BASE_LINES)
    assert old in lines[i]
    lines[i] = lines[i].replace(old, new, 1)
    return base_text(lines)


def inserted(i, line):
    return base_text(BASE_LINES[:i] + [line] + BASE_LINES[i:])


# mutations of an exported log: (name, text, the error import_log raises or
# None for a log, whether _parse_exported reads it). Every error is the one
# the line loop raised before the array reader existed, except for the
# literal of 5001 digits, which escaped as a plain ValueError then.
MUTATIONS = [
    ("exported", base_text(), None, True),
    ("blank line", inserted(2, ""), None, False),
    (
        "BOM",
        "\ufeff" + base_text(),
        ("line 1: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)", 1),
        False,
    ),
    ("CRLF", base_text(end="\r\n"), None, False),
    ("CR", base_text(end="\r"), None, False),
    ("no final newline", base_text()[:-1], None, False),
    (
        "leading zero k",
        swapped(1, '"k": 1', '"k": 01'),
        ("line 2: invalid JSON: Expecting ',' delimiter", 2),
        False,
    ),
    (
        "leading zero ts",
        swapped(4, '"ts_us": 390', '"ts_us": 0390'),
        ("line 5: invalid JSON: Expecting ',' delimiter", 5),
        False,
    ),
    ("minus zero", swapped(0, '"k": 0', '"k": -0'), None, False),
    ("plus sign", swapped(1, '"k": 1', '"k": +1'), ("line 2: invalid JSON: Expecting value", 2), False),
    ("19-digit ts", swapped(4, '"ts_us": 390', '"ts_us": 1000000000000000000'), None, False),
    (
        "19-digit k",
        swapped(2, '"k": 2', '"k": 1000000000000000000'),
        ("missing send record for k=2", None),
        False,
    ),
    (
        "5001-digit k",
        swapped(3, '"k": 0', '"k": ' + "7" * 5001),
        ("line 4: invalid JSON: integer literal longer than 4300 digits", 4),
        False,
    ),
    (
        "reordered keys",
        swapped(1, '{"k": 1, "ts_us": 200, "type": "send"}', '{"type": "send", "k": 1, "ts_us": 200}'),
        None,
        False,
    ),
    ("extra spaces", swapped(3, '"k": 0, ', '"k":  0 , '), None, False),
    ("trailing spaces", swapped(5, '"recv"}', '"recv"}  '), None, False),
    ("escaped name", swapped(3, '"a"', '"\\u0061"'), None, False),
    ("quote in name", swapped(5, '"b"', '"b\\"q"'), None, False),
    ("raw non-ASCII name", swapped(5, '"b"', '"é  "'), None, True),
    (
        "raw tab in name",
        swapped(5, '"b"', '"b\tq"'),
        ("line 6: invalid JSON: Invalid control character at", 6),
        False,
    ),
    ("empty name", swapped(5, '"b"', '""'), None, True),
    ("recv before send", base_text(BASE_LINES[3:] + BASE_LINES[:3]), None, True),
    (
        "float ts",
        swapped(2, '"ts_us": 300', '"ts_us": 300.0'),
        ("line 3: field 'ts_us' must be an integer", 3),
        False,
    ),
    ("duplicate send", inserted(3, BASE_LINES[1]), ("line 4: duplicate send record for k=1", 4), False),
    (
        "duplicate recv",
        inserted(5, BASE_LINES[4]),
        ("line 6: duplicate recv record for ('a', k=2)", 6),
        False,
    ),
    ("unknown k", swapped(5, '"k": 1', '"k": 3'), ("line 6: recv for unknown pair index k=3", 6), False),
    (
        "early arrival",
        swapped(4, '"ts_us": 390', '"ts_us": 299'),
        ("line 5: arrival at 299 before send at 300 for ('a', k=2)", 5),
        False,
    ),
    (
        "non-increasing sender",
        swapped(1, '"ts_us": 200', '"ts_us": 100'),
        ("sender timestamps not strictly increasing at k=1", None),
        False,
    ),
    (
        "missing send",
        base_text(BASE_LINES[:1] + BASE_LINES[2:]),
        ("missing send record for k=1", None),
        False,
    ),
    ("unknown type", swapped(2, '"send"', '"sent"'), ("line 3: unknown record type 'sent'", 3), False),
    ("empty file", "", ("log contains no send records", None), False),
    # each breaks one part of the template that the other checks do not see
    ("misspelt k key", swapped(2, '{"k"', '{"j"'), ("line 3: missing field 'k'", 3), False),
    ("empty k", swapped(1, '"k": 1, ', '"k": , '), ("line 2: invalid JSON: Expecting value", 2), False),
    ("misspelt send key", swapped(1, '"ts_us"', '"ts_uX"'), ("line 2: missing field 'ts_us'", 2), False),
    (
        "space inside ts",
        swapped(1, '"ts_us": 200', '"ts_us": 1 150'),
        ("line 2: invalid JSON: Expecting ',' delimiter", 2),
        False,
    ),
    (
        "misspelt receiver key",
        swapped(3, '"receiver"', '"receivex"'),
        ("line 4: missing field 'receiver'", 4),
        False,
    ),
    ("misspelt recv ts key", swapped(4, '"ts_us"', '"ts_uX"'), ("line 5: missing field 'ts_us'", 5), False),
    (
        "misspelt recv type",
        swapped(5, '"recv"}', '"recX"}'),
        ("line 6: unknown record type 'recX'", 6),
        False,
    ),
    (
        "raw quote in name",
        swapped(5, '"b"', '"b"q"'),
        ("line 6: invalid JSON: Expecting ',' delimiter", 6),
        False,
    ),
    (
        "overlapping name",
        swapped(3, '"a", ', '", '),
        ("line 4: invalid JSON: Expecting ',' delimiter", 4),
        False,
    ),
    (
        "duplicate send hides k=0",
        swapped(0, '"k": 0', '"k": 1'),
        ("line 2: duplicate send record for k=1", 2),
        False,
    ),
]


@pytest.mark.parametrize("text,error,fast", [m[1:] for m in MUTATIONS], ids=[m[0] for m in MUTATIONS])
def test_mutated_logs_keep_their_outcome(tmp_path, text, error, fast):
    path = tmp_path / "log.ndjson"
    path.write_bytes(text.encode("utf-8"))
    expected = outcome(_parse_lines, path.read_bytes())
    if error is None:
        assert isinstance(expected, MeasurementLog)
    else:
        assert expected == error
    assert outcome(import_log, path) == expected
    parsed = _parse_exported(path.read_bytes())
    assert (parsed is not None) == fast
    assert parsed is None or parsed == expected


@pytest.mark.parametrize(
    "text",
    [text for text, _, _ in ERROR_TABLE]
    + [pytest.param(text, id=name) for name, (text, _, _) in BAD_TEXT_ERRORS.items()],
)
def test_exported_reader_leaves_every_pinned_error_to_the_loop(text):
    assert _parse_exported(as_bytes(text)) is None


def test_exported_reader_leaves_names_that_are_not_utf8_to_the_loop():
    data = base_text().encode("utf-8")
    assert _parse_exported(data) is not None
    assert _parse_exported(data.replace(b'"b"', b'"\xff"')) is None


# the characters json.dumps writes unescaped
BARE = "".join(c for c in map(chr, range(0x20, 0x7F)) if c not in '"\\')


@st.composite
def heard_logs(draw):
    """Logs that export and import back unchanged: every receiver has an
    arrival, and senders are evenly or unevenly spaced. Names are
    printable ASCII or mix in characters the export escapes; timestamps
    reach up to the edge of the log's range."""
    n = draw(st.integers(1, 12))
    top = draw(st.sampled_from([10**6, 10**18 - 1, EDGE]))
    clock = draw(st.integers(0, top // 2))
    if draw(st.booleans()):
        gaps = [draw(st.integers(1, (top - clock) // max(n, 2)))] * (n - 1)
    else:
        gaps = draw(st.lists(st.integers(1, (top - clock) // max(n, 2)), min_size=n - 1, max_size=n - 1))
    sender = list(itertools.accumulate(gaps, initial=clock))
    chars = st.sampled_from(BARE)
    if draw(st.booleans()):
        chars = st.one_of(chars, st.sampled_from('%"\\\t\x00\x7fé \U0001f600'), st.characters(codec="utf-8"))
    names = draw(st.lists(st.text(chars, max_size=6), min_size=1, max_size=5, unique=True))
    arrivals = {}
    for r in names:
        ks = draw(st.sets(st.integers(0, n - 1), min_size=1))
        arrivals[r] = {k: draw(st.integers(sender[k], top)) for k in sorted(ks)}
    return log_from_dicts(dict(enumerate(sender)), arrivals)


@settings(max_examples=200)
@given(heard_logs())
def test_both_readers_invert_export(log):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.ndjson"
        export_log(log, path)
        assert import_log(path) == log
        assert _parse_lines(path.read_bytes()) == log
        parsed = _parse_exported(path.read_bytes())
    # export writes a name bare when json.dumps needs no escape for it
    bare = all(json.dumps(r) == f'"{r}"' for r in log.ids)
    if bare and int(max(log.sender.max(), log.recv.max())) < 10**18:
        assert parsed == log
        assert parsed.sender.dtype == parsed.recv.dtype == np.int64
    else:
        assert parsed is None or parsed == log


@settings(max_examples=100)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 30),
    st.floats(0.0, 1.0),
    st.booleans(),
)
def test_tree_file_round_trip(seed, n_leaves, relay_prob, relabel):
    tree, _ = random_truth_tree(np.random.default_rng(seed), n_leaves, relay_prob=relay_prob)
    if relabel:
        tree = relabel_routers(tree, prefix="ré\"%")
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "tree.json", Path(tmp) / "again.json"
        save_tree(tree, first)
        back = load_tree(first)
        back.validate()
        assert back.to_dict() == tree.to_dict()
        assert back.leaves == tree.leaves
        assert all(back.parent(node) == tree.parent(node) for node in tree.nodes() if node != tree.root)
        save_tree(back, second)
        assert second.read_bytes() == first.read_bytes()


# ----------------------------------------------------------------------
# the word kernels of the array reader


def digit_run_reference(word: bytes, high: bool) -> int:
    run = word[::-1] if high else word
    return next((i for i, byte in enumerate(run) if not 48 <= byte <= 57), 8)


def test_digit_runs_read_every_byte_value_in_every_place():
    # eight digits with one byte of every value in each place, so a carry
    # or a borrow between bytes would misread a neighbour
    words = [bytearray(b"93857160") for _ in range(256 * 8)]
    for i, word in enumerate(words):
        word[i % 8] = i // 8
    packed = np.frombuffer(b"".join(words), "<u8")
    for high in (False, True):
        mask, length = logio._digit_runs(packed, high)
        want = [digit_run_reference(bytes(w), high) for w in words]
        assert length.tolist() == want
        for word, m, n in zip(words, mask.tolist(), want):
            kept = m.to_bytes(8, "little")
            inside = range(8 - n, 8) if high else range(n)
            assert kept == bytes(255 if i in inside else 0 for i in range(8)), bytes(word)


def test_eight_digits_is_the_decimal_value():
    rng = np.random.default_rng(5)
    texts = [b"00000000", b"99999999", b"10000000", b"00000001"]
    texts += ["".join(map(str, rng.integers(0, 10, 8))).encode() for _ in range(200)]
    words = np.frombuffer(b"".join(texts), "<u8").copy()
    assert logio._eight_digits(words).tolist() == [int(t) for t in texts]


DIGIT_COUNTS = [1, 7, 8, 9, 15, 16, 17, 18]


def number_lines(numbers, before):
    """Send records with ``numbers`` as their ts_us when ``before``, else
    as their k, and where `_numbers` reads them from: the first byte after
    the number, or its first byte."""
    line = b'{"k": 0, "ts_us": %s, "type": "send"}\n' if before else b'{"k": %s, "ts_us": 0, "type": "send"}\n'
    data = b"".join(line % str(n).encode() for n in numbers)
    a = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(a == 10)
    starts = np.concatenate(([0], ends[:-1] + 1))
    return a, ends - len(logio._SEND_TAIL) if before else starts + len(logio._HEAD)


@pytest.mark.parametrize("before", [False, True], ids=["k-forward", "ts-backward"])
@pytest.mark.parametrize("gathered", [False, True], ids=["gathered-here", "first-words-given"])
def test_numbers_of_every_length_on_the_first_and_last_line(before, gathered):
    numbers = [int("9" * n) if n % 2 else 10 ** (n - 1) + 7 for n in DIGIT_COUNTS]
    # each length on the first line, then on the last, around a middle line
    for n in numbers:
        for lines in ([n, 5, 31], [31, 5, n]):
            a, at = number_lines(lines, before)
            words = ()
            if gathered:
                words = logio._gather_words(a, at, (-8,) if before else (0,))
            values, sizes = logio._numbers(a, at, before, words)
            assert values.tolist() == lines
            assert sizes.tolist() == [len(str(x)) for x in lines]


@pytest.mark.parametrize("before", [False, True], ids=["k-forward", "ts-backward"])
@pytest.mark.parametrize(
    "text, ok",
    [
        (b"0", True),
        (b"10", True),
        (b"100000000", True),
        (b"01", False),
        (b"00", False),
        (b"0" * 8, False),
        (b"012345678", False),
        (b"0" + b"7" * 16, False),
        (b"9" * 19, False),
        (b"9" * 24, False),
        (b"9" * 30, False),
    ],
)
def test_numbers_refuse_leading_zeros_and_19_digits(before, text, ok):
    a, at = number_lines([text.decode(), 4], before)
    parsed = logio._numbers(a, at, before)
    assert (parsed is not None) == ok
    if ok:
        assert parsed[0].tolist() == [int(text), 4]


def test_numbers_before_the_buffer_are_refused():
    # 17 digits need a third word back, which would start before the buffer
    data = b"1" * 17 + b", x\n"
    assert logio._numbers(np.frombuffer(data, np.uint8), np.array([17]), True) is None
    # 16 digits need it too, to find the byte before them
    data = b" " * 8 + b"1" * 16 + b", x\n"
    values, sizes = logio._numbers(np.frombuffer(data, np.uint8), np.array([24]), True)
    assert (values.tolist(), sizes.tolist()) == ([int("1" * 16)], [16])


@pytest.mark.parametrize("digits", DIGIT_COUNTS)
def test_timestamps_of_every_length_on_the_first_and_last_line(tmp_path, digits):
    # the first line is the send record of k=0, the last the last recv record
    top = 10**digits - 1
    sender = {0: 10 ** (digits - 1), 1: 10 ** (digits - 1) + 1, 2: top - 1}
    arrivals = {"a": {0: top - 2}, "b": {1: 10 ** (digits - 1) + 1, 2: top}}
    if digits == 1:
        sender, arrivals = {0: 1, 1: 2, 2: 8}, {"a": {0: 7}, "b": {1: 2, 2: 9}}
    log = log_from_dicts(sender, arrivals)
    path = tmp_path / "log.ndjson"
    export_log(log, path)
    data = path.read_bytes()
    lines = data.splitlines()
    assert len(str(sender[0])) == digits and lines[-1].endswith(b"%d" % arrivals["b"][2] + logio._RECV_TAIL)
    assert _parse_exported(data) == _parse_lines(data) == log


def test_a_single_shortest_send_record():
    data = b'{"k": 0, "ts_us": 0, "type": "send"}\n'
    assert len(data) - 1 == logio._SHORTEST == 36
    parsed = _parse_exported(data)
    assert parsed is not None and parsed == _parse_lines(data)
    assert parsed.n_pairs == 1 and parsed.ids == ()
    # one byte shorter, or a record cut, is the line loop's
    assert _parse_exported(data.replace(b'"ts_us": 0', b'"ts_us":0')) is None
    assert _parse_exported(data[:-2] + b"\n") is None


@pytest.mark.parametrize("digits", [1, 8, 9, 18])
def test_names_of_every_length_around_word_boundaries(tmp_path, digits):
    # names of 0 to 17 bytes, some of digits or of the keys' own bytes, so
    # that a word read for a key or a number also holds part of a name
    names = ["", "1", "9" * 7, "a" * 8, ", " * 4 + "x", "12345678", "ts_us: 1"]
    names += ["n" * size for size in range(2, 18) if size not in (7, 8)]
    start = 10 ** (digits - 1)
    sender = {k: start + 10 * k for k in range(3)}
    arrivals = {name: {k: sender[k] + i % 3 for k in range(i % 3, 3)} for i, name in enumerate(names)}
    log = log_from_dicts(sender, arrivals)
    path = tmp_path / "log.ndjson"
    export_log(log, path)
    data = path.read_bytes()
    assert _parse_exported(data) == _parse_lines(data) == log


# ----------------------------------------------------------------------
# write_json: the bytes of json.dumps(data, sort_keys=True, indent=2)

# characters json.dumps escapes, and ones that look like its separators
ODD_TEXT = st.text(
    st.one_of(st.sampled_from('"\\%,: \n\t\x00\x1f\x7fé \U0001f600'), st.characters()), max_size=6
)
SPECIAL_FLOATS = st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 1e308, 0.1])
NUMBERS = st.one_of(st.floats(), SPECIAL_FLOATS, st.integers(), st.integers(-(2**70), 2**70))
SCALARS = st.one_of(st.none(), st.booleans(), NUMBERS, ODD_TEXT)
# score and report shapes: nested dicts and lists of every scalar, empty ones too
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(ODD_TEXT, inner, max_size=4),
    ),
    max_leaves=24,
)


@st.composite
def matrix_documents(draw):
    n = draw(st.integers(0, 6))
    names = draw(st.lists(st.one_of(ODD_TEXT, st.just('", "')), min_size=n, max_size=n, unique=True))
    values = draw(st.lists(st.lists(NUMBERS, min_size=n, max_size=n), min_size=n, max_size=n))
    return {"receivers": names, "values": values}


@st.composite
def tree_documents(draw):
    tree, _ = random_truth_tree(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), draw(st.integers(2, 12)))
    if draw(st.booleans()):
        # leaves are h00, h01, ...: a router named "%" + text takes none of their ids
        tree = relabel_routers(tree, prefix="%" + draw(ODD_TEXT))
    return tree.to_dict()


@settings(max_examples=400)
@given(st.one_of(matrix_documents(), tree_documents(), DOCUMENTS))
def test_write_json_writes_the_bytes_of_json_dumps(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.json"
        logio.write_json(data, path, "document")
        assert path.read_bytes() == (json.dumps(data, sort_keys=True, indent=2) + "\n").encode("utf-8")
