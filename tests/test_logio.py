import json

import pytest

from covtomo.errors import LogFormatError
from covtomo.logio import export_log, import_log, load_matrix, load_tree, save_matrix, save_tree
from covtomo.model import CovarianceMatrix, MeasurementLog
from covtomo.simulator import SimulatorConfig, generate_topology, simulate_session

from treegen import random_truth_tree
import numpy as np


def sample_log(with_losses=False):
    arrivals = {
        "a": {k: k * 30 + 100 + (k % 3) for k in range(6)},
        "b": {k: k * 30 + 250 for k in range(6)},
    }
    if with_losses:
        del arrivals["a"][2]
        del arrivals["b"][4]
    return MeasurementLog.from_dicts({k: k * 30 for k in range(6)}, arrivals, 30)


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
    assert back.arrival("a", 2) is None


def test_simulated_log_round_trip(tmp_path):
    cfg = SimulatorConfig(n_hosts=6, n_routers=3, seed=2, n_pairs=50, pair_interval_us=2000)
    net = generate_topology(cfg)
    log = simulate_session(net, cfg)
    path = tmp_path / "log.ndjson"
    export_log(log, path)
    assert import_log(path) == log


def reference_ndjson(log) -> bytes:
    """One json.dumps(record, sort_keys=True) per record."""
    lines = [
        json.dumps({"type": "send", "k": k, "ts_us": ts}, sort_keys=True)
        for k, ts in log.sender_ts.items()
    ]
    for receiver in sorted(log.receivers):
        for k, ts in log.arrivals[receiver].items():
            record = {"type": "recv", "receiver": receiver, "k": k, "ts_us": ts}
            lines.append(json.dumps(record, sort_keys=True))
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("clock", [0, 2**64])
def test_export_bytes_equal_per_record_json_dumps(tmp_path, clock):
    names = ["plain", 'quo"te', "back\\slash", "pct%d%s%%", "na\u00efve-\u03c0\u03c1", "\U0001f600", "tab\t"]
    arrivals = {
        name: {k: clock + k * 30 + i for k in range(5) if (k + i) % 3} for i, name in enumerate(names)
    }
    log = MeasurementLog.from_dicts({k: clock + k * 30 for k in range(5)}, arrivals, 30)
    path = tmp_path / "log.ndjson"
    export_log(log, path)
    assert path.read_bytes() == reference_ndjson(log)
    assert import_log(path) == log


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
]


@pytest.mark.parametrize("text,message,line", ERROR_TABLE)
def test_format_error_messages_exact(tmp_path, text, message, line):
    path = tmp_path / "bad.ndjson"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(LogFormatError) as exc:
        import_log(path)
    assert (str(exc.value), exc.value.line) == (message, line)


def test_missing_send_index_costs_nothing_per_absent_index(tmp_path):
    # a range over the absent indices would need ~100 GB here
    path = tmp_path / "bad.ndjson"
    huge = '{"type": "send", "k": 1000000000000000000, "ts_us": 900}'
    path.write_text("\n".join([SEND0, huge, SEND1, ""]))
    with pytest.raises(LogFormatError) as exc:
        import_log(path)
    assert (str(exc.value), exc.value.line) == ("missing send record for k=2", None)


def test_interval_mode_detection(tmp_path):
    path = tmp_path / "log.ndjson"
    even = [{"type": "send", "k": k, "ts_us": 40 * k} for k in range(4)]
    even.append({"type": "recv", "receiver": "a", "k": 0, "ts_us": 3})
    even.append({"type": "recv", "receiver": "a", "k": 1, "ts_us": 44})
    path.write_text("\n".join(json.dumps(r) for r in even) + "\n")
    assert import_log(path).interval_us == 40

    uneven = [{"type": "send", "k": k, "ts_us": ts} for k, ts in enumerate((0, 40, 70))]
    uneven.append({"type": "recv", "receiver": "a", "k": 0, "ts_us": 3})
    uneven.append({"type": "recv", "receiver": "a", "k": 1, "ts_us": 44})
    path.write_text("\n".join(json.dumps(r) for r in uneven) + "\n")
    assert import_log(path).interval_us is None


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
