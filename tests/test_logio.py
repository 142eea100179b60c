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
