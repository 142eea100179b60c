import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import covtomo
from covtomo import scenarios
from covtomo.cli import main
from covtomo.errors import ConfigError
from covtomo.model import RoutingTree
from covtomo.scenarios import parse_config


def write_config(tmp_path, name="cfg.json", **overrides):
    """A small config with ``overrides``; an override of None leaves its
    section out."""
    cfg = {
        "simulator": {
            "n_hosts": 10,
            "n_routers": 4,
            "n_pairs": 400,
            "pair_interval_us": 5000,
            "link_delay_var_ms2": [0.5, 1.5],
        },
        "recovery": {"rho_ms2": 0.25},
        "seeds": [1, 2],
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps({k: v for k, v in cfg.items() if v is not None}))
    return path


def test_pipeline_subcommands(tmp_path, capsys):
    cfg = write_config(tmp_path)
    log = tmp_path / "log.ndjson"
    truth = tmp_path / "truth.json"
    cov = tmp_path / "cov.json"
    tree = tmp_path / "tree.json"
    score = tmp_path / "score.json"

    assert main(["simulate", "--config", str(cfg), "--seed", "1",
                 "--out", str(log), "--truth-out", str(truth)]) == 0
    assert main(["estimate", "--log", str(log), "--out", str(cov)]) == 0
    truth_tree = json.loads(truth.read_text())
    assert main(["recover", "--cov", str(cov), "--source", truth_tree["id"],
                 "--rho", "0.25", "--out", str(tree)]) == 0
    assert main(["score", "--recovered", str(tree), "--truth", str(truth),
                 "--out", str(score)]) == 0
    result = json.loads(score.read_text())
    assert 0.0 <= result["p"] <= 1.0
    assert result["against"] == "truth-skeleton"
    capsys.readouterr()


def test_join_subcommand(tmp_path, capsys):
    # recover over all but one receiver, then join the held-out peer by log
    cfg = write_config(tmp_path)
    log = tmp_path / "log.ndjson"
    truth = tmp_path / "truth.json"
    cov = tmp_path / "cov.json"
    tree = tmp_path / "tree.json"
    joined = tmp_path / "joined.json"
    main(["simulate", "--config", str(cfg), "--seed", "2", "--out", str(log),
          "--truth-out", str(truth)])

    receivers = sorted(
        {r["receiver"] for r in map(json.loads, log.read_text().splitlines())
         if r["type"] == "recv"}
    )
    peer, rest = receivers[-1], receivers[:-1]
    assert main(["estimate", "--log", str(log), "--receivers", ",".join(rest),
                 "--out", str(cov)]) == 0
    source = json.loads(truth.read_text())["id"]
    assert main(["recover", "--cov", str(cov), "--source", source,
                 "--rho", "0.25", "--out", str(tree)]) == 0
    assert main(["join", "--tree", str(tree), "--log", str(log), "--peer", peer,
                 "--rho", "0.25", "--out", str(joined)]) == 0
    out = json.loads(joined.read_text())

    def leaves(entry):
        if not entry["children"]:
            return {entry["id"]}
        return set().union(*(leaves(c) for c in entry["children"]))

    assert peer in leaves(out)
    capsys.readouterr()


@pytest.mark.parametrize("rho", ["inf", "nan", "0"])
def test_rho_option_is_checked_before_any_file(tmp_path, capsys, rho):
    # the join's tree and log do not exist: the option is refused first
    missing = str(tmp_path / "missing.json")
    argv = ["join", "--tree", missing, "--log", missing, "--peer", "k", "--rho", rho, "--out", missing]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: rho must be a positive finite number, got {float(rho)!r}\n"


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"simulator": {"n_hosts": 1}, "seeds": [1]}))
    assert main(["e2e", "--config", str(bad), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert "n_hosts" in err

    bad.write_text(json.dumps({"seeds": [1], "mystery": 1}))
    assert main(["e2e", "--config", str(bad), "--out", str(tmp_path / "r.json")]) == 2


def test_data_error_exit_code(tmp_path, capsys):
    bad_log = tmp_path / "bad.ndjson"
    bad_log.write_text('{"type": "send", "k": 0, "ts_us": 0}\nbroken\n')
    assert main(["estimate", "--log", str(bad_log), "--out", str(tmp_path / "c.json")]) == 3
    assert "line 2" in capsys.readouterr().err


def test_overlong_integer_literal_is_a_data_error(tmp_path, capsys):
    bad_log = tmp_path / "bad.ndjson"
    bad_log.write_text('{"type": "send", "k": ' + "9" * 5001 + ', "ts_us": 0}\n')
    assert main(["estimate", "--log", str(bad_log), "--out", str(tmp_path / "c.json")]) == 3
    assert capsys.readouterr().err == "data error: line 1: invalid JSON: integer literal longer than 4300 digits\n"


@pytest.mark.parametrize(
    "text,message",
    [
        (b'{"type": "send", "k": 0, "ts_us": 0}\n' + b"[" * 200_000 + b"\n", "line 2: invalid JSON: nested too deeply"),
        (
            b'{"type": "send", "k": 0, "ts_us": 0}\n{"type": "recv", "receiver": "a\xff", "k": 0, "ts_us": 5}\n',
            "line 2: invalid UTF-8: byte 0xff",
        ),
        (
            b'{"type": "send", "k": 0, "ts_us": 0}\n{"type": "send", "k": 1, "ts_us": 4611686018427387904}\n',
            "line 2: field 'ts_us' must lie strictly between -2^62 and 2^62",
        ),
    ],
    ids=["nested_too_deeply", "not_utf8", "ts_past_2_62"],
)
def test_undecodable_log_is_a_data_error(tmp_path, capsys, text, message):
    bad_log = tmp_path / "bad.ndjson"
    bad_log.write_bytes(text)
    assert main(["estimate", "--log", str(bad_log), "--out", str(tmp_path / "c.json")]) == 3
    assert capsys.readouterr().err == f"data error: {message}\n"


def test_e2e_static_report_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["e2e", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["e2e", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["mode"] == "static"
    assert len(report["runs"]) == 2
    for run in report["runs"]:
        assert set(run) == {"seed", "p", "p_distinct", "n_leaves", "cov_summary", "tree"}
    # the resolved config embeds every defaulted simulator field
    assert report["config"]["simulator"]["bg_rate_bytes_per_sec"] == 4e6
    assert report["config"]["seeds"] == [1, 2]
    capsys.readouterr()


def test_e2e_dynamic_report(tmp_path, capsys):
    cfg = write_config(tmp_path, joins={"batches": [2, 2], "n_pairs": 300})
    out = tmp_path / "dyn.json"
    assert main(["e2e", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["mode"] == "dynamic"
    assert report["config"]["joins"] == {"batches": [2, 2], "n_pairs": 300}
    curve = report["runs"][0]["curve"]
    assert [pt["n_nodes"] for pt in curve] == [14, 16, 18]
    capsys.readouterr()


@pytest.mark.parametrize(
    "overrides, message",
    [
        (
            # joining hosts take generated ids; a config cannot name them
            {"joins": {"batches": [1], "n_pairs": 300, "names": ["peerA"]}},
            "joins: supported fields are batches, n_pairs",
        ),
        (
            {"recovery": {"rho_ms2": float("inf")}},
            "recovery.rho_ms2: rho must be a positive finite number, got inf",
        ),
        ({"recovery": {"rho_ms2": True}}, "recovery.rho_ms2: rho must be a positive finite number, got True"),
        (
            {"recovery": {"rho_ms2": 10**400}},
            f"recovery.rho_ms2: rho must be a positive finite number, got {10**400}",
        ),
        # every run recovers at a stated rho
        ({"recovery": None}, "recovery.rho_ms2: required, the recovery threshold in ms^2"),
        ({"recovery": {}}, "recovery.rho_ms2: required, the recovery threshold in ms^2"),
        ({"recovery": {"rho_ms2": None}}, "recovery.rho_ms2: required, the recovery threshold in ms^2"),
        ({"seeds": [True]}, "seeds: required non-empty list of integers"),
        ({"seeds": [1, -1]}, "seeds: seed must be >= 0, got -1"),
        (
            {"simulator": {"n_hosts": 10, "n_routers": 4, "bg_rate_bytes_per_sec": "abc"}},
            "simulator: bg_rate_bytes_per_sec must be a number, got 'abc'",
        ),
        # a bool is no number, though float() and comparisons read it as one
        (
            {"simulator": {"n_hosts": 10, "n_routers": 4, "bg_rate_bytes_per_sec": True}},
            "simulator: bg_rate_bytes_per_sec must be a number, got True",
        ),
        (
            {"simulator": {"n_hosts": 10, "n_routers": 4, "link_delay_var_ms2": [False, True]}},
            "simulator: link_delay_var_ms2 must be a (lo, hi) pair of numbers",
        ),
        (
            {"simulator": {"n_hosts": 10, "n_routers": 4, "link_delay_var_ms2": [0.5, "1.5"]}},
            "simulator: link_delay_var_ms2 must be a (lo, hi) pair of numbers",
        ),
        (
            {"simulator": {"n_hosts": 10, "n_routers": 4, "bg_rate_bytes_per_sec": -1}},
            "simulator: bg_rate_bytes_per_sec must be non-negative",
        ),
        (
            {"simulator": {"n_hosts": 10, "n_routers": 4, "bg_rate_bytes_per_sec": float("nan")}},
            "simulator: bg_rate_bytes_per_sec must be a finite number",
        ),
        (
            {"simulator": {"n_hosts": 10, "n_routers": 4, "bg_rate_bytes_per_sec": 10**400}},
            "simulator: bg_rate_bytes_per_sec must be a finite number",
        ),
        (
            {"simulator": {"n_hosts": 10, "n_routers": 4, "link_delay_var_ms2": [0.5, float("nan")]}},
            "simulator: link_delay_var_ms2 must be a finite range",
        ),
        (
            # finite, but its jitter and congestion noise overflow every timestamp
            {"simulator": {"n_hosts": 10, "n_routers": 3, "n_pairs": 50, "bg_rate_bytes_per_sec": 1e300}},
            "simulator: delays too large: a timestamp could reach inf us, past the exact int64 range (2^62 us)",
        ),
        (
            # within the bound at 150 hosts, past it with the 600 joined hosts probing too
            {
                "simulator": {"n_hosts": 150, "link_delay_var_ms2": [1e23, 1e23], "pair_interval_us": 1000},
                "joins": {"batches": [50] * 12},
            },
            "joins: delays too large: a timestamp could reach 5.21e+18 us, past the exact int64 range (2^62 us)",
        ),
        (
            # one pair has no send term in the timestamp bound, and no covariance
            {"simulator": {"n_hosts": 10, "n_routers": 4, "n_pairs": 1, "pair_interval_us": 10**30}},
            "simulator: n_pairs must be >= 2, got 1",
        ),
        (
            # from two pairs on, the bound's send term refuses the interval
            {"simulator": {"n_hosts": 10, "n_routers": 4, "n_pairs": 2, "pair_interval_us": 10**30}},
            "simulator: delays too large: a timestamp could reach 1e+30 us, past the exact int64 range (2^62 us)",
        ),
        (
            {"joins": {"batches": [True, 1], "n_pairs": 300}},
            "joins.batches: non-empty list of positive integers required",
        ),
        ({"joins": {"batches": [2, 0], "n_pairs": 300}}, "joins.batches: non-empty list of positive integers required"),
        ({"joins": [2, 2]}, "joins: supported fields are batches, n_pairs"),
        ({"joins": {"batches": [1], "n_pairs": 1}}, "joins: n_pairs must be >= 2, got 1"),
        ({"joins": {"batches": [1], "n_pairs": 300.5}}, "joins: n_pairs must be an integer, got 300.5"),
        (
            # the static pass before the joins needs two pairs too, so the
            # join sessions' default of the simulator's count is never 1
            {
                "simulator": {"n_hosts": 10, "n_routers": 4, "n_pairs": 1, "pair_interval_us": 5000},
                "joins": {"batches": [1]},
            },
            "simulator: n_pairs must be >= 2, got 1",
        ),
        # no covariance from one receiver (two hosts make one client) or one pair
        ({"simulator": {"n_hosts": 2, "n_routers": 4}}, "simulator: n_hosts must be >= 3, got 2"),
        ({"simulator": {"n_hosts": 10, "n_routers": 4, "n_pairs": 1}}, "simulator: n_pairs must be >= 2, got 1"),
        # every run takes its seed from the seeds section
        ({"simulator": {"n_hosts": 10, "n_routers": 4, "seed": 7}}, "simulator.seed: unknown field"),
        # a grid over background rates is one config per rate
        ({"sweep": {"bg_rates_bytes_per_sec": [1e6, 4e6]}}, "unknown config section 'sweep'"),
    ],
    ids=[
        "removed-join-names",
        "infinite-rho",
        "bool-rho",
        "401-digit-rho",
        "no-recovery-section",
        "empty-recovery",
        "null-rho",
        "bool-seed",
        "negative-seed",
        "rate-not-a-number",
        "bool-rate",
        "bool-variance",
        "string-variance-end",
        "negative-rate",
        "nan-rate",
        "401-digit-rate",
        "nan-variance",
        "overflowing-delays",
        "overflowing-join-delays",
        "overflowing-interval",
        "overflowing-interval-two-pairs",
        "bool-batch",
        "zero-batch",
        "joins-not-an-object",
        "one-join-pair",
        "fractional-join-pairs",
        "one-simulator-pair-for-joins",
        "two-hosts",
        "one-pair",
        "simulator-seed",
        "sweep",
    ],
)
def test_e2e_rejects_bad_configs_before_any_run(tmp_path, capsys, monkeypatch, overrides, message):
    def no_run(config):
        raise AssertionError("generate_topology called for a config that parse_config must reject")

    monkeypatch.setattr(scenarios, "generate_topology", no_run)
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "r.json"
    assert main(["e2e", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_simulate_rejects_a_negative_seed(tmp_path, capsys, monkeypatch):
    def no_run(config):
        raise AssertionError("generate_topology called for a seed that SimulatorConfig must reject")

    monkeypatch.setattr("covtomo.cli.generate_topology", no_run)
    out = tmp_path / "log.ndjson"
    assert main(["simulate", "--config", str(write_config(tmp_path)), "--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: seed must be >= 0, got -1\n"
    assert not out.exists()


def test_join_sessions_default_to_the_simulator_pairs(tmp_path, capsys):
    cfg = write_config(tmp_path, joins={"batches": [2]}, seeds=[1])
    out = tmp_path / "r.json"
    assert main(["e2e", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["joins"] == {"batches": [2], "n_pairs": 400}
    assert [pt["n_nodes"] for pt in report["runs"][0]["curve"]] == [14, 16]
    capsys.readouterr()


RECOVERY = {"rho_ms2": 0.25}


# fields the simulator no longer has: ten became module constants, every
# network is Waxman, and every session sends evenly
REMOVED_SIMULATOR_FIELDS = [
    "waxman_alpha",
    "max_topology_retries",
    "topology_model",
    "lary_arity",
    "waxman_beta",
    "links_per_node",
    "client_fraction",
    "bg_ref_rate_bytes_per_sec",
    "congestion_threshold",
    "congestion_noise_gain",
    "drop_prob",
    "link_base_delay_us",
    "bandwidth_bps",
    "packet_size_bytes",
    "pair_schedule_us",
]


@pytest.mark.parametrize("field", REMOVED_SIMULATOR_FIELDS)
def test_e2e_rejects_removed_simulator_fields(tmp_path, capsys, monkeypatch, field):
    def no_run(config):
        raise AssertionError("generate_topology called for a config that parse_config must reject")

    monkeypatch.setattr(scenarios, "generate_topology", no_run)
    cfg = write_config(tmp_path, simulator={"n_hosts": 10, "n_routers": 4, field: 1})
    assert main(["e2e", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == f"config error: simulator.{field}: unknown field\n"


def test_e2e_run_failure_leaves_the_report_path_as_it_was(tmp_path, capsys, monkeypatch):
    # the report path is checked before the run fails: no file is left
    # behind, and an existing one is kept as it was
    def failing_run(config):
        raise ConfigError("the run failed")

    monkeypatch.setattr(scenarios, "generate_topology", failing_run)
    cfg = write_config(tmp_path)
    new, kept = tmp_path / "new.json", tmp_path / "kept.json"
    kept.write_text("old\n")
    for out in (new, kept):
        assert main(["e2e", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: the run failed\n"
    assert not new.exists() and kept.read_text() == "old\n"


@pytest.mark.parametrize(
    "parent, strerror", [("missing", "No such file or directory"), ("file", "Not a directory")]
)
def test_e2e_checks_its_report_path_before_any_run(tmp_path, capsys, monkeypatch, parent, strerror):
    def no_run(config):
        raise AssertionError("generate_topology called before the report path was checked")

    monkeypatch.setattr(scenarios, "generate_topology", no_run)
    (tmp_path / "file").write_text("")
    out = tmp_path / parent / "r.json"
    assert main(["e2e", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 3
    assert capsys.readouterr() == ("", f"data error: cannot write report {out}: {strerror}\n")


TREE = {"id": "s", "cov": 0.0, "children": [{"id": "a", "cov": None, "children": []}]}


@pytest.mark.parametrize(
    "command, bad, content, code",
    [
        ("e2e", "config", None, 2),
        ("e2e", "config", b"\xff{}", 2),
        ("estimate", "log", None, 3),
        ("score", "recovered", None, 3),
        ("score", "recovered", json.dumps(TREE)[:-7].encode(), 3),
        ("score", "truth", b'{"children": []}', 3),
        ("recover", "cov", b'{"receivers": ["a", "b"]}', 3),
        ("recover", "cov", b"[1, 2]", 3),
        ("recover", "cov", b'{"receivers": ["a", "b"], "values": [[0.0, 1.0]]}', 3),
    ],
    ids=[
        "config-missing",
        "config-not-utf8",
        "log-missing",
        "tree-missing",
        "tree-truncated",
        "tree-without-id",
        "matrix-without-values",
        "matrix-not-object",
        "matrix-wrong-shape",
    ],
)
def test_unreadable_input_file_names_it(tmp_path, capsys, command, bad, content, code):
    # every input file is readable but the one under test, which is missing
    # or holds ``content``
    paths = {name: tmp_path / f"{name}.in" for name in ("config", "log", "recovered", "truth", "cov")}
    paths["config"] = write_config(tmp_path)
    for name in ("recovered", "truth"):
        paths[name].write_text(json.dumps(TREE))
    paths["bad"] = tmp_path / "bad.in"
    if content is not None:
        paths["bad"].write_bytes(content)
    paths[bad] = paths["bad"]
    argv = {
        "e2e": ["--config", paths["config"]],
        "estimate": ["--log", paths["log"]],
        "score": ["--recovered", paths["recovered"], "--truth", paths["truth"]],
        "recover": ["--cov", paths["cov"], "--source", "s", "--rho", "0.5"],
    }[command]
    out = tmp_path / "out.json"
    assert main([command, *map(str, argv), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith("config error: " if code == 2 else "data error: ")
    assert str(paths["bad"]) in err and err.count("\n") == 1
    assert not out.exists()


def test_recover_requires_a_rho(tmp_path, capsys):
    cov, out = tmp_path / "cov.json", tmp_path / "tree.json"
    cov.write_text(json.dumps({"receivers": ["a", "b"], "values": [[3.0, 2.0], [2.0, 3.0]]}))
    with pytest.raises(SystemExit) as exc:
        main(["recover", "--cov", str(cov), "--source", "s", "--out", str(out)])
    assert exc.value.code == 2
    assert "the following arguments are required: --rho" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n_leaves, code", [(300, 0), (600, 3)])
def test_recover_writes_a_deep_tree_or_names_the_file(tmp_path, capsys, n_leaves, code):
    # cov(i, j) = min(i, j) + 1: at rho 0.5 the tree nests one router per
    # leaf, deeper than the JSON encoder recurses at 600 leaves
    ids = [f"l{i:03d}" for i in range(n_leaves)]
    values = [[float(min(i, j) + 1) for j in range(n_leaves)] for i in range(n_leaves)]
    cov, out = tmp_path / "cov.json", tmp_path / "tree.json"
    cov.write_text(json.dumps({"receivers": ids, "values": values}))
    assert main(["recover", "--cov", str(cov), "--source", "s", "--rho", "0.5", "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert err == f"data error: cannot write tree {out}: nested too deeply for JSON\n" and not out.exists()
    else:
        assert err == "" and RoutingTree.from_dict(json.loads(out.read_text())).leaves == set(ids)


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_recover_refuses_a_non_finite_matrix_entry(tmp_path, capsys, bad):
    values = [[3.0, 2.0, 1.0, 1.0], [2.0, 3.0, 1.0, 1.0], [1.0, 1.0, 3.0, 2.0], [1.0, 1.0, 2.0, 3.0]]
    values[0][1] = values[1][0] = float(bad)
    cov, out = tmp_path / "cov.json", tmp_path / "tree.json"
    cov.write_text(json.dumps({"receivers": list("abcd"), "values": values}))
    assert bad in cov.read_text()
    assert main(["recover", "--cov", str(cov), "--source", "s", "--rho", "0.5", "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"data error: covariance matrix {cov} is malformed: entry ('a', 'b') is {float(bad)}, not finite\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("bad", ["1.0", True])
def test_recover_refuses_a_matrix_entry_that_is_not_a_number(tmp_path, capsys, bad):
    # numpy reads both as 1.0
    values = [[3.0, 2.0, 1.0, 1.0], [2.0, 3.0, 1.0, 1.0], [1.0, 1.0, 3.0, 2.0], [1.0, 1.0, 2.0, 3.0]]
    values[0][2] = values[2][0] = bad
    cov, out = tmp_path / "cov.json", tmp_path / "tree.json"
    cov.write_text(json.dumps({"receivers": list("abcd"), "values": values}))
    assert main(["recover", "--cov", str(cov), "--source", "s", "--rho", "0.5", "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"data error: covariance matrix {cov} is malformed: entry ('a', 'c') is {bad!r}, not a number\n"
    )
    assert not out.exists()


def test_recover_refuses_a_matrix_that_repeats_a_receiver(tmp_path, capsys):
    # read without the check, get("a", "b") reads the last 'a' row
    values = [[3.0, 1.0, 2.0], [1.0, 3.0, 1.5], [2.0, 1.5, 3.0]]
    cov, out = tmp_path / "cov.json", tmp_path / "tree.json"
    cov.write_text(json.dumps({"receivers": ["a", "b", "a"], "values": values}))
    assert main(["recover", "--cov", str(cov), "--source", "s", "--rho", "0.5", "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"data error: covariance matrix {cov} is malformed: receiver 'a' appears more than once\n"
    )
    assert not out.exists()


def test_recover_refuses_a_matrix_entry_past_the_float_range(tmp_path, capsys):
    cov, out = tmp_path / "cov.json", tmp_path / "tree.json"
    cov.write_text(json.dumps({"receivers": ["a", "b"], "values": [[3.0, 10**400], [10**400, 3.0]]}))
    assert main(["recover", "--cov", str(cov), "--source", "s", "--rho", "0.5", "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"data error: covariance matrix {cov} is malformed: int too large to convert to float\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("transpose", [False, True], ids=["M", "M-transposed"])
def test_recover_refuses_an_asymmetric_matrix(tmp_path, capsys, transpose):
    # read without the check, M recovers [[a, b], c] and its transpose [a, b, c]
    values = [[1.0, 0.9, 0.1], [0.1, 1.0, 0.1], [0.1, 0.1, 1.0]]
    if transpose:
        values = [list(row) for row in zip(*values)]
    cov, out = tmp_path / "cov.json", tmp_path / "tree.json"
    cov.write_text(json.dumps({"receivers": list("abc"), "values": values}))
    assert main(["recover", "--cov", str(cov), "--source", "s", "--rho", "0.5", "--out", str(out)]) == 3
    ab, ba = values[0][1], values[1][0]
    assert capsys.readouterr().err == (
        f"data error: covariance matrix {cov} is malformed: entry ('a', 'b') is {ab} but ('b', 'a') is {ba}: "
        "not symmetric\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("name", ["r9", "r1"])
def test_recover_refuses_a_receiver_named_like_a_router(tmp_path, capsys, name):
    # r1 is also the id the walk gives its second router; r9 no router takes
    values = [[3.0, 2.0, 1.0, 1.0], [2.0, 3.0, 1.0, 1.0], [1.0, 1.0, 3.0, 2.0], [1.0, 1.0, 2.0, 3.0]]
    cov, out = tmp_path / "cov.json", tmp_path / "tree.json"
    cov.write_text(json.dumps({"receivers": [name, "b", "c", "d"], "values": values}))
    assert main(["recover", "--cov", str(cov), "--source", "s", "--rho", "0.5", "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"data error: host {name!r} is in the router-id namespace\n"
    assert not out.exists()


def test_recover_refuses_receivers_that_are_not_strings(tmp_path, capsys):
    cov, out = tmp_path / "cov.json", tmp_path / "tree.json"
    cov.write_text(json.dumps({"receivers": [1, 2], "values": [[3.0, 2.0], [2.0, 3.0]]}))
    assert main(["recover", "--cov", str(cov), "--source", "s", "--rho", "0.5", "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"data error: covariance matrix {cov} is malformed: receivers must be a list of strings\n"
    )
    assert not out.exists()


def leaves(*names):
    return [{"id": leaf, "cov": None, "children": []} for leaf in names]


# a router below the root that a tree file must not hold, and the reason
BAD_ROUTERS = {
    "nan": ({"id": "r1", "cov": float("nan"), "children": leaves("a", "b")}, "node 'r1' has label nan, not finite"),
    "overflow": ({"id": "r1", "cov": 10**400, "children": leaves("a", "b")}, "int too large to convert to float"),
    # a label is a JSON number; Python's float() would read these
    "string": ({"id": "r1", "cov": "0.5", "children": leaves("a", "b")}, "node 'r1' has label '0.5', not a number"),
    "bool": ({"id": "r1", "cov": True, "children": leaves("a", "b")}, "node 'r1' has label True, not a number"),
    "false": ({"id": "r1", "cov": False, "children": leaves("a", "b")}, "node 'r1' has label False, not a number"),
    "list": ({"id": "r1", "cov": [0.5], "children": leaves("a", "b")}, "node 'r1' has label [0.5], not a number"),
    "object": ({"id": "r1", "cov": {}, "children": leaves("a", "b")}, "node 'r1' has label {}, not a number"),
    # labels accumulate down a path: r2 below r1 cannot share less
    "decreasing": (
        {"id": "r1", "cov": 50.0, "children": [{"id": "r2", "cov": 1.0, "children": leaves("a", "b")}, *leaves("c")]},
        "covariance label decreases from 'r1' to 'r2'",
    ),
}


@pytest.mark.parametrize("label", sorted(BAD_ROUTERS))
@pytest.mark.parametrize("command", ["join", "score"])
def test_tree_with_a_bad_label_names_the_file(tmp_path, capsys, command, label):
    router, reason = BAD_ROUTERS[label]
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps({"id": "s", "cov": 0.0, "children": [router]}))
    assert label != "nan" or "NaN" in tree.read_text()
    # a log that measures the joining peer k with every leaf
    log = tmp_path / "log.ndjson"
    records = [{"k": k, "ts_us": 1000 * k, "type": "send"} for k in range(6)]
    records += [
        {"k": k, "receiver": r, "ts_us": 1000 * k + 10 + (k * k + i) % 7, "type": "recv"}
        for i, r in enumerate("abck")
        for k in range(6)
    ]
    log.write_text("".join(json.dumps(r) + "\n" for r in records))
    argv = {
        "join": ["--tree", tree, "--log", log, "--peer", "k", "--rho", "0.5"],
        "score": ["--recovered", tree, "--truth", tree],
    }[command]
    out = tmp_path / "out.json"
    assert main([command, *map(str, argv), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"data error: tree {tree} is malformed: {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize("name", ["r99", "r1"])
def test_join_refuses_a_peer_named_like_a_router(tmp_path, capsys, name):
    # the log measures the held-out peer under ``name``; r1 is also a router
    # of the recovered tree, r99 no router's id
    cfg = write_config(tmp_path, seeds=[1])
    log, truth, cov, tree, out = (
        tmp_path / f for f in ("log.ndjson", "truth.json", "cov.json", "tree.json", "out.json")
    )
    assert main(["simulate", "--config", str(cfg), "--out", str(log), "--truth-out", str(truth)]) == 0
    receivers = covtomo.import_log(log).ids
    log.write_text(log.read_text().replace(json.dumps(receivers[-1]), json.dumps(name)))
    assert main(["estimate", "--log", str(log), "--receivers", ",".join(receivers[:-1]), "--out", str(cov)]) == 0
    source = json.loads(truth.read_text())["id"]
    assert main(["recover", "--cov", str(cov), "--source", source, "--rho", "0.25", "--out", str(tree)]) == 0
    assert name in covtomo.import_log(log).ids
    assert ("r1" in covtomo.load_tree(tree)) and ("r99" not in covtomo.load_tree(tree))
    capsys.readouterr()
    argv = ["join", "--tree", str(tree), "--log", str(log), "--peer", name, "--rho", "0.25", "--out", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"data error: host {name!r} is in the router-id namespace\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, option, what",
    [
        ("simulate", "--out", "log"),
        ("simulate", "--truth-out", "tree"),
        ("estimate", "--out", "covariance matrix"),
        ("recover", "--out", "tree"),
        ("join", "--out", "tree"),
        ("score", "--out", "score"),
        ("e2e", "--out", "report"),
    ],
)
def test_unwritable_output_file_names_it(tmp_path, capsys, command, option, what):
    # every input is valid; the output under test goes into a missing directory
    cfg = write_config(tmp_path, seeds=[1])
    log, truth, cov, tree = (str(tmp_path / name) for name in ("log.ndjson", "truth.json", "cov.json", "tree.json"))
    assert main(["simulate", "--config", str(cfg), "--out", log, "--truth-out", truth]) == 0
    source = json.loads(Path(truth).read_text())["id"]
    receivers = covtomo.import_log(log).ids
    assert main(["estimate", "--log", log, "--receivers", ",".join(receivers[:-1]), "--out", cov]) == 0
    assert main(["recover", "--cov", cov, "--source", source, "--rho", "0.25", "--out", tree]) == 0
    argv = {
        "simulate": ["--config", str(cfg)],
        "estimate": ["--log", log],
        "recover": ["--cov", cov, "--source", source, "--rho", "0.25"],
        "join": ["--tree", tree, "--log", log, "--peer", receivers[-1], "--rho", "0.25"],
        "score": ["--recovered", tree, "--truth", truth],
        "e2e": ["--config", str(cfg)],
    }[command]
    if option == "--truth-out":
        argv += ["--out", str(tmp_path / "again.ndjson")]
    out = tmp_path / "missing" / "out.file"
    capsys.readouterr()
    assert main([command, *argv, option, str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: cannot write {what} {out}: ") and err.count("\n") == 1
    if option == "--truth-out":
        # the unwritable tree is found before the log is written
        assert not (tmp_path / "again.ndjson").exists()


# SHA-256 of the e2e report of each mode on a small config: any change to
# the scenario runners must leave every report byte-identical.
PINNED_REPORTS = [
    ({}, "3dc806d3dddc7dc8e83092796219d79cff0527ffa4163bbc02511b5493e7d896"),
    (
        {"joins": {"batches": [2, 2], "n_pairs": 300}},
        "eef03190476291d256d376826ca336c9121294459bc8e60461b090bbdf708eaf",
    ),
]


@pytest.mark.parametrize("overrides,digest", PINNED_REPORTS, ids=["static", "dynamic"])
def test_e2e_reports_match_pinned_digests(tmp_path, capsys, overrides, digest):
    out = tmp_path / "report.json"
    assert main(["e2e", "--config", str(write_config(tmp_path, **overrides)), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    capsys.readouterr()


def run_module(*args, cwd):
    env = dict(os.environ, PYTHONPATH=str(Path(covtomo.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "covtomo", *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def test_module_entry_point(tmp_path):
    proc = run_module("--help", cwd=tmp_path)
    assert proc.returncode == 0
    choices = re.search(r"\{([a-z0-9,]+)\}", proc.stdout).group(1)
    assert choices.split(",") == ["simulate", "estimate", "recover", "join", "score", "e2e"]

    cfg = write_config(tmp_path, seeds=[1])
    proc = run_module("sweep", "--config", str(cfg), "--out", "r.json", cwd=tmp_path)
    assert proc.returncode == 2 and "invalid choice: 'sweep'" in proc.stderr

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"simulator": {"n_hosts": 1}, "seeds": [1]}))
    proc = run_module("e2e", "--config", str(bad), "--out", "r.json", cwd=tmp_path)
    assert proc.returncode == 2 and proc.stderr.startswith("config error: simulator: ")

    bad_log = tmp_path / "bad.ndjson"
    bad_log.write_text('{"type": "send", "k": 0, "ts_us": 0}\nbroken\n')
    proc = run_module("estimate", "--log", str(bad_log), "--out", "c.json", cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (3, "data error: line 2: invalid JSON: Expecting value\n")
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "c.json").exists()


def test_parse_config_rejects_bad_sections():
    with pytest.raises(ConfigError, match="seeds"):
        parse_config({"simulator": {}, "recovery": RECOVERY})
    with pytest.raises(ConfigError, match="rho_ms2"):
        parse_config({"seeds": [1], "recovery": {"rho_ms2": -1}})
    with pytest.raises(ConfigError, match="joins.batches"):
        parse_config({"seeds": [1], "recovery": RECOVERY, "joins": {"batches": []}})
    with pytest.raises(ConfigError, match="simulator.n_pair"):
        parse_config({"seeds": [1], "simulator": {"n_pair": 10}})
    with pytest.raises(ConfigError, match="^unknown config section 'sweep'$"):
        parse_config({"seeds": [1], "recovery": RECOVERY, "sweep": {"bg_rates_bytes_per_sec": [1e6]}})
    # a range that is not a list is a config error, not a TypeError
    with pytest.raises(ConfigError, match=r"^simulator: link_delay_var_ms2 must be a \(lo, hi\) pair of numbers$"):
        parse_config({"seeds": [1], "simulator": {"link_delay_var_ms2": 5}})
    # a fractional count is refused before any run
    with pytest.raises(ConfigError, match=r"^simulator: n_pairs must be an integer, got 2.5$"):
        parse_config({"seeds": [1], "simulator": {"n_pairs": 2.5}})
