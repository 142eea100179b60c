"""Logs, oracles and the rest of a run are freed by reference counting: no
covtomo object refers to itself, so none waits for the cyclic garbage
collector, and a join run holds one batch's log and oracle at a time.
Each test restores the collector's state before it returns."""

import gc
import json
import weakref
from contextlib import contextmanager

from covtomo import scenarios
from covtomo.cli import main
from covtomo.scenarios import parse_config, run_dynamic_scenario, run_scenario
from treegen import log_from_dicts

STATIC = {
    "simulator": {"n_hosts": 12, "n_routers": 4, "n_pairs": 200},
    "recovery": {"rho_ms2": 0.25},
    "seeds": [1],
}
DYNAMIC = dict(STATIC, joins={"batches": [3, 3, 3]})


@contextmanager
def collector_off():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def cyclic_garbage(run) -> list[str]:
    """The names of the covtomo types among the objects that ``run()``
    leaves to the cyclic collector. Objects of other types, such as
    argparse's parsers, may be cyclic."""
    flags = gc.get_debug()
    gc.collect()
    start = len(gc.garbage)
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        found = gc.garbage[start:]
        return [type(o).__qualname__ for o in found if type(o).__module__.split(".")[0] == "covtomo"]
    finally:
        gc.set_debug(flags)
        del gc.garbage[start:]


def test_a_dropped_log_is_freed_at_once():
    log = log_from_dicts({0: 0, 1: 10}, {"a": {0: 3, 1: 12}, "b": {1: 15}})
    assert dict(log.arrivals["a"]) == {0: 3, 1: 12}
    ref = weakref.ref(log)
    with collector_off():
        del log
        assert ref() is None


def test_a_join_run_holds_one_batch_log_and_oracle_at_a_time(monkeypatch):
    # when a session is finished, the log and oracle of every batch before
    # it are gone, with the cyclic collector off
    simulate, build = scenarios.simulate_session, scenarios.covariance_oracle_from_log
    refs, alive = [], []

    def simulated(*args, **kwargs):
        log = simulate(*args, **kwargs)
        alive.append(sum(ref() is not None for ref in refs))
        refs.append(weakref.ref(log))
        return log

    def built(log):
        oracle = build(log)
        refs.append(weakref.ref(oracle))
        return oracle

    monkeypatch.setattr(scenarios, "simulate_session", simulated)
    monkeypatch.setattr(scenarios, "covariance_oracle_from_log", built)
    with collector_off():
        run_dynamic_scenario(parse_config(DYNAMIC))
    # the static session, then three batches
    assert alive == [0, 0, 0, 0] and len(refs) == 7


def test_a_static_run_leaves_no_cyclic_garbage():
    assert cyclic_garbage(lambda: run_scenario(parse_config(STATIC))) == []


def test_a_dynamic_run_leaves_no_cyclic_garbage():
    assert cyclic_garbage(lambda: run_dynamic_scenario(parse_config(DYNAMIC))) == []


def test_cli_simulate_and_estimate_leave_no_cyclic_garbage(tmp_path, capsys):
    cfg, log, cov = tmp_path / "cfg.json", tmp_path / "log.ndjson", tmp_path / "cov.json"
    cfg.write_text(json.dumps(STATIC))

    def run():
        assert main(["simulate", "--config", str(cfg), "--out", str(log)]) == 0
        assert main(["estimate", "--log", str(log), "--out", str(cov)]) == 0

    assert cyclic_garbage(run) == []
    capsys.readouterr()
