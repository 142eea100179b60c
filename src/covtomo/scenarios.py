"""Config-driven experiment runner.

A scenario config is a JSON document with sections:

    {
      "simulator": { ... SimulatorConfig fields but seed ... },
      "recovery":  {"rho_ms2": 0.45},            # required
      "seeds":     [1, 2, 3],                    # explicit, never wall clock
      "joins":     {"batches": [50, 50], "n_pairs": 2000}     # optional
    }

A config runs in one of two modes: static (`run_scenario`), or dynamic
(`run_dynamic_scenario`) when it has a "joins" section. A grid over
background rate, scale or method is one config per point, not a mode.
Every run takes its seed from "seeds" and recovers at the stated threshold
``recovery.rho_ms2``; nothing derives it from the data. Before any run,
`parse_config` builds every config the runs use (the simulator section's,
the join sessions' at the hosts of the last batch, and the
`RecoveryConfig`), so each rule is checked by the class that owns it and
named by its section: `SimulatorConfig` refuses fewer than three hosts or
two pairs, from which no run can estimate a covariance, in the simulator
section and for the join sessions' ``joins.n_pairs`` alike. Joining hosts
take generated ids (`simulator.grow_network`), and the join sessions send
``joins.n_pairs`` pairs (default: the simulator section's) at the
simulator's pair interval.
Both modes run each seed through one pass, `_run_once`: generate ->
simulate -> estimate -> `recover.recover_from_matrix` (DFS order, then
the walk at that rho) -> score. Every run keeps one worker thread,
and joins it before it returns or raises. The worker runs nothing but
`simulator.SessionDraws.draw_rows`, filling a session's jitter buffer with
standard normals: a pass's head rows while the main thread generates the
network, and in a dynamic run each join session's rows while the main
thread joins and scores the batch before it. `simulate_session` scales
them on the main thread.
A dynamic run holds one batch's arrays at a time. A batch's log lives
until its oracle is built (`covariance_oracle_from_log`), and the oracle's
columns until the batch's hosts are attached; meanwhile the worker fills
the next session's jitter buffer, which `simulate_session` frees as it
makes that session's log. No object of the package refers to itself, so
each is freed by reference counting when the run drops it, not by the
cyclic garbage collector.
Reports are single JSON documents embedding the full resolved config;
given the same config they re-serialize byte-identically, and their sums
add left to right whatever the Python version (`_sum_in_order`).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import asdict, fields, replace

import numpy as np

from .accuracy import score_trees
from .delay_cov import build_covariance_matrix, covariance_oracle_from_log
from .dynamic import attach_peer
from .errors import ConfigError, TomographyError
from .logio import read_json, write_json
from .model import branching_skeleton
from .recover import RecoveryConfig, recover_from_matrix
from .simulator import (
    SimulatorConfig,
    _is_int,
    begin_session,
    generate_topology,
    grow_network,
    simulate_session,
    truth_link_range,
)

_TOP_KEYS = {"simulator", "recovery", "seeds", "joins"}
# every run takes its seed from the seeds section
_SIMULATOR_KEYS = {f.name for f in fields(SimulatorConfig)} - {"seed"}


@contextmanager
def _section(name: str):
    """Re-raise an error from building a config as a ConfigError naming
    the config section ``name``."""
    try:
        yield
    except (TomographyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}: {exc}") from None


def parse_config(data: dict) -> dict:
    """Validate the raw config dict, build every config a run will use and
    resolve all defaults. Raises ConfigError naming the offending field."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config section {sorted(unknown)[0]!r}")

    sim_section = data.get("simulator", {})
    if not isinstance(sim_section, dict):
        raise ConfigError("simulator: must be an object")
    for key in sim_section:
        if key not in _SIMULATOR_KEYS:
            raise ConfigError(f"simulator.{key}: unknown field")
    with _section("simulator"):
        sim = SimulatorConfig(**sim_section)

    recovery = data.get("recovery", {})
    if not isinstance(recovery, dict) or set(recovery) - {"rho_ms2"}:
        raise ConfigError("recovery: only the rho_ms2 field is supported")
    rho = recovery.get("rho_ms2")
    if rho is None:
        raise ConfigError("recovery.rho_ms2: required, the recovery threshold in ms^2")
    with _section("recovery.rho_ms2"):
        RecoveryConfig(rho)

    seeds = data.get("seeds")
    if not isinstance(seeds, list) or not seeds or not all(_is_int(s) for s in seeds):
        raise ConfigError("seeds: required non-empty list of integers")
    with _section("seeds"):
        for seed in seeds:
            replace(sim, seed=seed)

    joins = data.get("joins")
    if joins is not None:
        if not isinstance(joins, dict) or set(joins) - {"batches", "n_pairs"}:
            raise ConfigError("joins: supported fields are batches, n_pairs")
        batches = joins.get("batches")
        if not isinstance(batches, list) or not batches or not all(_is_int(b) and b > 0 for b in batches):
            raise ConfigError("joins.batches: non-empty list of positive integers required")
        n_pairs = joins.get("n_pairs", sim.n_pairs)
        with _section("joins"):
            _join_config(sim, batches, n_pairs)
        joins = {"batches": batches, "n_pairs": n_pairs}

    simulator = asdict(sim)
    del simulator["seed"]
    return {"simulator": simulator, "recovery": {"rho_ms2": rho}, "seeds": list(seeds), "joins": joins}


def load_config(path) -> dict:
    return parse_config(read_json(path, "config", ConfigError))


def _sim_from_resolved(resolved: dict, seed: int) -> SimulatorConfig:
    return SimulatorConfig(**resolved["simulator"], seed=seed)


def _join_config(sim: SimulatorConfig, batches, n_pairs: int) -> SimulatorConfig:
    """The join sessions' config: ``n_pairs`` pairs, and every joining host
    counted in n_hosts for the timestamp bound (sessions read no n_hosts)."""
    return replace(sim, n_pairs=n_pairs, n_hosts=sim.n_hosts + sum(batches))


def _sum_in_order(values) -> float:
    """The floats ``values`` added left to right from 0.0, as ``sum`` adds
    them on Python 3.11; from 3.12 ``sum`` compensates, and its last digits
    differ. cumsum adds in order from the first value, so an all -0.0 input
    sums to -0.0 there, and to 0.0 here."""
    return float(np.cumsum(values)[-1]) + 0.0


def _mean_stderr(values) -> tuple[float, float]:
    n = len(values)
    mean = _sum_in_order(values) / n
    if n < 2:
        return mean, 0.0
    var = _sum_in_order([(v - mean) ** 2 for v in values]) / (n - 1)
    return mean, math.sqrt(var / n)


def _cov_summary(cov) -> dict:
    n = len(cov.receivers)
    off = cov.values[np.triu(np.ones((n, n), dtype=bool), 1)]
    # row-major over the upper triangle; the mean adds in that order
    return {
        "min_offdiag": float(off.min()),
        "max_offdiag": float(off.max()),
        "mean_offdiag": _sum_in_order(off) / len(off),
    }


def _await_draw(drawn) -> None:
    """Wait for the worker's draw ``drawn`` (a future), raising what it
    raised; a call of its own, so that layer timers and traces show the
    main thread's wait."""
    drawn.result()


def _run_once(sim: SimulatorConfig, config: RecoveryConfig, worker):
    """One generate -> simulate -> estimate -> order -> recover -> score
    pass. The session begins before its network: while the main thread
    generates the network, ``worker`` draws the session's first jitter
    rows, one for each link the network has at the fewest."""
    fewest, most = truth_link_range(sim)
    draws = begin_session(sim, most)
    head = worker.submit(draws.draw_rows, fewest)
    net = generate_topology(sim)
    _await_draw(head)
    log = simulate_session(net, sim, begun=draws)
    cov = build_covariance_matrix(log, sorted(net.clients))
    tree = recover_from_matrix(net.source, cov, config)
    report = score_trees(tree, branching_skeleton(net.truth))
    return net, cov, tree, report


def run_scenario(resolved: dict) -> dict:
    """Static scenario: executes the full pipeline once per seed and
    aggregates accuracy. Each run record keeps its recovered ``tree``.

    One worker thread draws each session's head jitter rows while the main
    thread generates its network; it is joined before this returns or
    raises."""
    # imported here, as only a run starts a thread (~7 ms)
    from concurrent.futures import ThreadPoolExecutor

    if resolved.get("joins"):
        raise ConfigError("config has a joins section; use the dynamic scenario")
    config = RecoveryConfig(resolved["recovery"]["rho_ms2"])
    runs = []
    with ThreadPoolExecutor(max_workers=1) as worker:
        for seed in resolved["seeds"]:
            _, cov, tree, report = _run_once(_sim_from_resolved(resolved, seed=seed), config, worker)
            runs.append({"seed": seed, **asdict(report), "cov_summary": _cov_summary(cov), "tree": tree.to_dict()})
    mean_p, stderr_p = _mean_stderr([r["p"] for r in runs])
    return {"config": resolved, "mode": "static", "runs": runs, "summary": {"mean_p": mean_p, "stderr_p": stderr_p}}


def _curve_point(n_nodes: int, report) -> dict:
    return {"n_nodes": n_nodes, **asdict(report)}


def _join_batch(worker, net, sim: SimulatorConfig, join_sim: SimulatorConfig, batches, step: int):
    """Batch ``step`` (from 1) of ``batches`` joins ``net``, its session
    begins with one jitter row per link of the grown network, and
    ``worker`` starts drawing them. Returns the new hosts, the begun
    session and the draw's future."""
    new_hosts = grow_network(net, sim, batches[step - 1], stream=step)
    links = len(net.truth.nodes()) - 1  # one per node below the source
    draws = begin_session(join_sim, links, stream=step)
    return new_hosts, draws, worker.submit(draws.draw_rows, links)


def run_dynamic_scenario(resolved: dict) -> dict:
    """Dynamic scenario: recover the initial tree statically, then apply the
    join schedule batch by batch via attach_peer, scoring accuracy against
    the evolving ground truth after each step.

    One worker thread draws the head rows of the initial session, as in
    `run_scenario`, and each join session's standard normals
    (`SessionDraws.draw_rows`) while the main thread works on the batch
    before it; `simulate_session` scales them on the main thread. The
    worker is joined before this returns or raises.

    A batch's log is dropped once its oracle is built, and the oracle once
    the batch's hosts are attached, so at most one log, one oracle's
    columns and the next session's jitter buffer are alive at a time."""
    # imported here, as only a run starts a thread (~7 ms)
    from concurrent.futures import ThreadPoolExecutor

    joins = resolved.get("joins")
    if not joins:
        raise ConfigError("dynamic scenario requires a joins section")
    config = RecoveryConfig(resolved["recovery"]["rho_ms2"])
    batches = joins["batches"]
    runs = []
    with ThreadPoolExecutor(max_workers=1) as worker:
        for seed in resolved["seeds"]:
            sim = _sim_from_resolved(resolved, seed=seed)
            net, cov, tree, report = _run_once(sim, config, worker)
            curve = [_curve_point(sim.n_routers + sim.n_hosts, report)]
            join_sim = _join_config(sim, batches, joins["n_pairs"])
            n_hosts = sim.n_hosts
            pending = _join_batch(worker, net, sim, join_sim, batches, 1)
            for step in range(1, len(batches) + 1):
                new_hosts, draws, drawn = pending
                _await_draw(drawn)
                log = simulate_session(net, join_sim, stream=step, begun=draws)
                # the truth of this batch, before the next one joins
                truth = branching_skeleton(net.truth)
                if step < len(batches):
                    pending = _join_batch(worker, net, sim, join_sim, batches, step + 1)
                n_hosts += len(new_hosts)
                oracle = covariance_oracle_from_log(log)
                # the oracle keeps the kernel's columns, not the log
                del log
                for host in new_hosts:
                    attach_peer(tree, oracle, host, config)
                del oracle
                curve.append(_curve_point(sim.n_routers + n_hosts, score_trees(tree, truth)))
            runs.append({"seed": seed, "curve": curve, "final_tree": tree.to_dict()})
    initial_mean, _ = _mean_stderr([r["curve"][0]["p"] for r in runs])
    final_mean, _ = _mean_stderr([r["curve"][-1]["p"] for r in runs])
    return {
        "config": resolved,
        "mode": "dynamic",
        "runs": runs,
        "summary": {
            "initial_mean_p": initial_mean,
            "final_mean_p": final_mean,
            "mean_drop": initial_mean - final_mean,
        },
    }


def write_report(report: dict, path) -> None:
    write_json(report, path, "report")
