"""Config-driven experiment runner.

A scenario config is a JSON document with sections:

    {
      "simulator": { ... SimulatorConfig fields ... },
      "recovery":  {"rho_ms2": 0.45},            # optional; omit for auto
      "seeds":     [1, 2, 3],                    # explicit, never wall clock
      "sweep":     {"bg_rates_bytes_per_sec": [...]}          # optional
                   # or {"packet_sizes_bytes": [...], "pair_intervals_us": [...]}
      "joins":     {"batches": [50, 50], "n_pairs": 2000,     # optional
                    "names": ["peerA", ...]}                  # optional
    }

Presence of "sweep" switches run_scenario into sweep mode; "joins" selects
the dynamic scenario. Reports are single JSON documents embedding the full
resolved config; given the same config they re-serialize byte-identically.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .accuracy import score_trees
from .delay_cov import build_covariance_matrix, covariance_oracle_from_log
from .dynamic import attach_peer
from .errors import ConfigError
from .model import branching_skeleton
from .ordering import dfs_order
from .recover import RecoveryConfig, auto_rho, recover_tree
from .simulator import SimulatedNetwork, SimulatorConfig, generate_topology, grow_network, simulate_session

_TOP_KEYS = {"simulator", "recovery", "seeds", "sweep", "joins"}
_TUPLE_FIELDS = {"link_base_delay_us", "link_delay_var_ms2", "pair_schedule_us"}


def parse_config(data: dict) -> dict:
    """Validate the raw config dict and resolve all defaults. Raises
    ConfigError naming the offending field."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config section {sorted(unknown)[0]!r}")

    sim_section = data.get("simulator", {})
    if not isinstance(sim_section, dict):
        raise ConfigError("simulator: must be an object")
    valid_fields = {f.name for f in fields(SimulatorConfig)}
    for key in sim_section:
        if key not in valid_fields:
            raise ConfigError(f"simulator.{key}: unknown field")
    kwargs = dict(sim_section)
    for key in _TUPLE_FIELDS & set(kwargs):
        if kwargs[key] is not None:
            kwargs[key] = tuple(kwargs[key])
    try:
        sim = SimulatorConfig(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"simulator: {exc}") from None
    except TypeError as exc:
        raise ConfigError(f"simulator: {exc}") from None

    recovery = data.get("recovery", {})
    if not isinstance(recovery, dict) or set(recovery) - {"rho_ms2"}:
        raise ConfigError("recovery: only the rho_ms2 field is supported")
    rho = recovery.get("rho_ms2")
    if rho is not None and not (isinstance(rho, (int, float)) and rho > 0):
        raise ConfigError("recovery.rho_ms2: must be a positive number")

    seeds = data.get("seeds")
    if not isinstance(seeds, list) or not seeds or not all(isinstance(s, int) for s in seeds):
        raise ConfigError("seeds: required non-empty list of integers")

    sweep = data.get("sweep")
    if sweep is not None:
        if not isinstance(sweep, dict):
            raise ConfigError("sweep: must be an object")
        if set(sweep) == {"bg_rates_bytes_per_sec"}:
            rates = sweep["bg_rates_bytes_per_sec"]
            if not isinstance(rates, list) or not rates:
                raise ConfigError("sweep.bg_rates_bytes_per_sec: non-empty list required")
        elif set(sweep) == {"packet_sizes_bytes", "pair_intervals_us"}:
            for key in ("packet_sizes_bytes", "pair_intervals_us"):
                if not isinstance(sweep[key], list) or not sweep[key]:
                    raise ConfigError(f"sweep.{key}: non-empty list required")
        else:
            raise ConfigError(
                "sweep: expected bg_rates_bytes_per_sec, or packet_sizes_bytes plus pair_intervals_us"
            )

    joins = data.get("joins")
    if joins is not None:
        if not isinstance(joins, dict) or set(joins) - {"batches", "n_pairs", "names"}:
            raise ConfigError("joins: supported fields are batches, n_pairs, names")
        batches = joins.get("batches")
        if not isinstance(batches, list) or not batches or not all(
            isinstance(b, int) and b > 0 for b in batches
        ):
            raise ConfigError("joins.batches: non-empty list of positive integers required")
        n_pairs = joins.get("n_pairs", sim.n_pairs)
        if not isinstance(n_pairs, int) or n_pairs < 2:
            raise ConfigError("joins.n_pairs: integer >= 2 required")
        names = joins.get("names")
        if names is not None:
            if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
                raise ConfigError("joins.names: list of strings required")
            if len(names) != sum(batches):
                raise ConfigError("joins.names: length must equal the total of joins.batches")
        joins = {"batches": batches, "n_pairs": n_pairs, "names": names}

    resolved = {
        "simulator": asdict(sim),
        "recovery": {"rho_ms2": rho},
        "seeds": list(seeds),
        "sweep": sweep,
        "joins": joins,
    }
    return resolved


def load_config(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc.msg} (line {exc.lineno})") from None
    return parse_config(raw)


def _sim_from_resolved(resolved: dict, **overrides) -> SimulatorConfig:
    kwargs = dict(resolved["simulator"])
    for key in _TUPLE_FIELDS:
        if kwargs.get(key) is not None:
            kwargs[key] = tuple(kwargs[key])
    kwargs.update(overrides)
    return SimulatorConfig(**kwargs)


def _mean_stderr(values) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


def _cov_summary(cov) -> dict:
    off = cov.values[np.triu_indices(len(cov.receivers), 1)].tolist()
    return {
        "min_offdiag": min(off),
        "max_offdiag": max(off),
        "mean_offdiag": sum(off) / len(off),
    }


def _run_once(sim: SimulatorConfig, rho: float | None):
    """One generate -> simulate -> estimate -> order -> recover -> score pass."""
    net = generate_topology(sim)
    log = simulate_session(net, sim)
    cov = build_covariance_matrix(log, sorted(net.clients))
    order = dfs_order(cov)
    config = RecoveryConfig(rho if rho is not None else auto_rho(cov))
    tree = recover_tree(net.source, order, cov, config)
    report = score_trees(tree, branching_skeleton(net.truth))
    return net, cov, tree, config, report


def run_scenario(resolved: dict) -> dict:
    """Static scenario (or sweep, when the config has a sweep section):
    executes the full pipeline once per seed and aggregates accuracy."""
    if resolved.get("joins"):
        raise ConfigError("config has a joins section; use the dynamic scenario")
    if resolved.get("sweep"):
        return _run_sweep(resolved)
    rho = resolved["recovery"]["rho_ms2"]
    runs = []
    for seed in resolved["seeds"]:
        sim = _sim_from_resolved(resolved, seed=seed)
        _, cov, tree, config, report = _run_once(sim, rho)
        runs.append(
            {
                "seed": seed,
                "p": report.p,
                "p_distinct": report.p_distinct,
                "n_leaves": report.n_leaves,
                "rho_ms2": config.rho,
                "cov_summary": _cov_summary(cov),
                "tree": tree.to_dict(),
            }
        )
    mean_p, stderr_p = _mean_stderr([r["p"] for r in runs])
    return {
        "config": resolved,
        "mode": "static",
        "runs": runs,
        "summary": {"mean_p": mean_p, "stderr_p": stderr_p},
    }


def _run_sweep(resolved: dict) -> dict:
    sweep = resolved["sweep"]
    rho = resolved["recovery"]["rho_ms2"]
    if "bg_rates_bytes_per_sec" in sweep:
        mode = "bg_sweep"
        grid = [{"bg_rate_bytes_per_sec": float(r)} for r in sweep["bg_rates_bytes_per_sec"]]
    else:
        mode = "grid_sweep"
        grid = [
            {"packet_size_bytes": int(s), "pair_interval_us": int(d)}
            for s in sweep["packet_sizes_bytes"]
            for d in sweep["pair_intervals_us"]
        ]
    points = []
    for overrides in grid:
        runs = []
        last_tree = None
        for seed in resolved["seeds"]:
            sim = _sim_from_resolved(resolved, seed=seed, **overrides)
            _, cov, tree, config, report = _run_once(sim, rho)
            last_tree = tree
            runs.append(
                {
                    "seed": seed,
                    "p": report.p,
                    "p_distinct": report.p_distinct,
                    "n_leaves": report.n_leaves,
                    "rho_ms2": config.rho,
                    "cov_summary": _cov_summary(cov),
                }
            )
        mean_p, stderr_p = _mean_stderr([r["p"] for r in runs])
        points.append(
            {
                **overrides,
                "runs": runs,
                "summary": {"mean_p": mean_p, "stderr_p": stderr_p},
                "tree": last_tree.to_dict(),
            }
        )
    return {"config": resolved, "mode": mode, "points": points}


def run_dynamic_scenario(resolved: dict) -> dict:
    """Dynamic scenario: recover the initial tree statically, then apply the
    join schedule batch by batch via attach_peer, scoring accuracy against
    the evolving ground truth after each step."""
    joins = resolved.get("joins")
    if not joins:
        raise ConfigError("dynamic scenario requires a joins section")
    rho = resolved["recovery"]["rho_ms2"]
    runs = []
    for seed in resolved["seeds"]:
        sim = _sim_from_resolved(resolved, seed=seed)
        net, cov, tree, config, report = _run_once(sim, rho)
        curve = [
            {
                "n_nodes": sim.n_routers + sim.n_hosts,
                "n_leaves": report.n_leaves,
                "p": report.p,
                "p_distinct": report.p_distinct,
            }
        ]
        join_sim = replace(sim, n_pairs=joins["n_pairs"])
        n_hosts = sim.n_hosts
        consumed = 0
        for step, batch in enumerate(joins["batches"], start=1):
            names = None
            if joins["names"] is not None:
                names = joins["names"][consumed : consumed + batch]
                consumed += batch
                for name in names:
                    if name in net.access_router or name == net.source:
                        raise ConfigError(f"joins.names: host {name!r} already exists")
            new_hosts = grow_network(net, sim, batch, stream=step, names=names)
            n_hosts += batch
            log = simulate_session(net, join_sim, stream=step)
            oracle = covariance_oracle_from_log(log)
            for host in new_hosts:
                attach_peer(tree, oracle, host, config)
            step_report = score_trees(tree, branching_skeleton(net.truth))
            curve.append(
                {
                    "n_nodes": sim.n_routers + n_hosts,
                    "n_leaves": step_report.n_leaves,
                    "p": step_report.p,
                    "p_distinct": step_report.p_distinct,
                }
            )
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
    Path(path).write_text(json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8")
