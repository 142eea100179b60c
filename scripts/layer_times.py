"""Wall time of each layer of one static pass (generate -> simulate ->
estimate -> order -> recover -> score), or of the join loop that follows
it, untraced, at a given receiver count.

    PYTHONPATH=src python scripts/layer_times.py --receivers 1050 --seeds 3 4 5 --repeats 3
    PYTHONPATH=src python scripts/layer_times.py --receivers 105 --joins 12 --seeds 9 10 11

Receivers are 70% of the hosts, with a third as many routers as hosts, at
2000 pairs, background 4e6 B/s and rho 0.35, as in the benchmark's
static-420 workload. With ``--joins B`` each pass is the dynamic scenario:
the static pass (one ``static_pass`` time), then B batches of 50 joining
hosts, each grown, measured in one session, given an oracle, attached host
by host and scored against the grown truth's skeleton, as in the
benchmark's growth-joins workload (``--receivers 105 --joins 12``); each
layer's time is summed over the batches. For each layer it prints the
median over seeds x repeats of the wall seconds per pass, as one JSON
object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

from covtomo.accuracy import score_trees
from covtomo.delay_cov import build_covariance_matrix, covariance_oracle_from_log
from covtomo.dynamic import attach_peer
from covtomo.model import branching_skeleton
from covtomo.ordering import dfs_order
from covtomo.recover import RecoveryConfig, recover_tree
from covtomo.scenarios import _cov_summary, _run_once
from covtomo.simulator import SimulatorConfig, generate_topology, grow_network, simulate_session

RHO_MS2 = 0.35
JOIN_BATCH = 50


def timed(times: dict, name: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, its wall time added to ``times[name]``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    times[name] = times.get(name, 0.0) + time.perf_counter() - start
    return result


def static_pass(cfg: SimulatorConfig, times: dict):
    net = timed(times, "generate_topology", generate_topology, cfg)
    log = timed(times, "simulate_session", simulate_session, net, cfg)
    cov = timed(times, "build_covariance_matrix", build_covariance_matrix, log, sorted(net.clients))
    order = timed(times, "dfs_order", dfs_order, cov)
    tree = timed(times, "recover_tree", recover_tree, net.source, order, cov, RecoveryConfig(RHO_MS2))
    truth = timed(times, "branching_skeleton", branching_skeleton, net.truth)
    timed(times, "score_trees", score_trees, tree, truth)
    timed(times, "_cov_summary", _cov_summary, cov)
    return len(net.clients)


def joins_pass(cfg: SimulatorConfig, batches: int, times: dict):
    """The join loop of `scenarios.run_dynamic_scenario`, layer by layer."""
    net, _, tree, config, _ = timed(times, "static_pass", _run_once, cfg, RHO_MS2)
    for step in range(1, batches + 1):
        new_hosts = timed(times, "grow_network", grow_network, net, cfg, JOIN_BATCH, stream=step)
        log = timed(times, "simulate_session", simulate_session, net, cfg, stream=step)
        oracle = timed(times, "covariance_oracle_from_log", covariance_oracle_from_log, log, peers=new_hosts)
        for host in new_hosts:
            timed(times, "attach_peer", attach_peer, tree, oracle, host, config)
        truth = timed(times, "branching_skeleton", branching_skeleton, net.truth)
        timed(times, "score_trees", score_trees, tree, truth)
    return len(net.clients)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--receivers", type=int, default=420)
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 4, 5])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--joins", type=int, default=0, metavar="B", help="time B join batches of 50 hosts")
    args = parser.parse_args()
    n_hosts = round(args.receivers / 0.7)
    passes: dict[str, list[float]] = {}
    for seed in args.seeds:
        cfg = SimulatorConfig(n_hosts=n_hosts, n_routers=n_hosts // 3, n_pairs=2000, seed=seed)
        for _ in range(args.repeats):
            times: dict[str, float] = {}
            start = time.perf_counter()
            receivers = joins_pass(cfg, args.joins, times) if args.joins else static_pass(cfg, times)
            times["pass"] = time.perf_counter() - start
            for name, seconds in times.items():
                passes.setdefault(name, []).append(seconds)
    medians = {k: round(statistics.median(v), 4) for k, v in passes.items()}
    print(json.dumps({"receivers": receivers, **medians}))


if __name__ == "__main__":
    main()
