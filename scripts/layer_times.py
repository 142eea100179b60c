"""Wall time of each layer of one static pass (generate -> simulate ->
estimate -> order -> recover -> score), untraced, at a given receiver count.

    PYTHONPATH=src python scripts/layer_times.py --receivers 1050 --seeds 3 4 5 --repeats 3

Receivers are 70% of the hosts, with a third as many routers as hosts, at
2000 pairs, background 4e6 B/s and rho 0.35, as in the benchmark's
static-420 workload. For each layer it prints the median over seeds x
repeats of the wall seconds, as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

from covtomo.accuracy import score_trees
from covtomo.delay_cov import build_covariance_matrix
from covtomo.model import branching_skeleton
from covtomo.ordering import dfs_order
from covtomo.recover import RecoveryConfig, recover_tree
from covtomo.scenarios import _cov_summary
from covtomo.simulator import SimulatorConfig, generate_topology, simulate_session


def timed(times: dict, name: str, fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    times.setdefault(name, []).append(time.perf_counter() - start)
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--receivers", type=int, default=420)
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 4, 5])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    n_hosts = round(args.receivers / 0.7)
    times: dict[str, list[float]] = {}
    for seed in args.seeds:
        cfg = SimulatorConfig(n_hosts=n_hosts, n_routers=n_hosts // 3, n_pairs=2000, seed=seed)
        for _ in range(args.repeats):
            start = time.perf_counter()
            net = timed(times, "generate_topology", generate_topology, cfg)
            log = timed(times, "simulate_session", simulate_session, net, cfg)
            cov = timed(times, "build_covariance_matrix", build_covariance_matrix, log, sorted(net.clients))
            order = timed(times, "dfs_order", dfs_order, cov)
            tree = timed(times, "recover_tree", recover_tree, net.source, order, cov, RecoveryConfig(0.35))
            truth = timed(times, "branching_skeleton", branching_skeleton, net.truth)
            timed(times, "score_trees", score_trees, tree, truth)
            timed(times, "_cov_summary", _cov_summary, cov)
            times.setdefault("pass", []).append(time.perf_counter() - start)
    print(json.dumps({"receivers": len(net.clients), **{k: round(statistics.median(v), 4) for k, v in times.items()}}))


if __name__ == "__main__":
    main()
