"""Wall time of each layer of one static pass (generate -> simulate ->
estimate -> order -> recover -> score), or of the join loop that follows
it, untraced, at a given receiver count.

    PYTHONPATH=src python scripts/layer_times.py --receivers 1050 --seeds 3 4 5 --repeats 3
    PYTHONPATH=src python scripts/layer_times.py --receivers 105 --joins 12 --seeds 9 10 11

Receivers are 70% of the hosts, with a third as many routers as hosts, at
2000 pairs, background 4e6 B/s and rho 0.35, as in the benchmark's
static-420 workload. Each pass is one seed of `scenarios.run_scenario`, or
with ``--joins B`` of `scenarios.run_dynamic_scenario` with B batches of 50
joining hosts, as in the benchmark's growth-joins workload (``--receivers
105 --joins 12``). The layers are timed by wrapping the functions that
`covtomo.scenarios` calls, so the times are those of the real pipeline. A
call inside another timed call counts only in the outer one: with
``--joins`` the whole static pass is one ``static_pass`` time, and the
other layers are the join loop's, summed over the batches.

Some draws run on the run's worker thread while the main thread works,
and their own time shows in no layer: a static pass's head jitter rows
draw while ``generate_topology`` runs, and a join session's jitter while
the join layers of the batch before it run. ``draw_wait`` is the time the
main thread then waits for such a draw: for the head draw, once
``generate_topology`` has returned; with ``--joins``, for each join
session's draw, between its ``start_session`` and its
``simulate_session``. The overlap is not free: the head draw competes with
``generate_topology`` for the processor and memory, which the
``generate_topology`` time shows. For each layer it prints the median over
seeds x repeats of the wall seconds per pass, as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from contextlib import contextmanager

from covtomo import scenarios

RHO_MS2 = 0.35
JOIN_BATCH = 50
# the functions bound in `covtomo.scenarios` that a pass times; each time is
# printed under the function's name, the static pass's under static_pass
STATIC_LAYERS = (
    "generate_topology",
    "_await_draw",
    "simulate_session",
    "build_covariance_matrix",
    "dfs_order",
    "recover_tree",
    "branching_skeleton",
    "score_trees",
    "_cov_summary",
)
JOIN_LAYERS = (
    "_run_once",
    "grow_network",
    "start_session",
    "_await_draw",
    "simulate_session",
    "covariance_oracle_from_log",
    "attach_peer",
    "branching_skeleton",
    "score_trees",
)
KEYS = {"_run_once": "static_pass", "_await_draw": "draw_wait"}


@contextmanager
def timing(layers, times: dict):
    """Wrap each function ``layers`` names in `covtomo.scenarios`, adding
    its wall time to ``times`` under its key unless an outer wrapped call
    is running; restore the originals on exit."""
    saved = {name: getattr(scenarios, name) for name in layers}
    depth = 0

    def wrap(key, fn):
        def timed(*args, **kwargs):
            nonlocal depth
            depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                depth -= 1
                if not depth:
                    times[key] = times.get(key, 0.0) + time.perf_counter() - start

        return timed

    try:
        for name in layers:
            setattr(scenarios, name, wrap(KEYS.get(name, name), saved[name]))
        yield
    finally:
        for name, fn in saved.items():
            setattr(scenarios, name, fn)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--receivers", type=int, default=420)
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 4, 5])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--joins", type=int, default=0, metavar="B", help="time B join batches of 50 hosts")
    args = parser.parse_args(argv)
    n_hosts = round(args.receivers / 0.7)
    config = {
        "simulator": {"n_hosts": n_hosts, "n_routers": n_hosts // 3, "n_pairs": 2000},
        "recovery": {"rho_ms2": RHO_MS2},
        "seeds": args.seeds,
    }
    if args.joins:
        config["joins"] = {"batches": [JOIN_BATCH] * args.joins}
    resolved = scenarios.parse_config(config)
    run, layers = (
        (scenarios.run_dynamic_scenario, JOIN_LAYERS) if args.joins else (scenarios.run_scenario, STATIC_LAYERS)
    )
    passes: dict[str, list[float]] = {}
    for seed in args.seeds:
        for _ in range(args.repeats):
            times: dict[str, float] = {}
            with timing(layers, times):
                start = time.perf_counter()
                report = run(dict(resolved, seeds=[seed]))
                times["pass"] = time.perf_counter() - start
            for name, seconds in times.items():
                passes.setdefault(name, []).append(seconds)
    last = report["runs"][0]
    receivers = last["curve"][-1]["n_leaves"] if args.joins else last["n_leaves"]
    medians = {k: round(statistics.median(v), 4) for k, v in passes.items()}
    print(json.dumps({"receivers": receivers, **medians}))


if __name__ == "__main__":
    main()
