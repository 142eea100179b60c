"""Wall time, or traced memory peak, of each layer of one static pass
(generate -> simulate -> estimate -> order -> recover -> score), or of the
join loop that follows it, without the benchmark's span tracing, at a
given receiver count.

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
other layers are the join loop's, summed over the batches. The DFS order
and the recovery walk are one layer, ``recover_from_matrix``, as
`covtomo.scenarios` calls them through it; a traced benchmark run
(``benchmarks/run.py --trace 1``) times them apart, as ``ordering.dfs_s``
and ``recover.tree_s``.

Some draws of standard normals run on the run's worker thread while the
main thread works, and their own time shows in no layer: a static pass's
head jitter rows draw while ``generate_topology`` runs, and a join
session's rows while the join layers of the batch before it run.
``draw_wait`` is the time the main thread then waits for such a draw: for
the head draw, once ``generate_topology`` has returned; with ``--joins``,
for each join session's draw, between its ``begin_session`` and its
``simulate_session``. ``simulate_session`` includes the scaling of every
row of jitter, which runs on the main thread. The overlap is not free: the
head draw competes with ``generate_topology`` for the processor and
memory, which the ``generate_topology`` time shows. For each layer it
prints the median over seeds x repeats of the wall seconds per pass, as
one JSON object.

With ``--memory`` the same passes run under `tracemalloc`, and for each
layer it prints instead the largest traced peak of its outermost calls in
MB (2^20 bytes, as the benchmark's ``peak_rss_mb``): the peak is reset as
each such call starts, so it counts what the call allocates on top of
everything still alive when it starts. ``pass`` is the largest peak of a
whole pass. The largest is taken over seeds x repeats; tracing slows every
allocation, so no wall time is printed.

    PYTHONPATH=src python scripts/layer_times.py --memory --receivers 105 --joins 12 --seeds 9 --repeats 1
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
import tracemalloc
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
    "recover_from_matrix",
    "branching_skeleton",
    "score_trees",
    "_cov_summary",
)
JOIN_LAYERS = (
    "_run_once",
    "grow_network",
    "_await_draw",
    "simulate_session",
    "covariance_oracle_from_log",
    "attach_peer",
    "branching_skeleton",
    "score_trees",
)
KEYS = {"_run_once": "static_pass", "_await_draw": "draw_wait"}


class WallTimes:
    """Wall seconds of each layer in one pass, summed over its calls."""

    def __init__(self):
        self.values: dict[str, float] = {}

    def start(self):
        return time.perf_counter()

    def stop(self, key: str, started) -> None:
        self.values[key] = self.values.get(key, 0.0) + time.perf_counter() - started

    def run_pass(self, run, config):
        started = self.start()
        report = run(config)
        self.stop("pass", started)
        return report


class TracedPeaks:
    """Largest `tracemalloc` peak (bytes) of each layer's calls in one
    pass, and of the whole pass under ``pass``. Each call's peak is reset
    as it starts, so ``peak`` keeps the largest seen before the reset."""

    def __init__(self):
        self.values: dict[str, int] = {}
        self.peak = 0

    def start(self):
        self.peak = max(self.peak, tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()

    def stop(self, key: str, started) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        self.peak = max(self.peak, peak)
        self.values[key] = max(self.values.get(key, 0), peak)

    def run_pass(self, run, config):
        tracemalloc.start()
        try:
            report = run(config)
            self.values["pass"] = max(self.peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return report


@contextmanager
def measuring(layers, meter):
    """Wrap each function ``layers`` names in `covtomo.scenarios`, so that
    ``meter`` measures its call under its key unless an outer wrapped call
    is running; restore the originals on exit."""
    saved = {name: getattr(scenarios, name) for name in layers}
    depth = 0

    def wrap(key, fn):
        def measured(*args, **kwargs):
            nonlocal depth
            depth += 1
            started = meter.start() if depth == 1 else None
            try:
                return fn(*args, **kwargs)
            finally:
                depth -= 1
                if not depth:
                    meter.stop(key, started)

        return measured

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
    parser.add_argument("--memory", action="store_true", help="print traced memory peaks (MB), not wall times")
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
    passes: dict[str, list] = {}
    for seed in args.seeds:
        for _ in range(args.repeats):
            meter = TracedPeaks() if args.memory else WallTimes()
            with measuring(layers, meter):
                report = meter.run_pass(run, dict(resolved, seeds=[seed]))
            for name, value in meter.values.items():
                passes.setdefault(name, []).append(value)
    last = report["runs"][0]
    receivers = last["curve"][-1]["n_leaves"] if args.joins else last["n_leaves"]
    if args.memory:
        results = {k: round(max(v) / 2**20, 1) for k, v in passes.items()}
    else:
        results = {k: round(statistics.median(v), 4) for k, v in passes.items()}
    print(json.dumps({"receivers": receivers, **results}))


if __name__ == "__main__":
    main()
