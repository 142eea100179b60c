"""Wall time, or traced memory peak, of each layer of one static pass
(generate -> simulate -> estimate -> order -> recover -> score), of the
join loop that follows it, or of the steps of one CLI pass, without the
benchmark's span tracing, at a given receiver count.

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

With ``--cli`` a pass is instead one seed of the benchmark's lossy-import
workload: `covtomo.cli.main` runs simulate, estimate, recover and score in
a temporary directory, at background 12e6 B/s, where every link is
congested (``--receivers 105`` is the benchmark's desk scale). It times
each step, under its name, and the `logio` calls inside the steps, under
theirs, each summed over the pass (``save_tree`` writes the truth in
simulate and the tree in recover; ``load_tree`` reads both in score). A
step's time includes its `logio` calls, so its other work is the
difference. With ``--memory`` each step's peak includes those of the calls
inside it: the live memory beside which the benchmark's ``peak_rss_mb``,
which follows the allocator's heap layout, can be read.

    PYTHONPATH=src python scripts/layer_times.py --cli --receivers 105 --seeds 6 7 8
    PYTHONPATH=src python scripts/layer_times.py --cli --memory --receivers 105 --seeds 6 7 8 --repeats 1
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import tempfile
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

from covtomo import cli, scenarios

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
# the CLI steps of a --cli pass, and the logio calls inside them: both
# bound in `covtomo.cli`, each timed apart, so a step includes its calls
CLI_STEPS = ("_cmd_simulate", "_cmd_estimate", "_cmd_recover", "_cmd_score")
CLI_IO = (
    "check_writable",
    "export_log",
    "import_log",
    "save_matrix",
    "load_matrix",
    "save_tree",
    "load_tree",
    "write_json",
)
# the benchmark's lossy-import load, where every link is congested
CLI_BG_RATE = 12e6
KEYS = {
    "_run_once": "static_pass",
    "_await_draw": "draw_wait",
    **{name: name.removeprefix("_cmd_") for name in CLI_STEPS},
}


class WallTimes:
    """Wall seconds of each layer in one pass, summed over its calls."""

    def __init__(self):
        self.values: dict[str, float] = {}

    def start(self):
        return time.perf_counter()

    def stop(self, key: str, started) -> None:
        self.values[key] = self.values.get(key, 0.0) + time.perf_counter() - started

    def run_pass(self, run):
        started = self.start()
        result = run()
        self.stop("pass", started)
        return result


class TracedPeaks:
    """Largest `tracemalloc` peak (bytes) of each layer's calls in one
    pass, and of the whole pass under ``pass``. Each call resets the peak
    as it starts; ``running`` keeps the largest peak seen so far by each
    call still running, the pass first, so that a call's peak includes the
    peaks of the calls inside it."""

    def __init__(self):
        self.values: dict[str, int] = {}
        self.running: list[int] = []

    def _seen(self) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        self.running = [max(seen, peak) for seen in self.running]

    def start(self):
        self._seen()
        tracemalloc.reset_peak()
        self.running.append(0)

    def stop(self, key: str, started) -> None:
        self._seen()
        self.values[key] = max(self.values.get(key, 0), self.running.pop())

    def run_pass(self, run):
        tracemalloc.start()
        try:
            self.start()
            result = run()
            self.stop("pass", None)
        finally:
            tracemalloc.stop()
        return result


@contextmanager
def measuring(module, layers, meter):
    """Wrap each function ``layers`` names in ``module``, so that ``meter``
    measures its call under its key unless an outer call wrapped by the
    same `measuring` is running; restore the originals on exit."""
    saved = {name: getattr(module, name) for name in layers}
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
            setattr(module, name, wrap(KEYS.get(name, name), saved[name]))
        yield
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


def cli_pass(config: Path, workdir: Path, seed: int) -> dict:
    """One lossy-import pass through `cli.main`, as the benchmark runs it;
    returns the score file's document."""
    log, truth, cov, tree, score = (
        str(workdir / name) for name in ("log.ndjson", "truth.json", "cov.json", "tree.json", "score.json")
    )

    def run(*argv):
        if cli.main(list(argv)):
            raise SystemExit(f"covtomo {argv[0]} failed")

    with contextlib.redirect_stdout(io.StringIO()):
        run("simulate", "--config", str(config), "--seed", str(seed), "--out", log, "--truth-out", truth)
        # the source host is the root of the ground-truth tree
        source = json.loads(Path(truth).read_text(encoding="utf-8"))["id"]
        run("estimate", "--log", log, "--out", cov)
        run("recover", "--cov", cov, "--source", source, "--rho", str(RHO_MS2), "--out", tree)
        run("score", "--recovered", tree, "--truth", truth, "--out", score)
    return json.loads(Path(score).read_text(encoding="utf-8"))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--receivers", type=int, default=420)
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 4, 5])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--joins", type=int, default=0, metavar="B", help="time B join batches of 50 hosts")
    parser.add_argument("--cli", action="store_true", help="time one lossy-import CLI pass per seed")
    parser.add_argument("--memory", action="store_true", help="print traced memory peaks (MB), not wall times")
    args = parser.parse_args(argv)
    if args.cli and args.joins:
        parser.error("--cli runs no joins")
    n_hosts = round(args.receivers / 0.7)
    config = {
        "simulator": {"n_hosts": n_hosts, "n_routers": n_hosts // 3, "n_pairs": 2000},
        "recovery": {"rho_ms2": RHO_MS2},
        "seeds": args.seeds,
    }
    if args.cli:
        config["simulator"]["bg_rate_bytes_per_sec"] = CLI_BG_RATE
    if args.joins:
        config["joins"] = {"batches": [JOIN_BATCH] * args.joins}
    resolved = scenarios.parse_config(config)
    passes: dict[str, list] = {}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        config_path = workdir / "config.json"
        config_path.write_text(json.dumps(config))
        for seed in args.seeds:
            for _ in range(args.repeats):
                meter = TracedPeaks() if args.memory else WallTimes()
                if args.cli:
                    with measuring(cli, CLI_STEPS, meter), measuring(cli, CLI_IO, meter):
                        receivers = meter.run_pass(lambda: cli_pass(config_path, workdir, seed))["n_leaves"]
                elif args.joins:
                    with measuring(scenarios, JOIN_LAYERS, meter):
                        report = meter.run_pass(lambda: scenarios.run_dynamic_scenario(dict(resolved, seeds=[seed])))
                    receivers = report["runs"][0]["curve"][-1]["n_leaves"]
                else:
                    with measuring(scenarios, STATIC_LAYERS, meter):
                        report = meter.run_pass(lambda: scenarios.run_scenario(dict(resolved, seeds=[seed])))
                    receivers = report["runs"][0]["n_leaves"]
                for name, value in meter.values.items():
                    passes.setdefault(name, []).append(value)
    if args.memory:
        results = {k: round(max(v) / 2**20, 1) for k, v in passes.items()}
    else:
        results = {k: round(statistics.median(v), 4) for k, v in passes.items()}
    print(json.dumps({"receivers": receivers, **results}))


if __name__ == "__main__":
    main()
