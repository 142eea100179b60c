"""covtomo benchmark: one workload, one closed-loop caller, one process.

    python3 benchmarks/run.py --workload static-420 --seed 1 --seconds 15 --trace 0

The caller runs one seed pass at a time on the main thread (BLAS threads
capped at the CPUs available) until `--seconds` have passed, cycling through
the run's seeds, which derive from `--seed` alone. Every pass is checked
outside its timed region (see workloads.py); a pass that raises, exits
non-zero or fails a check counts as failed. The first seed always runs
twice, so every run checks that a seed's report digest repeats.

`--trace 0` runs every seed once, then the first seed again, then goes on
cycling while time remains. It prints the end-to-end metrics: setup_s
(median over fresh set-up processes), seed_s (each seed's median pass time,
averaged over the run's seeds), p_mean (mean accuracy over the run's seeds)
and peak_rss_mb. Both times are wall seconds scaled by the host's speed at
the time (see REF_NOMINAL_S and SETUP_REF_NOMINAL_S).

`--trace 1` runs the first seed traced, untraced and traced again (so the
timed and traced reports and two traced passes' counts are compared), then
cycles through the seeds traced while time remains. It prints the per-layer
metrics, medians over the traced passes; its spans are written to
`.covtomo-bench/`. The last line of stdout is the JSON result. Metric names
are those listed in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import ready
import tracing

ROOT = ready.ROOT
BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 9  # fresh processes timed for setup_s
PROBE_TIMEOUT_S = 60
# A set-up probe is mostly interpreter start and imports, and its time
# follows the host's speed from one second to the next. So each probe is
# timed between two runs of a reference process that does the same kind of
# work on the standard library alone, and is scaled like a pass (below):
#   scaled = probe * SETUP_REF_NOMINAL_S / mean(reference before, reference after).
SETUP_REF_CMD = (
    "-c",
    "import argparse, asyncio, csv, decimal, email.mime.multipart, http.client, "
    "json, logging.handlers, unittest, xml.dom.minidom",
)
SETUP_REF_NOMINAL_S = 0.20
# The speed of a shared host drifts by up to a third over tens of seconds,
# more than the bounds allow. So every reported time is scaled by a fixed
# reference loop timed just before and just after it:
#   scaled = wall * REF_NOMINAL_S / mean(reference before, reference after).
# REF_NOMINAL_S is the loop's median time on the machine the baseline was
# measured on, so scaled seconds read as seconds on that machine. The raw
# wall times are printed too.
REF_NOMINAL_S = 0.31


def parse_args(argv):
    parser = argparse.ArgumentParser(description="covtomo benchmark (one workload per process)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs every code path in seconds, for the smoke tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": ready.nproc(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ[v] for v in ready.BLAS_THREAD_VARS},
    }


def _wall(cmd) -> float:
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise ready.SetupError(f"{cmd[1]} exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed


def time_setup(args, seeds, workdir) -> tuple[list[float], list[float], list[float]]:
    """Wall and scaled times of fresh processes going from start to ready,
    each between two reference processes (see SETUP_REF_CMD), and the
    reference processes' wall times."""
    cmd = [
        sys.executable, str(BENCH_DIR / "ready.py"), "--workload", args.workload,
        "--scale", args.scale, "--seeds", ",".join(map(str, seeds)), "--dir", str(workdir),
    ]
    ref_cmd = [sys.executable, *SETUP_REF_CMD]
    refs = [_wall(ref_cmd)]
    wall, scaled = [], []
    for _ in range(SETUP_PROBES):
        probe = _wall(cmd)
        refs.append(_wall(ref_cmd))
        wall.append(probe)
        scaled.append(probe * SETUP_REF_NOMINAL_S / ((refs[-2] + refs[-1]) / 2))
    return wall, scaled, refs


def reference_seconds() -> float:
    """Wall time of a fixed loop of Python bytecode and numpy operations.
    It allocates nothing (small cached ints, preallocated arrays), so the
    state of the heap a pass leaves behind does not change its time."""
    import numpy as np

    start = time.perf_counter()
    a = 0
    for _ in range(3_000_000):
        a = (a * 7 + 3) & 255
    x = np.arange(4096, dtype=np.int64)
    y = np.empty_like(x)
    for _ in range(15_000):
        np.multiply(x, 3, out=y)
        np.add(y, a, out=y)
    return time.perf_counter() - start


class HostClock:
    """Scale factors for wall times, from the reference loop (see REF_NOMINAL_S)."""

    def __init__(self):
        gc.collect()
        self._last = reference_seconds()

    def factor(self) -> float:
        """Scale for the interval since the previous call (or creation)."""
        gc.collect()
        ref = reference_seconds()
        scale = REF_NOMINAL_S / ((self._last + ref) / 2)
        self._last = ref
        return scale


class Runner:
    """Runs and checks passes of one workload, keeping per-seed outcomes."""

    def __init__(self, workload, clock: HostClock, tracer=None):
        self.workload = workload
        self.clock = clock
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.times = {False: [], True: []}  # scaled pass seconds, by traced
        self.by_seed: dict[int, list[float]] = {}  # scaled untraced seconds
        self.wall = {False: [], True: []}  # the same passes' raw wall seconds
        self.log: list[str] = []  # one entry per successful pass, in order
        self.p: dict[int, float] = {}
        self.digests: dict[int, str] = {}
        self.counts: dict[int, dict] = {}
        self.layer: list[dict] = []
        self.failures: list[str] = []
        self.span_cost = tracer.span_cost() if tracer else 0.0

    def run_pass(self, seed: int, traced: bool) -> float | None:
        """One checked pass; returns its seconds, or None when it failed."""
        self.attempted += 1
        failures, elapsed = self._pass(seed, traced)
        scale = self.clock.factor()
        if failures:
            self.failed += 1
            self.failures += [f"seed {seed} pass {self.attempted}: {f}" for f in failures]
            return None
        self.wall[traced].append(elapsed)
        self.times[traced].append(elapsed * scale)
        if not traced:
            self.by_seed.setdefault(seed, []).append(elapsed * scale)
        self.log.append(f"{seed}{'T' if traced else ''}:{elapsed:.3f}/{elapsed * scale:.3f}")
        return elapsed * scale

    def _pass(self, seed: int, traced: bool) -> tuple[list[str], float]:
        """Failures of one pass, and its wall seconds."""
        tracer = self.tracer if traced else None
        first = tracer.start_pass(seed, self.attempted) if tracer else 0
        with tracing.Patch(self.workload.keep, tracer) as patch:
            try:
                start = time.perf_counter()
                output = self.workload.run(seed)
                elapsed = time.perf_counter() - start
            except Exception:
                return [f"raised:\n{traceback.format_exc()}"], 0.0
        try:
            result = self.workload.finish(seed, output, patch.seen)
        except Exception:
            return [f"check raised:\n{traceback.format_exc()}"], 0.0
        failures = list(result.failures)
        if self.digests.setdefault(seed, result.digest) != result.digest:
            failures.append("report digest differs from an earlier pass of this seed")
        if self.p.setdefault(seed, result.p) != result.p:
            failures.append(f"p={result.p!r} differs from an earlier pass ({self.p[seed]!r})")
        if tracer:
            missing = self.workload.expected_spans - tracer.span_names(first)
            if missing:
                failures.append(f"expected spans missing: {sorted(missing)}")
            counts = tracer.pass_counts()
            if self.counts.setdefault(seed, counts) != counts:
                failures.append(f"counts {counts} differ from an earlier pass ({self.counts[seed]})")
            if not failures:
                self.layer.append(tracer.pass_metrics(first, self.span_cost))
        return failures, elapsed


def schedule(seeds, trace: bool):
    """(seed, traced) of every pass in run order, and how many of them a run
    always makes. The first seed runs twice in the run's mode, so each run
    compares a seed's digest (and, traced, its counts) across passes; a
    traced run also times it untraced, to compare timed and traced reports."""
    first, rest = seeds[0], seeds[1:] + seeds[:1]
    if trace:
        head = [(first, True), (first, False), (first, True)]
    else:
        head = [(s, False) for s in seeds] + [(first, False)]
    return itertools.chain(head, itertools.cycle([(s, trace) for s in rest])), len(head)


def summarize(values) -> str:
    values = sorted(values)
    quartiles = statistics.quantiles(values, n=4) if len(values) >= 2 else [values[0]] * 3
    return (f"median {statistics.median(values):.4f} (q1 {quartiles[0]:.4f}, q3 {quartiles[2]:.4f}, "
            f"min {values[0]:.4f}, max {values[-1]:.4f}) over n={len(values)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    ready.pin_blas_threads()
    # a terminated run still removes its temporary directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with tempfile.TemporaryDirectory(prefix=".covtomo-bench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        try:
            # own set-up first: it also leaves the byte-code the probes reuse
            ready.load_covtomo()
            import workloads

            wl = workloads.WORKLOADS[args.workload]()
            seeds = wl.seeds(args.seed)
            config_path = ready.prepare(args.workload, args.scale, seeds, workdir)
            setup_wall, setup_scaled, setup_refs = time_setup(args, seeds, workdir)
            clock = HostClock()
        except ready.SetupError as exc:
            print(f"cannot set up: {exc}", file=sys.stderr)
            return 2
        env = environment()
        print(f"# covtomo benchmark: workload={args.workload} scale={args.scale} seeds={seeds} "
              f"trace={args.trace} seconds={args.seconds:g}")
        print(f"# env: {json.dumps(env, sort_keys=True)}")
        wl.load(config_path, workdir)
        runner = Runner(wl, clock, tracing.Tracer() if args.trace else None)
        origin = time.perf_counter()
        deadline = origin + args.seconds
        passes, always = schedule(seeds, bool(args.trace))
        for n, (seed, traced) in enumerate(passes):
            if n >= always and time.perf_counter() >= deadline:
                break
            runner.run_pass(seed, traced)

    for line in runner.failures:
        print(f"FAILED {line}", file=sys.stderr)
    untraced = runner.times[False]
    if not untraced or (args.trace and not runner.layer):
        print("no pass succeeded; no result", file=sys.stderr)
        return 1
    # a timed run must have a p for every seed; a traced run reports no p
    missing_seeds = [] if args.trace else [s for s in seeds if s not in runner.p]
    correct = runner.failed == 0 and not missing_seeds
    if args.trace:
        metrics = {m: statistics.median(d[m] for d in runner.layer) for m in runner.layer[0]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        runner.tracer.write(ROOT / ".covtomo-bench" / f"spans-{args.workload}-seed{args.seed}.ndjson.gz", origin)
        print(f"# traced seed_s scaled {summarize(runner.times[True])}")
        print(f"# span cost {runner.span_cost * 1e6:.3f} us; trace.overhead_s is hook time + spans x span cost")
    else:
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            # seeds differ in work, so each seed's median counts once
            "seed_s": statistics.mean(statistics.median(t) for t in runner.by_seed.values()),
            "p_mean": sum(runner.p[s] for s in seeds) / len(seeds) if not missing_seeds else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        print(f"# setup_s wall {summarize(setup_wall)} fresh processes")
        print(f"# setup reference wall {summarize(setup_refs)}")
        print(f"# setup_s scaled {summarize(setup_scaled)}")
    print(f"# seed_s wall {summarize(runner.wall[False])} untraced passes over seeds {seeds}")
    print(f"# seed_s scaled {summarize(untraced)}")
    print(f"# passes (seed[T=traced]:wall/scaled seconds): {' '.join(runner.log)}")
    if set(metrics) != set(units):
        print(f"metric names {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json", file=sys.stderr)
        correct = False
    for name in sorted(metrics):
        print(f"# {name} = {metrics[name]:.6g} {units.get(name, '?')}")
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m: {"value": float(v), "unit": units.get(m, "?")} for m, v in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
