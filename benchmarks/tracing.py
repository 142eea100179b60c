"""Spans around covtomo's layer boundaries, recorded from outside the package.

`Patch` is the one way a pass replaces covtomo functions, and it restores
the originals when the pass ends. It always keeps the latest arguments and
result of the entry-point calls that the workload's untimed checks read.
With a `Tracer` it also replaces every covtomo function bound in the entry
points' namespaces (`covtomo.scenarios`, `covtomo.cli`, `covtomo.recover`,
`covtomo.dynamic`) with a wrapper that records one span per call: name
(`<layer>.<function>`, the layer being the defining module), start, end,
parent span, seed and pass. The pair oracle returned by
`covariance_oracle_from_log` is wrapped too (`delay_cov.oracle`).

Counts (arrivals, aligned samples, oracle pairs, recovery cases, log
records) are taken by hooks at the same boundaries. A hook's time is
recorded as a `trace.hook` child span of the caller, so it is left out of
every layer's time. `trace.overhead_s` is the tracer's own cost in a pass:
its hook time plus the spans recorded times the calibrated cost of one span.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

TRACED_MODULES = ("covtomo.scenarios", "covtomo.cli", "covtomo.recover", "covtomo.dynamic")
HOOK = "trace.hook"
ORACLE = "delay_cov.oracle"
# per-layer metric -> spans whose summed duration it reports
LAYER_TIMES = {
    "delay_cov.matrix_s": ("delay_cov.build_covariance_matrix",),
    "delay_cov.oracle_build_s": ("delay_cov.covariance_oracle_from_log",),
    "accuracy.score_s": ("accuracy.score_trees",),
    "simulator.session_s": ("simulator.simulate_session",),
    "simulator.topology_s": ("simulator.generate_topology", "simulator.grow_network"),
    "dynamic.attach_s": ("dynamic.attach_peer",),
    "logio.export_s": ("logio.export_log",),
    "logio.import_s": ("logio.import_log",),
    "logio.json_s": ("logio.save_matrix", "logio.load_matrix", "logio.save_tree", "logio.load_tree"),
    "recover.tree_s": ("recover.recover_tree",),
    "ordering.dfs_s": ("ordering.dfs_order",),
    "model.skeleton_s": ("model.branching_skeleton",),
}
COUNTS = (
    "delay_cov.pairs",
    "delay_cov.aligned_samples",
    "accuracy.leaves",
    "simulator.arrivals",
    "logio.records",
    "logio.bytes",
    "recover.same_set",
    "recover.deeper",
    "recover.shallower",
    "recover.routers",
)


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def aligned_sample_total(log, receivers) -> int:
    """Sum over receiver pairs i < j of the pair indices both observed."""
    import numpy as np  # after the benchmark has capped the BLAS threads

    presence = np.zeros((len(receivers), log.n_pairs), dtype=np.float64)
    for row, r in enumerate(receivers):
        presence[row, np.fromiter(log.arrivals.get(r, {}), dtype=np.int64)] = 1.0
    shared = presence @ presence.T  # exact: the counts stay far below 2**53
    return int(round((shared.sum() - np.trace(shared)) / 2))


def traceable():
    """(module, attribute) -> function, for every covtomo function bound in
    the traced namespaces."""
    return {
        (module, attr): obj
        for module in (sys.modules[name] for name in TRACED_MODULES)
        for attr, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__.startswith("covtomo.")
    }


class Patch:
    """Replaces covtomo functions for one pass; restores them on exit.

    ``keep`` lists (module, attribute) pairs whose latest call is kept as
    ``seen[attribute] = (args, result)`` for the untimed checks; that costs
    one extra Python call per kept call, nothing per pair. With a
    ``tracer``, every function from `traceable()` records spans as well."""

    def __init__(self, keep, tracer=None):
        self.keep = set(keep)
        self.tracer = tracer
        self.seen: dict[str, tuple] = {}
        self._saved: list = []

    def __enter__(self):
        targets = {(module, attr): getattr(module, attr) for module, attr in self.keep}
        if self.tracer:
            targets.update(traceable())
        for (module, attr), fn in targets.items():
            self._saved.append((module, attr, fn))
            wrapped = self.tracer.wrap(fn) if self.tracer else fn
            if (module, attr) in self.keep:
                wrapped = self._keeping(attr, wrapped)
            setattr(module, attr, wrapped)
        return self

    def _keeping(self, attr, fn):
        seen = self.seen

        @functools.wraps(fn)
        def kept(*args, **kwargs):
            result = fn(*args, **kwargs)
            seen[attr] = (args, result)
            return result

        return kept

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False


class Tracer:
    def __init__(self):
        # (name, start, end, parent index, seed, pass); end is None while open
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._oracle_pairs: set = set()
        self.seed = None
        self.pass_no = None
        self._hooks = {
            "simulator.simulate_session": self._count_session,
            "delay_cov.build_covariance_matrix": self._count_matrix,
            "delay_cov.covariance_oracle_from_log": self._wrap_oracle,
            "recover.classify_case": self._count_case,
            "recover.recover_tree": self._count_routers,
            "accuracy.score_trees": self._count_leaves,
            "logio.export_log": self._count_export,
        }

    # -- recording -------------------------------------------------------

    def start_pass(self, seed: int, pass_no: int) -> int:
        """Begin a pass; returns the index of its first span."""
        self.seed, self.pass_no = seed, pass_no
        self.counts = Counter()
        self._oracle_pairs = set()
        return len(self.spans)

    def wrap(self, fn, name=None):
        name = name or _span_name(fn)
        hook = self._hooks.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            start = time.perf_counter()
            spans.append((name, start, None, parent, self.seed, self.pass_no))
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index] = (name, start, time.perf_counter(), parent, self.seed, self.pass_no)
            if hook is not None:
                hook_start = time.perf_counter()
                result = hook(index, args, result)
                spans.append((HOOK, hook_start, time.perf_counter(), parent, self.seed, self.pass_no))
            return result

        return traced

    def span_cost(self, calls: int = 20_000, repeats: int = 5) -> float:
        """Seconds one recorded span adds to a call: the median over
        ``repeats`` of (traced minus plain time of ``calls`` no-op calls)."""

        def noop():
            return None

        traced = self.wrap(noop, "trace.calibrate")
        first = len(self.spans)
        costs = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                noop()
            plain = time.perf_counter() - start
            start = time.perf_counter()
            for _ in range(calls):
                traced()
            costs.append((time.perf_counter() - start - plain) / calls)
        del self.spans[first:]
        return max(0.0, statistics.median(costs))

    # -- counting hooks: (span index, call args, result) -> result ------

    def _count_session(self, index, args, log):
        self.counts["simulator.arrivals"] += sum(len(a) for a in log.arrivals.values())
        self.counts["simulator.slots"] += len(log.receivers) * log.n_pairs
        return log

    def _count_matrix(self, index, args, cov):
        log, receivers = args[0], list(args[1])
        self.counts["delay_cov.pairs"] += len(receivers) * (len(receivers) - 1) // 2
        self.counts["delay_cov.aligned_samples"] += aligned_sample_total(log, receivers)
        return cov

    def _wrap_oracle(self, index, args, oracle):
        traced = self.wrap(oracle, ORACLE)
        pairs = self._oracle_pairs

        def counted(a, b):
            pairs.add((index, min(a, b), max(a, b)))
            return traced(a, b)

        return counted

    def _count_case(self, index, args, case):
        # only the static walk's decisions; the join walk classifies too
        parent = self.spans[index][3]
        if parent >= 0 and self.spans[parent][0] == "recover.recover_tree":
            self.counts[f"recover.{case.value}"] += 1
        return case

    def _count_routers(self, index, args, tree):
        self.counts["recover.routers"] += sum(1 for n in tree.nodes() if tree.is_router(n))
        return tree

    def _count_leaves(self, index, args, report):
        self.counts["accuracy.leaves"] += report.n_leaves
        return report

    def _count_export(self, index, args, result):
        log, path = args[0], args[1]
        self.counts["logio.records"] += log.n_pairs + sum(len(a) for a in log.arrivals.values())
        self.counts["logio.bytes"] += os.path.getsize(path)
        return result

    # -- per-pass metrics ------------------------------------------------

    def pass_metrics(self, first: int, span_cost: float) -> dict[str, float]:
        """Per-layer metrics of the pass whose spans start at ``first``;
        ``span_cost`` is the result of `span_cost()`."""
        spans = self.spans[first:]
        total: dict[str, float] = defaultdict(float)
        children: dict[int, float] = defaultdict(float)
        for name, start, end, parent, *_ in spans:
            total[name] += end - start
            children[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for offset, (name, start, end, *_rest) in enumerate(spans):
            self_time[name.split(".", 1)[0]] += (end - start) - children.get(first + offset, 0.0)

        metrics = {m: sum(total.get(n, 0.0) for n in names) for m, names in LAYER_TIMES.items()}
        metrics.update({c: self.counts.get(c, 0) for c in COUNTS})
        slots = self.counts.get("simulator.slots", 0)
        metrics["simulator.loss_frac"] = 1.0 - self.counts["simulator.arrivals"] / slots if slots else 0.0
        calls = sum(1 for s in spans if s[0] == ORACLE)
        metrics["delay_cov.oracle_calls"] = calls
        metrics["delay_cov.oracle_unique_frac"] = len(self._oracle_pairs) / calls if calls else 0.0
        attach_ms = [(s[2] - s[1]) * 1e3 for s in spans if s[0] == "dynamic.attach_peer"]
        metrics["dynamic.attach_ms_p50"] = statistics.median(attach_ms) if attach_ms else 0.0
        metrics["dynamic.attach_ms_p90"] = (
            statistics.quantiles(attach_ms, n=10)[-1] if len(attach_ms) >= 2 else sum(attach_ms)
        )
        metrics["dynamic.oracle_calls_per_join"] = calls / len(attach_ms) if attach_ms else 0.0
        metrics["scenarios.self_s"] = self_time.get("scenarios", 0.0)
        metrics["cli.self_s"] = self_time.get("cli", 0.0)
        recorded = sum(1 for s in spans if s[0] != HOOK)
        metrics["trace.overhead_s"] = total.get(HOOK, 0.0) + recorded * span_cost
        return metrics

    def pass_counts(self) -> dict:
        """The counts that must repeat exactly for a seed."""
        return dict(self.counts, oracle_pairs=len(self._oracle_pairs))

    def span_names(self, first: int) -> set[str]:
        return {s[0] for s in self.spans[first:]}

    def write(self, path, origin: float) -> None:
        """All spans as gzipped NDJSON, times in seconds from ``origin``."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for index, (name, start, end, parent, seed, pass_no) in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": name,
                    "start": round(start - origin, 7),
                    "end": round(end - origin, 7),
                    "parent": parent,
                    "seed": seed,
                    "pass": pass_no,
                }
                fh.write(json.dumps(record) + "\n")
