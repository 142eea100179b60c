"""The benchmark's names for covtomo functions still name covtomo functions,
and the benchmark's checks still read what covtomo's calls give them.

`benchmarks/tracing.py` records spans by ``<module>.<function>`` for every
covtomo function bound in its traced namespaces, and each workload in
`benchmarks/workloads.py` lists the spans a traced pass must record and the
entry-point calls its checks read. A rename or a move inside covtomo breaks
those lists silently until the benchmark runs; this reads them and checks
each against the package. The checks also unpack the recorded arguments of
those calls (the growth-joins check reads ``((log,), oracle)``), so one
tiny pass of each workload runs through them here as well.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import covtomo.cli  # noqa: F401  (a traced namespace that covtomo does not import)

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def load(name):
    spec = importlib.util.spec_from_file_location(f"covtomo_bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracing = load("tracing")
workloads = load("workloads")


def traced_spans() -> set[str]:
    return {tracing._span_name(fn) for fn in tracing.traceable().values()}


def test_layer_times_name_traced_functions():
    spans = traced_spans()
    for metric, names in tracing.LAYER_TIMES.items():
        assert set(names) <= spans, metric


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_spans_and_kept_calls_exist(name):
    workload = workloads.WORKLOADS[name]
    assert workload.expected_spans - {tracing.ORACLE} <= traced_spans()
    for module, attr in workload.keep:
        fn = getattr(module, attr)
        assert callable(fn) and fn.__module__.startswith("covtomo."), (module.__name__, attr)


@pytest.mark.parametrize("traced", [False, True], ids=["timed", "traced"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_pass_passes_the_workload_checks(tmp_path, name, traced):
    workload = workloads.WORKLOADS[name]()
    seed = workload.seeds(3)[0]
    workload.load(workload.write_config(tmp_path, "tiny", [seed]), tmp_path)
    tracer = tracing.Tracer() if traced else None
    first = tracer.start_pass(seed, 0) if traced else 0
    with tracing.Patch(workload.keep, tracer) as patch:
        output = workload.run(seed)
    result = workload.finish(seed, output, patch.seen)
    assert result.failures == []
    assert result.digest and 0.0 <= result.p <= 1.0
    if traced:
        assert workload.expected_spans <= tracer.span_names(first)
