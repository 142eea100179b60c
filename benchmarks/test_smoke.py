"""Smoke tests of the benchmark itself: every workload at tiny scale in both
modes, in a few seconds each.

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ready

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((ready.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def run_bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / "run.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=180,
    )


def tiny_result(workload: str, trace: int) -> dict:
    proc = run_bench(
        ready.ROOT, "--workload", workload, "--seed", str(SEED), "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def workloads_module():
    ready.load_covtomo()
    import workloads

    return workloads


def test_every_run_repeats_its_first_seed():
    import itertools

    import run

    passes, always = run.schedule([5, 6, 7], trace=False)
    assert list(itertools.islice(passes, always + 2)) == [(5, False), (6, False), (7, False), (5, False), (6, False), (7, False)]
    passes, always = run.schedule([5, 6, 7], trace=True)
    assert list(itertools.islice(passes, always + 2)) == [(5, True), (5, False), (5, True), (6, True), (7, True)]


def test_patch_restores_every_function():
    workloads = workloads_module()
    import tracing

    keep = workloads.WORKLOADS["growth-joins"].keep
    before = tracing.traceable()
    with tracing.Patch(keep, tracing.Tracer()) as patch:
        assert all(getattr(m, a) is not fn for (m, a), fn in before.items())
    assert patch.seen == {}
    assert all(getattr(m, a) is fn for (m, a), fn in before.items())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_listed_metric_is_emitted(workload, trace):
    result = tiny_result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    # every seed once and the first seed again (a traced run: three passes of it)
    assert result["attempted"] >= (3 if trace else len(workloads_module().WORKLOADS[workload]().seeds(SEED)) + 1)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in listed}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_p_mean_equals_the_entry_points_mean(workload):
    from covtomo import scenarios

    wl = workloads_module().WORKLOADS[workload]()
    seeds = wl.seeds(SEED)
    resolved = scenarios.parse_config(wl.config("tiny", seeds))
    if resolved["joins"]:
        want = scenarios.run_dynamic_scenario(resolved)["summary"]["final_mean_p"]
    else:
        # the CLI import path must reach the same trees as the in-memory one
        want = scenarios.run_scenario(resolved)["summary"]["mean_p"]
    assert tiny_result(workload, 0)["metrics"]["p_mean"]["value"] == want


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ready.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", WORKLOAD_NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
