"""`scripts/layer_times.py` times the layers it names by wrapping functions
bound in `covtomo.scenarios`; a rename there would leave the script failing
at its first pass, so each name is checked against the module here, and
the script runs once at a small scale in each of its modes, and once
measuring memory. The DFS order and the recovery walk are one layer,
`recover.recover_from_matrix`, the one matrix-to-tree step the scenarios
call."""

import importlib.util
import inspect
import json
import tracemalloc
from pathlib import Path

import pytest

from covtomo import recover, scenarios

SCRIPT = Path(__file__).parents[1] / "scripts" / "layer_times.py"


def load_script():
    spec = importlib.util.spec_from_file_location("layer_times", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layer_times = load_script()


@pytest.mark.parametrize("name", sorted(set(layer_times.STATIC_LAYERS) | set(layer_times.JOIN_LAYERS)))
def test_each_timed_layer_is_a_function_of_scenarios(name):
    assert inspect.isfunction(getattr(scenarios, name, None)), name


def test_order_and_walk_are_timed_as_one_recovery_layer():
    assert scenarios.recover_from_matrix is recover.recover_from_matrix
    assert "recover_from_matrix" in layer_times.STATIC_LAYERS
    assert not hasattr(scenarios, "dfs_order") and not hasattr(scenarios, "recover_tree")


@pytest.mark.parametrize("joins", [[], ["--joins", "2"]], ids=["static", "joins"])
def test_script_times_every_layer(capsys, joins):
    layer_times.main(["--receivers", "21", "--seeds", "1", "--repeats", "1", *joins])
    times = json.loads(capsys.readouterr().out)
    layers = layer_times.JOIN_LAYERS if joins else layer_times.STATIC_LAYERS
    want = {"receivers", "pass"} | {layer_times.KEYS.get(name, name) for name in layers}
    assert set(times) == want
    assert times["receivers"] == (21 + 2 * layer_times.JOIN_BATCH if joins else 21)


def test_memory_mode_prints_traced_peaks(capsys):
    layer_times.main(["--receivers", "21", "--seeds", "1", "--repeats", "1", "--joins", "2", "--memory"])
    peaks = json.loads(capsys.readouterr().out)
    want = {"receivers", "pass"} | {layer_times.KEYS.get(name, name) for name in layer_times.JOIN_LAYERS}
    assert set(peaks) == want
    # a pass's peak is the largest of its calls' peaks, or above it
    layers = [v for k, v in peaks.items() if k not in ("receivers", "pass")]
    assert 0 < max(layers) <= peaks["pass"]
    assert not tracemalloc.is_tracing()
