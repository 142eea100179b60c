"""`scripts/layer_times.py` times the layers it names by wrapping functions
bound in `covtomo.scenarios`, or with ``--cli`` in `covtomo.cli`; a rename
there would leave the script failing at its first pass, so each name is
checked against its module here, and the script runs once at a small scale
in each of its modes, and measuring memory. The DFS order and the recovery
walk are one layer, `recover.recover_from_matrix`, the one matrix-to-tree
step the scenarios call."""

import importlib.util
import inspect
import json
import tracemalloc
from pathlib import Path

import pytest

from covtomo import cli, recover, scenarios

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


@pytest.mark.parametrize("name", layer_times.CLI_STEPS + layer_times.CLI_IO)
def test_each_timed_cli_layer_is_a_function_of_cli(name):
    assert inspect.isfunction(getattr(cli, name, None)), name


def test_order_and_walk_are_timed_as_one_recovery_layer():
    assert scenarios.recover_from_matrix is recover.recover_from_matrix
    assert "recover_from_matrix" in layer_times.STATIC_LAYERS
    assert not hasattr(scenarios, "dfs_order") and not hasattr(scenarios, "recover_tree")


MODES = {
    "static": ([], layer_times.STATIC_LAYERS, 21),
    "joins": (["--joins", "2"], layer_times.JOIN_LAYERS, 21 + 2 * layer_times.JOIN_BATCH),
    "cli": (["--cli"], layer_times.CLI_STEPS + layer_times.CLI_IO, 21),
}


@pytest.mark.parametrize("mode", MODES)
def test_script_times_every_layer(capsys, mode):
    flags, layers, receivers = MODES[mode]
    layer_times.main(["--receivers", "21", "--seeds", "1", "--repeats", "1", *flags])
    times = json.loads(capsys.readouterr().out)
    want = {"receivers", "pass"} | {layer_times.KEYS.get(name, name) for name in layers}
    assert set(times) == want
    assert times["receivers"] == receivers


def test_memory_mode_prints_traced_peaks(capsys):
    layer_times.main(["--receivers", "21", "--seeds", "1", "--repeats", "1", "--joins", "2", "--memory"])
    peaks = json.loads(capsys.readouterr().out)
    want = {"receivers", "pass"} | {layer_times.KEYS.get(name, name) for name in layer_times.JOIN_LAYERS}
    assert set(peaks) == want
    # a pass's peak is the largest of its calls' peaks, or above it
    layers = [v for k, v in peaks.items() if k not in ("receivers", "pass")]
    assert 0 < max(layers) <= peaks["pass"]
    assert not tracemalloc.is_tracing()


def test_cli_memory_mode_counts_each_call_in_its_step(capsys):
    layer_times.main(["--receivers", "21", "--seeds", "1", "--repeats", "1", "--cli", "--memory"])
    peaks = json.loads(capsys.readouterr().out)
    assert 0 < peaks["import_log"] <= peaks["estimate"] <= peaks["pass"]
    assert 0 < peaks["export_log"] <= peaks["simulate"] <= peaks["pass"]
    assert peaks["load_matrix"] <= peaks["recover"] and peaks["load_tree"] <= peaks["score"]
    assert not tracemalloc.is_tracing()
