import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).parents[1] / "scripts" / "report_diff.py"


def run_diff(tmp_path, old, new):
    paths = []
    for name, doc in (("old.json", old), ("new.json", new)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(doc))
    done = subprocess.run([sys.executable, str(SCRIPT), *map(str, paths)], capture_output=True, text=True, timeout=120)
    assert done.stderr == ""
    return done.returncode, done.stdout.splitlines()


def test_report_diff_prints_each_path_in_document_order(tmp_path):
    old = {"config": {"simulator": {"lary_arity": 3, "n_hosts": 10}}, "runs": [{"p": 1.0, "tree": [1, 2, 3]}], "x": 0.0}
    new = {"config": {"simulator": {"n_hosts": 10}}, "runs": [{"p": 1, "tree": [1, 5]}], "x": -0.0, "y": None}
    assert run_diff(tmp_path, old, new) == (
        1,
        [
            "removed config.simulator.lary_arity",
            "changed runs[0].p: 1.0 -> 1",
            "changed runs[0].tree[1]: 2 -> 5",
            "removed runs[0].tree[2]",
            "changed x: 0.0 -> -0.0",
            "added y",
        ],
    )


def test_report_diff_reads_as_deep_as_json_does(tmp_path):
    # 990 levels, about as deep as the JSON reader goes: the walk keeps its
    # own stack, so no depth the reader takes exhausts Python's
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, leaf in zip(paths, "12"):
        path.write_text('{"c": [' * 495 + leaf + "]}" * 495)
    done = subprocess.run([sys.executable, str(SCRIPT), *map(str, paths)], capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (1, "")
    assert done.stdout == "changed " + ".".join(["c[0]"] * 495) + ": 1 -> 2\n"
    done = subprocess.run([sys.executable, str(SCRIPT), str(paths[0]), str(paths[0])], capture_output=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
