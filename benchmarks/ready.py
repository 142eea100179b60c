"""Bring a fresh process to the point where a benchmark pass can start.

Set-up is the same in the benchmark process and in the probe processes
that `run.py` times for `setup_s`: cap the BLAS threads, import covtomo
(from this checkout's `src/`), numpy and networkx, and write the workload's
scenario config. Run as a script it performs that set-up and exits:

    python3 benchmarks/ready.py --workload static-420 --scale full \
        --seeds 3,4,5 --dir <directory inside the checkout>
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no covtomo sources)."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> None:
    """Cap BLAS/OpenMP threads at the CPUs this process may use. Must run
    before numpy is imported; a lower value already set is kept."""
    limit = nproc()
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 1 <= int(current) <= limit):
            os.environ[var] = str(limit)


def load_covtomo():
    """Import covtomo from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "covtomo" / "__init__.py").is_file():
        raise SetupError(f"no covtomo sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import covtomo

    if Path(covtomo.__file__).resolve().parent != src / "covtomo":
        raise SetupError(f"covtomo imported from {covtomo.__file__}, not from {src}")
    return covtomo


def prepare(workload: str, scale: str, seeds, workdir) -> Path:
    """Full set-up for one run; returns the path of the written config."""
    pin_blas_threads()
    load_covtomo()  # imports numpy and networkx as well
    import workloads

    return workloads.WORKLOADS[workload]().write_config(Path(workdir), scale, list(seeds))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated seeds")
    parser.add_argument("--dir", required=True)
    args = parser.parse_args(argv)
    try:
        prepare(args.workload, args.scale, [int(s) for s in args.seeds.split(",")], args.dir)
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
