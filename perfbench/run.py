"""Benchmark command: march workloads of ddmech, timed and checked.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--tiny]

Run from the root of a source checkout; the program is imported from its
``src`` directory. One workload runs in this process. ``--workload all``
(the default) runs every workload one at a time, each in a fresh process.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the environment, the trajectory fingerprints and the exact counts.
A failed correctness check exits with code 1 and prints no result.
See README.md next to this file for the metrics and workloads.
"""

from __future__ import annotations

import os

# BLAS and OpenMP read these once, when numpy loads them
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("visco-dense", "plastic-sparse", "visco-archive")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=7041)
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for smoke tests")
    return p.parse_args(argv)


def import_program() -> None:
    """Put the checkout's ``src`` first on the path, or exit without a result."""
    src = ROOT / "src"
    if not (src / "ddmech" / "__init__.py").is_file():
        sys.exit(f"error: no program to benchmark: {src / 'ddmech'} is missing")
    sys.path[:0] = [str(src), str(HERE)]
    import ddmech

    if Path(ddmech.__file__).resolve().parent != (src / "ddmech").resolve():
        sys.exit(f"error: ddmech was imported from {ddmech.__file__}, not {src}")


def run_one(args) -> int:
    import_program()
    from harness import GateError, run_workload

    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except GateError as exc:
        print(f"error: correctness check failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out["report"]))
    for name, m in out["result"]["metrics"].items():
        print(f"# {args.workload:15s} {name:45s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(out["result"]))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; metric names gain a workload prefix."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("error: --seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
