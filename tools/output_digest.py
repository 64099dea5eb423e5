"""Record the sha256 of every CSV a fixed set of commands writes, as JSON.

Runs each command below with ``python -m ddmech.cli`` in a subprocess, in
a fresh output directory, on the package of the checkout this script sits
in, one command at a time, and writes the digest of every CSV the command
leaves, by command and file name. The outputs are pure functions of the
program and the default seeds, so two checkouts whose JSON files are
identical write byte-identical CSVs. Run from a source checkout:

    python tools/output_digest.py --out DIGEST.json

To compare two programs, copy this script into the other checkout's
``tools/`` and ``diff`` the two JSON files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SMALL_LATTICE = "lattice.nx = 2\nlattice.ny = 1\nlattice.nz = 1\nt_end = 4\n"
#: The example mesh of the README, with its prescribed program.
README_MESH = """NODES
0 0 0 0
1 1 0 0
2 0 1 0
3 1 1 1
BARS
0 0 3 1.0
1 1 3 1.0
2 2 3 1.0
SUPPORTS
0 x
0 y
0 z
1 x
1 y
1 z
2 x
2 y
2 z
LOADS
3 z -100
PRESCRIBED
3 x px
"""
MESH_CONFIG = "mesh = mesh.txt\nprogram.px = 0,0; 2,0.001; 4,0.001\nt_end = 4\n"

#: (label, command arguments, config file text or None[, other input files
#: by name])
COMMANDS = (
    ("relaxation", ["relaxation"], None),
    ("relaxation --history-matching", ["relaxation", "--history-matching"], "t_end = 5\n"),
    ("visco", ["visco"], None),
    ("visco --history-matching", ["visco", "--history-matching"], SMALL_LATTICE),
    ("visco --config mesh", ["visco"], MESH_CONFIG, {"mesh.txt": README_MESH}),
    ("plastic", ["plastic"], None),
    (
        "convergence --kind visco",
        ["convergence", "--kind", "visco", "--points", "64,256,1024", "--runs", "2",
         "--workers", "2"],
        None,
    ),
    (
        "convergence --kind plastic",
        ["convergence", "--kind", "plastic", "--points", "64,256", "--runs", "2",
         "--workers", "2"],
        None,
    ),
    ("oracle-check", ["oracle-check"], None),
)


def run(
    args: list[str], config: str | None = None, files: dict[str, str] | None = None
) -> tuple[int, float, dict[str, str]]:
    """Runs ``ddmech <args>`` on this checkout's package, in the caller's
    environment, in a fresh directory that holds the config file and
    ``files`` (name to text), so the config may name them by relative path.
    Returns its exit code, its wall time in seconds and the sha256 of every
    CSV it wrote."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = [sys.executable, "-m", "ddmech.cli", *args, "--out", str(out)]
        for name, text in (files or {}).items():
            (Path(tmp) / name).write_text(text)
        if config is not None:
            path = Path(tmp) / "run.cfg"
            path.write_text(config)
            argv += ["--config", str(path)]
        start = time.perf_counter()
        code = subprocess.run(argv, env=env, cwd=tmp, stdout=subprocess.DEVNULL).returncode
        seconds = time.perf_counter() - start
        sums = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("*.csv"))
        }
        return code, seconds, sums


def digest(
    args: list[str], config: str | None, files: dict[str, str] | None = None
) -> dict[str, str]:
    """The sha256 of every CSV that ``ddmech <args>`` writes (see
    :func:`run`); ``CalledProcessError`` when the command fails."""
    code, _, sums = run(args, config, files)
    if code:
        raise subprocess.CalledProcessError(code, args)
    return sums


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, metavar="FILE", help="JSON file to write")
    args = parser.parse_args()
    record = {label: digest(*command) for label, *command in COMMANDS}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
