"""Time the shipped commands that finish within a minute, as JSON.

Runs ``relaxation``, ``relaxation --history-matching``, ``visco``,
``plastic`` and ``oracle-check`` at their defaults, one after another, each
once with ``python -m ddmech.cli`` in a subprocess that has the caller's
environment and this checkout's ``src`` first on ``PYTHONPATH``. For every
command it records the wall time in seconds, the exit code and the sha256
of every CSV it wrote. Run from a source checkout:

    python tools/command_timing.py --out TIMES.json

To compare two programs, copy this script and ``output_digest.py`` into the
other checkout's ``tools/`` and run the two checkouts in turn several times:
on a shared host one run of each carries the host's drift.
"""

from __future__ import annotations

import argparse
import json

from output_digest import run

#: (label, command arguments)
COMMANDS = (
    ("relaxation", ["relaxation"]),
    ("relaxation --history-matching", ["relaxation", "--history-matching"]),
    ("visco", ["visco"]),
    ("plastic", ["plastic"]),
    ("oracle-check", ["oracle-check"]),
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, metavar="FILE", help="JSON file to write")
    args = parser.parse_args()
    record = {}
    for label, command in COMMANDS:
        code, seconds, sums = run(command)
        record[label] = {"wall_s": round(seconds, 3), "exit_code": code, "csv_sha256": sums}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
