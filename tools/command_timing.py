"""Time the shipped commands that finish within a minute, as JSON.

Runs ``relaxation``, ``relaxation --history-matching``, ``visco``,
``plastic`` and ``oracle-check`` at their defaults, ``visco --points 1024``
and ``plastic --points 1024`` (a set size no perfbench workload has),
``visco --history-matching`` on the default lattice with a config file of
``t_end = 6``, and ``convergence --kind plastic --points 64,256 --runs
4``, one after another, each once with ``python -m ddmech.cli`` in a
subprocess that has the caller's environment and this checkout's ``src``
first on ``PYTHONPATH`` (:func:`output_digest.run`). For every command it
records the wall time in seconds, the peak resident set size of its
largest process in MiB (``max_rss_mib``, reaped pool workers
included), the exit code and the digests of every CSV it wrote
(:func:`output_digest.csv_digests`). Labels
after the options run only those commands, in the order of ``COMMANDS``.
Run from a source checkout:

    python tools/command_timing.py --out TIMES.json
    python tools/command_timing.py --out TIMES.json plastic "relaxation --history-matching"

Every march runs in one process. Under ``taskset -c 0`` every command
runs on one CPU, so the convergence study runs no pool either and every
time is serial.

To compare two programs, copy this script and ``output_digest.py`` into the
other checkout's ``tools/`` and run the two checkouts in turn several times:
on a shared host one run of each carries the host's drift.
"""

from __future__ import annotations

import argparse
import json

from output_digest import run

#: (label, command arguments[, config file text])
COMMANDS = (
    ("relaxation", ["relaxation"]),
    ("relaxation --history-matching", ["relaxation", "--history-matching"]),
    ("visco", ["visco"]),
    ("visco --points 1024", ["visco", "--points", "1024"]),
    ("visco --history-matching", ["visco", "--history-matching"], "t_end = 6\n"),
    ("plastic", ["plastic"]),
    ("plastic --points 1024", ["plastic", "--points", "1024"]),
    ("oracle-check", ["oracle-check"]),
    (
        "convergence --kind plastic",
        ["convergence", "--kind", "plastic", "--points", "64,256", "--runs", "4"],
    ),
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, metavar="FILE", help="JSON file to write")
    parser.add_argument("labels", nargs="*", metavar="LABEL", help="commands to run (default: all)")
    args = parser.parse_args()
    known = [label for label, *_ in COMMANDS]
    for label in args.labels:
        if label not in known:
            parser.error(f"unknown command label {label!r}; choose from {known}")
    record = {}
    for label, command, *config in COMMANDS:
        if args.labels and label not in args.labels:
            continue
        code, seconds, rss, sums = run(command, *config)
        record[label] = {
            "wall_s": round(seconds, 3),
            "max_rss_mib": round(rss, 1),
            "exit_code": code,
            "csv_sha256": sums,
        }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
