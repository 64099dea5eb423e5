"""Compare two study records written by ``tools/study_record.py``.

For each study kind and size it prints both mean errors and their
difference in units of the base record's standard deviation at that size,
then both fitted rates and both spreads of the per-run rates. Records whose
kinds, points, runs or seed differ are not comparable: the script then
prints one ``error:`` line and exits with code 2. Run from a source
checkout:

    python tools/study_compare.py STUDY_12.json NEW.json
"""

from __future__ import annotations

import argparse
import json
import sys


def compare(base: dict, new: dict) -> list[str]:
    """The report's lines; ``ValueError`` when the records differ in their
    kinds, points, runs or seed."""
    if list(base) != list(new):
        raise ValueError(f"the records hold the kinds {list(base)} and {list(new)}")
    lines = []
    for kind, b in base.items():
        n = new[kind]
        for key in ("points", "runs", "seed"):
            if b[key] != n[key]:
                raise ValueError(f"{kind}: the records differ in {key}: {b[key]} and {n[key]}")
        for points, b_mean, b_std, n_mean in zip(
            b["points"], b["mean_error"], b["std_error"], n["mean_error"]
        ):
            shift = (n_mean - b_mean) / b_std if b_std > 0.0 else float("nan")
            lines.append(
                f"{kind} {points:>5} points: mean error {b_mean:.6g} -> {n_mean:.6g}, "
                f"{shift:+.2f} std"
            )
        lines.append(
            f"{kind} rate {b['rate']:.4f} -> {n['rate']:.4f}, run-rate spread "
            f"{b['run_rate_std']:.4f} -> {n['run_rate_std']:.4f}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", metavar="BASE.json", help="the record compared against")
    parser.add_argument("new", metavar="NEW.json", help="the record to compare")
    args = parser.parse_args(argv)
    with open(args.base) as fb, open(args.new) as fn:
        base, new = json.load(fb), json.load(fn)
    try:
        lines = compare(base, new)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
