"""Run the benchmark of two checkouts in alternating pairs and compare them.

    python tools/perf_pairs.py --parent DIR --change DIR --pairs N --out FILE
                               [--workload W] [--seed S] [--seconds T] [--tiny]

Each run is ``perfbench/run.py`` of one checkout, run in that checkout with
this interpreter, so each side measures its own program with its own
benchmark code. Pair i runs the parent first when i is odd and the change
first when it is even. The JSON file holds every run's metrics and, per
``<workload>/<metric>``, both sides' medians and quartiles and the number
of pairs the change won (ties count for neither side), in the direction
``BENCHMARK.json`` of the change checkout gives for that metric. It also
records whether every run's per-draw sha256, walk iterations and failed
steps are those of the first run. A run that fails, or prints no result
line, stops the script with one ``error:`` line naming the side and the
pair, and exit code 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


class RunError(RuntimeError):
    """A benchmark run that failed or printed no result."""


def run(checkout: Path, args) -> tuple[dict, dict]:
    """One benchmark run of ``checkout``: its metric values by
    ``<workload>/<metric>`` and its per-draw outputs by workload."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
    ] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = result["metrics"]
    except (IndexError, ValueError, KeyError, TypeError):
        raise RunError(f"exited with code {proc.returncode} and no result line") from None
    if proc.returncode != 0:
        raise RunError(f"exited with code {proc.returncode}")
    prefix = "" if args.workload == "all" else f"{args.workload}/"
    values = {prefix + name: m["value"] for name, m in metrics.items()}
    outputs = {}
    for line in lines[:-1]:
        if line.startswith("{"):
            report = json.loads(line)
            outputs[report["workload"]] = [
                [d["sha256"], d["walk_iterations"], d["failed_steps"]]
                for d in report["draw_outputs"]
            ]
    return values, outputs


def summary(runs: list[dict], better: dict[str, str]) -> dict:
    """Medians, quartiles and the change's wins per metric both sides
    report and ``BENCHMARK.json`` gives a direction for."""
    out = {}
    pairs = sorted({r["pair"] for r in runs})
    by_side = {
        side: [next(r for r in runs if r["pair"] == p and r["side"] == side) for p in pairs]
        for side in ("parent", "change")
    }
    for key in by_side["parent"][0]["metrics"]:
        direction = better.get(key.rsplit("/", 1)[-1])
        if direction is None or any(key not in r["metrics"] for r in runs):
            continue
        parent = [r["metrics"][key] for r in by_side["parent"]]
        change = [r["metrics"][key] for r in by_side["change"]]
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
        out[key] = {
            "better": direction,
            "parent_median": float(np.median(parent)),
            "parent_quartiles": np.percentile(parent, [25, 75]).tolist(),
            "change_median": float(np.median(change)),
            "change_quartiles": np.percentile(change, [25, 75]).tolist(),
            "change_won": f"{wins}/{len(pairs)}",
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, type=Path, metavar="DIR")
    p.add_argument("--change", required=True, type=Path, metavar="DIR")
    p.add_argument("--pairs", required=True, type=int, metavar="N")
    p.add_argument("--out", required=True, type=Path, metavar="FILE")
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=7041)
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs, outputs = [], []
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            try:
                values, draws = run(checkouts[side], args)
            except RunError as exc:
                print(f"error: the {side} run of pair {pair} {exc}", file=sys.stderr)
                return 1
            runs.append({"pair": pair, "side": side, "metrics": values})
            outputs.append(draws)
            print(f"pair {pair} {side}: " + ", ".join(
                f"{k} {v:.4g}" for k, v in values.items() if k.endswith("/march_s")
            ), flush=True)
    record = {
        "command": " ".join(
            ["perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", f"{args.seconds:g}"] + (["--tiny"] if args.tiny else [])
        ),
        "pairs": args.pairs,
        "outputs_identical": all(o == outputs[0] for o in outputs),
        "summary": summary(runs, better),
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"outputs identical: {record['outputs_identical']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
