"""Record the reduced convergence studies as one JSON file.

Runs ``run_convergence_study`` for both study kinds at 64, 256 and 1024
points, 5 runs each, and writes every run's error, the mean and standard
deviation at each size, the fitted rate, and the rate fitted to each run
index alone with the mean and spread of those rates. Every number is a
pure function of the program and the study seed, on any number of CPUs, so
two records of the same program are byte-identical. Run from a source
checkout:

    PYTHONPATH=src python tools/study_record.py --out STUDY.json
"""

from __future__ import annotations

import argparse
import json

import ddmech  # noqa: F401  (first, so BLAS is pinned to one thread)
import numpy as np

from ddmech.experiments import default_study_config, fit_loglog_slope, run_convergence_study

POINTS = (64, 256, 1024)
RUNS = 5


def record(kind: str) -> dict:
    cfg = default_study_config(kind, points=POINTS, runs=RUNS)
    result = run_convergence_study(cfg)
    errors = np.array([row.errors for row in result.rows])  # (points, runs)
    run_rates = [fit_loglog_slope(POINTS, errors[:, r]) for r in range(RUNS)]
    return {
        "seed": cfg.seed,
        "points": list(POINTS),
        "runs": RUNS,
        "errors": errors.tolist(),
        "mean_error": [row.mean_error for row in result.rows],
        "std_error": [row.std_error for row in result.rows],
        "rate": result.rate,
        "run_rates": run_rates,
        "run_rate_mean": float(np.mean(run_rates)),
        "run_rate_std": float(np.std(run_rates)),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, metavar="FILE", help="JSON file to write")
    args = parser.parse_args()
    out = {kind: record(kind) for kind in ("visco", "plastic")}
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
