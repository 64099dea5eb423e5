"""One benchmark run of one workload: gate, warm-up, set-up, marches, metrics.

A run first checks the solver against the enumeration oracle, then marches
a tiny instance of the workload so imports and lazy set-up are paid before
any timing. It then sets up and marches ``draws`` sub-seeds of the workload
seed, and keeps cycling over them until the measuring time is used up.
``setup_s`` is the median set-up time, ``march_s`` the mean over draws of
each draw's median march time, and ``traj_error`` the mean error over draws.

With tracing on, half as many draws are set up and marched once under a
:class:`Tracer` and once without it, in that order; the per-layer metrics
come from the traced pass.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
import scipy

from ddmech import experiments, solver
from spans import Layer, Tracer, originals, self_times
from workloads import WORKLOADS, Case, Size, Workload

#: equilibrium residual allowed per unit of the largest load norm
RESIDUAL_RTOL = 1e-9
ORACLE_SYSTEMS, ORACLE_SEED = 100, 90210
#: seconds :func:`calibrate` takes at the reference host speed (its median
#: on a 2-CPU x86-64 sandbox with OpenBLAS 0.3.31, Python 3.11, numpy 2.4)
CALIBRATION_REF_S = 0.06

_CAL_BIG = np.random.default_rng(0).random((197, 4096))
_CAL_SMALL = np.random.default_rng(1).random(64)

LAYERS = (
    Layer("data.batch_nearest", ("ddmech.solver:batch_nearest",)),
    Layer("data.history_cost_dataset", ("ddmech.solver:history_cost_dataset",)),
    Layer("data.stack_sets", ("ddmech.solver:stack_sets",)),
    Layer("solver.set_generation", ("ddmech.solver:_stacked_step_sets",)),
    Layer("materials.plastic_return_map", ("ddmech.solver:plastic_return_map",)),
    Layer(
        "solver.swap_polish",
        ("ddmech.solver:_swap_polish",),
        outcome=lambda r: r is not None,
    ),
    Layer(
        "solver.response_init",
        ("ddmech.solver:_empirical_response_init",),
        outcome=lambda r: r is None,
    ),
    Layer(
        "solver.fixed_point_solve",
        ("ddmech.solver:fixed_point_solve",),
        outcome=lambda r: r.objective_history[-1],
    ),
    Layer(
        "solver.march",
        ("ddmech.solver:time_march", "ddmech.solver:history_matching_march"),
    ),
    Layer("truss.project_arrays", ("ddmech.truss:ConstraintSystem.project_arrays",)),
    Layer("truss.solve_k", ("ddmech.truss:ConstraintSystem.solve_k",)),
    Layer(
        "truss.assemble",
        ("ddmech.truss:assemble", "ddmech.experiments:assemble", "ddmech.solver:assemble"),
    ),
    Layer("experiments.reference_trajectory", ("ddmech.experiments:reference_trajectory",)),
    Layer(
        "experiments.build_truss_repositories",
        ("ddmech.experiments:build_truss_repositories",),
    ),
)


class GateError(RuntimeError):
    """An output of the program is wrong; the run yields no numbers."""


@dataclass
class Draw:
    """Outputs of one sub-seed's march, fixed on its first march."""

    fingerprint: str
    error: float
    steps: int
    failed: int
    walk_iterations: int
    times: list[float] = field(default_factory=list)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def fingerprint(traj: solver.Trajectory) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(traj.strain).tobytes())
    h.update(np.ascontiguousarray(traj.stress).tobytes())
    return h.hexdigest()


def oracle_gate() -> None:
    result = experiments.oracle_check(ORACLE_SYSTEMS, ORACLE_SEED)
    if not result.passed:
        raise GateError(
            f"oracle check failed: {result.n_bound_ok}/{result.n_systems} within "
            f"the bound, {result.n_consistent}/{result.n_systems} consistent"
        )


def check_draw(case: Case, traj: solver.Trajectory) -> Draw:
    """Gate one march's outputs and record what later repeats must match."""
    if traj.n_steps != case.times.size:
        raise GateError(f"{case.name}: march returned {traj.n_steps} steps")
    tol = RESIDUAL_RTOL * max(1.0, case.load_norm)
    resid = float(np.max(traj.equilibrium_residual))
    if not resid <= tol:
        raise GateError(f"{case.name}: equilibrium residual {resid:.3e} above {tol:.3e}")
    err = float(case.error(traj))
    if not np.isfinite(err):
        raise GateError(f"{case.name}: trajectory error is not finite")
    return Draw(
        fingerprint=fingerprint(traj),
        error=err,
        steps=traj.n_steps,
        failed=int(np.count_nonzero(~traj.converged)),
        walk_iterations=int(np.sum(traj.iterations)),
    )


def calibrate() -> float:
    """Seconds one fixed piece of work takes on the host right now.

    The work mixes, in about equal parts, an interpreter loop, numpy calls
    on 64-element arrays (as in swap polish) and scans of a 197 x 4096
    array (as in data association). It runs none of the program's code, so
    a change to the program cannot move it; it only tracks how fast the
    shared host is running.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i & 7
    for _ in range(4800):
        d = _CAL_SMALL - 0.5
        int(np.argmin(2.0 * d * d))
    for _ in range(8):
        d = _CAL_BIG - 0.5
        np.argmin(d * d, axis=1)
    return time.perf_counter() - t0


def draws_for(workload: Workload, seconds: float, trace: bool) -> int:
    """Draws per run; a traced run marches each draw twice, so it takes half."""
    n = max(1, round(seconds / workload.march_budget_s))
    return max(1, n // 2) if trace else n


def measure(
    workload: Workload, seed: int, size: Size, n_draws: int, seconds: float
) -> tuple[list[Draw], list[float], list[float]]:
    """Set up and march every draw once, then cycle until ``seconds`` pass.

    Every march gets a fresh set-up, so set-up samples are spread over the
    run like the march samples, and a calibration before each set-up and
    after the last march samples the host speed over the same span. A
    repeated march must reproduce its draw's fingerprint bit for bit.
    Returns the draws, the set-up times and the calibration times.
    """
    draws: list[Draw] = []
    setup_s: list[float] = []
    calibration_s: list[float] = []
    started = time.perf_counter()
    i = 0
    while i < n_draws or time.perf_counter() - started < seconds:
        sub = i % n_draws
        case = None  # release the previous archive before building the next
        calibration_s.append(calibrate())
        t0 = time.perf_counter()
        case = workload.build(seed, size)
        t1 = time.perf_counter()
        traj = case.march(sub)
        t2 = time.perf_counter()
        setup_s.append(t1 - t0)
        if i < n_draws:
            draws.append(check_draw(case, traj))
        elif fingerprint(traj) != draws[sub].fingerprint:
            raise GateError(f"{case.name}: draw {sub} is not reproducible")
        draws[sub].times.append(t2 - t1)
        i += 1
    calibration_s.append(calibrate())
    return draws, setup_s, calibration_s


def march_seconds(draws: list[Draw]) -> float:
    return statistics.fmean(statistics.median(d.times) for d in draws)


def layer_metrics(spans, n_draws: int) -> dict:
    """Per-layer calls (totals) and self times (seconds per draw, that is
    per set-up for set-up layers and per march for the others)."""
    totals = self_times(spans)
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        calls, self_s = totals.get(layer.name, (0, 0.0))
        out[f"{layer.name}.calls"] = (calls, "count")
        out[f"{layer.name}.self_s"] = (self_s / n_draws, "s")
    polish = [s.outcome for s in spans if s.name == "solver.swap_polish"]
    out["solver.swap_polish.improved_share"] = (_share(polish), "1")
    inits = [s.outcome for s in spans if s.name == "solver.response_init"]
    out["solver.response_init.none_share"] = (_share(inits), "1")
    out["solver.response_init.win_share"] = (response_init_wins(spans), "1")
    return out


def _share(flags: list) -> float:
    return sum(bool(f) for f in flags) / len(flags) if flags else 0.0


def response_init_wins(spans) -> float:
    """Share of steps whose second fixed-point solve beat the first.

    A march step calls the response init once, then solves from the
    predictor and, when the init returned a state, again from it; the step
    keeps the second solve only when its objective is strictly lower.
    """
    steps = wins = 0
    objectives: list[float] | None = None
    for span in spans:
        if span.name == "solver.response_init":
            wins += _second_wins(objectives)
            steps += 1
            objectives = []
        elif span.name == "solver.fixed_point_solve" and objectives is not None:
            objectives.append(span.outcome)
    wins += _second_wins(objectives)
    return wins / steps if steps else 0.0


def _second_wins(objectives) -> int:
    return int(objectives is not None and len(objectives) >= 2 and objectives[1] < objectives[0])


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One run; returns the result object the benchmark prints last.

    Raises GateError when an output is wrong.
    """
    workload = WORKLOADS[name]
    size = workload.tiny if tiny else workload.full
    n_draws = draws_for(workload, seconds, trace)
    report = {"workload": name, "seed": seed, "draws": n_draws, "env": environment()}

    oracle_gate()
    warm = workload.build(seed, workload.tiny)
    check_draw(warm, warm.march(0))
    del warm

    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        before = originals(LAYERS)
        with Tracer(LAYERS) as tracer:
            traced, _, _ = measure(workload, seed, size, n_draws, 0.0)
        if originals(LAYERS) != before:
            raise GateError("tracing left a wrapped attribute in place")
        draws, _, calibration_s = measure(workload, seed, size, n_draws, 0.0)
        if [d.fingerprint for d in traced] != [d.fingerprint for d in draws]:
            raise GateError(f"{name}: tracing changed a trajectory")
        metrics.update(layer_metrics(tracer.spans, n_draws))
        walks = sum(d.walk_iterations for d in traced)
        metrics["solver.walk_iterations"] = (walks, "count")
        metrics["trace.absent_layers"] = (len(tracer.absent), "count")
        traced_s = march_seconds(traced)
        metrics["trace.march_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - march_seconds(draws), "s")
        metrics["host.calibration_s"] = (statistics.fmean(calibration_s), "s")
        report["absent_layers"] = tracer.absent
    else:
        draws, setup_s, calibration_s = measure(workload, seed, size, n_draws, seconds)
        # scale wall times to the reference host speed: the shared host's
        # speed drifts by a third within an hour, far beyond any bound
        speed = CALIBRATION_REF_S / statistics.fmean(calibration_s)
        metrics["setup_s"] = (statistics.median(setup_s) * speed, "s")
        metrics["march_s"] = (march_seconds(draws) * speed, "s")
        metrics["traj_error"] = (statistics.fmean(d.error for d in draws), "1")
        report["wall_setup_s"] = setup_s
    report["calibration_s"] = calibration_s

    attempted = sum(d.steps * len(d.times) for d in draws)
    failed = sum(d.failed * len(d.times) for d in draws)
    if not trace:
        metrics["ok_step_share"] = (1.0 - failed / attempted, "1")
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kib / 1024.0, "MiB")
    report["draw_outputs"] = [
        {
            "sub": i,
            "sha256": d.fingerprint,
            "walk_iterations": d.walk_iterations,
            "failed_steps": d.failed,
            "traj_error": d.error,
            "wall_march_s": d.times,
        }
        for i, d in enumerate(draws)
    ]
    return {
        "report": report,
        "result": {
            "correct": True,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }
