"""Experiment harness: reference solves, error norms, canonical fixtures,
and data-resolution convergence studies.

Every experiment is a :class:`StudyConfig`; the ``relaxation`` study holds
one bar at constant strain and measures its largest relative stress error
against the closed form. The other references integrate the generating
laws exactly (linear solves for the viscoelastic solid, Newton with the
return map for plasticity) on the same meshes, load programs and time grids
as the data-driven marches. Trajectory discrepancies are measured by an
exponentially weighted l2 norm in time (rate-sensitive) or by a
total-variation norm of the increments (rate-independent), both built on
the weighted phase-space metric.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .data import (
    GeneratorSpec,
    HistoryRepository,
    WindowRule,
    require_int,
    stack_sets,
    write_csv,
)
from .materials import (
    PlasticParams,
    SlsParams,
    plastic_return_map,
    sls_affine_coefficients,
    sls_relaxation_exact,
)
from .phase import GlobalMetric
from .solver import (
    SolverConfig,
    Trajectory,
    enumerate_global_min,
    fixed_point_solve,
    time_march,
)
from .truss import (
    ConstraintSystem,
    LatticeSpec,
    LoadProgram,
    MechanismError,
    PiecewiseLinearProgram,
    Prescribed,
    TrussMesh,
    assemble,
    generate_lattice_truss,
)

__all__ = [
    "DEFAULT_SLS",
    "DEFAULT_PLASTIC",
    "VISCO_BREAKPOINTS",
    "PLASTIC_BREAKPOINTS",
    "weighted_l2_error",
    "bv_error",
    "fit_loglog_slope",
    "reference_trajectory",
    "relaxation_mesh",
    "held_strain",
    "held_bar_exact",
    "build_relaxation_repository",
    "StudyConfig",
    "ConvergenceRow",
    "StudyResult",
    "study_mesh",
    "study_loads",
    "study_times",
    "study_metric",
    "study_setup",
    "study_generator",
    "study_error",
    "run_convergence_study",
    "default_study_config",
    "small_truss_fixture",
    "build_truss_repositories",
    "OracleCheckResult",
    "oracle_check",
    "random_small_instance",
    "write_study_csv",
    "write_rate_csv",
]

DEFAULT_SLS = SlsParams(e0=75_000.0, e1=100_000.0, tau1=5.0)
DEFAULT_PLASTIC = PlasticParams(e0=10_000.0, e1=100_000.0, sigma1=500.0, h=0.0)

# load multiplier schedules: ramp/hold/unload for the viscoelastic runs,
# a full load reversal for the plastic runs
VISCO_BREAKPOINTS = ((0.0, 0.0), (10.0, 1.0), (50.0, 1.0), (60.0, 0.0), (100.0, 0.0))
PLASTIC_BREAKPOINTS = ((0.0, 0.0), (20.0, 0.8), (60.0, -0.9), (100.0, 1.0))


def _check_pair(traj: Trajectory, ref: Trajectory) -> None:
    if traj.strain.shape != ref.strain.shape:
        raise ValueError("trajectories have different shapes")
    if not np.array_equal(traj.times, ref.times):
        raise ValueError("trajectories live on different time grids")
    if traj.gm is not ref.gm and not (
        np.array_equal(traj.gm.weights, ref.gm.weights)
        and np.array_equal(traj.gm.c_diag, ref.gm.c_diag)
    ):
        raise ValueError("trajectories measured in different metrics")


def _step_norms_sq(de: np.ndarray, ds: np.ndarray, gm: GlobalMetric) -> np.ndarray:
    """Global square norm of per-step difference arrays of shape (T, M)."""
    return (de * de) @ (gm.weights * gm.c_diag) + (ds * ds) @ (
        gm.weights * gm.c_inv_diag
    )


def weighted_l2_error(traj: Trajectory, ref: Trajectory, tau: float) -> float:
    """Exponentially weighted l2 trajectory distance.

    ``sqrt(sum_k |z_k - ref_k|^2 exp(-t_k / tau) (t_k - t_{k-1}))`` over all
    steps after the first; the weight suppresses the long-time tail on the
    relaxation scale ``tau``.
    """
    _check_pair(traj, ref)
    # NaN fails the comparison and is rejected; +inf is the no-decay limit
    if not float(tau) > 0.0:
        raise ValueError("tau must be positive")
    d2 = _step_norms_sq(traj.strain - ref.strain, traj.stress - ref.stress, traj.gm)
    t = traj.times
    if t.size < 2:
        return 0.0
    weights = np.exp(-t[1:] / float(tau)) * np.diff(t)
    return float(np.sqrt(np.sum(d2[1:] * weights)))


def bv_error(traj: Trajectory, ref: Trajectory) -> float:
    """Total variation of the increment mismatch; rate independent.

    ``sum_k |(z_k - z_{k-1}) - (ref_k - ref_{k-1})|``; a spurious jump
    contributes on the way up and again on any reversal.
    """
    _check_pair(traj, ref)
    de = np.diff(traj.strain - ref.strain, axis=0)
    ds = np.diff(traj.stress - ref.stress, axis=0)
    return float(np.sum(np.sqrt(_step_norms_sq(de, ds, traj.gm))))


def fit_loglog_slope(n_points: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of log(error) against log(n); returned sign-flipped
    so a decaying error reads as a positive convergence rate."""
    n = np.asarray(n_points, dtype=float)
    e = np.asarray(errors, dtype=float)
    if n.size != e.size or n.size < 2:
        raise ValueError("at least two (n, error) pairs are required")
    if np.any(n <= 0.0) or np.any(e <= 0.0):
        raise ValueError("points and errors must be positive for a log-log fit")
    slope = np.polyfit(np.log(n), np.log(e), 1)[0]
    return float(-slope)


def reference_trajectory(
    mesh: TrussMesh,
    gm: GlobalMetric,
    law: SlsParams | PlasticParams,
    loads: LoadProgram | None,
    times,
    *,
    sys: ConstraintSystem | None = None,
) -> Trajectory:
    """Exact incremental solve of the generating law on the same fixture.

    Viscoelastic steps are linear (the one-step response is an affine line
    per element); plastic steps run Newton iterations with the consistent
    bilinear tangent, at most 100 per step, until the force residual is at
    most ``1e-10 (1 + |f|)``. The first step is the instantaneous response
    in both cases.
    """
    t_grid = np.asarray(times, dtype=float).reshape(-1)
    system = sys if sys is not None else assemble(mesh, gm)
    m = system.n_elements
    w = system.weights
    b_op = system.b_free
    T = t_grid.size

    out_eps = np.zeros((T, m))
    out_sig = np.zeros((T, m))
    out_resid = np.zeros(T)
    out_u = np.zeros((T, system.n_free))
    out_qacc = np.zeros((T, m))

    # weight-only Gram matrix; the per-step modulus is a scalar multiplier
    if system.n_free:
        k_w = b_op.T @ (w[:, None] * b_op)
        cho_w = cho_factor(k_w)

    eps_prev = np.zeros(m)
    sig_prev = np.zeros(m)
    q_prev = np.zeros(m)
    qacc_prev = np.zeros(m)
    u = np.zeros(system.n_free)
    for k in range(T):
        t = float(t_grid[k])
        f = loads.forces(t) if loads is not None else np.zeros(system.n_free)
        g = system.affine_strain(t)
        dt = None if k == 0 else float(t_grid[k] - t_grid[k - 1])
        if isinstance(law, SlsParams):
            a, bmod = sls_affine_coefficients(eps_prev, sig_prev, law, dt)
            if system.n_free:
                rhs = f - b_op.T @ (w * (a + bmod * g))
                u = cho_solve(cho_w, rhs) / bmod
            eps = b_op @ u + g
            sig = a + bmod * eps
        else:
            # Newton on the displacement residual with the return map; the
            # incremental response is monotone, so the step energy is convex
            # and a line search that zeroes its directional derivative keeps
            # full steps from oscillating across the yield kinks
            def _slope(u_trial: np.ndarray, d: np.ndarray) -> float:
                e_t = b_op @ u_trial + g
                s_t, _, _ = plastic_return_map(e_t, q_prev, qacc_prev, law)
                return float(d @ (b_op.T @ (w * s_t) - f))

            for _ in range(100):
                eps = b_op @ u + g
                sig, q_new, qacc_new = plastic_return_map(eps, q_prev, qacc_prev, law)
                resid = b_op.T @ (w * sig) - f
                if np.linalg.norm(resid) <= 1e-10 * (1.0 + np.linalg.norm(f)):
                    break
                if system.n_free == 0:
                    break
                f_trial = np.abs(law.e1 * (eps - q_prev)) - law.yield_stress(qacc_prev)
                kt = np.where(
                    f_trial > 0.0,
                    law.e0 + law.e1 * law.h / (law.e1 + law.h),
                    law.e0 + law.e1,
                )
                k_t = b_op.T @ ((w * kt)[:, None] * b_op)
                d = -cho_solve(cho_factor(k_t), resid)
                alpha = 1.0
                if _slope(u + d, d) > 0.0:
                    lo, hi = 0.0, 1.0
                    for _ in range(50):
                        mid = 0.5 * (lo + hi)
                        if _slope(u + mid * d, d) > 0.0:
                            hi = mid
                        else:
                            lo = mid
                    alpha = 0.5 * (lo + hi)
                u = u + alpha * d
            else:
                raise RuntimeError(f"reference Newton failed to converge at step {k}")
            eps = b_op @ u + g
            sig, q_new, qacc_new = plastic_return_map(eps, q_prev, qacc_prev, law)
            q_prev, qacc_prev = np.asarray(q_new), np.asarray(qacc_new)
        out_eps[k] = eps
        out_sig[k] = sig
        out_resid[k] = system.equilibrium_residual(sig, f)
        out_u[k] = u
        out_qacc[k] = qacc_prev
        eps_prev, sig_prev = eps, sig
    return Trajectory(
        times=t_grid,
        strain=out_eps,
        stress=out_sig,
        assignment=np.full((T, m), -1, dtype=np.int64),
        iterations=np.zeros(T, dtype=np.int64),
        distance_sq=np.zeros(T),
        converged=np.ones(T, dtype=bool),
        equilibrium_residual=out_resid,
        displacements=out_u,
        q_acc=out_qacc,
        gm=gm,
    )


# ---------------------------------------------------------------------------
# relaxation fixture: a single bar held at constant strain


def relaxation_mesh(eps_bar: float) -> TrussMesh:
    """Unit bar along x, fully pinned except the driven end displacement."""
    program = PiecewiseLinearProgram.constant(float(eps_bar))
    return TrussMesh(
        node_coords=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        conn=np.array([[0, 1]]),
        areas=np.array([1.0]),
        supports=frozenset({(0, 0), (0, 1), (0, 2), (1, 1), (1, 2)}),
        prescribed=(Prescribed(1, 0, program),),
    )


def held_strain(cfg: StudyConfig) -> float:
    """The strain a ``relaxation`` study holds its bar at: the value of its
    mesh's one PRESCRIBED program at t = 0."""
    (held,) = cfg.mesh.prescribed
    return held.program(0.0)


def held_bar_exact(cfg: StudyConfig) -> np.ndarray:
    """The closed-form stress of a ``relaxation`` study's held bar at every
    time of :func:`study_times`."""
    return sls_relaxation_exact(
        np.arange(study_times(cfg).size), cfg.law, held_strain(cfg), cfg.dt
    )


def build_relaxation_repository(
    law: SlsParams,
    eps_bar: float,
    dt: float,
    *,
    n_prior: int = 100_001,
) -> HistoryRepository:
    """Offline one-row two-time archive covering the operating region of a
    bar of ``law`` held at ``eps_bar``, for a march on time step ``dt``.

    Entries pair prior states on a dense stress grid at the pinned strain
    with their one-step responses on a grid of nine strains across
    ``eps_bar`` +- 5%, plus instantaneous pairs rooted at the virgin state
    for the suddenly applied first step. The prior-grid spacing bounds the
    accumulated march bias, so it is the knob that controls agreement with
    the differential mode.
    """
    e_cur = (eps_bar + (np.arange(9) - 4) * (abs(eps_bar) * 0.05 / 4))[None, :]

    sig_lo = min(law.e0 * eps_bar, law.modulus_instantaneous * eps_bar)
    sig_hi = max(law.e0 * eps_bar, law.modulus_instantaneous * eps_bar)
    span = sig_hi - sig_lo
    sig_grid = np.linspace(sig_lo - 0.05 * span, sig_hi + 0.05 * span, n_prior)
    # one-step pairs conditioned on every prior stress level
    block = (np.full((1, n_prior), eps_bar), sig_grid[None, :], e_cur, dt)
    return _two_time_archive(law, e_cur, [block])


def _two_time_archive(law: SlsParams, ec0: np.ndarray, blocks) -> HistoryRepository:
    """The (M, n) archive whose row e holds the instantaneous pairs out of
    the virgin state at the current strains ``ec0[e]`` and, for each ``(pe,
    ps, ec, dt)`` of ``blocks``, every prior state ``(pe[e, i], ps[e, i])``
    paired with its one-step responses of ``law`` at the current strains
    ``ec[e]``.

    Each row is written once, ascending in current strain: its keys, the
    virgin current strains and then each block's, are sorted stably, and a
    virgin key stands for its one pair, a block key for the run of all its
    block's priors in order. Between two virgin pairs, the runs are written
    as one (keys, priors) view of each slot row.
    """
    (m, c), steps = ec0.shape, len(blocks)
    p = blocks[0][0].shape[1] if blocks else 0
    slots = [np.empty((m, c * (1 + steps * p))) for _ in range(4)]
    lines = [sls_affine_coefficients(pe, ps, law, dt) for pe, ps, _, dt in blocks]
    slope = np.array([b for _, b in lines])
    # (M, steps, priors): every block's prior strains, prior stresses and line offsets
    priors = [
        np.array(t).reshape(steps, m, p).swapaxes(0, 1).copy()
        for t in ([b[0] for b in blocks], [b[1] for b in blocks], [a for a, _ in lines])
    ]
    keys = np.concatenate([ec0] + [ec for _, _, ec, _ in blocks], axis=1)
    for e in range(m):
        order = np.argsort(keys[e], kind="stable")
        block = order[order >= c] // c - 1
        key_eps = keys[e, order[order >= c]]
        prior_eps, prior_sig, offset = (t[e] for t in priors)
        # the block keys before each virgin pair, and then all of them
        cuts = np.append(np.flatnonzero(order < c) - np.arange(c), block.size)
        at = b0 = 0
        for t, b1 in enumerate(cuts.tolist()):
            run, ks = slice(at, at + (b1 - b0) * p), block[b0:b1]
            eps_prev, sig_prev, eps_cur, sig_cur = (a[e, run].reshape(b1 - b0, p) for a in slots)
            # "clip" never clips here; it keeps ``take`` from buffering ``out``
            for view, table in ((eps_prev, prior_eps), (sig_prev, prior_sig), (sig_cur, offset)):
                np.take(table, ks, 0, view, "clip")
            eps_cur[...] = key_eps[b0:b1, None]
            sig_cur += (slope[ks] * key_eps[b0:b1])[:, None]
            at, b0 = run.stop, b1
            if t < c:
                eps = keys[e, order[b1 + t]]
                for a, v in zip(slots, (0.0, 0.0, eps, law.modulus_instantaneous * eps)):
                    a[e, at] = v
                at += 1
    return HistoryRepository(*slots)


# ---------------------------------------------------------------------------
# convergence studies: the lattice cantilever, a mesh file or the held bar


@dataclass(frozen=True)
class StudyConfig:
    """Sweep description for one data-resolution convergence study.

    ``band_ref`` is the data band at 64 points; at n points the band is
    ``band_ref * (64 / n)``, so denser sets are also more accurate. The
    sampling window follows ``window`` at every size.
    """

    kind: str  # "relaxation", "visco" or "plastic"
    law: SlsParams | PlasticParams
    lattice: LatticeSpec = LatticeSpec(6, 1, 2)
    mesh: TrussMesh | None = None
    nodal_loads: tuple[tuple[int, int, float], ...] | None = None
    load_scale: float = 1.0
    breakpoints: tuple[tuple[float, float], ...] = VISCO_BREAKPOINTS
    dt: float = 1.0
    t_end: float = 100.0
    points: tuple[int, ...] = (64, 256, 1024, 4096)
    runs: int = 20
    band_ref: float = 0.030
    window: WindowRule = WindowRule()
    seed: int = 7041
    max_fixed_point_iters: int = 200

    def __post_init__(self) -> None:
        if self.kind not in ("relaxation", "visco", "plastic"):
            raise ValueError(f"unknown study kind {self.kind!r}")
        pts = tuple(require_int("points", p, 1) for p in self.points)
        if len(pts) < 1:
            raise ValueError("points must be positive")
        if len(pts) > 1 and any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("points must be strictly increasing")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "runs", require_int("runs", self.runs, 1))
        object.__setattr__(self, "seed", require_int("seed", self.seed, 0))
        object.__setattr__(
            self,
            "max_fixed_point_iters",
            require_int("max_fixed_point_iters", self.max_fixed_point_iters, 1),
        )
        if not 0.0 <= self.band_ref < np.inf:
            raise ValueError(f"band_ref must be finite and nonnegative, got {self.band_ref}")
        if not np.isfinite(self.load_scale):
            raise ValueError(f"load_scale must be finite, got {self.load_scale}")
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if not (np.isfinite(self.t_end) and self.t_end >= 0.0):
            raise ValueError(f"t_end must be finite and nonnegative, got {self.t_end}")


@dataclass(frozen=True)
class ConvergenceRow:
    n_points: int
    mean_error: float
    std_error: float
    errors: tuple[float, ...]
    unconverged: int  # steps with converged False, summed over the runs


@dataclass
class StudyResult:
    config: StudyConfig
    rows: list[ConvergenceRow]
    rate: float | None
    reference: Trajectory


def study_mesh(cfg: StudyConfig) -> TrussMesh:
    return cfg.mesh if cfg.mesh is not None else generate_lattice_truss(cfg.lattice)


def study_loads(cfg: StudyConfig, sys: ConstraintSystem) -> LoadProgram:
    """Vertical tip forces on the far face (or explicit nodal loads),
    scheduled by the breakpoints; none on a system with no free dof."""
    if cfg.nodal_loads or not sys.n_free:
        nodal = {(int(n), int(d)): float(v) for n, d, v in cfg.nodal_loads or ()}
        return LoadProgram.from_nodal(sys, nodal, cfg.breakpoints)
    mesh = sys.mesh
    x_max = float(np.max(mesh.node_coords[:, 0]))
    tip_nodes = [
        n
        for n in range(mesh.n_nodes)
        if mesh.node_coords[n, 0] == x_max and sys.is_free(n, 2)
    ]
    if not tip_nodes:
        raise ValueError("no free far-face node to load")
    nodal = {(n, 2): -cfg.load_scale for n in tip_nodes}
    return LoadProgram.from_nodal(sys, nodal, cfg.breakpoints)


def study_times(cfg: StudyConfig) -> np.ndarray:
    return np.arange(0.0, cfg.t_end + 0.5 * cfg.dt, cfg.dt)


def study_metric(cfg: StudyConfig, mesh: TrussMesh) -> GlobalMetric:
    """Every command's metric: the law's instantaneous modulus, by volume."""
    return GlobalMetric.uniform(cfg.law.modulus_instantaneous, mesh.volumes)


def study_setup(
    cfg: StudyConfig,
) -> tuple[TrussMesh, GlobalMetric, ConstraintSystem, LoadProgram, np.ndarray]:
    """The mesh, metric, assembled system, loads and time grid of a study."""
    mesh = study_mesh(cfg)
    gm = study_metric(cfg, mesh)
    system = assemble(mesh, gm)
    return mesh, gm, system, study_loads(cfg, system), study_times(cfg)


def study_generator(cfg: StudyConfig, n: int, point_index: int, run: int) -> GeneratorSpec:
    """The data generator one (sweep index, run) cell of the study uses."""
    return GeneratorSpec(
        law=cfg.law,
        n_points=n,
        band_width=cfg.band_ref * (64 / n),
        window=cfg.window,
        rng_seed=_run_seed(cfg, point_index, run),
    )


def study_error(cfg: StudyConfig, traj: Trajectory, ref: Trajectory) -> float:
    """The study's trajectory error: exponentially weighted l2 on the
    relaxation time for ``visco``, total variation for ``plastic``, and for
    ``relaxation`` the largest relative stress error against the closed
    form :func:`held_bar_exact` (``ref`` is not read)."""
    if cfg.kind == "relaxation":
        exact = held_bar_exact(cfg)
        return float(np.max(np.abs(traj.stress[:, 0] - exact) / np.abs(exact)))
    if cfg.kind == "visco":
        return weighted_l2_error(traj, ref, cfg.law.tau1)
    return bv_error(traj, ref)


def _usable_cpus() -> int:
    """How many processes a study may run at once: the CPUs this process
    may run on (``os.sched_getaffinity``), or 1 in a child process (a
    study's pool worker), so pools never nest, or next to another thread,
    which a fork could catch holding a lock."""
    alone = multiprocessing.parent_process() is None and threading.active_count() == 1
    return len(os.sched_getaffinity(0)) if alone and hasattr(os, "sched_getaffinity") else 1


def _run_seed(cfg: StudyConfig, point_index: int, run: int) -> int:
    ss = np.random.SeedSequence([int(cfg.seed), int(point_index), int(run)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _run_error(task: tuple[StudyConfig, int, int, Trajectory]) -> tuple[float, int]:
    """Error and unconverged-step count of the march of one (sweep index,
    run) cell of a study; a worker's task."""
    cfg, point_index, run, ref = task
    mesh, gm, system, loads, times = study_setup(cfg)
    generator = study_generator(cfg, cfg.points[point_index], point_index, run)
    solver_cfg = SolverConfig(max_fixed_point_iters=cfg.max_fixed_point_iters)
    traj = time_march(mesh, gm, generator, loads, times, solver_cfg, sys=system)
    return study_error(cfg, traj, ref), int(np.count_nonzero(~traj.converged))


def run_convergence_study(cfg: StudyConfig) -> StudyResult:
    """Mean trajectory error against data-set size, over independent runs.

    All randomness derives from (study seed, sweep index, run index) and
    results are reduced in submission order, so repeated executions give
    bit-identical results on any number of CPUs. When :func:`_usable_cpus`
    allows two or more processes and the study has two or more (size, run)
    tasks, a pool of ``min(CPUs, tasks)`` processes runs them; otherwise
    they run in turn. Every march runs in one process.
    """
    mesh, gm, system, loads, times = study_setup(cfg)
    ref = reference_trajectory(mesh, gm, cfg.law, loads, times, sys=system)
    tasks = [(cfg, i, r, ref) for i in range(len(cfg.points)) for r in range(cfg.runs)]
    processes = min(_usable_cpus(), len(tasks))
    if processes > 1:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            results = list(pool.map(_run_error, tasks))
    else:
        results = [_run_error(task) for task in tasks]

    rows: list[ConvergenceRow] = []
    for i, n in enumerate(cfg.points):
        cell = results[i * cfg.runs : (i + 1) * cfg.runs]
        arr = np.array([err for err, _ in cell])
        rows.append(
            ConvergenceRow(
                n_points=n,
                mean_error=float(np.mean(arr)),
                std_error=float(np.std(arr)),
                errors=tuple(float(x) for x in arr),
                unconverged=sum(u for _, u in cell),
            )
        )
    rate = None
    if len(rows) >= 2 and all(r.mean_error > 0.0 for r in rows):
        rate = fit_loglog_slope([r.n_points for r in rows], [r.mean_error for r in rows])
    return StudyResult(config=cfg, rows=rows, rate=rate, reference=ref)


#: Most entries the archives of one mesh may hold together.
MAX_ARCHIVE_ENTRIES = 10_000_000
#: The grid radii of :func:`build_truss_repositories`' archives.
PRIOR_STRAIN_RADIUS, PRIOR_OFFSET_RADIUS, CURRENT_HALFWIDTH = 0.01, 0.01, 2e-3


def build_truss_repositories(
    mesh: TrussMesh,
    gm: GlobalMetric,
    law: SlsParams,
    loads: LoadProgram | None,
    times,
    *,
    n_prior_strain: int = 5,
    n_prior_offset: int = 81,
    n_current: int = 65,
) -> HistoryRepository:
    """Offline two-time archives around a fixture's operating region, one
    row of the returned (M, n) archive per bar.

    For every element and step, prior states form a sheared lattice around
    the reference state one step earlier: the strain direction runs along
    the instantaneous line sigma = (e0+e1) eps (coarse, ``n_prior_strain``
    points over ``PRIOR_STRAIN_RADIUS`` of the element strain scale), while
    the viscous offset sigma - (e0+e1) eps — the only prior combination the
    one-step response depends on — is swept densely (``n_prior_offset``
    points over ``PRIOR_OFFSET_RADIUS`` of the stress scale). Each prior is
    paired with its one-step responses on ``n_current`` strains over
    ``CURRENT_HALFWIDTH`` of the element strain scale. The offset spacing
    bounds the response error, so it is the knob that controls agreement
    with the differential mode. Each step's block is written for all bars
    at once.
    """
    t_grid = np.asarray(times, dtype=float).reshape(-1)
    sys = assemble(mesh, gm)
    ref = reference_trajectory(mesh, gm, law, loads, t_grid, sys=sys)
    m = sys.n_elements
    T = t_grid.size
    per_element = n_current * (1 + (T - 1) * n_prior_strain * n_prior_offset)
    if per_element * m > MAX_ARCHIVE_ENTRIES:
        raise ValueError(
            f"repository would hold {per_element * m} entries; "
            f"reduce the mesh, grid sizes, or time steps (cap {MAX_ARCHIVE_ENTRIES})"
        )
    eps_scale = np.maximum(np.max(np.abs(ref.strain), axis=0), 1e-12)[:, None]
    sig_scale = np.maximum(np.max(np.abs(ref.stress), axis=0), 1e-6)[:, None]
    side_i = np.linspace(-1.0, 1.0, n_prior_strain)
    side_j = np.linspace(-1.0, 1.0, n_prior_offset)
    cur_grid = (np.arange(n_current) - n_current // 2) / max(n_current // 2, 1)
    ci = law.modulus_instantaneous
    # (M, priors) prior shifts and (M, currents) current offsets
    d_eps = np.repeat(side_i * PRIOR_STRAIN_RADIUS * eps_scale, n_prior_offset, axis=1)
    d_off = np.tile(side_j * PRIOR_OFFSET_RADIUS * sig_scale, n_prior_strain)
    cur_off = cur_grid * CURRENT_HALFWIDTH * eps_scale
    blocks = [
        (
            ref.strain[k - 1][:, None] + d_eps,
            ref.stress[k - 1][:, None] + ci * d_eps + d_off,
            ref.strain[k][:, None] + cur_off,
            float(t_grid[k] - t_grid[k - 1]),
        )
        for k in range(1, T)
    ]
    return _two_time_archive(law, ref.strain[0][:, None] + cur_off, blocks)


def small_truss_fixture(law: SlsParams = DEFAULT_SLS, *, t_end: float = 20.0):
    """4-bar pyramid: fixed unit-square base, one free apex node pulled
    downward by 400 with a ramp-and-hold schedule, on a unit time step.
    Small enough that two-time archives covering its whole operating region
    stay compact.

    Returns (mesh, metric, loads, times).
    """
    coords = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [1.0, 1.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.5, 0.5, 1.0],
        ]
    )
    conn = np.array([[0, 4], [1, 4], [2, 4], [3, 4]])
    supports = frozenset((n, d) for n in range(4) for d in range(3))
    mesh = TrussMesh(coords, conn, np.ones(4), supports)
    gm = GlobalMetric.uniform(law.modulus_instantaneous, mesh.volumes)
    sys = assemble(mesh, gm)
    ramp = ((0.0, 0.0), (t_end / 2.0, 1.0), (t_end, 1.0))
    loads = LoadProgram.from_nodal(sys, {(4, 2): -400.0}, ramp)
    times = np.arange(0.0, t_end + 0.5, 1.0)
    return mesh, gm, loads, times


# ---------------------------------------------------------------------------
# oracle equivalence on random small instances


def random_small_instance(rng: np.random.Generator, *, max_elements: int = 3,
                          max_points: int = 20):
    """A random solvable truss instance small enough to enumerate.

    One free node (one or two free displacement components) tied to fixed
    anchor nodes by up to ``max_elements`` bars of random geometry, with
    per-element metric moduli, random per-element data clouds (one
    :func:`~ddmech.data.stack_sets` stack) and a random force vector.
    Degenerate (mechanism) geometries are resampled.
    """
    for _ in range(64):
        m = int(rng.integers(1, max_elements + 1))
        free_dirs = 1 if m == 1 else int(rng.integers(1, 3))
        # anchor nodes 0..m-1 surround the free node at index m
        coords = np.zeros((m + 1, 3))
        for i in range(m):
            direction = rng.normal(size=3)
            direction[0] = np.sign(direction[0] or 1.0) * (0.4 + abs(direction[0]))
            if free_dirs == 2:
                direction[1] = np.sign(direction[1] or 1.0) * (
                    0.4 + abs(direction[1])
                )
            coords[i] = direction / np.linalg.norm(direction) * rng.uniform(0.8, 1.6)
        conn = np.array([[i, m] for i in range(m)])
        areas = rng.uniform(0.5, 2.0, m)
        supports = {(i, d) for i in range(m) for d in range(3)}
        supports |= {(m, d) for d in range(free_dirs, 3)}
        mesh = TrussMesh(coords, conn, areas, frozenset(supports))
        moduli = rng.uniform(0.5, 2.0, m) * 1000.0
        gm = GlobalMetric(moduli, mesh.volumes)
        try:
            sys = assemble(mesh, gm)
        except MechanismError:
            continue
        f = rng.normal(size=sys.n_free) * 100.0
        eps_rows, sig_rows = [], []
        for e in range(m):
            n = int(rng.integers(2, max_points + 1))
            eps_rows.append(rng.normal(scale=0.2, size=n))
            sig_rows.append(moduli[e] * rng.normal(scale=0.2, size=n))
        return mesh, gm, sys, stack_sets(eps_rows, sig_rows), f
    raise RuntimeError("could not sample a stable random truss in 64 draws")


@dataclass
class OracleCheckResult:
    """Counts and gaps of one batch of enumerated instances.

    ``n_global`` counts the instances where the fixed point reaches the
    enumerated global minimum (relative objective gap within 1e-9); the
    relative gap is ``(fixed point - minimum) / |minimum|``. ``passed``
    needs only the bound and the stability at the oracle's assignment.
    """

    n_systems: int
    n_bound_ok: int
    n_consistent: int
    max_bound_gap: float
    max_distance_mismatch: float
    n_global: int
    mean_rel_gap: float
    max_rel_gap: float

    @property
    def passed(self) -> bool:
        return self.n_bound_ok == self.n_systems and self.n_consistent == self.n_systems


def oracle_check(
    n_systems: int = 100,
    seed: int = 90210,
    *,
    max_elements: int = 3,
    max_points: int = 20,
) -> OracleCheckResult:
    """Exhaustive-enumeration equivalence batch on random small instances.

    Checks that the enumerated global minimum never exceeds the fixed-point
    objective, and that a fixed point initialized at the oracle's assignment
    terminates on that same assignment with a float-identical objective.
    Also reports how often, and by how much, the fixed point from a cold
    start misses the global minimum. Instances come from
    :func:`random_small_instance` with ``max_elements`` and ``max_points``.
    """
    n_systems = require_int("runs", n_systems, 1)
    rng = np.random.default_rng(require_int("seed", seed, 0))
    n_bound = 0
    n_consistent = 0
    max_gap = 0.0
    max_mismatch = 0.0
    rel_gaps = []
    for _ in range(n_systems):
        mesh, gm, sys, sets, f = random_small_instance(
            rng, max_elements=max_elements, max_points=max_points
        )
        fp = fixed_point_solve(sys, sets, gm, f)
        oracle = enumerate_global_min(sys, sets, gm, f)
        gap = oracle.objective_history[-1] - fp.objective_history[-1]
        max_gap = max(max_gap, gap)
        rel_gaps.append(
            (fp.objective_history[-1] - oracle.objective_history[-1])
            / max(abs(oracle.objective_history[-1]), np.finfo(float).tiny)
        )
        if gap <= 1e-9 * max(1.0, abs(fp.objective_history[-1])):
            n_bound += 1
        seeded = fixed_point_solve(
            sys, sets, gm, f, init_assignment=oracle.assignment
        )
        mismatch = abs(seeded.objective_history[-1] - oracle.objective_history[-1])
        max_mismatch = max(max_mismatch, mismatch)
        if (
            seeded.converged
            and np.array_equal(seeded.assignment, oracle.assignment)
            and mismatch == 0.0
        ):
            n_consistent += 1
    return OracleCheckResult(
        n_systems=n_systems,
        n_bound_ok=n_bound,
        n_consistent=n_consistent,
        max_bound_gap=float(max_gap),
        max_distance_mismatch=float(max_mismatch),
        n_global=sum(1 for r in rel_gaps if r <= 1e-9),
        mean_rel_gap=float(np.mean(rel_gaps)) if rel_gaps else 0.0,
        max_rel_gap=float(np.max(rel_gaps)) if rel_gaps else 0.0,
    )


# ---------------------------------------------------------------------------
# CSV writers shared by the command line and the demonstration scripts


def write_study_csv(result: StudyResult, path) -> None:
    write_csv(
        path,
        ["n_points", "mean_error", "std_error"]
        + [f"err_{r}" for r in range(result.config.runs)],
        ((row.n_points, row.mean_error, row.std_error, *row.errors) for row in result.rows),
    )


def write_rate_csv(result: StudyResult, path) -> None:
    cfg = result.config
    write_csv(
        path,
        ["kind", "rate", "points", "runs", "band_ref", "band_exponent", "seed"],
        [
            (cfg.kind, result.rate, " ".join(str(p) for p in cfg.points), cfg.runs,
             cfg.band_ref, 1.0, cfg.seed)  # 1.0: the band law's exponent
        ],
    )


def default_study_config(kind: str, **overrides) -> StudyConfig:
    """Calibrated defaults for the three studies."""
    if kind == "relaxation":
        # one bar held at 1e-3 by its mesh, no free dof; at band 0 the held
        # strain is a sample of every set, so every size gives round-off
        base = dict(
            kind="relaxation",
            law=DEFAULT_SLS,
            mesh=relaxation_mesh(1e-3),
            points=(2048,),
            runs=1,
            band_ref=0.0,
            window=WindowRule(floor=1e-3),
            seed=0,
        )
    elif kind == "visco":
        # the window tracks the shrinking band, so the grid spacing falls as
        # n^-2; the load keeps every per-step increment inside the band term
        base = dict(
            kind="visco",
            law=DEFAULT_SLS,
            breakpoints=VISCO_BREAKPOINTS,
            load_scale=280.0,
            band_ref=0.030,
            window=WindowRule(floor=1e-9),
        )
    elif kind == "plastic":
        # fixed sampling window spanning the largest plastic step, so the
        # grid spacing falls as n^-1
        base = dict(
            kind="plastic",
            law=DEFAULT_PLASTIC,
            breakpoints=PLASTIC_BREAKPOINTS,
            load_scale=960.0,
            band_ref=0.040,
            window=WindowRule(halfwidth=0.05),
        )
    else:
        raise ValueError(f"unknown study kind {kind!r}")
    base.update(overrides)
    return StudyConfig(**base)
