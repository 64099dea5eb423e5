"""The benchmark's three march workloads and what set-up builds for them.

Every workload is built from the same public calls as the ``ddmech``
command line, made through module attributes so that a tracer can see them.
Each march is cut to a few seconds, so one run can repeat it over several
data draws (sub-seeds of the workload seed) within the measuring time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ddmech import experiments, solver, truss


@dataclass(frozen=True)
class Size:
    """How big one workload's march is.

    ``steps`` keeps the first steps of the time grid, ``points`` is the data
    set size per bar, ``lattice`` overrides the cantilever lattice and
    ``archive`` the history archive's grid arguments (``None`` keeps the
    defaults of the command line and of ``build_truss_repositories``).
    """

    steps: int
    points: int = 0
    dt: float = 1.0
    lattice: tuple[int, int, int] | None = None
    archive: dict | None = None


@dataclass
class Case:
    """Everything a march needs, as built by set-up."""

    name: str
    times: np.ndarray
    load_norm: float
    march: Callable[[int], solver.Trajectory]
    error: Callable[[solver.Trajectory], float]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    full: Size
    tiny: Size
    build: Callable[[int, Size], Case]
    march_budget_s: float  # about one full-size march; sets the draws per run


def _load_norm(loads, times) -> float:
    return max(float(np.linalg.norm(loads.forces(float(t)))) for t in times)


def _regenerated(kind: str, point_index: int) -> Callable[[int, Size], Case]:
    """Set-up of a march over data sets regenerated every step.

    ``point_index`` is the sweep index the command line passes to
    ``study_generator``, so sub-seed 0 of seed 7041 draws the command's data.
    """

    def build(seed: int, size: Size) -> Case:
        overrides = {"seed": seed, "dt": size.dt}
        if size.lattice is not None:
            overrides["lattice"] = truss.LatticeSpec(*size.lattice)
        cfg = experiments.default_study_config(kind, **overrides)
        mesh = experiments.study_mesh(cfg)
        gm = experiments.study_metric(cfg, mesh)
        system = truss.assemble(mesh, gm)
        loads = experiments.study_loads(cfg, system)
        times = experiments.study_times(cfg)[: size.steps]
        ref = experiments.reference_trajectory(mesh, gm, cfg.law, loads, times, sys=system)
        solver_cfg = solver.SolverConfig(max_fixed_point_iters=cfg.max_fixed_point_iters)

        def march(sub: int) -> solver.Trajectory:
            gen = experiments.study_generator(cfg, size.points, point_index, sub)
            return solver.time_march(
                mesh, gm, gen, loads, times, solver_cfg, sys=system
            )

        if kind == "visco":
            def error(traj):
                return experiments.weighted_l2_error(traj, ref, cfg.law.tau1)
        else:
            def error(traj):
                return experiments.bv_error(traj, ref)

        return Case(kind, times, _load_norm(loads, times), march, error)

    return build


def _archive(seed: int, size: Size) -> Case:
    """Set-up of history matching on the 4-bar fixture; ``seed`` is unused."""
    law = experiments.DEFAULT_SLS
    mesh, gm, loads, times = experiments.small_truss_fixture(law)
    system = truss.assemble(mesh, gm)
    repos = experiments.build_truss_repositories(
        mesh, gm, law, loads, times, **(size.archive or {})
    )
    times = times[: size.steps]
    ref = experiments.reference_trajectory(mesh, gm, law, loads, times, sys=system)
    solver_cfg = solver.SolverConfig()

    def march(sub: int) -> solver.Trajectory:
        return solver.history_matching_march(
            mesh, gm, repos, loads, times, solver_cfg, sys=system
        )

    def error(traj):
        return experiments.weighted_l2_error(traj, ref, law.tau1)

    return Case("archive", times, _load_norm(loads, times), march, error)


_TINY_ARCHIVE = {"n_prior_strain": 3, "n_prior_offset": 5, "n_current": 9}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "visco-dense",
            "ddmech visco inputs (197 bars, n=4096), first 8 steps: association "
            "and swap polish dominate, where a sublinear search must show",
            full=Size(steps=8, points=4096),
            tiny=Size(steps=3, points=64, lattice=(2, 1, 1)),
            build=_regenerated("visco", point_index=3),
            march_budget_s=4.0,
        ),
        Workload(
            "plastic-sparse",
            "ddmech plastic --points 64 at dt=5 (21 steps, load reversal): polish "
            "and response init dominate, association is about 1 percent",
            full=Size(steps=21, points=64, dt=5.0),
            tiny=Size(steps=3, points=16, dt=5.0, lattice=(2, 1, 1)),
            build=_regenerated("plastic", point_index=0),
            march_budget_s=5.0,
        ),
        Workload(
            "visco-archive",
            "history matching of the 4-bar fixture against the default archive "
            "(526,565 entries per bar), first 3 steps: no set generation",
            full=Size(steps=3),
            tiny=Size(steps=3, archive=_TINY_ARCHIVE),
            build=_archive,
            march_budget_s=4.0,
        ),
    )
}
