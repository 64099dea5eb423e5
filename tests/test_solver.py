"""Fixed-point step solver, enumeration oracle and the conditioned marches."""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from ddmech import data as data_module
from ddmech import solver
from ddmech.data import (
    GeneratorSpec,
    HistoryRepository,
    StrainIndex,
    WindowRule,
    stack_sets,
)
from ddmech.experiments import (
    DEFAULT_PLASTIC,
    DEFAULT_SLS,
    PLASTIC_BREAKPOINTS,
    build_relaxation_repository,
    build_truss_repositories,
    default_study_config,
    held_strain,
    random_small_instance,
    small_truss_fixture,
    study_error,
    study_generator,
    study_setup,
    weighted_l2_error,
)
from ddmech.phase import GlobalMetric
from ddmech.solver import (
    SolverConfig,
    _empirical_response_init,
    _stacked_step_sets,
    enumerate_global_min,
    export_trajectory_csv,
    fixed_point_solve,
    history_matching_march,
    time_march,
    trajectory_summary,
)
from ddmech.truss import LatticeSpec, LoadProgram, TrussMesh, assemble


def one_bar_system(modulus=1000.0):
    """Unit bar with a single free axial dof."""
    mesh = TrussMesh(
        node_coords=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        conn=np.array([[0, 1]]),
        areas=np.array([1.0]),
        supports=frozenset({(0, 0), (0, 1), (0, 2), (1, 1), (1, 2)}),
    )
    gm = GlobalMetric.uniform(modulus, mesh.volumes)
    return mesh, gm, assemble(mesh, gm)


def manual_objective(sys, y_eps, y_sig, f, g=None):
    """Projection plus squared distance computed from scratch."""
    g = np.zeros(sys.n_elements) if g is None else g
    eps, sig, _ = sys.project_arrays(y_eps, y_sig, f, g)
    de = eps - y_eps
    ds = sig - y_sig
    return float(np.sum(sys.weights * (sys.c * de * de + sys.c_inv * ds * ds)))


def set_sizes(sets):
    """The number of real points of every set of a stack."""
    m, n = sets.eps.shape
    return np.full(m, n) if sets.lengths is None else sets.lengths


def metric_distance_sq(a, b, gm):
    """The weighted square distance of two global states, evaluated
    independently: ``sum_e w_e (C_e de_e^2 + ds_e^2 / C_e)``."""
    de = a.strain - b.strain
    ds = a.stress - b.stress
    return float(np.sum(gm.weights * (gm.c_diag * de * de + gm.c_inv_diag * ds * ds)))


def trajectory_norm(traj, tau):
    """The weighted l2 size of a trajectory, its distance to the zero
    trajectory in the norm of ``weighted_l2_error``, evaluated
    independently."""
    gm, t = traj.gm, traj.times
    d2 = np.sum(
        gm.weights * (gm.c_diag * traj.strain**2 + gm.c_inv_diag * traj.stress**2), axis=1
    )
    return float(np.sqrt(np.sum(d2[1:] * np.exp(-t[1:] / tau) * np.diff(t))))


def relaxation_study(**overrides):
    """The ``relaxation`` study preset with ``overrides``."""
    return default_study_config("relaxation", **overrides)


def held_bar_march(cfg, archive=None):
    """The march of a ``relaxation`` study as the command runs it: at its
    largest size with the last size's run-0 seed, or against ``archive``."""
    mesh, gm, system, loads, times = study_setup(cfg)
    if archive is not None:
        return history_matching_march(mesh, gm, archive, loads, times, SolverConfig(), sys=system)
    g = study_generator(cfg, cfg.points[-1], len(cfg.points) - 1, 0)
    return time_march(mesh, gm, g, loads, times, SolverConfig(), sys=system)


class TestSolverConfig:
    """Validation."""

    def test_rejects_nonpositive_iters(self):
        with pytest.raises(ValueError):
            SolverConfig(max_fixed_point_iters=0)

    def test_rejects_fractional_iters(self):
        """3.9 was truncated to 3 iterations."""
        with pytest.raises(ValueError, match="max_fixed_point_iters must be an integer"):
            SolverConfig(max_fixed_point_iters=3.9)
        assert SolverConfig(max_fixed_point_iters=3.0).max_fixed_point_iters == 3


@pytest.mark.parametrize(
    "make, kwargs, name",
    [
        (relaxation_study, {"seed": -2}, "seed"),
        (relaxation_study, {"seed": 0.5}, "seed"),
        (default_study_config, {"seed": -1}, "seed"),
        (default_study_config, {"seed": 7041.5}, "seed"),
        (default_study_config, {"runs": 2.5}, "runs"),
        (default_study_config, {"points": (64, 256.5)}, "points"),
        (default_study_config, {"max_fixed_point_iters": 1.5}, "max_fixed_point_iters"),
        (LatticeSpec, {"nx": 2.7, "ny": 1, "nz": 1}, "nx"),
        (LatticeSpec, {"nx": 2, "ny": 1, "nz": 0}, "nz"),
    ],
)
def test_configs_reject_bad_seeds_and_counts(make, kwargs, name):
    """Seeds must be non-negative integers and counts integers; neither is
    truncated, and the error names the field."""
    args = ("visco",) if make is default_study_config else ()
    with pytest.raises(ValueError, match=f"^{name} must be"):
        make(*args, **kwargs)


class TestFixedPoint:
    """Alternating projections on random small instances."""

    def test_objective_history_non_increasing(self, rng):
        """Each half-step is an exact minimization, so the recorded global
        objective never increases."""
        for _ in range(40):
            _, gm, sys, sets, f = random_small_instance(rng)
            out = fixed_point_solve(sys, sets, gm, f)
            hist = np.array(out.objective_history)
            assert np.all(np.diff(hist) <= 1e-12 * np.maximum(1.0, hist[:-1]))
            assert out.converged

    def test_distance_matches_metric(self, rng):
        """Reported distance_sq is the metric distance between z and y."""
        for _ in range(20):
            _, gm, sys, sets, f = random_small_instance(rng)
            out = fixed_point_solve(sys, sets, gm, f)
            assert out.distance_sq == pytest.approx(
                metric_distance_sq(out.z, out.y, gm), rel=1e-12
            )

    def test_result_is_single_swap_optimal(self, rng):
        """No single reassignment of any element lowers the objective."""
        for _ in range(30):
            _, gm, sys, sets, f = random_small_instance(rng)
            out = fixed_point_solve(sys, sets, gm, f)
            base = out.objective_history[-1]
            tol = 1e-9 * max(1.0, base)
            for e in range(sys.n_elements):
                y_eps = out.y.strain.copy()
                y_sig = out.y.stress.copy()
                for j in range(set_sizes(sets)[e]):
                    y_eps[e] = sets.eps[e, j]
                    y_sig[e] = sets.sig[e, j]
                    assert manual_objective(sys, y_eps, y_sig, f) >= base - tol

    def test_kuhn_tucker_residuals(self, rng):
        """Stationarity of the constrained projection at the returned state."""
        for _ in range(30):
            _, gm, sys, sets, f = random_small_instance(rng)
            out = fixed_point_solve(sys, sets, gm, f)
            eps, sig = out.z.strain, out.z.stress
            y_eps, y_sig = out.y.strain, out.y.stress
            b, w, c = sys.b_free, sys.weights, sys.c
            # compatibility is exact by construction
            comp = eps - b @ out.displacements
            assert np.max(np.abs(comp)) <= 1e-12 * max(1.0, np.max(np.abs(eps)))
            # equilibrium of the stress part
            f_scale = max(1.0, float(np.linalg.norm(f)))
            assert np.linalg.norm(b.T @ (w * sig) - f) <= 1e-9 * f_scale
            # stationarity in u: B^T w C (eps - y_eps) = 0
            grad_u = b.T @ (w * c * (eps - y_eps))
            scale_e = max(1.0, float(np.linalg.norm(w * c * np.abs(eps) + 1.0)))
            assert np.linalg.norm(grad_u) <= 1e-9 * scale_e
            # the stress correction lies in the range of C B
            lam = sys.solve_k(b.T @ (w * (sig - y_sig)))
            r2 = (sig - y_sig) / c - b @ lam
            scale_s = max(1.0, float(np.max(np.abs(sig) / c)))
            assert np.linalg.norm(r2) <= 1e-9 * scale_s

    def test_equilibrium_residual_reported(self, rng):
        _, gm, sys, sets, f = random_small_instance(rng)
        out = fixed_point_solve(sys, sets, gm, f)
        assert out.equilibrium_residual == pytest.approx(
            float(np.linalg.norm(sys.b_free.T @ (sys.weights * out.z.stress) - f)),
            abs=1e-12,
        )

    def test_iteration_cap_flags_nonconvergence(self, rng):
        """A one-iteration budget cannot confirm a fixed point."""
        _, gm, sys, sets, f = random_small_instance(rng)
        out = fixed_point_solve(
            sys, sets, gm, f, cfg=SolverConfig(max_fixed_point_iters=1)
        )
        assert not out.converged

    def test_round_cap_flags_an_unconfirmed_polish(self, rng, monkeypatch):
        """With one round, a first polish that improves leaves its
        assignment unconfirmed by any walk, which the default rounds go on
        to confirm."""
        rounds, polish = solver._MAX_ROUNDS, solver._swap_polish
        polished = []

        def recorded(*args):
            polished.append(polish(*args))
            return polished[-1]

        monkeypatch.setattr(solver, "_swap_polish", recorded)
        monkeypatch.setattr(solver, "_MAX_ROUNDS", 1)
        for _ in range(200):
            _, gm, sys, sets, f = random_small_instance(rng)
            polished.clear()
            out = fixed_point_solve(sys, sets, gm, f)
            if polished[0] is not None and np.array_equal(out.assignment, polished[0]):
                break
        else:
            pytest.fail("no instance whose first polish improved")
        assert not out.converged
        monkeypatch.setattr(solver, "_MAX_ROUNDS", rounds)
        assert fixed_point_solve(sys, sets, gm, f).converged

    def test_duplicate_points_resolve_to_lowest_index(self):
        """Exact data ties neither oscillate nor move off the first copy."""
        _, gm, sys = one_bar_system(modulus=1000.0)
        # two identical best points, one decoy
        sets = stack_sets([np.array([1e-3, 1e-3, 5.0])], [np.array([1.0, 1.0, 0.0])])
        f = np.array([1.0])
        out = fixed_point_solve(sys, sets, gm, f)
        assert out.converged
        assert out.assignment[0] == 0

    def test_init_assignment_must_match_elements(self, rng):
        _, gm, sys, sets, f = random_small_instance(rng)
        with pytest.raises(ValueError):
            fixed_point_solve(
                sys, sets, gm, f,
                init_assignment=np.zeros(sys.n_elements + 1, dtype=np.int64),
            )

    @pytest.mark.parametrize("bad", ["negative", "length", "padded width"])
    def test_init_assignment_must_index_a_real_point(self, bad):
        """-1, a set's own size and the padded width are rejected instead
        of reading another point."""
        sys, gm, stacked, f = ragged_instance()
        init = np.zeros(3, dtype=np.int64)
        init[1] = {"negative": -1, "length": stacked.lengths[1],
                   "padded width": stacked.eps.shape[1]}[bad]
        with pytest.raises(ValueError, match="init_assignment"):
            fixed_point_solve(sys, stacked, gm, f, init_assignment=init)


def ragged_instance():
    """Three bars on one free node with stacked sets of 7, 3 and 12 points,
    the middle one with fidelity costs."""
    rng = np.random.default_rng(31)
    for _ in range(64):
        _, gm, sys, _, f = random_small_instance(rng)
        if sys.n_elements == 3:
            break
    rows = ([], [], [])
    for e, n in enumerate((7, 3, 12)):
        rows[0].append(rng.normal(scale=0.2, size=n))
        rows[1].append(sys.c[e] * rng.normal(scale=0.2, size=n))
        rows[2].append(rng.uniform(0.0, 5.0, n) if e == 1 else None)
    return sys, gm, stack_sets(*rows), f


class TestEnumeration:
    """Exhaustive oracle on instances small enough to scan."""

    def test_matches_manual_scan(self, rng):
        """Oracle objective equals the best of all assignments recomputed
        from scratch."""
        for _ in range(10):
            _, gm, sys, sets, f = random_small_instance(rng, max_points=6)
            oracle = enumerate_global_min(sys, sets, gm, f)
            counts = set_sizes(sets)
            best = np.inf
            for lin in range(int(np.prod(counts))):
                idx = np.unravel_index(lin, counts)
                y_eps = np.array([sets.eps[e, i] for e, i in enumerate(idx)])
                y_sig = np.array([sets.sig[e, i] for e, i in enumerate(idx)])
                best = min(best, manual_objective(sys, y_eps, y_sig, f))
            assert oracle.objective_history[-1] == pytest.approx(best, rel=1e-12)

    def test_tie_breaks_lexicographically(self):
        """Duplicated points give equal objectives; the smallest assignment
        index vector wins."""
        _, gm, sys = one_bar_system()
        sets = stack_sets([np.array([1e-3, 1e-3])], [np.array([1.0, 1.0])])
        out = enumerate_global_min(sys, sets, gm, np.array([1.0]))
        assert out.assignment[0] == 0

    def test_budget_guard(self, rng):
        _, gm, sys, sets, f = random_small_instance(rng, max_points=20)
        with pytest.raises(ValueError):
            enumerate_global_min(sys, sets, gm, f, budget=1)

    def test_fixed_point_never_beats_oracle(self, rng):
        """Mini version of the acceptance batch: bound and consistency."""
        for _ in range(20):
            _, gm, sys, sets, f = random_small_instance(rng)
            fp = fixed_point_solve(sys, sets, gm, f)
            oracle = enumerate_global_min(sys, sets, gm, f)
            bound = oracle.objective_history[-1] - fp.objective_history[-1]
            assert bound <= 1e-9 * max(1.0, abs(fp.objective_history[-1]))
            seeded = fixed_point_solve(
                sys, sets, gm, f, init_assignment=oracle.assignment
            )
            assert seeded.converged
            assert np.array_equal(seeded.assignment, oracle.assignment)
            assert seeded.objective_history[-1] == oracle.objective_history[-1]

    @pytest.mark.parametrize(
        "family, draw, chunks", [((3, 20), 3, 107), ((10, 4), 4, 768)], ids=["3x20", "10x4"]
    )
    def test_result_does_not_depend_on_the_chunk_size(self, monkeypatch, family, draw, chunks):
        """Instance ``draw`` of an ``oracle-check`` family (3 bars with 2,244
        assignments, 8 bars with 6,144) scored 64 entries at a time, in
        ``chunks`` chunks, gives the assignment and objective bits of one
        chunk. A whole 3 x 20 instance fits one chunk of the default size."""
        assert solver._ENUMERATION_CHUNK_ENTRIES // 3 >= 20**3
        rng = np.random.default_rng(90210)
        for _ in range(draw + 1):
            _, gm, sys, sets, f = random_small_instance(
                rng, max_elements=family[0], max_points=family[1]
            )
        total, m = int(np.prod(set_sizes(sets))), sys.n_elements
        monkeypatch.setattr(solver, "_ENUMERATION_CHUNK_ENTRIES", total * m)
        whole = enumerate_global_min(sys, sets, gm, f)
        monkeypatch.setattr(solver, "_ENUMERATION_CHUNK_ENTRIES", 64)
        assert -(-total // (64 // m)) == chunks
        chunked = enumerate_global_min(sys, sets, gm, f)
        assert np.array_equal(chunked.assignment, whole.assignment)
        assert chunked.objective_history == whole.objective_history


def reference_response_init(sys, stacked, f, g, eps_start):
    """The response init as first written: the dense tangent
    ``(b.T * (w * slope)) @ b``, solved by LU. Kept as the reference the
    banded solve's results are compared against."""
    n = stacked.eps.shape[1]
    if n < 8:
        return None
    m = sys.n_elements
    b = sys.b_free
    w = sys.weights
    index = stacked.strain_index()
    es = index.eps
    rows = np.arange(m)

    def stress_at(pos):
        return stacked.sig[rows, index.order[rows, pos]]

    k = min(4, (n - 1) // 2)
    c_ref = float(np.max(sys.c))
    u = sys.solve_k(b.T @ (w * sys.c * (eps_start - g)))
    eps = b @ u + g
    f_scale = max(1.0, float(np.linalg.norm(f)))
    best = None
    for _ in range(20):
        j = index.search(eps[:, None])[:, 0]
        above = np.minimum(j, n - 1)
        below = np.maximum(j - 1, 0)
        lower = (j > 0) & (j < n) & (eps - es[rows, below] <= es[rows, above] - eps)
        idx = np.where(lower, below, above)
        sig_hat = stress_at(idx)
        r = f - b.T @ (w * sig_hat)
        res = float(np.linalg.norm(r)) / f_scale
        if best is None or res < best[0]:
            best = (res, es[rows, idx], sig_hat)
        if res < 1e-10:
            break
        lo = np.clip(idx - k, 0, n - 1)
        hi = np.clip(idx + k, 0, n - 1)
        de = es[rows, hi] - es[rows, lo]
        dsg = stress_at(hi) - stress_at(lo)
        slope = np.where(de > 0.0, dsg / np.where(de > 0.0, de, 1.0), c_ref)
        slope = np.clip(slope, 1e-3 * c_ref, 1e3 * c_ref)
        kt = (b.T * (w * slope)) @ b
        try:
            du = np.linalg.solve(kt, r)
        except np.linalg.LinAlgError:
            return None
        u = u + du
        eps = b @ u + g
    return (best[1], best[2])


class TestResponseInit:
    """Data-only equilibrium warm start."""

    def test_small_sets_decline(self):
        _, gm, sys = one_bar_system()
        g = GeneratorSpec(law=DEFAULT_SLS, n_points=4, window=WindowRule(floor=1e-3))
        stacked = _stacked_step_sets(
            g, np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1), None, 0
        )
        out = _empirical_response_init(
            sys, stacked, np.array([1.0]), np.zeros(1), np.zeros(1)
        )
        assert out is None

    def test_equilibrates_on_dense_linear_data(self):
        """On a dense sampled line the Newton walk lands near equilibrium
        and returns states taken from the data. The same sets with zero
        fidelity costs, as an archive's carry, make it decline."""
        mesh, gm, loads, _ = small_truss_fixture()
        sys = assemble(mesh, gm)
        f = loads.forces(10.0)
        est = sys.elastic_strain_increment(f, None, None, None)
        g = GeneratorSpec(
            law=DEFAULT_SLS,
            n_points=2048,
            window=WindowRule(floor=1e-9),
        )
        stacked = _stacked_step_sets(
            g, np.zeros(4), np.zeros(4), np.zeros(4), est, None, 0
        )
        out = _empirical_response_init(sys, stacked, f, np.zeros(4), est)
        assert out is not None
        res = np.linalg.norm(f - sys.b_free.T @ (sys.weights * out.stress))
        assert res <= 1e-2 * np.linalg.norm(f)
        for e in range(4):
            assert out.strain[e] in stacked.eps[e]
            assert out.stress[e] in stacked.sig[e]
        costed = dataclasses.replace(stacked, costs=np.zeros_like(stacked.eps))
        assert _empirical_response_init(sys, costed, f, np.zeros(4), est) is None

    @pytest.mark.parametrize("kind, points", [("plastic", 64), ("visco", 2048)])
    def test_every_step_agrees_with_the_dense_reference(self, monkeypatch, kind, points):
        """On every step of a short serial march, the banded init and the
        dense reference both decline, or return the same bits."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        init, outcomes = solver._empirical_response_init, []

        def both(sys, stacked, f, g, eps_start):
            out = init(sys, stacked, f, g, eps_start)
            expect = reference_response_init(sys, stacked, f, g, eps_start)
            if out is None or expect is None:
                outcomes.append(out is None and expect is None)
            else:
                outcomes.append(
                    np.array_equal(out.strain, expect[0]) and np.array_equal(out.stress, expect[1])
                )
            return out

        monkeypatch.setattr(solver, "_empirical_response_init", both)
        _study_march(kind, points=points)
        assert len(outcomes) == 12 and all(outcomes)


class TestTimeMarch:
    """Conditioned differential marches."""

    def test_relaxation_against_closed_form(self):
        """Held bar with noiseless data reproduces the exact recurrence."""
        cfg = relaxation_study(points=(128,))
        traj = held_bar_march(cfg)
        assert study_error(cfg, traj, None) < 1e-6
        assert traj.stress[0, 0] / held_strain(cfg) == pytest.approx(175_000.0, rel=1e-9)
        assert bool(np.all(traj.converged))

    def test_first_step_is_instantaneous(self):
        """A single-time march sees the rate-free response."""
        cfg = relaxation_study(points=(64,), t_end=0.0)
        traj = held_bar_march(cfg)
        assert traj.n_steps == 1
        assert traj.stress[0, 0] / held_strain(cfg) == pytest.approx(175_000.0, rel=1e-9)

    def test_bit_reproducible(self):
        """Same seed, same march, same bits."""
        mesh, gm, loads, times = small_truss_fixture(t_end=6.0)
        g = GeneratorSpec(
            law=DEFAULT_SLS,
            n_points=64,
            band_width=5e-4,
            window=WindowRule(floor=1e-9),
            rng_seed=99,
        )
        a = time_march(mesh, gm, g, loads, times, SolverConfig())
        b = time_march(mesh, gm, g, loads, times, SolverConfig())
        assert np.array_equal(a.strain, b.strain)
        assert np.array_equal(a.stress, b.stress)
        assert np.array_equal(a.assignment, b.assignment)
        other = GeneratorSpec(
            law=DEFAULT_SLS,
            n_points=64,
            band_width=5e-4,
            window=WindowRule(floor=1e-9),
            rng_seed=100,
        )
        c = time_march(mesh, gm, other, loads, times, SolverConfig())
        assert not np.array_equal(a.strain, c.strain)

    def test_q_acc_monotone_under_reversal(self):
        """Accumulated slip never decreases, even across load reversals."""
        mesh, gm_sls, loads, times = small_truss_fixture(t_end=20.0)
        gm = GlobalMetric.uniform(
            DEFAULT_PLASTIC.modulus_instantaneous, mesh.volumes
        )
        sys = assemble(mesh, gm)
        reversal = LoadProgram.from_nodal(
            sys, {(4, 2): -900.0}, PLASTIC_BREAKPOINTS
        )
        g = GeneratorSpec(
            law=DEFAULT_PLASTIC,
            n_points=128,
            window=WindowRule(halfwidth=0.05),
        )
        times = np.arange(0.0, 101.0, 4.0)
        traj = time_march(mesh, gm, g, reversal, times, SolverConfig(), sys=sys)
        dq = np.diff(traj.q_acc, axis=0)
        assert np.min(dq) >= 0.0
        assert np.max(traj.q_acc[-1]) > 0.0  # the program actually yields

    def test_converged_march_satisfies_equilibrium(self):
        mesh, gm, loads, times = small_truss_fixture(t_end=8.0)
        g = GeneratorSpec(
            law=DEFAULT_SLS,
            n_points=256,
            window=WindowRule(floor=1e-9),
        )
        traj = time_march(mesh, gm, g, loads, times, SolverConfig())
        assert bool(np.all(traj.converged))
        f_scale = max(1.0, float(np.max(np.abs(loads.base_forces))))
        assert float(np.max(traj.equilibrium_residual)) <= 1e-8 * f_scale

    def test_rejects_bad_time_grid(self):
        mesh, gm, loads, _ = small_truss_fixture()
        g = GeneratorSpec(law=DEFAULT_SLS, n_points=8)
        with pytest.raises(ValueError):
            time_march(mesh, gm, g, loads, [0.0, 2.0, 1.0], SolverConfig())

    def test_init_strategies_all_run(self, monkeypatch):
        """The march converges from both warm starts, and from the predicted
        start alone, which is all a march takes where the response init
        declines."""
        mesh, gm, loads, times = small_truss_fixture(t_end=5.0)
        g = GeneratorSpec(
            law=DEFAULT_SLS,
            n_points=128,
            window=WindowRule(floor=1e-9),
        )
        both = time_march(mesh, gm, g, loads, times, SolverConfig())
        monkeypatch.setattr(solver, "_response_solve", lambda *args: None)
        predicted = time_march(mesh, gm, g, loads, times, SolverConfig())
        assert bool(np.all(both.converged)) and bool(np.all(predicted.converged))


class TestHistoryMatchingMarch:
    """March against fixed two-time archives."""

    def test_repository_count_checked(self):
        """An archive of 3 rows for the 4 bars is refused, naming both
        counts."""
        mesh, gm, loads, times = small_truss_fixture(t_end=2.0)
        archive = HistoryRepository(*(np.zeros((3, 5)) for _ in range(4)))
        with pytest.raises(ValueError, match=r"one row per bar: 4 bars, got 3 rows"):
            history_matching_march(mesh, gm, archive, loads, times, SolverConfig())

    def test_agrees_with_differential_mode(self):
        """Archive march tracks the regenerated march on the pyramid."""
        mesh, gm, loads, times = small_truss_fixture(t_end=10.0)
        g = GeneratorSpec(
            law=DEFAULT_SLS,
            n_points=2048,
            window=WindowRule(floor=1e-5),
        )
        dd = time_march(mesh, gm, g, loads, times, SolverConfig())
        repos = build_truss_repositories(
            mesh, gm, DEFAULT_SLS, loads, times,
            n_prior_strain=3, n_prior_offset=41, n_current=33,
        )
        hm = history_matching_march(mesh, gm, repos, loads, times, SolverConfig())
        rel = weighted_l2_error(hm, dd, DEFAULT_SLS.tau1) / trajectory_norm(
            dd, DEFAULT_SLS.tau1
        )
        assert rel < 1e-2

    def test_walk_searches_take_the_previous_association(self, monkeypatch):
        """On an archive large enough for the sorted search, each solve's
        first walk search gets no hint and every later one the previous
        association: the last search's result, or the polish's where a
        polish ran in between. The trajectory equals that of a march whose
        searches take no hint."""
        mesh, gm, loads, times = small_truss_fixture(t_end=4.0)
        archive = build_truss_repositories(
            mesh, gm, DEFAULT_SLS, loads, times,
            n_prior_strain=3, n_prior_offset=235, n_current=9,
        )
        assert archive.eps_cur.size >= data_module._SORTED_SEARCH_MIN_SIZE
        monkeypatch.setattr(solver, "_usable_cpus", lambda: 1)
        search, polish, solve = solver.batch_nearest, solver._swap_polish, solver.fixed_point_solve
        events = []

        def searched(*args):
            out = search(*args)
            events.append(("search", args[5] if len(args) > 5 else None, out))
            return out

        def polished(*args):
            out = polish(*args)
            events.append(("polish", None, out))
            return out

        def solved(*args, **kwargs):
            events.append(("solve", None, None))
            return solve(*args, **kwargs)

        monkeypatch.setattr(solver, "batch_nearest", searched)
        monkeypatch.setattr(solver, "_swap_polish", polished)
        monkeypatch.setattr(solver, "fixed_point_solve", solved)
        hinted = history_matching_march(mesh, gm, archive, loads, times, SolverConfig())
        last, later = None, 0
        for kind, hint, out in events:
            if kind == "search":
                if last is None:
                    assert hint is None
                else:
                    assert np.array_equal(hint, last)
                    later += 1
            if kind == "solve":
                last = None
            elif out is not None:
                last = out.copy()
        assert later > 0
        monkeypatch.setattr(solver, "batch_nearest", lambda *args: search(*args[:5]))
        plain = history_matching_march(mesh, gm, archive, loads, times, SolverConfig())
        for name in ("strain", "stress", "assignment", "iterations"):
            assert np.array_equal(getattr(hinted, name), getattr(plain, name))

    def test_an_archive_step_is_solved_once(self, monkeypatch):
        """The response init declines on every archive step, so a serial
        march runs one fixed-point solve per step, from the predicted
        start."""
        mesh, gm, loads, times, archive = _archive_setup()
        monkeypatch.setattr(solver, "_usable_cpus", lambda: 1)
        init, solve = solver._empirical_response_init, solver.fixed_point_solve
        inits, solves = [], []

        def counted_init(*args):
            inits.append(init(*args))
            return inits[-1]

        def counted_solve(*args, **kwargs):
            solves.append(kwargs["t"])
            return solve(*args, **kwargs)

        monkeypatch.setattr(solver, "_empirical_response_init", counted_init)
        monkeypatch.setattr(solver, "fixed_point_solve", counted_solve)
        history_matching_march(mesh, gm, archive, loads, times, SolverConfig())
        assert solves == [float(t) for t in times]
        assert inits == [None] * times.size

    @pytest.mark.parametrize("cpus", [{0, 1}, {0}], ids=["worker", "serial"])
    def test_trajectory_does_not_depend_on_the_tie_order(self, worker_starts, monkeypatch, cpus):
        """Archive rows hold many equal strains, whose order the strain
        sort leaves to ``np.argsort``'s default kind. A march whose index
        sorts them stably, which orders some ties differently, has the
        same bits, with a step worker and without one."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        mesh, gm, loads, times, archive = _archive_setup()
        default = history_matching_march(mesh, gm, archive, loads, times, SolverConfig())
        default_order = StrainIndex(archive.eps_cur).order

        def stable_sort(index, strains, rows):
            for e in range(strains.shape[0])[rows]:
                index.order[e] = np.argsort(strains[e], kind="stable")
                strains[e].take(index.order[e], out=index.eps[e])

        monkeypatch.setattr(StrainIndex, "sort", stable_sort)
        assert not np.array_equal(StrainIndex(archive.eps_cur).order, default_order)
        stable = history_matching_march(mesh, gm, archive, loads, times, SolverConfig())
        assert worker_starts == ([os.getpid()] * 2 if len(cpus) == 2 else [])
        assert multiprocessing.active_children() == []
        for name in ("strain", "stress", "assignment", "iterations"):
            assert np.array_equal(getattr(stable, name), getattr(default, name))


def _study_march(kind, *, lattice=LatticeSpec(2, 1, 1), steps=12, points=64, **kwargs):
    """The first ``steps`` steps of a study march on ``lattice`` at dt = 5,
    ``points`` points per set. By default 12 steps on a 2 x 1 x 1 lattice
    with 64 points, where the response start wins 2 of them on visco and 7
    on plastic."""
    study = default_study_config(kind, lattice=lattice, dt=5.0)
    mesh, gm, system, loads, times = study_setup(study)
    g = study_generator(study, points, 0, 0)
    return time_march(
        mesh, gm, g, loads, times[:steps], SolverConfig(), sys=system, **kwargs
    )


def _archive_setup():
    """The 4-bar fixture over 5 steps and its (4, 2709) archive."""
    mesh, gm, loads, times = small_truss_fixture(t_end=4.0)
    archive = build_truss_repositories(
        mesh, gm, DEFAULT_SLS, loads, times,
        n_prior_strain=3, n_prior_offset=5, n_current=9,
    )
    return mesh, gm, loads, times, archive


def _archive_march():
    mesh, gm, loads, times, archive = _archive_setup()
    return history_matching_march(mesh, gm, archive, loads, times, SolverConfig())


#: One short march of each kind under the default "response" warm start.
_MARCHES = {
    "visco": lambda: _study_march("visco"),
    "plastic": lambda: _study_march("plastic"),
    "archive": _archive_march,
}


def _refuse_step_worker(*args):
    raise AssertionError("a march in a child process started a step worker")


def _march_in_child(name):
    """March ``name`` in a pool worker, where starting a step worker fails."""
    solver._StepWorker = _refuse_step_worker
    traj = _MARCHES[name]()
    return traj.strain, traj.stress, traj.assignment


@pytest.fixture
def worker_starts(monkeypatch):
    """The pids of the processes that start a step worker, on a host taken
    to have two CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    starts: list[int] = []
    init = solver._StepWorker.__init__

    def counted(self, *args):
        starts.append(os.getpid())
        init(self, *args)

    monkeypatch.setattr(solver._StepWorker, "__init__", counted)
    return starts


class TestStepWorker:
    """The forked step worker solves each step's second warm start, and on
    an archive, where the response init declines, only draws; a march gives
    the same bits with it and without it, and leaves no process."""

    @pytest.mark.parametrize("name", list(_MARCHES))
    def test_worker_and_pool_worker_marches_agree(self, worker_starts, name):
        """A march here forks a step worker; the same march in a pool worker
        runs serially, with the same bits."""
        traj = _MARCHES[name]()
        assert worker_starts == [os.getpid()]
        assert multiprocessing.active_children() == []
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(1, mp_context=fork) as pool:
            strain, stress, assignment = pool.submit(_march_in_child, name).result()
        assert np.array_equal(traj.strain, strain)
        assert np.array_equal(traj.stress, stress)
        assert np.array_equal(traj.assignment, assignment)

    @pytest.mark.parametrize("kind", ["visco", "plastic"])
    def test_one_cpu_marches_serially(self, worker_starts, monkeypatch, kind):
        """As under ``taskset -c 0``: no worker, the same trajectory, which
        the worker's solves decide in part."""
        forked = _study_march(kind)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = _study_march(kind)
        assert worker_starts == [os.getpid()]
        assert np.array_equal(forked.strain, serial.strain)
        assert np.array_equal(forked.stress, serial.stress)
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(solver, "_response_solve", lambda *args: None)
        predicted = _study_march(kind)
        assert not np.array_equal(forked.strain, predicted.strain)

    def test_threaded_process_marches_serially(self, worker_starts):
        """A march next to another thread forks nothing."""
        out = []
        thread = threading.Thread(target=lambda: out.append(_MARCHES["archive"]()))
        thread.start()
        thread.join(60)
        assert not thread.is_alive()
        assert len(out) == 1
        assert worker_starts == []

    def test_worker_exception_reaches_the_caller(self, worker_starts, monkeypatch):
        init = solver._empirical_response_init

        def failing(*args, **kwargs):
            if multiprocessing.parent_process() is not None:
                raise ValueError("response init failed in the step worker")
            return init(*args, **kwargs)

        monkeypatch.setattr(solver, "_empirical_response_init", failing)
        with pytest.raises(ValueError, match="failed in the step worker"):
            _study_march("visco")
        assert worker_starts == [os.getpid()]
        assert multiprocessing.active_children() == []

    def test_march_error_ends_a_busy_worker(self, worker_starts, monkeypatch):
        """An error in the march while the worker solves ends the worker."""
        solve = solver.fixed_point_solve

        def failing(*args, **kwargs):
            if multiprocessing.parent_process() is None:
                raise KeyError("first solve")
            return solve(*args, **kwargs)

        monkeypatch.setattr(solver, "fixed_point_solve", failing)
        with pytest.raises(KeyError, match="first solve"):
            _study_march("visco")
        assert worker_starts == [os.getpid()]
        assert multiprocessing.active_children() == []


def _logged_draws(monkeypatch, log):
    """Logs every per-step draw as ``pid step first_row stop_row`` to
    ``log``, in whichever process draws."""
    draw = solver._stacked_step_sets

    def logged(g, eps_prev, sig_prev, q_acc, est, dt, step, rows=slice(None), out=None):
        r = range(eps_prev.size)[rows]
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {step} {r.start} {r.stop}\n")
        return draw(g, eps_prev, sig_prev, q_acc, est, dt, step, rows, out)

    monkeypatch.setattr(solver, "_stacked_step_sets", logged)


def _draws(log):
    """The logged draws as ``{pid: [(step, first_row, stop_row), ...]}``."""
    out: dict[int, list[tuple[int, int, int]]] = {}
    for line in log.read_text().splitlines():
        pid, *rest = (int(v) for v in line.split())
        out.setdefault(pid, []).append(tuple(rest))
    return out


@pytest.fixture
def deadline():
    """Fails the test, instead of hanging it, after 120 seconds."""

    def expire(signum, frame):
        raise TimeoutError("the march hung")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def _one_bar_march():
    """A short relaxation of one bar: the step worker's half is empty."""
    return held_bar_march(relaxation_study(t_end=6.0, points=(64,), band_ref=1e-4, seed=3))


class TestSharedDraw:
    """With a step worker, the march draws the first half of each step's
    rows and the worker the rest, into one shared stack."""

    def test_row_halves(self):
        assert solver._row_halves(73) == (slice(0, 37), slice(37, 73))
        assert solver._row_halves(42) == (slice(0, 21), slice(21, 42))
        assert solver._row_halves(1) == (slice(0, 1), slice(1, 1))

    def test_strain_index_from_two_halves(self):
        """Rows sorted apart into one pair of arrays give ``np.argsort``'s
        index of all rows, ties included, as does the index built whole."""
        rng = np.random.default_rng(8)
        strains = rng.integers(0, 40, size=(9, 300)).astype(float)
        joined = StrainIndex.of(np.empty((9, 300), dtype=np.intp), np.empty((9, 300)))
        first, rest = solver._row_halves(9)
        joined.sort(strains, rest)
        joined.sort(strains, first)
        order = np.argsort(strains, axis=1)
        assert np.array_equal(joined.order, order)
        assert np.array_equal(joined.eps, np.take_along_axis(strains, order, axis=1))
        whole = StrainIndex(strains)
        assert np.array_equal(whole.order, order) and np.array_equal(whole.eps, joined.eps)

    def test_each_process_draws_its_half(self, worker_starts, monkeypatch, tmp_path):
        """73 bars: the march draws rows 0 to 36 of every step and the
        worker rows 37 to 72; a serial march draws them all at once, and
        the trajectories have the same bits."""
        lattice = LatticeSpec(2, 2, 1)
        log = tmp_path / "draws.log"
        _logged_draws(monkeypatch, log)
        forked = _study_march("visco", lattice=lattice, steps=5)
        assert worker_starts == [os.getpid()]
        assert multiprocessing.active_children() == []
        draws = _draws(log)
        child = (set(draws) - {os.getpid()}).pop()
        assert set(draws) == {os.getpid(), child}
        assert draws[os.getpid()] == [(k, 0, 37) for k in range(5)]
        assert draws[child] == [(k, 37, 73) for k in range(5)]
        log.unlink()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = _study_march("visco", lattice=lattice, steps=5)
        assert _draws(log) == {os.getpid(): [(k, 0, 73) for k in range(5)]}
        assert np.array_equal(forked.strain, serial.strain)
        assert np.array_equal(forked.stress, serial.stress)
        assert np.array_equal(forked.assignment, serial.assignment)

    def test_one_bar_leaves_the_worker_no_rows(self, worker_starts, monkeypatch, tmp_path):
        log = tmp_path / "draws.log"
        _logged_draws(monkeypatch, log)
        forked = _one_bar_march()
        assert worker_starts == [os.getpid()]
        draws = _draws(log)
        child = (set(draws) - {os.getpid()}).pop()
        steps = range(forked.n_steps)
        assert draws[os.getpid()] == [(k, 0, 1) for k in steps]
        assert draws[child] == [(k, 1, 1) for k in steps]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = _one_bar_march()
        assert np.array_equal(forked.stress, serial.stress)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("kind", ["visco", "archive"])
    def test_failure_in_the_worker_half_reaches_the_caller(
        self, worker_starts, monkeypatch, deadline, kind
    ):
        name = "_stacked_step_sets" if kind == "visco" else "prior_slot_costs"
        draw = getattr(solver, name)

        def failing(*args):
            if multiprocessing.parent_process() is not None:
                raise ValueError("the worker's half failed")
            return draw(*args)

        monkeypatch.setattr(solver, name, failing)
        with pytest.raises(ValueError, match="the worker's half failed"):
            _MARCHES[kind]()
        assert worker_starts == [os.getpid()]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("kind", ["visco", "archive"])
    def test_march_error_in_its_half_ends_the_worker(
        self, worker_starts, monkeypatch, deadline, kind
    ):
        name = "_stacked_step_sets" if kind == "visco" else "prior_slot_costs"
        draw = getattr(solver, name)
        calls = []

        def failing(*args):
            if multiprocessing.parent_process() is None:
                calls.append(1)
                if len(calls) == 3:
                    raise KeyError("the march's half failed")
            return draw(*args)

        monkeypatch.setattr(solver, name, failing)
        with pytest.raises(KeyError, match="the march's half failed"):
            _MARCHES[kind]()
        assert worker_starts == [os.getpid()]
        assert multiprocessing.active_children() == []

    def test_archive_index_sorted_in_halves(self, worker_starts, monkeypatch, tmp_path):
        """4 bars: at step 0 the march sorts archive rows 0 and 1 into the
        shared strain index and the worker rows 2 and 3, once each; the
        index equals the archive's own ``StrainIndex`` bit for bit. A serial
        march sorts every row itself and has the same bits."""
        log = tmp_path / "sorts.log"
        _logged_sorts(monkeypatch, log)
        stacks = _recorded_stacks(monkeypatch)
        forked = _archive_march()
        assert worker_starts == [os.getpid()]
        assert multiprocessing.active_children() == []
        sorts = _draws(log)
        child = (set(sorts) - {os.getpid()}).pop()
        assert sorts == {os.getpid(): [(0, 2)], child: [(2, 4)]}
        (sets,) = stacks
        whole = StrainIndex(sets.eps)
        assert np.array_equal(sets.index.order, whole.order)
        assert np.array_equal(sets.index.eps, whole.eps)
        log.unlink()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = _archive_march()
        assert _draws(log) == {os.getpid(): [(0, 4)]}
        assert np.array_equal(forked.strain, serial.strain)
        assert np.array_equal(forked.stress, serial.stress)
        assert np.array_equal(forked.assignment, serial.assignment)

    @pytest.mark.parametrize("cpus", [{0, 1}, {0}], ids=["worker", "serial"])
    def test_archive_march_reads_the_archive_uncopied(self, worker_starts, monkeypatch, cpus):
        """The march's stack holds the archive's own current slots, with a
        step worker and without one."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        stacks = _recorded_stacks(monkeypatch)
        mesh, gm, loads, times, archive = _archive_setup()
        history_matching_march(mesh, gm, archive, loads, times, SolverConfig())
        assert worker_starts == ([os.getpid()] if len(cpus) == 2 else [])
        assert multiprocessing.active_children() == []
        (sets,) = stacks
        assert np.shares_memory(sets.eps, archive.eps_cur)
        assert np.shares_memory(sets.sig, archive.sig_cur)

    def test_one_bar_archive_leaves_the_worker_no_rows(
        self, worker_starts, monkeypatch, tmp_path
    ):
        """The one-bar relaxation against its archive: the march sorts the
        only row and the worker sorts the empty range, and the stresses
        equal a serial march's."""
        cfg = relaxation_study(t_end=6.0)
        repository = build_relaxation_repository(cfg.law, held_strain(cfg), cfg.dt, n_prior=2001)
        log = tmp_path / "sorts.log"
        _logged_sorts(monkeypatch, log)
        forked = held_bar_march(cfg, repository)
        assert worker_starts == [os.getpid()]
        sorts = _draws(log)
        child = (set(sorts) - {os.getpid()}).pop()
        assert sorts == {os.getpid(): [(0, 1)], child: [(1, 1)]}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = held_bar_march(cfg, repository)
        assert np.array_equal(forked.stress, serial.stress)
        assert multiprocessing.active_children() == []


def _logged_sorts(monkeypatch, log):
    """Logs every strain sort as ``pid first_row stop_row`` to ``log``, in
    whichever process sorts."""
    sort = StrainIndex.sort

    def logged(index, strains, rows):
        r = range(strains.shape[0])[rows]
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {r.start} {r.stop}\n")
        return sort(index, strains, rows)

    monkeypatch.setattr(StrainIndex, "sort", logged)


def _recorded_stacks(monkeypatch):
    """The stack of every march, kept past the march's return."""
    stacks = []
    march = solver._march

    def recorded(system, gm, loads, t_grid, cfg, stack, draw, plastic_law):
        def kept(empty):
            stacks.append(stack(empty))
            return stacks[-1]

        return march(system, gm, loads, t_grid, cfg, kept, draw, plastic_law)

    monkeypatch.setattr(solver, "_march", recorded)
    return stacks


class TestTrajectoryOutput:
    """CSV export and the summary dictionary."""

    def make_traj(self):
        mesh, gm, loads, times = small_truss_fixture(t_end=3.0)
        g = GeneratorSpec(
            law=DEFAULT_SLS,
            n_points=32,
            window=WindowRule(floor=1e-9),
        )
        return time_march(mesh, gm, g, loads, times, SolverConfig())

    def test_export_csv(self, tmp_path):
        traj = self.make_traj()
        path = tmp_path / "traj.csv"
        export_trajectory_csv(traj, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "time,element,strain,stress,assignment,iterations,distance_sq"
        assert len(lines) == 1 + traj.n_steps * traj.n_elements

    def test_summary_fields(self):
        traj = self.make_traj()
        summary = trajectory_summary(traj)
        assert list(summary)[0] == "n_steps"
        assert summary["n_steps"] == traj.n_steps
        assert summary["n_elements"] == 4
        assert summary["all_converged"] is True
        assert summary["final_time"] == 3.0

    def test_summary_counts_nonconverged_steps(self):
        """A march at its iteration cap reports its unconfirmed steps."""
        mesh, gm, loads, times = small_truss_fixture(t_end=3.0)
        g = GeneratorSpec(
            law=DEFAULT_SLS,
            n_points=32,
            window=WindowRule(floor=1e-9),
        )
        cfg = SolverConfig(max_fixed_point_iters=1)
        traj = time_march(mesh, gm, g, loads, times, cfg)
        summary = trajectory_summary(traj)
        assert summary["n_nonconverged"] == np.count_nonzero(~traj.converged) > 0
        assert summary["all_converged"] is False
        assert trajectory_summary(self.make_traj())["n_nonconverged"] == 0
