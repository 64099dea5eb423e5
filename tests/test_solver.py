"""Fixed-point step solver, enumeration oracle and the conditioned marches."""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
import os

import numpy as np
import pytest

from ddmech import data as data_module
from ddmech import solver
from ddmech.data import (
    GeneratorSpec,
    HistoryRepository,
    StackedSets,
    WindowRule,
    stack_sets,
)
from ddmech.experiments import (
    DEFAULT_PLASTIC,
    DEFAULT_SLS,
    PLASTIC_BREAKPOINTS,
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
    es = stacked.eps
    rows = np.arange(m)

    def stress_at(pos):
        return stacked.sig[rows, pos]

    k = min(4, (n - 1) // 2)
    c_ref = float(np.max(sys.c))
    u = sys.solve_k(b.T @ (w * sys.c * (eps_start - g)))
    eps = b @ u + g
    f_scale = max(1.0, float(np.linalg.norm(f)))
    best = None
    for _ in range(20):
        j = np.array([np.searchsorted(es[e], eps[e]) for e in rows])
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
        """On every step of a short march, the banded init and the dense
        reference both decline, or return the same bits."""
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
        """The march converges from the better of both warm starts, and from
        the predicted start alone, which is all a march takes where the
        response init declines."""
        mesh, gm, loads, times = small_truss_fixture(t_end=5.0)
        g = GeneratorSpec(
            law=DEFAULT_SLS,
            n_points=128,
            window=WindowRule(floor=1e-9),
        )
        both = time_march(mesh, gm, g, loads, times, SolverConfig())
        monkeypatch.setattr(solver, "_empirical_response_init", lambda *args: None)
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
        """The response init declines on every archive step, so the march
        runs one fixed-point solve per step, from the predicted start."""
        mesh, gm, loads, times, archive = _archive_setup()
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

    def test_trajectory_does_not_depend_on_the_tie_order(self):
        """Archive rows hold many equal strains, stored in build order. An
        archive whose runs of equal strains are shuffled, every slot alike,
        marches to the same bits and assigns the same entries: the four
        slots at its assignments are those at the first march's."""
        mesh, gm, loads, times, archive = _archive_setup()
        rng = np.random.default_rng(0)
        order = []
        for row in archive.eps_cur:
            perm = np.arange(row.size)
            starts = np.flatnonzero(np.r_[True, row[1:] != row[:-1]])
            for a, b in zip(starts, np.r_[starts[1:], row.size]):
                perm[a:b] = rng.permutation(perm[a:b])
            order.append(perm)
        slots = ("eps_prev", "sig_prev", "eps_cur", "sig_cur")
        shuffled = HistoryRepository(
            *(np.take_along_axis(getattr(archive, name), np.array(order), 1) for name in slots)
        )
        assert not np.array_equal(shuffled.sig_prev, archive.sig_prev)
        default = history_matching_march(mesh, gm, archive, loads, times, SolverConfig())
        other = history_matching_march(mesh, gm, shuffled, loads, times, SolverConfig())
        for name in ("strain", "stress", "iterations"):
            assert np.array_equal(getattr(other, name), getattr(default, name))
        rows = np.arange(archive.eps_cur.shape[0])
        for name in slots:
            assert np.array_equal(
                getattr(shuffled, name)[rows, other.assignment],
                getattr(archive, name)[rows, default.assignment],
            )

    def test_archive_march_reads_the_archive_uncopied(self, monkeypatch):
        """The march's stack holds the archive's own current slots."""
        stacks = []
        solve = solver.fixed_point_solve

        def recorded(system, sets, *args, **kwargs):
            stacks.append(sets)
            return solve(system, sets, *args, **kwargs)

        monkeypatch.setattr(solver, "fixed_point_solve", recorded)
        mesh, gm, loads, times, archive = _archive_setup()
        history_matching_march(mesh, gm, archive, loads, times, SolverConfig())
        assert len(stacks) == times.size and all(s is stacks[0] for s in stacks)
        assert stacks[0].eps is archive.eps_cur and stacks[0].sig is archive.sig_cur


def _study_march(kind, *, lattice=LatticeSpec(2, 1, 1), steps=12, points=64, **kwargs):
    """The first ``steps`` steps of a study march on ``lattice`` at dt = 5,
    ``points`` points per set. By default 12 steps on a 2 x 1 x 1 lattice
    with 64 points, where the response init's first iterate is the lower on
    9 of them on visco and 10 on plastic, and ties on one of each."""
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


#: One short march of each kind: regenerated visco and plastic sets, and an archive.
_MARCHES = {
    "visco": lambda: _study_march("visco"),
    "plastic": lambda: _study_march("plastic"),
    "archive": _archive_march,
}


def _default_archive_march():
    """The 4-bar fixture over 5 steps against its default (4, 105,365)
    archive, large enough for the sorted search."""
    mesh, gm, loads, times = small_truss_fixture(t_end=4.0)
    archive = build_truss_repositories(mesh, gm, DEFAULT_SLS, loads, times)
    return history_matching_march(mesh, gm, archive, loads, times, SolverConfig())


#: Short marches pinned by name: the march, and the sha256 of its strain and
#: stress arrays and of its assignments. The two archive marches keep the
#: outputs they had before data-set rows were stored in strain order
#: (commit df63e58), with each assignment the stable strain rank of the old
#: one: the index at which a stable sort of the old row by strain puts it.
#: The four marches on regenerated sets are pinned to the draw whose noise
#: is one stream per step; they kept the ranks of df63e58 until then.
_PINNED = {
    "visco-64": (
        lambda: _study_march("visco", steps=4),
        "51d8bab85e037634be0832b349df5c925ab2d0b651414c8cdcacc2047da812f4",
        "d732c9b73f5a3f2569e991457aee74d5370228c6e1b51bb9e8cc10f67059b870",
    ),
    "plastic-64": (
        lambda: _study_march("plastic", steps=4),
        "77394f33f4e8cbb64955df601ff33f274b4ed37d526cb3cd0ea25ab7e55d0b6c",
        "8a0c880cb71e2f043d23b70efcaa109806ab61ef5302a503f923eeb2b5c0bc7f",
    ),
    "visco-4096": (
        lambda: _study_march("visco", steps=4, points=4096),
        "8f82af97d6bb1178292421f80b3faa129ddb24d19fa65ef834da951343e119ed",
        "8d237e464ff3230b667d3b68a20b3751b917aecec949449c7f9b93f32bec7b5b",
    ),
    "plastic-4096": (
        lambda: _study_march("plastic", steps=4, points=4096),
        "7a7c696f7ad6fd62c992580da5db40d2210a156c447f0154f97e79b9df7cecf6",
        "ca59b9fd916b9acacc8afd0c4ad56564328b865d61f1984337b4ebafcd3ab0b0",
    ),
    "archive": (
        _archive_march,
        "99e294621a7b652238bb4954045037b41cb6faf5e8eee70859a65efae1a9eb42",
        "4a65d48c23490d3dfbe28ae58d7a2d84fb0e3742c14b2fb86629942d9b9e9f41",
    ),
    "archive-default": (
        _default_archive_march,
        "99e294621a7b652238bb4954045037b41cb6faf5e8eee70859a65efae1a9eb42",
        "1a5e60abe4f5c36cba28dd3f25c328ab9a7077f4242758c364d83957abf125ac",
    ),
}


@pytest.mark.parametrize("name", list(_PINNED))
def test_strain_order_keeps_the_pinned_outputs(name):
    """A march on the 2 x 1 x 1 lattice (4 steps, 42 bars, 64 or 4096
    points, the sorted search and the polish's windows at 4096) or on the
    4-bar archive keeps its pinned strains, stresses and assignments bit for
    bit; storing rows in strain order only re-indexed the archive's."""
    march, states, ranks = _PINNED[name]
    traj = march()
    digest = hashlib.sha256(traj.strain.tobytes() + traj.stress.tobytes()).hexdigest()
    assert digest == states
    assert hashlib.sha256(traj.assignment.astype(np.int64).tobytes()).hexdigest() == ranks


def test_a_march_starts_no_process(monkeypatch):
    """On a host taken to have two CPUs, with every process start refused,
    a march of each kind runs to its end."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def refuse(self):
        raise AssertionError("a march started a process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    for name, march in _MARCHES.items():
        traj = march()
        assert traj.n_steps > 1 and np.all(np.isfinite(traj.stress)), name
    assert multiprocessing.active_children() == []


def _recorded_steps(kind, first_objective=None):
    """``(traj, steps)``: the march ``_study_march(kind)`` and, for each of
    its steps, a dict of the response init's state (``resp``, None where it
    declines), the (start, value) pairs the march scored by their first
    iterate (``scored``), and its solves (``solves``), each as the start,
    force, time, a copy of the sets and the result. ``first_objective``,
    given the step's dict and the start, replaces the scoring."""
    steps = []
    init, score, solve = solver._empirical_response_init, solver._first_objective, solver.fixed_point_solve

    def recorded_init(*args):
        steps.append({"resp": init(*args), "scored": [], "solves": []})
        return steps[-1]["resp"]

    def recorded_score(system, sets, gm, f, g, start):
        if first_objective is None:
            value = score(system, sets, gm, f, g, start)
        else:
            value = first_objective(steps[-1], start)
        steps[-1]["scored"].append((start, value))
        return value

    def recorded_solve(system, sets, gm, f, start, cfg, *, t):
        out = solve(system, sets, gm, f, start, cfg, t=t)
        copy = StackedSets(sets.eps.copy(), sets.sig.copy(), None)
        steps[-1]["solves"].append((start, f, t, copy, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_empirical_response_init", recorded_init)
        mp.setattr(solver, "_first_objective", recorded_score)
        mp.setattr(solver, "fixed_point_solve", recorded_solve)
        return _study_march(kind), steps


def _response_lower(step, start):
    """A scoring by which the response init is strictly lower."""
    return 0.0 if start is step["resp"] else 1.0


def _same_bits(traj, k, step):
    return (
        np.array_equal(traj.strain[k], step.z.strain)
        and np.array_equal(traj.stress[k], step.z.stress)
        and np.array_equal(traj.assignment[k], step.assignment)
        and traj.iterations[k] == step.iterations
    )


class TestOneStart:
    """A step on regenerated sets is solved once, from the predicted start
    or the response init, whichever first iterate has the lower objective;
    ties and declines take the predicted start."""

    @pytest.mark.parametrize("kind", ["visco", "plastic"])
    def test_a_step_is_solved_once_from_the_lower_first_iterate(self, kind):
        """Every step runs one solve. Where the init declines, nothing is
        scored; otherwise the predicted start and the response init are,
        and the solve starts from the response init exactly when its value
        is strictly lower. The value scored is the first entry of the
        objective history of the solve from that start, and the step has
        the bits of ``fixed_point_solve`` from its start."""
        traj, steps = _recorded_steps(kind)
        sys = study_setup(default_study_config(kind, lattice=LatticeSpec(2, 1, 1), dt=5.0))[2]
        assert len(steps) == traj.n_steps == 12
        wins = 0
        for k, step in enumerate(steps):
            ((start, f, t, sets, out),) = step["solves"]
            if step["resp"] is None:
                assert step["scored"] == []
            else:
                (pred, v_pred), (resp, v_resp) = step["scored"]
                assert resp is step["resp"] and pred is not resp
                assert start is (resp if v_resp < v_pred else pred)
                assert out.objective_history[0] == (v_resp if v_resp < v_pred else v_pred)
                wins += start is resp
            expect = fixed_point_solve(sys, sets, traj.gm, f, start, SolverConfig(), t=t)
            assert _same_bits(traj, k, expect)
        # the rule decides: each start begins some steps
        assert 0 < wins < traj.n_steps

    @pytest.mark.parametrize("kind", ["visco", "plastic"])
    def test_a_strictly_lower_response_init_is_solved(self, kind):
        """Where the response init scores strictly lower, every step has the
        bits of ``fixed_point_solve`` from the response init."""
        traj, steps = _recorded_steps(kind, _response_lower)
        sys = study_setup(default_study_config(kind, lattice=LatticeSpec(2, 1, 1), dt=5.0))[2]
        for k, step in enumerate(steps):
            ((start, f, t, sets, _),) = step["solves"]
            assert step["resp"] is not None and start is step["resp"]
            expect = fixed_point_solve(sys, sets, traj.gm, f, step["resp"], SolverConfig(), t=t)
            assert _same_bits(traj, k, expect)

    @pytest.mark.parametrize("kind", ["visco", "plastic"])
    def test_ties_and_declines_take_the_predicted_start(self, monkeypatch, kind):
        """A march whose two starts always tie has the bits of a march whose
        response init always declines, and neither solves from the
        response init. Where it scores lower, the march differs."""
        tied, steps = _recorded_steps(kind, lambda step, start: 1.0)
        for step in steps:
            ((start, *_),) = step["solves"]
            assert step["resp"] is not None and start is not step["resp"]
        lower, _ = _recorded_steps(kind, _response_lower)
        monkeypatch.setattr(solver, "_empirical_response_init", lambda *args: None)
        declined = _study_march(kind)
        for name in ("strain", "stress", "assignment", "iterations"):
            assert np.array_equal(getattr(tied, name), getattr(declined, name))
        assert not np.array_equal(tied.strain, lower.strain)


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
