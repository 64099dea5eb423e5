"""Fixed-point step solver, enumeration oracle and the conditioned marches."""

from __future__ import annotations

import numpy as np
import pytest

from ddmech.data import (
    GeneratorSpec,
    HistoryRepository,
    LocalDataSet,
    WindowRule,
    stack_sets,
)
from ddmech.experiments import (
    DEFAULT_PLASTIC,
    DEFAULT_SLS,
    PLASTIC_BREAKPOINTS,
    RelaxationConfig,
    build_truss_repositories,
    random_small_instance,
    run_relaxation,
    small_truss_fixture,
    trajectory_norm,
    weighted_l2_error,
)
from ddmech.phase import GlobalMetric, global_distance_sq
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
    write_summary_csv,
)
from ddmech.truss import LoadProgram, TrussMesh, assemble


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


class TestSolverConfig:
    """Validation."""

    def test_rejects_bad_strategy(self):
        with pytest.raises(ValueError):
            SolverConfig(init_strategy="warm")

    def test_rejects_nonpositive_iters(self):
        with pytest.raises(ValueError):
            SolverConfig(max_fixed_point_iters=0)


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
                global_distance_sq(out.z, out.y, gm), rel=1e-12
            )

    def test_result_is_single_swap_optimal(self, rng):
        """No single reassignment of any element lowers the objective."""
        for _ in range(30):
            _, gm, sys, sets, f = random_small_instance(rng)
            out = fixed_point_solve(sys, sets, gm, f)
            base = out.objective_history[-1]
            tol = 1e-9 * max(1.0, base)
            for e in range(sys.n_elements):
                y_eps = out.y.strain[:, 0].copy()
                y_sig = out.y.stress[:, 0].copy()
                for j in range(sets[e].n_points):
                    y_eps[e] = sets[e].strains[j, 0]
                    y_sig[e] = sets[e].stresses[j, 0]
                    assert manual_objective(sys, y_eps, y_sig, f) >= base - tol

    def test_kuhn_tucker_residuals(self, rng):
        """Stationarity of the constrained projection at the returned state."""
        for _ in range(30):
            _, gm, sys, sets, f = random_small_instance(rng)
            out = fixed_point_solve(sys, sets, gm, f)
            eps = out.z.strain[:, 0]
            sig = out.z.stress[:, 0]
            y_eps = out.y.strain[:, 0]
            y_sig = out.y.stress[:, 0]
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
            float(np.linalg.norm(sys.b_free.T @ (sys.weights * out.z.stress[:, 0]) - f)),
            abs=1e-12,
        )

    def test_iteration_cap_flags_nonconvergence(self, rng):
        """A one-iteration budget cannot confirm a fixed point."""
        _, gm, sys, sets, f = random_small_instance(rng)
        out = fixed_point_solve(
            sys, sets, gm, f, cfg=SolverConfig(max_fixed_point_iters=1, swap_polish=False)
        )
        assert not out.converged

    def test_duplicate_points_resolve_to_lowest_index(self):
        """Exact data ties neither oscillate nor move off the first copy."""
        _, gm, sys = one_bar_system(modulus=1000.0)
        # two identical best points, one decoy
        sets = [LocalDataSet(np.array([1e-3, 1e-3, 5.0]), np.array([1.0, 1.0, 0.0]))]
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
        """-1, a set's own size and the padded width are rejected, on the
        list and on its stack alike, instead of reading another point."""
        sys, gm, sets, f = ragged_instance()
        stacked = stack_sets(sets)
        init = np.zeros(3, dtype=np.int64)
        init[1] = {"negative": -1, "length": stacked.lengths[1],
                   "padded width": stacked.eps.shape[1]}[bad]
        for data in (sets, stacked):
            with pytest.raises(ValueError, match="init_assignment"):
                fixed_point_solve(sys, data, gm, f, init_assignment=init)

    def test_lists_are_solved_as_their_stack(self):
        """A ragged list and its padded stack give the same fixed point and
        the same enumerated minimum, bit for bit."""
        sys, gm, sets, f = ragged_instance()
        stacked = stack_sets(sets)
        for solve in (fixed_point_solve, enumerate_global_min):
            a = solve(sys, sets, gm, f)
            b = solve(sys, stacked, gm, f)
            assert np.array_equal(a.assignment, b.assignment)
            assert a.objective_history == b.objective_history
            assert np.array_equal(a.z.strain, b.z.strain)
            assert np.array_equal(a.z.stress, b.z.stress)
            assert np.all(a.assignment < stacked.lengths)


def ragged_instance():
    """Three bars on one free node with sets of 7, 3 and 12 points, the
    middle one with fidelity costs."""
    rng = np.random.default_rng(31)
    for _ in range(64):
        _, gm, sys, _, f = random_small_instance(rng)
        if sys.n_elements == 3:
            break
    sets = []
    for e, n in enumerate((7, 3, 12)):
        eps = rng.normal(scale=0.2, size=n)
        sig = sys.c[e] * rng.normal(scale=0.2, size=n)
        costs = rng.uniform(0.0, 5.0, n) if e == 1 else None
        sets.append(LocalDataSet(eps, sig, costs))
    return sys, gm, sets, f


class TestEnumeration:
    """Exhaustive oracle on instances small enough to scan."""

    def test_matches_manual_scan(self, rng):
        """Oracle objective equals the best of all assignments recomputed
        from scratch."""
        for _ in range(10):
            _, gm, sys, sets, f = random_small_instance(rng, max_points=6)
            oracle = enumerate_global_min(sys, sets, gm, f)
            counts = [d.n_points for d in sets]
            best = np.inf
            for lin in range(int(np.prod(counts))):
                idx = np.unravel_index(lin, counts)
                y_eps = np.array([sets[e].strains[i, 0] for e, i in enumerate(idx)])
                y_sig = np.array([sets[e].stresses[i, 0] for e, i in enumerate(idx)])
                best = min(best, manual_objective(sys, y_eps, y_sig, f))
            assert oracle.objective_history[-1] == pytest.approx(best, rel=1e-12)

    def test_tie_breaks_lexicographically(self):
        """Duplicated points give equal objectives; the smallest assignment
        index vector wins."""
        _, gm, sys = one_bar_system()
        sets = [LocalDataSet(np.array([1e-3, 1e-3]), np.array([1.0, 1.0]))]
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
        and returns states taken from the data."""
        mesh, gm, loads, _ = small_truss_fixture()
        sys = assemble(mesh, gm)
        f = loads.forces(10.0)
        est = sys.elastic_strain_increment(f, None, None, None)
        g = GeneratorSpec(
            law=DEFAULT_SLS,
            n_points=2048,
            window=WindowRule(incr_factor=4.0, band_factor=8.0, floor=1e-9),
        )
        stacked = _stacked_step_sets(
            g, np.zeros(4), np.zeros(4), np.zeros(4), est, None, 0
        )
        out = _empirical_response_init(sys, stacked, f, np.zeros(4), est)
        assert out is not None
        res = np.linalg.norm(f - sys.b_free.T @ (sys.weights * out.stress[:, 0]))
        assert res <= 1e-2 * np.linalg.norm(f)
        for e in range(4):
            assert out.strain[e, 0] in stacked.eps[e]
            assert out.stress[e, 0] in stacked.sig[e]


class TestTimeMarch:
    """Conditioned differential marches."""

    def test_relaxation_against_closed_form(self):
        """Held bar with noiseless data reproduces the exact recurrence."""
        result = run_relaxation(RelaxationConfig(n_points=128))
        assert result.max_rel_error < 1e-6
        assert result.instantaneous_modulus_ratio == pytest.approx(
            175_000.0, rel=1e-9
        )
        assert bool(np.all(result.trajectory.converged))

    def test_first_step_is_instantaneous(self):
        """A single-time march sees the rate-free response."""
        result = run_relaxation(RelaxationConfig(n_points=64, t_end=0.0))
        assert result.trajectory.n_steps == 1
        assert result.instantaneous_modulus_ratio == pytest.approx(
            175_000.0, rel=1e-9
        )

    def test_bit_reproducible(self):
        """Same seed, same march, same bits."""
        mesh, gm, loads, times = small_truss_fixture(t_end=6.0)
        g = GeneratorSpec(
            law=DEFAULT_SLS,
            n_points=64,
            band_width=5e-4,
            window=WindowRule(incr_factor=4.0, band_factor=8.0, floor=1e-9),
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
            window=WindowRule(incr_factor=4.0, band_factor=8.0, floor=1e-9),
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
            window=WindowRule(incr_factor=4.0, band_factor=8.0, floor=1e-9),
        )
        traj = time_march(mesh, gm, g, loads, times, SolverConfig())
        assert bool(np.all(traj.converged))
        f_scale = max(1.0, float(np.max(np.abs(loads.base_forces))))
        assert float(np.max(traj.equilibrium_residual)) <= 1e-8 * f_scale

    def test_dataset_sink_sees_every_step(self):
        mesh, gm, loads, times = small_truss_fixture(t_end=4.0)
        g = GeneratorSpec(
            law=DEFAULT_SLS,
            n_points=16,
            window=WindowRule(incr_factor=4.0, band_factor=8.0, floor=1e-9),
        )
        seen: list[tuple[int, int]] = []
        time_march(
            mesh, gm, g, loads, times, SolverConfig(),
            dataset_sink=lambda k, sets: seen.append((k, len(sets))),
        )
        assert seen == [(k, 4) for k in range(times.size)]

    def test_rejects_bad_time_grid(self):
        mesh, gm, loads, _ = small_truss_fixture()
        g = GeneratorSpec(law=DEFAULT_SLS, n_points=8)
        with pytest.raises(ValueError):
            time_march(mesh, gm, g, loads, [0.0, 2.0, 1.0], SolverConfig())

    def test_init_strategies_all_run(self):
        """Every warm-start policy produces a converged march here."""
        mesh, gm, loads, times = small_truss_fixture(t_end=5.0)
        g = GeneratorSpec(
            law=DEFAULT_SLS,
            n_points=128,
            window=WindowRule(incr_factor=4.0, band_factor=8.0, floor=1e-9),
        )
        for strategy in ("response", "predicted", "previous", "zero"):
            traj = time_march(
                mesh, gm, g, loads, times, SolverConfig(init_strategy=strategy)
            )
            assert bool(np.all(traj.converged)), strategy


class TestHistoryMatchingMarch:
    """March against fixed two-time archives."""

    def test_repository_count_checked(self):
        mesh, gm, loads, times = small_truss_fixture()
        with pytest.raises(ValueError):
            history_matching_march(mesh, gm, [], loads, times, SolverConfig())

    def test_agrees_with_differential_mode(self):
        """Archive march tracks the regenerated march on the pyramid."""
        mesh, gm, loads, times = small_truss_fixture(t_end=10.0)
        g = GeneratorSpec(
            law=DEFAULT_SLS,
            n_points=2048,
            window=WindowRule(incr_factor=4.0, band_factor=8.0, floor=1e-5),
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

    def test_ragged_archives_match_the_stacked_march(self):
        """Archives of different sizes are padded; a far entry that is never
        chosen leaves the march equal to the one on equal archives."""
        mesh, gm, loads, times = small_truss_fixture(t_end=4.0)
        repos = build_truss_repositories(
            mesh, gm, DEFAULT_SLS, loads, times,
            n_prior_strain=3, n_prior_offset=5, n_current=9,
        )
        h = repos[1]
        ragged = list(repos)
        ragged[1] = HistoryRepository(
            np.append(h.eps_prev, 1e3),
            np.append(h.sig_prev, 1e8),
            np.append(h.eps_cur, 1e3),
            np.append(h.sig_cur, 1e8),
            h.weights,
        )
        cfg = SolverConfig(init_strategy="predicted")
        stacked = history_matching_march(mesh, gm, repos, loads, times, cfg)
        listed = history_matching_march(mesh, gm, ragged, loads, times, cfg)
        assert np.array_equal(listed.strain, stacked.strain)
        assert np.array_equal(listed.stress, stacked.stress)
        assert np.array_equal(listed.assignment, stacked.assignment)

    @pytest.mark.parametrize("march", [time_march, history_matching_march])
    def test_abort_reports_iterations_and_objective(self, march):
        """Both marches name the step, iterations and objective on abort."""
        mesh, gm, loads, times = small_truss_fixture(t_end=2.0)
        if march is time_march:
            data = GeneratorSpec(
                law=DEFAULT_SLS,
                n_points=16,
                window=WindowRule(incr_factor=4.0, band_factor=8.0, floor=1e-9),
            )
        else:
            data = build_truss_repositories(
                mesh, gm, DEFAULT_SLS, loads, times,
                n_prior_strain=3, n_prior_offset=5, n_current=9,
            )
        cfg = SolverConfig(
            max_fixed_point_iters=1, swap_polish=False, abort_on_nonconvergence=True
        )
        message = r"at step \d+ \(t=.*\): 1 iterations, objective "
        with pytest.raises(RuntimeError, match=message):
            march(mesh, gm, data, loads, times, cfg)


class TestTrajectoryOutput:
    """CSV export and the summary dictionary."""

    def make_traj(self):
        mesh, gm, loads, times = small_truss_fixture(t_end=3.0)
        g = GeneratorSpec(
            law=DEFAULT_SLS,
            n_points=32,
            window=WindowRule(incr_factor=4.0, band_factor=8.0, floor=1e-9),
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

    def test_summary_fields(self, tmp_path):
        traj = self.make_traj()
        summary = trajectory_summary(traj)
        assert summary["n_steps"] == traj.n_steps
        assert summary["n_elements"] == 4
        assert summary["all_converged"] is True
        assert summary["final_time"] == 3.0
        path = tmp_path / "summary.csv"
        write_summary_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0].split(",")[0] == "n_steps"
        assert len(lines) == 2

    def test_summary_counts_nonconverged_steps(self, tmp_path):
        """A march at its iteration cap reports its unconfirmed steps."""
        mesh, gm, loads, times = small_truss_fixture(t_end=3.0)
        g = GeneratorSpec(
            law=DEFAULT_SLS,
            n_points=32,
            window=WindowRule(incr_factor=4.0, band_factor=8.0, floor=1e-9),
        )
        cfg = SolverConfig(max_fixed_point_iters=1, swap_polish=False)
        traj = time_march(mesh, gm, g, loads, times, cfg)
        summary = trajectory_summary(traj)
        assert summary["n_nonconverged"] == np.count_nonzero(~traj.converged) > 0
        assert summary["all_converged"] is False
        assert trajectory_summary(self.make_traj())["n_nonconverged"] == 0
        path = tmp_path / "summary.csv"
        write_summary_csv(traj, path)
        header, row = (line.split(",") for line in path.read_text().splitlines())
        assert row[header.index("n_nonconverged")] == str(summary["n_nonconverged"])
