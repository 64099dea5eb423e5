"""Local data sets, nearest searches, conditioned generators and two-time
archives."""

from __future__ import annotations

import numpy as np
import pytest

from ddmech import data as data_module
from ddmech.data import (
    ConditioningState,
    DataPoint,
    GeneratorSpec,
    HistoryRepository,
    LocalDataSet,
    StackedSets,
    StrainIndex,
    WindowRule,
    batch_nearest,
    gaussian_fidelity_cost,
    generate_plastic_set,
    generate_sls_set,
    history_cost_dataset,
    nearest_history,
    prior_slot_costs,
    project_onto_D,
    read_datasets_csv,
    scan_nearest,
    stack_sets,
    update_history_variable,
    write_datasets_csv,
)
from ddmech.materials import PlasticParams, SlsParams, sls_affine_coefficients
from ddmech.phase import GlobalMetric, GlobalState, LocalMetric, LocalPhasePoint
from ddmech.solver import _stacked_step_sets

SLS = SlsParams(e0=75_000.0, e1=100_000.0, tau1=5.0)
PLASTIC = PlasticParams(e0=10_000.0, e1=100_000.0, sigma1=500.0, h=0.0)
METRIC = LocalMetric.from_modulus(1.0)


class TestDataPoint:
    """Sample container."""

    def test_scalar_point(self):
        p = DataPoint(1e-3, 100.0)
        assert p.strain.shape == (1,)
        assert p.fidelity_cost == 0.0

    def test_rejects_negative_cost(self):
        with pytest.raises(ValueError):
            DataPoint(0.0, 0.0, fidelity_cost=-1.0)


class TestLocalDataSet:
    """Container immutability and the nearest search."""

    def test_arrays_are_frozen(self):
        d = LocalDataSet(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        with pytest.raises(ValueError):
            d.strains[0] = 5.0

    def test_nearest_tie_takes_lowest_index(self):
        """Exactly equidistant points resolve to the first."""
        d = LocalDataSet(np.array([1.0, 1.0]), np.array([2.0, 2.0]))
        idx, p = d.nearest(LocalPhasePoint(1.0, 2.0), METRIC)
        assert idx == 0
        # symmetric pair around the query as well
        d2 = LocalDataSet(np.array([-1.0, 1.0]), np.array([0.0, 0.0]))
        idx2, _ = d2.nearest(LocalPhasePoint(0.0, 0.0), METRIC)
        assert idx2 == 0

    def test_cost_can_flip_the_winner(self):
        """Point 0 is closer but its cost moves the minimum to point 1."""
        d = LocalDataSet(
            np.array([0.0, 0.1]),
            np.array([0.0, 0.0]),
            costs=np.array([10.0, 0.0]),
        )
        idx, _ = d.nearest(LocalPhasePoint(0.0, 0.0), METRIC)
        assert idx == 1

    def test_tree_matches_scan_exactly(self, rng):
        """Large sets search through a tree; indices must equal the scan."""
        n = 400
        strains = rng.normal(size=n)
        stresses = rng.normal(size=n) * 100.0
        metric = LocalMetric.from_modulus(175_000.0)
        tree_set = LocalDataSet(strains, stresses)  # n >= 64: tree path
        scan_set = LocalDataSet(strains, stresses, costs=np.zeros(n))  # scan path
        for _ in range(200):
            z = LocalPhasePoint(rng.normal(), rng.normal() * 100.0)
            ti, tp = tree_set.nearest(z, metric)
            si, sp = scan_set.nearest(z, metric)
            assert ti == si
            assert tp.strain[0] == sp.strain[0]
        # queries sitting exactly on data points
        for i in (0, n // 2, n - 1):
            z = LocalPhasePoint(strains[i], stresses[i])
            ti, _ = tree_set.nearest(z, metric)
            si, _ = scan_set.nearest(z, metric)
            assert ti == si

    def test_from_points_round_trip(self):
        pts = [DataPoint(0.0, 0.0), DataPoint(1.0, 2.0, 0.5)]
        d = LocalDataSet.from_points(pts)
        assert d.n_points == 2
        assert d.costs is not None
        assert d.point(1).fidelity_cost == 0.5


class TestBatchSearch:
    """Stacked per-element search used by the solver hot loop."""

    def test_stack_requires_equal_sizes(self):
        a = LocalDataSet(np.zeros(3), np.zeros(3))
        b = LocalDataSet(np.zeros(4), np.zeros(4))
        assert stack_sets([a, b]) is None

    def test_batch_matches_per_element_nearest(self, rng):
        """batch_nearest equals LocalDataSet.nearest element by element on
        small sets (the scan), and equals the full scan on sets large enough
        for the strain-sorted search."""
        m = 5
        n = 40
        sets = []
        for _ in range(m):
            sets.append(
                LocalDataSet(rng.normal(size=n), rng.normal(size=n) * 50.0)
            )
        stacked = stack_sets(sets)
        c = rng.uniform(10.0, 1000.0, m)
        gm = GlobalMetric([LocalMetric.from_modulus(v) for v in c], np.ones(m))
        for _ in range(50):
            eps = rng.normal(size=m)
            sig = rng.normal(size=m) * 50.0
            idx = batch_nearest(eps, sig, stacked, gm.c_diag, gm.c_inv_diag)
            for e in range(m):
                ref, _ = sets[e].nearest(
                    LocalPhasePoint(eps[e], sig[e]), gm.locals[e]
                )
                assert idx[e] == ref

        def check(eps_rows, sig_rows, costs, queries):
            stacked = StackedSets(eps_rows, sig_rows, costs)
            rows = eps_rows.shape[0]
            assert eps_rows.size >= data_module._SORTED_SEARCH_MIN_SIZE
            c = rng.uniform(10.0, 1000.0, rows)
            for eps, sig in queries:
                got = batch_nearest(eps, sig, stacked, c, 1.0 / c)
                assert np.array_equal(got, scan_nearest(eps, sig, stacked, c, 1.0 / c))
            assert stacked.index is not None  # the sorted path ran
            return got

        m = 8
        n = data_module._SORTED_SEARCH_MIN_SIZE // m + 17
        eps_rows = rng.normal(size=(m, n))
        sig_rows = 100.0 * eps_rows + rng.normal(size=(m, n))
        near = [(rng.normal(size=m), 100.0 * rng.normal(size=m)) for _ in range(20)]
        far = [(np.full(m, s * 10.0), np.full(m, s * 1e3)) for s in (-1.0, 1.0)]
        on_data = [(eps_rows[:, 7], sig_rows[:, 7])]
        check(eps_rows, sig_rows, None, near + far + on_data)
        # fidelity costs, some of them large enough to move the winner
        costs = rng.uniform(0.0, 50.0, (m, n))
        check(eps_rows, sig_rows, costs, near + far + on_data)
        # duplicated strains with different stresses (and exact duplicates)
        dup_eps = np.round(eps_rows, 1)
        dup_sig = rng.normal(size=(m, n)) * 20.0
        half = n // 2
        dup_eps[:, half : 2 * half] = dup_eps[:, :half]
        dup_sig[:, half : 2 * half] = dup_sig[:, :half]
        check(dup_eps, dup_sig, None, near + far)
        check(dup_eps, dup_sig, np.round(costs), near + far)
        # exact ties symmetric about the query: strains x -+ 0.5, equal
        # stress, with the lower index on the left in even rows and on the
        # right in odd rows; the lowest index must win
        tie_eps = rng.uniform(10.0, 20.0, (m, n))
        tie_sig = np.zeros((m, n))
        lo_j = 100 + np.arange(m)
        hi_j = 5000 + np.arange(m)
        left = np.where(np.arange(m) % 2 == 0, lo_j, hi_j)
        right = np.where(np.arange(m) % 2 == 0, hi_j, lo_j)
        tie_eps[np.arange(m), left] = -0.5
        tie_eps[np.arange(m), right] = 0.5
        got = check(tie_eps, tie_sig, None, [(np.zeros(m), np.zeros(m))])
        assert np.array_equal(got, lo_j)
        # one-point rows
        ones = data_module._SORTED_SEARCH_MIN_SIZE
        one_eps = rng.normal(size=(ones, 1))
        query = (rng.normal(size=ones), rng.normal(size=ones))
        got = check(one_eps, one_eps * 3.0, None, [query])
        assert np.all(got == 0)

    def test_row_search_equals_searchsorted(self, rng):
        """StrainIndex.search gives np.searchsorted's left position per row,
        for repeated strains, values on data, infinities and NaN."""
        for n in (1, 2, 3, 7, 64, 1000):
            strains = rng.normal(size=(5, n))
            strains[:, : n // 2] = np.round(strains[:, : n // 2], 1)
            index = StrainIndex(strains)
            specials = np.tile([np.nan, np.inf, -np.inf], (5, 1))
            x = np.concatenate([rng.normal(size=(5, 20)), strains[:, :3], specials], axis=1)
            expect = [np.searchsorted(index.eps[e], x[e]) for e in range(5)]
            assert np.array_equal(index.search(x), np.array(expect))

    def test_project_onto_d_gathers_nearest(self, rng):
        m = 3
        sets = [
            LocalDataSet(rng.normal(size=10), rng.normal(size=10)) for _ in range(m)
        ]
        gm = GlobalMetric.uniform(1.0, np.ones(m))
        z = GlobalState(rng.normal(size=m), rng.normal(size=m))
        idx, y = project_onto_D(z, sets, gm)
        for e in range(m):
            assert y.strain[e, 0] == sets[e].strains[idx[e], 0]


class TestWindowRule:
    """Sampling window half-width."""

    def test_rule_takes_the_largest_driver(self):
        rule = WindowRule(incr_factor=4.0, band_factor=8.0)
        assert rule.resolve(0.01, 0.002) == 0.08  # band-dominated
        assert rule.resolve(0.001, 0.01) == 0.04  # increment-dominated

    def test_fixed_halfwidth_wins(self):
        assert WindowRule(halfwidth=0.05).resolve(10.0, 10.0) == 0.05

    def test_collapsed_window_rejected(self):
        with pytest.raises(ValueError):
            WindowRule(incr_factor=1.0, band_factor=1.0, floor=0.0).resolve(0.0, 0.0)

    def test_halfwidths_equal_resolve_per_entry(self):
        """The vectorized rule gives every entry the scalar rule's value."""
        est = np.array([0.0, 2e-3, -0.01, 0.03, -1e-9])
        for rule in (
            WindowRule(incr_factor=4.0, band_factor=8.0),
            WindowRule(incr_factor=3.0, band_factor=0.0, floor=1e-9),
            WindowRule(halfwidth=0.05),
        ):
            hw = rule.halfwidths(0.01, est)
            assert hw.shape == est.shape
            assert [float(v) for v in hw] == [rule.resolve(0.01, x) for x in est]
        with pytest.raises(ValueError):
            WindowRule(incr_factor=1.0, band_factor=1.0).halfwidths(0.0, est)


class TestGenerators:
    """Conditioned one-step data set generators."""

    def test_sls_points_lie_on_the_response_line(self, rng):
        cond = ConditioningState(1e-3, 140.0)
        g = GeneratorSpec(law=SLS, n_points=64, band_width=1e-4, rng_seed=3)
        d = generate_sls_set(cond, g, rng, step_estimate=2e-4)
        a, b = sls_affine_coefficients(cond, SLS, g.dt)
        assert np.array_equal(d.stresses[:, 0], float(a[0]) + b * d.strains[:, 0])

    def test_grid_sampling_is_deterministic(self):
        cond = ConditioningState(0.0, 0.0)
        g = GeneratorSpec(law=SLS, n_points=32, band_width=1e-3, rng_seed=7)
        d1 = generate_sls_set(cond, g, np.random.default_rng(11))
        d2 = generate_sls_set(cond, g, np.random.default_rng(11))
        assert np.array_equal(d1.strains, d2.strains)

    def test_noiseless_grid_centers_on_prediction(self):
        """With band 0 the window center is itself a sample point."""
        cond = ConditioningState(1e-3, 100.0)
        g = GeneratorSpec(law=SLS, n_points=33, window=WindowRule(floor=1e-3))
        d = generate_sls_set(cond, g, step_estimate=5e-4)
        center = float(cond.prev_strain[0] + 5e-4)
        assert np.min(np.abs(d.strains[:, 0] - center)) == 0.0

    def test_plastic_generator_uses_recovered_state(self):
        """The internal variable comes from (eps_k, sig_k) alone."""
        # state after yielding: eps=0.01, sigma=600 implies q=0.005, which
        # puts the state on the yield surface (e1 (eps - q) = 500 = sigma1);
        # further loading is plastic, so sample the elastic unloading side,
        # eps in [0.007, 0.009], where a generator that took q=0 would still
        # be yielding
        cond = ConditioningState(1e-2, 600.0, q_acc=5e-3)
        g = GeneratorSpec(law=PLASTIC, n_points=9, window=WindowRule(halfwidth=1e-3))
        d = generate_plastic_set(cond, g, step_estimate=-2e-3)
        eps = d.strains[:, 0]
        sig = d.stresses[:, 0]
        assert eps.min() == pytest.approx(7e-3, rel=1e-12)
        assert eps.max() == pytest.approx(9e-3, rel=1e-12)
        # elastic unloading about the recovered state: slope e0 + e1
        inc = np.diff(sig) / np.diff(eps)
        assert np.all(np.abs(inc - (PLASTIC.e0 + PLASTIC.e1)) < 1e-6)
        expected = 600.0 + (PLASTIC.e0 + PLASTIC.e1) * (eps - 1e-2)
        np.testing.assert_allclose(sig, expected, rtol=1e-12, atol=1e-9)

    def test_batched_march_sets_equal_public_generators(self, rng):
        """The vectorized per-step draw matches the one-element generators
        bit for bit, for both laws and both step kinds."""
        m = 3
        eps_prev = rng.normal(scale=1e-3, size=m)
        est = rng.normal(scale=1e-4, size=m)
        for law, q_acc, sig_scale in (
            (SLS, np.zeros(m), 150.0),
            (PLASTIC, np.abs(rng.normal(scale=1e-3, size=m)), 400.0),
        ):
            sig_prev = rng.normal(scale=sig_scale, size=m)
            g = GeneratorSpec(
                law=law,
                n_points=17,
                band_width=2e-4,
                window=WindowRule(incr_factor=4.0, band_factor=8.0, floor=1e-9),
                rng_seed=42,
                dt=1.0,
            )
            for step, dt in ((0, None), (3, 1.0)):
                stacked = _stacked_step_sets(
                    g, eps_prev, sig_prev, q_acc, est, dt, step
                )
                for e in range(m):
                    cond = ConditioningState(
                        eps_prev[e], sig_prev[e], q_acc=float(q_acc[e])
                    )
                    gen_rng = np.random.default_rng(
                        np.random.SeedSequence([42, step, e])
                    )
                    if isinstance(law, SlsParams):
                        d = generate_sls_set(
                            cond, g, gen_rng, dt=dt, step_estimate=float(est[e])
                        )
                    else:
                        d = generate_plastic_set(
                            cond, g, gen_rng, step_estimate=float(est[e])
                        )
                    assert np.array_equal(stacked.eps[e], d.strains[:, 0])
                    assert np.array_equal(stacked.sig[e], d.stresses[:, 0])


class TestHistoryVariable:
    """Accumulated-slip tracking from accepted increments."""

    def test_frozen_increment(self):
        """(110000 * 0.01 - 600) / 100000 = 0.005."""
        cond = ConditioningState(0.0, 0.0, q_acc=0.0)
        q = update_history_variable(cond, LocalPhasePoint(1e-2, 600.0), PLASTIC)
        assert q == pytest.approx(5e-3, rel=1e-12)

    def test_monotone_under_any_path(self, rng):
        q = 0.0
        eps, sig = 0.0, 0.0
        for _ in range(100):
            new_eps = eps + rng.normal(scale=1e-3)
            new_sig = sig + rng.normal(scale=50.0)
            cond = ConditioningState(eps, sig, q_acc=q)
            q_new = update_history_variable(
                cond, LocalPhasePoint(new_eps, new_sig), PLASTIC
            )
            assert q_new >= q
            q, eps, sig = q_new, new_eps, new_sig


class TestFidelityCost:
    """Gaussian uncertainty cost."""

    def test_frozen_value(self):
        """2 * (1 * 0.1^2 + 2 * 0.2^2) = 0.18."""
        assert gaussian_fidelity_cost([0.1, 0.2], [1, 2]) == pytest.approx(0.18)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gaussian_fidelity_cost([-0.1], [1])


class TestHistoryRepository:
    """Two-time archives and their cost-dataset reduction."""

    def repo(self):
        return HistoryRepository(
            eps_prev=np.array([0.0, 0.0, 1e-3]),
            sig_prev=np.array([0.0, 100.0, 160.0]),
            eps_cur=np.array([1e-3, 1e-3, 1e-3]),
            sig_cur=np.array([175.0, 150.0, 140.0]),
        )

    def test_rejects_ragged_slots(self):
        with pytest.raises(ValueError):
            HistoryRepository(np.zeros(2), np.zeros(3), np.zeros(2), np.zeros(2))

    def test_nearest_history_weighs_both_slots(self):
        h = self.repo()
        metric = LocalMetric.from_modulus(1.0)
        prior = LocalPhasePoint(0.0, 100.0)
        current = LocalPhasePoint(1e-3, 150.0)
        idx, (cur, prev) = nearest_history((current, prior), h, metric)
        assert idx == 1
        assert cur.stress[0] == 150.0
        assert prev.stress[0] == 100.0

    def test_zero_prior_weight_reduces_to_plain_search(self):
        h = HistoryRepository(
            eps_prev=np.zeros(2),
            sig_prev=np.array([0.0, 1e6]),
            eps_cur=np.array([0.0, 1e-3]),
            sig_cur=np.array([0.0, 175.0]),
            weights=(1.0, 0.0),
        )
        d = history_cost_dataset(h, LocalPhasePoint(0.0, 0.0), METRIC)
        assert d.costs is None

    def test_cost_dataset_equals_weighted_prior_distance(self):
        h = self.repo()
        metric = LocalMetric.from_modulus(2.0)
        z_prev = LocalPhasePoint(1e-3, 120.0)
        d = history_cost_dataset(h, z_prev, metric)
        assert d.costs is not None
        for i in range(3):
            de = h.eps_prev[i] - 1e-3
            ds = h.sig_prev[i] - 120.0
            expect = 2.0 * de * de + ds * ds / 2.0
            assert d.costs[i] == pytest.approx(expect, rel=1e-12)

    def test_cost_dataset_reproduces_nearest_history(self, rng):
        """Searching the cost dataset equals the two-slot search."""
        n = 30
        h = HistoryRepository(
            rng.normal(size=n),
            rng.normal(size=n) * 100.0,
            rng.normal(size=n),
            rng.normal(size=n) * 100.0,
            weights=(1.0, 0.7),
        )
        metric = LocalMetric.from_modulus(175.0)
        for _ in range(20):
            prior = LocalPhasePoint(rng.normal(), rng.normal() * 100.0)
            current = LocalPhasePoint(rng.normal(), rng.normal() * 100.0)
            ref_idx, _ = nearest_history((current, prior), h, metric)
            d = history_cost_dataset(h, prior, metric)
            got_idx, _ = d.nearest(current, metric)
            assert got_idx == ref_idx

    def test_stacked_costs_equal_cost_datasets(self, rng):
        """Each row of the stacked costs equals the cost dataset's costs
        bit for bit; zero prior weight gives a zero row, all zero gives None,
        and a non-finite cost is rejected as LocalDataSet rejects it."""
        n = 30
        repos = [
            HistoryRepository(
                rng.normal(size=n),
                rng.normal(size=n) * 100.0,
                rng.normal(size=n),
                rng.normal(size=n) * 100.0,
                weights=w,
            )
            for w in ((1.0, 0.7), (2.0, 0.0), (0.5, 3.0))
        ]
        metrics = [LocalMetric.from_modulus(v) for v in (175.0, 2.0, 9.0)]
        gm = GlobalMetric(metrics, np.ones(3))
        z_prev = GlobalState(rng.normal(size=3), rng.normal(size=3) * 100.0)
        costs = prior_slot_costs(repos, z_prev, gm)
        for e, h in enumerate(repos):
            d = history_cost_dataset(h, z_prev.point(e), gm.locals[e])
            expect = np.zeros(n) if d.costs is None else d.costs
            assert np.array_equal(costs[e], expect)
        one = GlobalMetric(metrics[1:2], [1.0])
        assert prior_slot_costs(repos[1:2], z_prev, one) is None
        huge = GlobalState(np.full(3, 1e200), np.zeros(3))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite and nonn"):
            prior_slot_costs(repos, huge, gm)


class TestDatasetCsv:
    """Round trip of the per-step data dump."""

    def test_round_trip(self, tmp_path, rng):
        d0 = LocalDataSet(rng.normal(size=4), rng.normal(size=4))
        d1 = LocalDataSet(
            rng.normal(size=3), rng.normal(size=3), costs=np.abs(rng.normal(size=3))
        )
        path = tmp_path / "sets.csv"
        write_datasets_csv(path, [(0, 0, d0), (0, 1, d1)])
        rows = read_datasets_csv(path)
        assert [(s, e) for s, e, _ in rows] == [(0, 0), (0, 1)]
        back0 = rows[0][2]
        assert np.array_equal(back0.strains, d0.strains)
        back1 = rows[1][2]
        assert np.array_equal(back1.costs, d1.costs)

    def test_lf_line_endings(self, tmp_path):
        d = LocalDataSet(np.zeros(2), np.zeros(2))
        path = tmp_path / "sets.csv"
        write_datasets_csv(path, [(0, 0, d)])
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.startswith(b"step,element,strain,stress,cost\n")
