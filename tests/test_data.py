"""Local data sets, nearest searches, the conditioned per-step draw and
two-time archives."""

from __future__ import annotations

import re

import numpy as np
import pytest

from ddmech import data as data_module
from ddmech.data import (
    ConditioningState,
    GeneratorSpec,
    HistoryRepository,
    LocalDataSet,
    StackedSets,
    StrainIndex,
    WindowRule,
    batch_nearest,
    gaussian_fidelity_cost,
    history_cost_dataset,
    nearest_history,
    prior_slot_costs,
    read_datasets_csv,
    scan_nearest,
    stack_sets,
    update_history_variable,
    write_datasets_csv,
)
from ddmech.materials import (
    PlasticParams,
    SlsParams,
    plastic_return_map,
    sls_affine_coefficients,
)
from ddmech.phase import GlobalMetric, GlobalState, LocalMetric, LocalPhasePoint
from ddmech.solver import _stacked_step_sets

SLS = SlsParams(e0=75_000.0, e1=100_000.0, tau1=5.0)
PLASTIC = PlasticParams(e0=10_000.0, e1=100_000.0, sigma1=500.0, h=0.0)
METRIC = LocalMetric.from_modulus(1.0)


class TestLocalDataSet:
    """Container immutability and the nearest search."""

    def test_arrays_are_frozen(self):
        d = LocalDataSet(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        with pytest.raises(ValueError):
            d.strains[0] = 5.0

    def test_rejects_negative_cost(self):
        with pytest.raises(ValueError, match="nonnegative"):
            LocalDataSet(np.zeros(2), np.zeros(2), costs=np.array([0.0, -1.0]))

    def test_nearest_tie_takes_lowest_index(self):
        """Exactly equidistant points resolve to the first."""
        d = LocalDataSet(np.array([1.0, 1.0]), np.array([2.0, 2.0]))
        idx, p = d.nearest(LocalPhasePoint(1.0, 2.0), METRIC)
        assert idx == 0
        assert isinstance(p, LocalPhasePoint)
        assert (p.strain.shape, p.strain[0], p.stress[0]) == ((1,), 1.0, 2.0)
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


class TestBatchSearch:
    """Stacked per-element search used by the solver hot loop."""

    def test_stack_pads_ragged_sets(self, rng):
        """Shorter sets are padded to the longest: each padded entry repeats
        its row's last point with cost +inf, and ``lengths`` keeps the true
        sizes; equal sets without costs stack with no costs and no lengths."""
        sizes = (3, 5, 1)
        sets = [
            LocalDataSet(rng.normal(size=n), rng.normal(size=n), costs)
            for n, costs in zip(sizes, (np.ones(3), None, None))
        ]
        stacked = stack_sets(sets)
        assert stacked.eps.shape == stacked.sig.shape == stacked.costs.shape == (3, 5)
        assert stacked.lengths.tolist() == list(sizes)
        for e, (d, n) in enumerate(zip(sets, sizes)):
            assert np.array_equal(stacked.eps[e, :n], d.strains[:, 0])
            assert np.array_equal(stacked.sig[e, :n], d.stresses[:, 0])
            assert np.all(stacked.eps[e, n:] == d.strains[-1, 0])
            assert np.all(stacked.sig[e, n:] == d.stresses[-1, 0])
            expect = np.ones(n) if e == 0 else np.zeros(n)
            assert np.array_equal(stacked.costs[e, :n], expect)
            assert np.all(stacked.costs[e, n:] == np.inf)
        equal = stack_sets(sets[1:2] * 2)
        assert equal.costs is None and equal.lengths is None
        assert np.array_equal(equal.eps, np.stack([sets[1].strains[:, 0]] * 2))
        with pytest.raises(ValueError, match="at least one"):
            stack_sets([])

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

    @pytest.mark.parametrize(
        "cls, kwargs",
        [
            (WindowRule, {"halfwidth": np.nan}),
            (WindowRule, {"halfwidth": np.inf}),
            (WindowRule, {"floor": np.nan}),
            (WindowRule, {"floor": np.inf}),
            (WindowRule, {"incr_factor": np.inf}),
            (WindowRule, {"band_factor": np.nan}),
            (GeneratorSpec, {"law": SLS, "n_points": 8, "band_width": np.nan}),
            (GeneratorSpec, {"law": SLS, "n_points": 8, "band_width": np.inf}),
            (GeneratorSpec, {"law": SLS, "n_points": 8, "window_scale": np.nan}),
            (GeneratorSpec, {"law": SLS, "n_points": 8, "window_scale": np.inf}),
        ],
        ids=lambda v: v.__name__ if isinstance(v, type) else str(list(v.items())[-1]),
    )
    def test_rejects_non_finite_settings(self, cls, kwargs):
        """The window and the draw spec are the only checks on the per-step
        draw, so a NaN or infinite setting must not get through."""
        with pytest.raises(ValueError, match="finite"):
            cls(**kwargs)


def draw_sets(g, eps_prev, sig_prev, est, *, q_acc=None, dt=1.0, step=0):
    """The per-step draw for the given previous states, one row each."""
    eps_prev = np.atleast_1d(np.asarray(eps_prev, dtype=float))
    q_acc = np.zeros(eps_prev.size) if q_acc is None else np.atleast_1d(q_acc)
    return _stacked_step_sets(
        g,
        eps_prev,
        np.atleast_1d(np.asarray(sig_prev, dtype=float)),
        q_acc,
        np.atleast_1d(np.asarray(est, dtype=float)),
        dt,
        step,
    )


class TestGenerators:
    """The conditioned one-step data set draw (one row per element)."""

    def test_sls_points_lie_on_the_response_line(self):
        cond = ConditioningState(1e-3, 140.0)
        g = GeneratorSpec(law=SLS, n_points=64, band_width=1e-4, rng_seed=3)
        d = draw_sets(g, 1e-3, 140.0, 2e-4)
        a, b = sls_affine_coefficients(cond, SLS, 1.0)
        assert np.array_equal(d.sig[0], float(a[0]) + b * d.eps[0])

    def test_grid_sampling_is_deterministic(self):
        g = GeneratorSpec(law=SLS, n_points=32, band_width=1e-3, rng_seed=7)
        d1 = draw_sets(g, 0.0, 0.0, 0.0, step=4)
        d2 = draw_sets(g, 0.0, 0.0, 0.0, step=4)
        assert np.array_equal(d1.eps, d2.eps)

    def test_noiseless_grid_centers_on_prediction(self):
        """With band 0 the window center is itself a sample point."""
        g = GeneratorSpec(law=SLS, n_points=33, window=WindowRule(floor=1e-3))
        d = draw_sets(g, 1e-3, 100.0, 5e-4)
        center = 1e-3 + 5e-4
        assert np.min(np.abs(d.eps[0] - center)) == 0.0

    def test_plastic_generator_uses_recovered_state(self):
        """The internal variable comes from (eps_k, sig_k) alone."""
        # state after yielding: eps=0.01, sigma=600 implies q=0.005, which
        # puts the state on the yield surface (e1 (eps - q) = 500 = sigma1);
        # further loading is plastic, so sample the elastic unloading side,
        # eps in [0.007, 0.009], where a generator that took q=0 would still
        # be yielding
        g = GeneratorSpec(law=PLASTIC, n_points=9, window=WindowRule(halfwidth=1e-3))
        d = draw_sets(g, 1e-2, 600.0, -2e-3, q_acc=5e-3)
        eps = d.eps[0]
        sig = d.sig[0]
        assert eps.min() == pytest.approx(7e-3, rel=1e-12)
        assert eps.max() == pytest.approx(9e-3, rel=1e-12)
        # elastic unloading about the recovered state: slope e0 + e1
        inc = np.diff(sig) / np.diff(eps)
        assert np.all(np.abs(inc - (PLASTIC.e0 + PLASTIC.e1)) < 1e-6)
        expected = 600.0 + (PLASTIC.e0 + PLASTIC.e1) * (eps - 1e-2)
        np.testing.assert_allclose(sig, expected, rtol=1e-12, atol=1e-9)

    @pytest.mark.parametrize("law", [SLS, PLASTIC], ids=["sls", "plastic"])
    def test_uniform_sampling_in_window_on_law_and_per_element(self, law, rng):
        """sampling="uniform" draws every strain inside the window about the
        predicted strain, puts every stress on the law's one-step response,
        and seeds each row from (seed, step, element) alone."""
        m, n, hw = 4, 256, 2e-3
        eps_prev = rng.normal(scale=1e-3, size=m)
        sig_prev = rng.normal(scale=400.0, size=m)
        q_acc = np.abs(rng.normal(scale=1e-3, size=m))
        est = rng.normal(scale=1e-4, size=m)
        g = GeneratorSpec(
            law=law, n_points=n, window=WindowRule(halfwidth=hw), rng_seed=5,
            sampling="uniform",
        )
        d = draw_sets(g, eps_prev, sig_prev, est, q_acc=q_acc, step=3)
        offset = d.eps - (eps_prev + est)[:, None]
        assert np.all(np.abs(offset) <= hw)
        assert np.all(offset.max(axis=1) - offset.min(axis=1) > 1.5 * hw)
        if law is SLS:
            a, b = sls_affine_coefficients(ConditioningState(eps_prev, sig_prev), SLS, 1.0)
            assert np.array_equal(d.sig, a[:, None] + b * d.eps)
        else:
            q_prev = ((law.e0 + law.e1) * eps_prev - sig_prev) / law.e1
            sig, _, _ = plastic_return_map(d.eps, q_prev[:, None], q_acc[:, None], law)
            assert np.array_equal(d.sig, sig)
        # the same (seed, step, element) gives the same row, whatever the
        # other rows hold; another step or element gives another row
        again = draw_sets(g, eps_prev, sig_prev, est, q_acc=q_acc, step=3)
        assert np.array_equal(again.eps, d.eps)
        moved = eps_prev.copy()
        moved[0] += 1e-3
        other = draw_sets(g, moved, sig_prev, est, q_acc=q_acc, step=3)
        assert np.array_equal(other.eps[1:], d.eps[1:])
        head = draw_sets(g, eps_prev[:2], sig_prev[:2], est[:2], q_acc=q_acc[:2], step=3)
        assert np.array_equal(head.eps, d.eps[:2])
        later = draw_sets(g, eps_prev, sig_prev, est, q_acc=q_acc, step=4)
        assert not np.any(later.eps == d.eps)
        same = draw_sets(g, np.zeros(m), np.zeros(m), np.zeros(m), step=3)
        assert len({row.tobytes() for row in same.eps}) == m


class TestConditioningState:
    """The previous states the per-step draw is conditioned on."""

    @pytest.mark.parametrize(
        "strain, stress",
        [(np.zeros(2), np.zeros(3)), (np.zeros((2, 2)),) * 2, (np.nan, 0.0)],
        ids=["unequal", "2-D", "nan"],
    )
    def test_rejects_bad_arrays(self, strain, stress):
        with pytest.raises(ValueError, match="finite and 1-D of equal shape"):
            ConditioningState(strain, stress)


class TestHistoryVariable:
    """Accumulated-slip tracking from accepted increments."""

    def test_frozen_increment(self):
        """(110000 * 0.01 - 600) / 100000 = 0.005; per element, so a bar
        that does not move keeps its slip."""
        q = update_history_variable(0.0, 0.0, 0.0, 1e-2, 600.0, PLASTIC)
        assert q == pytest.approx(5e-3, rel=1e-12)
        q = update_history_variable(
            np.array([0.0, 2e-3]),
            np.zeros(2),
            np.zeros(2),
            np.array([1e-2, 0.0]),
            np.array([600.0, 0.0]),
            PLASTIC,
        )
        np.testing.assert_allclose(q, [5e-3, 2e-3], rtol=1e-12)

    def test_monotone_under_any_path(self, rng):
        q = np.zeros(3)
        eps, sig = np.zeros(3), np.zeros(3)
        for _ in range(100):
            new_eps = eps + rng.normal(scale=1e-3, size=3)
            new_sig = sig + rng.normal(scale=50.0, size=3)
            q_new = update_history_variable(q, eps, sig, new_eps, new_sig, PLASTIC)
            assert q_new.shape == (3,)
            assert np.all(q_new >= q)
            q, eps, sig = q_new, new_eps, new_sig


class TestFidelityCost:
    """Gaussian uncertainty cost."""

    def test_frozen_value(self):
        """2 * (0.1^2 + 0.2^2) = 0.1."""
        assert gaussian_fidelity_cost([0.1, 0.2]) == pytest.approx(0.1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gaussian_fidelity_cost([-0.1])


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

    @pytest.mark.parametrize(
        "weights",
        [(np.nan, 0.0), (1.0, np.nan), (np.inf, 0.0), (1.0, np.inf)],
        ids=["nan-current", "nan-prior", "inf-current", "inf-prior"],
    )
    def test_rejects_non_finite_weights(self, weights):
        """NaN fails every comparison, so it must not slip past the check."""
        with pytest.raises(ValueError, match="weights"):
            HistoryRepository(
                np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2), weights
            )

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
        bit for bit, and is +inf past a shorter archive's entries; zero
        prior weight gives a zero row, all zero on equal archives gives
        None, and a non-finite cost is rejected as LocalDataSet rejects it."""
        metrics = [LocalMetric.from_modulus(v) for v in (175.0, 2.0, 9.0)]
        gm = GlobalMetric(metrics, np.ones(3))
        z_prev = GlobalState(rng.normal(size=3), rng.normal(size=3) * 100.0)
        for sizes in ((30, 30, 30), (30, 17, 4)):
            repos = [
                HistoryRepository(
                    rng.normal(size=n),
                    rng.normal(size=n) * 100.0,
                    rng.normal(size=n),
                    rng.normal(size=n) * 100.0,
                    weights=w,
                )
                for n, w in zip(sizes, ((1.0, 0.7), (2.0, 0.0), (0.5, 3.0)))
            ]
            costs = prior_slot_costs(repos, z_prev, gm)
            assert costs.shape == (3, 30)
            for e, (h, n) in enumerate(zip(repos, sizes)):
                d = history_cost_dataset(h, z_prev.point(e), gm.locals[e])
                expect = np.zeros(n) if d.costs is None else d.costs
                assert np.array_equal(costs[e, :n], expect)
                assert np.all(costs[e, n:] == np.inf)
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

    @pytest.mark.parametrize(
        "line, message",
        [
            ("0,0,1.0", "expected 5 fields, got 3"),
            ("0,0,1.0,2.0,0.0,9", "expected 5 fields, got 6"),
            ("0,x,1.0,2.0,0.0", "invalid literal for int"),
            ("0,0,abc,2.0,0.0", "could not convert string to float"),
            ("0,0,nan,2.0,0.0", "must be finite"),
            ("0,0,1.0,inf,0.0", "must be finite"),
            ("0,0,1.0,2.0,-1.0", "cost nonnegative"),
        ],
        ids=["short", "long", "bad-int", "bad-float", "nan", "inf", "negative-cost"],
    )
    def test_malformed_line_names_path_and_line(self, tmp_path, line, message):
        path = tmp_path / "sets.csv"
        path.write_text(f"step,element,strain,stress,cost\n0,0,1.0,2.0,0.0\n\n{line}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: .*{message}"):
            read_datasets_csv(path)
