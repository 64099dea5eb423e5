"""Local data sets, nearest searches, the conditioned per-step draw and
two-time archives."""

from __future__ import annotations

import numpy as np
import pytest

from ddmech import data as data_module
from ddmech.data import (
    GeneratorSpec,
    HistoryRepository,
    StackedSets,
    StrainIndex,
    WindowRule,
    batch_nearest,
    history_cost_dataset,
    prior_slot_costs,
    scan_nearest,
    stack_sets,
    update_history_variable,
)
from ddmech.materials import (
    PlasticParams,
    SlsParams,
    plastic_return_map,
    sls_affine_coefficients,
)
from ddmech.phase import GlobalMetric, GlobalState
from ddmech.solver import _stacked_step_sets

SLS = SlsParams(e0=75_000.0, e1=100_000.0, tau1=5.0)
PLASTIC = PlasticParams(e0=10_000.0, e1=100_000.0, sigma1=500.0, h=0.0)


def nearest_in(d, eps, sig, c=1.0):
    """:func:`batch_nearest` on the one-row stack ``d`` for the query (eps,
    sig) in the norm of modulus c."""
    return int(batch_nearest(np.array([eps]), np.array([sig]), d, np.array([c]),
                             np.array([1.0 / c]))[0])


def scan_one(eps_row, sig_row, eps, sig, c):
    """The lowest-index minimizer of square distance in the set
    ``(eps_row, sig_row)``, by a scan of its points: an independent
    reference."""
    de = eps_row - eps
    ds = sig_row - sig
    return int(np.argmin(c * de * de + ds * ds / c))


def two_slot_nearest(current, prior, h, c):
    """The archive entry minimizing ``w_cur d^2(current slot) + w_prior
    d^2(prior slot)``, the lowest index on a tie, for (strain, stress)
    pairs ``current`` and ``prior``: an independent reference."""

    def d2(eps, sig, z):
        de = eps - z[0]
        ds = sig - z[1]
        return c * de * de + ds * ds / c

    w_cur, w_prior = h.weights
    obj = w_cur * d2(h.eps_cur, h.sig_cur, current)
    if w_prior != 0.0:
        obj = obj + w_prior * d2(h.eps_prev, h.sig_prev, prior)
    return int(np.argmin(obj))


class TestLocalDataSet:
    """One bar's data set, a row of :func:`stack_sets`: the checks of its
    points and costs, and the search of one set."""

    @pytest.mark.parametrize(
        "eps, sig, costs, match",
        [
            ([[0.0, 1.0], []], [[0.0, 1.0], []], None, "set 1: .*at least one point"),
            ([[0.0, np.nan]], [[0.0, 1.0]], None, "set 0: data points must be finite"),
            ([[0.0, 1.0]], [[0.0, np.inf]], None, "set 0: data points must be finite"),
            ([[0.0], [1.0]], [[0.0], [-np.inf]], None, "set 1: data points must be finite"),
            ([[0.0, 1.0]], [[0.0]], None, "set 0: .*share one shape"),
            ([[[0.0], [1.0]]], [[[0.0], [1.0]]], None, r"set 0: .*shape \(n,\)"),
            ([[0.0, 1.0]], [[0.0, 1.0]], [[1.0]], "set 0: one cost per point"),
            ([[0.0], [1.0]], [[0.0], [1.0]], [None, [np.nan]], "set 1: .*finite and nonn"),
            ([[0.0], [1.0]], [[0.0], [1.0]], [None, [np.inf]], "set 1: .*finite and nonn"),
            ([[0.0], [1.0]], [[0.0], [1.0]], [[0.0], [-1.0]], "set 1: .*finite and nonn"),
            ([[0.0], [1.0]], [[0.0]], None, "got 2, 1 and 2"),
            ([[0.0], [1.0]], [[0.0], [1.0]], [None], "got 2, 2 and 1"),
            ([], [], None, "at least one set"),
        ],
        ids=[
            "empty-row", "nan-strain", "inf-stress", "minus-inf-stress", "unequal-row-sizes",
            "columns", "cost-count", "nan-cost", "inf-cost", "negative-cost",
            "unequal-stress-rows", "unequal-cost-rows", "no-rows",
        ],
    )
    def test_rows_are_checked(self, eps, sig, costs, match):
        """Every set holds at least one finite point, and its costs are one
        finite, nonnegative value per point; the error names the set."""
        with pytest.raises(ValueError, match=match):
            stack_sets(eps, sig, costs)

    def test_rejects_negative_cost(self):
        with pytest.raises(ValueError, match="nonnegative"):
            stack_sets([np.zeros(2)], [np.zeros(2)], [np.array([0.0, -1.0])])

    def test_nearest_tie_takes_lowest_index(self):
        """Exactly equidistant points resolve to the first."""
        d = stack_sets([np.array([1.0, 1.0])], [np.array([2.0, 2.0])])
        assert nearest_in(d, 1.0, 2.0) == 0
        # symmetric pair around the query as well
        d2 = stack_sets([np.array([-1.0, 1.0])], [np.array([0.0, 0.0])])
        assert nearest_in(d2, 0.0, 0.0) == 0

    def test_cost_can_flip_the_winner(self):
        """Point 0 is closer but its cost moves the minimum to point 1."""
        d = stack_sets([np.array([0.0, 0.1])], [np.array([0.0, 0.0])], [np.array([10.0, 0.0])])
        assert nearest_in(d, 0.0, 0.0) == 1


class TestBatchSearch:
    """Stacked per-element search used by the solver hot loop."""

    def test_stack_pads_ragged_sets(self, rng):
        """Shorter sets are padded to the longest: each padded entry repeats
        its row's last point with cost +inf, and ``lengths`` keeps the true
        sizes; equal sets without costs stack with no costs and no lengths."""
        sizes = (3, 5, 1)
        eps = [rng.normal(size=n) for n in sizes]
        sig = [rng.normal(size=n) for n in sizes]
        stacked = stack_sets(eps, sig, [np.ones(3), None, None])
        assert stacked.eps.shape == stacked.sig.shape == stacked.costs.shape == (3, 5)
        assert stacked.lengths.tolist() == list(sizes)
        for e, n in enumerate(sizes):
            assert np.array_equal(stacked.eps[e, :n], eps[e])
            assert np.array_equal(stacked.sig[e, :n], sig[e])
            assert np.all(stacked.eps[e, n:] == eps[e][-1])
            assert np.all(stacked.sig[e, n:] == sig[e][-1])
            expect = np.ones(n) if e == 0 else np.zeros(n)
            assert np.array_equal(stacked.costs[e, :n], expect)
            assert np.all(stacked.costs[e, n:] == np.inf)
        equal = stack_sets(eps[1:2] * 2, sig[1:2] * 2)
        assert equal.costs is None and equal.lengths is None
        assert np.array_equal(equal.eps, np.stack([eps[1]] * 2))
        with pytest.raises(ValueError, match="at least one"):
            stack_sets([], [])

    def test_batch_matches_per_element_nearest(self, rng):
        """batch_nearest equals a scan of each set element by element on
        small sets, and equals the full scan on sets large enough for the
        strain-sorted search."""
        m = 5
        n = 40
        eps_rows = [rng.normal(size=n) for _ in range(m)]
        sig_rows = [rng.normal(size=n) * 50.0 for _ in range(m)]
        stacked = stack_sets(eps_rows, sig_rows)
        c = rng.uniform(10.0, 1000.0, m)
        gm = GlobalMetric(c, np.ones(m))
        for _ in range(50):
            eps = rng.normal(size=m)
            sig = rng.normal(size=m) * 50.0
            idx = batch_nearest(eps, sig, stacked, gm.c_diag, gm.c_inv_diag)
            for e in range(m):
                assert idx[e] == scan_one(eps_rows[e], sig_rows[e], eps[e], sig[e], c[e])

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

    def test_non_finite_query_is_scanned(self, rng, monkeypatch):
        """A NaN or infinite query row among finite rows, on a stack large
        enough for the sorted search, is scanned with the rest: no block
        search sees it (``lowest`` finds no index among NaN values)."""
        m = 8
        n = data_module._SORTED_SEARCH_MIN_SIZE // m + 17
        eps_rows = rng.normal(size=(m, n))
        stacked = StackedSets(
            eps_rows, 100.0 * eps_rows + rng.normal(size=(m, n)), rng.uniform(0.0, 50.0, (m, n))
        )
        c = rng.uniform(10.0, 1000.0, m)
        plans = []
        plan = data_module.plan_blocks
        monkeypatch.setattr(data_module, "plan_blocks", lambda *a: plans.append(a) or plan(*a))
        eps, sig = rng.normal(size=m), 100.0 * rng.normal(size=m)
        queries = [(eps, sig)]
        for bad in (np.nan, np.inf):
            queries += [(np.where(np.arange(m) == 3, bad, eps), sig)]
            queries += [(eps, np.where(np.arange(m) == 5, bad, sig))]
        for q_eps, q_sig in queries:
            got = batch_nearest(q_eps, q_sig, stacked, c, 1.0 / c)
            assert np.array_equal(got, scan_nearest(q_eps, q_sig, stacked, c, 1.0 / c))
        assert len(plans) == 1  # the finite query alone

    def test_walk_bound_takes_both_strain_neighbours(self, rng, monkeypatch):
        """The walk's bound is the lesser value at the query's two strain
        neighbours. On a costed stack whose neighbour above each query
        carries a large cost and whose neighbour below carries none, the
        planned block stays within the lower neighbour's bound; the bound
        of the neighbour above alone would span a fifth of the row."""
        m = 8
        n = data_module._SORTED_SEARCH_MIN_SIZE // m + 17
        rows = np.arange(m)
        c = np.full(m, 100.0)
        eps_rows = rng.uniform(0.0, 1.0, (m, n))
        sig_rows = c[:, None] * eps_rows + rng.normal(scale=1e-4, size=(m, n))
        costs = rng.uniform(0.0, 1e-6, (m, n))
        order = np.argsort(eps_rows, axis=1)
        at = rng.integers(n // 4, 3 * n // 4, m)
        below, above = order[rows, at - 1], order[rows, at]
        costs[rows, below] = 0.0
        costs[rows, above] = 1.0
        eps = 0.5 * (eps_rows[rows, below] + eps_rows[rows, above])
        sig = c * eps
        stacked = StackedSets(eps_rows, sig_rows, costs)
        plans = []
        plan = data_module.plan_blocks
        monkeypatch.setattr(
            data_module, "plan_blocks", lambda *a: plans.append(plan(*a)) or plans[-1]
        )
        got = batch_nearest(eps, sig, stacked, c, 1.0 / c)
        assert np.array_equal(got, scan_nearest(eps, sig, stacked, c, 1.0 / c))
        ((lo, hi, scan),) = plans

        def d2(j):
            de, ds = eps_rows[rows, j] - eps, sig_rows[rows, j] - sig
            return c * de * de + ds * ds / c + costs[rows, j]

        def length(bound):
            """Points within the strain radius of a bound."""
            radius = np.sqrt(bound / c) * (1.0 + 1e-6)
            return np.sum(np.abs(eps_rows - eps[:, None]) <= radius[:, None], axis=1)

        two = length(np.minimum(d2(below), d2(above)))
        assert not scan.any()
        assert np.all(hi - lo <= two)
        assert np.all(length(d2(above)) > n // 8)

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


def loop_lowest(values, idx, k):
    """The ranking as k rounds of a row minimum and its lowest index, each
    chosen entry then set to +inf: the reference for ``data.lowest``."""
    out_j = np.empty((values.shape[0], k), dtype=np.intp)
    out_v = np.empty((values.shape[0], k))
    v = values
    for i in range(k):
        best = v.min(axis=1)
        first = np.where(v == best[:, None], idx, np.iinfo(np.intp).max).min(axis=1)
        out_j[:, i] = first
        out_v[:, i] = best
        if i + 1 < k:
            v = np.where(idx == first[:, None], np.inf, v)
    return out_j, out_v


class TestLowest:
    """``data.lowest`` ranks as the k-round loop does, for every k."""

    @pytest.mark.parametrize("kind", ["positions", "broadcast", "explicit", "padded"])
    def test_equals_the_loop(self, kind):
        """Rows of few distinct values (forced ties) with +inf entries, some
        rows all +inf or with fewer finite entries than k; indices as None,
        one broadcast permutation, a permutation per row, or a permutation
        per row padded with index n at +inf, as ``planned_lowest`` pads."""
        rng = np.random.default_rng(["positions", "broadcast", "explicit", "padded"].index(kind))
        for _ in range(200):
            m, n = int(rng.integers(1, 7)), int(rng.integers(1, 14))
            values = rng.integers(-2, 3, (m, n)).astype(float)
            values[rng.random((m, n)) < 0.25] = np.inf
            values[rng.random(m) < 0.1] = np.inf
            if kind == "positions":
                idx, ref = None, np.arange(n)[None, :]
            elif kind == "broadcast":
                idx = ref = rng.permutation(n)[None, :]
            else:
                idx = ref = np.stack([rng.permutation(n) for _ in range(m)])
                if kind == "padded":
                    pad = rng.random((m, n)) < 0.3
                    idx = ref = np.where(pad, n, idx)
                    values[pad] = np.inf
            for k in range(1, n + 3):
                j, v = data_module.lowest(values, idx, k)
                expect_j, expect_v = loop_lowest(values, ref, k)
                assert np.array_equal(j, expect_j), (kind, k)
                assert np.array_equal(v, expect_v), (kind, k)

    def test_real_values_equal_the_loop(self, rng):
        """Continuous values with a few exact copies, wide rows, k at and
        past the width included."""
        values = rng.normal(size=(9, 300))
        values[:, 150:160] = values[:, 10:20]
        for k in (1, 2, 5, 6, 299, 300, 301):
            j, v = data_module.lowest(values, None, k)
            expect_j, expect_v = loop_lowest(values, np.arange(300)[None, :], k)
            assert np.array_equal(j, expect_j) and np.array_equal(v, expect_v)


class TestWindowRule:
    """Sampling window half-width."""

    def test_rule_takes_the_largest_driver(self):
        rule = WindowRule()
        assert rule.halfwidths(0.01, [0.002]).tolist() == [0.08]  # band-dominated
        assert rule.halfwidths(0.001, [0.01]).tolist() == [0.04]  # increment-dominated

    def test_fixed_halfwidth_wins(self):
        assert WindowRule(halfwidth=0.05).halfwidths(10.0, [10.0]).tolist() == [0.05]

    def test_collapsed_window_rejected(self):
        with pytest.raises(ValueError):
            WindowRule(floor=0.0).halfwidths(0.0, [0.0])

    def test_halfwidths_equal_resolve_per_entry(self):
        """The vectorized rule gives every entry the scalar rule's value,
        ``max(4 |est|, 8 band, floor)`` or the fixed half-width, computed
        here entry by entry."""
        est = np.array([0.0, 2e-3, -0.01, 0.03, -1e-9])
        for rule, band in (
            (WindowRule(), 0.01),
            (WindowRule(floor=1e-9), 0.0),
            (WindowRule(floor=0.05), 0.001),
            (WindowRule(halfwidth=0.05), 0.01),
        ):
            hw = rule.halfwidths(band, est)
            assert hw.shape == est.shape
            expect = [
                rule.halfwidth if rule.halfwidth is not None
                else max(4.0 * abs(float(x)), 8.0 * band, rule.floor)
                for x in est
            ]
            assert [float(v) for v in hw] == expect
        with pytest.raises(ValueError):
            WindowRule().halfwidths(0.0, est)

    @pytest.mark.parametrize(
        "cls, kwargs",
        [
            (WindowRule, {"halfwidth": np.nan}),
            (WindowRule, {"halfwidth": np.inf}),
            (WindowRule, {"floor": np.nan}),
            (WindowRule, {"floor": np.inf}),
            (GeneratorSpec, {"law": SLS, "n_points": 8, "band_width": np.nan}),
            (GeneratorSpec, {"law": SLS, "n_points": 8, "band_width": np.inf}),
        ],
        ids=lambda v: v.__name__ if isinstance(v, type) else str(list(v.items())[-1]),
    )
    def test_rejects_non_finite_settings(self, cls, kwargs):
        """The window and the draw spec are the only checks on the per-step
        draw, so a NaN or infinite setting must not get through."""
        with pytest.raises(ValueError, match="finite"):
            cls(**kwargs)


    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"rng_seed": 1.5}, "rng_seed"),
            ({"rng_seed": -1}, "rng_seed"),
            ({"n_points": 2.7}, "n_points"),
            ({"n_points": 0}, "n_points"),
        ],
    )
    def test_rejects_non_integral_or_negative_counts(self, kwargs, name):
        """A fractional seed or size was truncated (seed 1.5 drew seed 1's
        data); now it is refused, and the field is named."""
        with pytest.raises(ValueError, match=f"^{name} must be"):
            GeneratorSpec(**{"law": SLS, "n_points": 8, **kwargs})

    def test_integral_floats_are_counts(self):
        g = GeneratorSpec(law=SLS, n_points=8.0, rng_seed=np.int64(3))
        assert (g.n_points, g.rng_seed) == (8, 3)
        assert type(g.n_points) is int and type(g.rng_seed) is int


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
        g = GeneratorSpec(law=SLS, n_points=64, band_width=1e-4, rng_seed=3)
        d = draw_sets(g, 1e-3, 140.0, 2e-4)
        a, b = sls_affine_coefficients(np.array([1e-3]), np.array([140.0]), SLS, 1.0)
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
    def test_grid_draw_in_window_on_law_and_per_element(self, law, rng):
        """The noisy grid puts every strain inside the window about the
        predicted strain, widened by half the band, puts every stress on the
        law's one-step response, and seeds each row from (seed, step,
        element) alone."""
        m, n, hw, band = 4, 256, 2e-3, 2e-4
        eps_prev = rng.normal(scale=1e-3, size=m)
        sig_prev = rng.normal(scale=400.0, size=m)
        q_acc = np.abs(rng.normal(scale=1e-3, size=m))
        est = rng.normal(scale=1e-4, size=m)
        g = GeneratorSpec(
            law=law, n_points=n, band_width=band, window=WindowRule(halfwidth=hw), rng_seed=5
        )
        d = draw_sets(g, eps_prev, sig_prev, est, q_acc=q_acc, step=3)
        offset = d.eps - (eps_prev + est)[:, None]
        assert np.all(np.abs(offset) <= hw * (1.0 + 1e-12) + 0.5 * band)
        assert np.all(offset.max(axis=1) - offset.min(axis=1) > 1.5 * hw)
        if law is SLS:
            a, b = sls_affine_coefficients(eps_prev, sig_prev, SLS, 1.0)
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

    @pytest.mark.parametrize("weights", [(1.0,), (1.0, 2.0, 3.0)], ids=["one", "three"])
    def test_rejects_other_than_two_weights(self, weights):
        """A weight is neither dropped nor missed: anything but (w_current,
        w_prior) is rejected."""
        with pytest.raises(ValueError, match="weights must be two"):
            HistoryRepository(
                np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2), weights
            )

    def test_nearest_history_weighs_both_slots(self):
        """The search of the cost dataset weighs both slots: a prior state
        near entry 2's prior slot moves the winner off entry 1, the nearest
        in the current slot."""
        h = self.repo()
        d = history_cost_dataset(h, 0.0, 100.0, 1.0)
        idx = nearest_in(d, 1e-3, 150.0)
        assert (idx, h.sig_cur[idx], h.sig_prev[idx]) == (1, 150.0, 100.0)
        d = history_cost_dataset(h, 1e-3, 160.0, 1.0)
        assert nearest_in(d, 1e-3, 150.0) == 2

    def test_zero_prior_weight_reduces_to_plain_search(self):
        h = HistoryRepository(
            eps_prev=np.zeros(2),
            sig_prev=np.array([0.0, 1e6]),
            eps_cur=np.array([0.0, 1e-3]),
            sig_cur=np.array([0.0, 175.0]),
            weights=(1.0, 0.0),
        )
        d = history_cost_dataset(h, 0.0, 0.0, 1.0)
        assert d.costs is None

    def test_cost_dataset_equals_weighted_prior_distance(self):
        h = self.repo()
        d = history_cost_dataset(h, 1e-3, 120.0, 2.0)
        assert d.costs.shape == (1, 3)
        assert np.array_equal(d.eps[0], h.eps_cur) and np.array_equal(d.sig[0], h.sig_cur)
        for i in range(3):
            de = h.eps_prev[i] - 1e-3
            ds = h.sig_prev[i] - 120.0
            expect = 2.0 * de * de + ds * ds / 2.0
            assert d.costs[0, i] == pytest.approx(expect, rel=1e-12)

    def test_cost_dataset_reproduces_nearest_history(self, rng):
        """Searching the cost dataset equals a two-slot search."""
        n = 30
        h = HistoryRepository(
            rng.normal(size=n),
            rng.normal(size=n) * 100.0,
            rng.normal(size=n),
            rng.normal(size=n) * 100.0,
            weights=(1.0, 0.7),
        )
        for _ in range(20):
            prior = (rng.normal(), rng.normal() * 100.0)
            current = (rng.normal(), rng.normal() * 100.0)
            d = history_cost_dataset(h, *prior, 175.0)
            got = nearest_in(d, *current, 175.0)
            assert got == two_slot_nearest(current, prior, h, 175.0)

    def test_stacked_costs_equal_cost_datasets(self, rng):
        """Each row of the stacked costs equals the cost dataset's costs
        bit for bit; zero prior weight gives a zero row, all zero gives
        None, and a non-finite cost is rejected as stack_sets rejects it."""
        moduli = (175.0, 2.0, 9.0)
        gm = GlobalMetric(moduli, np.ones(3))
        z_prev = GlobalState(rng.normal(size=3), rng.normal(size=3) * 100.0)
        repos = [
            HistoryRepository(
                rng.normal(size=30),
                rng.normal(size=30) * 100.0,
                rng.normal(size=30),
                rng.normal(size=30) * 100.0,
                weights=w,
            )
            for w in ((1.0, 0.7), (2.0, 0.0), (0.5, 3.0))
        ]
        costs = prior_slot_costs(repos, z_prev, gm)
        assert costs.shape == (3, 30)
        for e, h in enumerate(repos):
            d = history_cost_dataset(h, z_prev.strain[e], z_prev.stress[e], moduli[e])
            expect = np.zeros(30) if d.costs is None else d.costs[0]
            assert np.array_equal(costs[e], expect)
        one = GlobalMetric(moduli[1:2], [1.0])
        assert prior_slot_costs(repos[1:2], z_prev, one) is None
        huge = GlobalState(np.full(3, 1e200), np.zeros(3))
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="set 0: .*finite and nonn"):
                prior_slot_costs(repos, huge, gm)
            with pytest.raises(ValueError, match="set 0: .*finite and nonn"):
                history_cost_dataset(repos[0], 1e200, 0.0, moduli[0])
