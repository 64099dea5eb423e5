"""Local data sets, nearest searches, the conditioned per-step draw and
two-time archives."""

from __future__ import annotations

import numpy as np
import pytest

from ddmech import data as data_module
from ddmech import experiments
from ddmech.data import (
    GeneratorSpec,
    HistoryRepository,
    StackedSets,
    WindowRule,
    batch_nearest,
    history_cost_dataset,
    prior_slot_costs,
    scan_nearest,
    search,
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


def two_slot_nearest(current, prior, h, e, c):
    """The entry of bar e's archive minimizing ``d^2(current slot) +
    d^2(prior slot)``, the lowest index on a tie, for (strain, stress)
    pairs ``current`` and ``prior``: an independent reference."""

    def d2(eps, sig, z):
        de = eps[e] - z[0]
        ds = sig[e] - z[1]
        return c * de * de + ds * ds / c

    return int(np.argmin(d2(h.eps_cur, h.sig_cur, current) + d2(h.eps_prev, h.sig_prev, prior)))


#: Given indices of the two tied points of every row of the "ties" stack.
TIE_LOW, TIE_HIGH = 100, 5000


def strain_rank(eps):
    """The stable strain rank of every entry of the row ``eps``: the index
    at which a stack stores it."""
    return np.argsort(np.argsort(eps, kind="stable"), kind="stable")


def sorted_stack(eps, sig, costs=None):
    """The (M, n) rows as one stack, each row sorted stably by strain with
    its stresses and costs permuted alike, as :func:`stack_sets` stores
    them."""
    order = np.argsort(eps, axis=1, kind="stable")
    return StackedSets(
        *(None if a is None else np.take_along_axis(a, order, 1) for a in (eps, sig, costs))
    )


def sorted_search_stacks(rng):
    """Stacks large enough for the sorted search, by name, each as
    ``(stacked, queries)``: near, far and on-data queries without and with
    fidelity costs (some large enough to move the winner), duplicated
    strains with different stresses and exact duplicates, exact ties, and
    one-point rows."""
    m = 8
    n = data_module._SORTED_SEARCH_MIN_SIZE // m + 17
    eps_rows = rng.normal(size=(m, n))
    sig_rows = 100.0 * eps_rows + rng.normal(size=(m, n))
    near = [(rng.normal(size=m), 100.0 * rng.normal(size=m)) for _ in range(20)]
    far = [(np.full(m, s * 10.0), np.full(m, s * 1e3)) for s in (-1.0, 1.0)]
    on_data = [(eps_rows[:, 7], sig_rows[:, 7])]
    costs = rng.uniform(0.0, 50.0, (m, n))
    dup_eps = np.round(eps_rows, 1)
    dup_sig = rng.normal(size=(m, n)) * 20.0
    half = n // 2
    dup_eps[:, half : 2 * half] = dup_eps[:, :half]
    dup_sig[:, half : 2 * half] = dup_sig[:, :half]
    # exact ties about the query (0, 0), stored at indices 0 and 1: in even
    # rows at one strain, stresses -+1, the lower given index at +1, which
    # the stable sort keeps first; in odd rows at strains -+0.5 and equal
    # stress, the lower given index at +0.5, which the sort puts second.
    # The lowest stored index must win.
    rows = np.arange(m)
    even = rows % 2 == 0
    tie_eps = rng.uniform(10.0, 20.0, (m, n))
    tie_sig = np.zeros((m, n))
    tie_eps[rows, TIE_LOW] = np.where(even, 0.0, 0.5)
    tie_eps[rows, TIE_HIGH] = np.where(even, 0.0, -0.5)
    tie_sig[rows, TIE_LOW] = np.where(even, 1.0, 0.0)
    tie_sig[rows, TIE_HIGH] = np.where(even, -1.0, 0.0)
    ones = data_module._SORTED_SEARCH_MIN_SIZE
    one_eps = rng.normal(size=(ones, 1))
    return {
        "plain": (sorted_stack(eps_rows, sig_rows), near + far + on_data),
        "costed": (sorted_stack(eps_rows, sig_rows, costs), near + far + on_data),
        "duplicated": (sorted_stack(dup_eps, dup_sig), near + far),
        "duplicated-costed": (sorted_stack(dup_eps, dup_sig, np.round(costs)), near + far),
        "ties": (sorted_stack(tie_eps, tie_sig), [(np.zeros(m), np.zeros(m))]),
        "one-point": (
            StackedSets(one_eps, one_eps * 3.0, None),
            [(rng.normal(size=ones), rng.normal(size=ones))],
        ),
    }


class PlanLog:
    """The plans :func:`~ddmech.data.plan_blocks` returns, in call order:
    a sorted search ran when the log is not empty."""

    def __init__(self, monkeypatch):
        self.plans = []
        plan = data_module.plan_blocks
        monkeypatch.setattr(
            data_module, "plan_blocks", lambda *a: self.plans.append(plan(*a)) or self.plans[-1]
        )


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
        its row's last point, its largest strain, with cost +inf, and
        ``lengths`` keeps the true sizes; equal sets without costs stack
        with no costs and no lengths. The rows are given in strain order, as
        the stack stores them."""
        sizes = (3, 5, 1)
        eps = [np.sort(rng.normal(size=n)) for n in sizes]
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

    def test_batch_matches_per_element_nearest(self, rng, monkeypatch):
        """batch_nearest equals a scan of each given set element by element
        on small sets, at the index where the stack stores the scan's
        winner, and equals the full scan on sets large enough for the
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
                j = scan_one(eps_rows[e], sig_rows[e], eps[e], sig[e], c[e])
                assert idx[e] == strain_rank(eps_rows[e])[j]

        def check(stacked, queries):
            log = PlanLog(monkeypatch)
            rows = stacked.eps.shape[0]
            assert stacked.eps.size >= data_module._SORTED_SEARCH_MIN_SIZE
            c = rng.uniform(10.0, 1000.0, rows)
            for eps, sig in queries:
                got = batch_nearest(eps, sig, stacked, c, 1.0 / c)
                assert np.array_equal(got, scan_nearest(eps, sig, stacked, c, 1.0 / c))
            assert log.plans  # the sorted path ran
            return got

        for name, (stacked, queries) in sorted_search_stacks(rng).items():
            got = check(stacked, queries)
            if name == "ties":
                rows = np.arange(got.size)
                assert np.all(got == 0)
                assert np.all(np.where(rows % 2 == 0, stacked.sig[:, 0] == 1.0,
                                       stacked.eps[:, 0] == -0.5))
            if name == "one-point":
                assert np.all(got == 0)

    def test_whole_rows_are_scanned_in_chunks(self, rng, monkeypatch):
        """The rows the sorted search's plan leaves whole are scanned a few
        rows at a time, ``_SCAN_CHUNK_POINTS // n`` (here 3 of 8), and the
        result is still the full scan's."""
        stacked, queries = sorted_search_stacks(rng)["plain"]
        m, n = stacked.eps.shape
        monkeypatch.setattr(data_module, "_SCAN_CHUNK_POINTS", 3 * n + 1)
        scanned = []
        scan_d2 = data_module._scan_d2

        def recorded(stacked, r, *args):
            scanned.append(np.arange(m)[r].size)
            return scan_d2(stacked, r, *args)

        c = rng.uniform(10.0, 1000.0, m)
        for eps, sig in queries:
            want = scan_nearest(eps, sig, stacked, c, 1.0 / c)
            monkeypatch.setattr(data_module, "_scan_d2", recorded)
            got = batch_nearest(eps, sig, stacked, c, 1.0 / c)
            monkeypatch.setattr(data_module, "_scan_d2", scan_d2)
            assert np.array_equal(got, want)
        assert scanned and max(scanned) == 3 and sum(scanned) > m

    def test_hint_keeps_the_scan_result(self, rng, monkeypatch):
        """With a hint per row, the sorted search still equals the scan on
        every stack of :func:`sorted_search_stacks`: for the scan's winner,
        the row's worst point, random points and, on the tie stack, the
        tied point of higher index, whose value bounds the lower one
        exactly."""
        for name, (stacked, queries) in sorted_search_stacks(rng).items():
            log = PlanLog(monkeypatch)
            m, n = stacked.eps.shape
            c = rng.uniform(10.0, 1000.0, m)
            for eps, sig in queries:
                expect = scan_nearest(eps, sig, stacked, c, 1.0 / c)
                d2 = data_module._scan_d2(stacked, slice(None), eps, sig, c, 1.0 / c)
                hints = [expect, d2.argmax(axis=1), rng.integers(0, n, m)]
                if name == "ties":
                    hints.append(np.ones(m, dtype=np.intp))
                for hint in hints:
                    got = batch_nearest(eps, sig, stacked, c, 1.0 / c, hint)
                    assert np.array_equal(got, expect)
            assert log.plans  # the sorted path ran

    def test_non_finite_query_is_scanned(self, rng, monkeypatch):
        """A NaN or infinite query row among finite rows, on a stack large
        enough for the sorted search, is scanned with the rest: no block
        search sees it (``lowest`` finds no index among NaN values)."""
        m = 8
        n = data_module._SORTED_SEARCH_MIN_SIZE // m + 17
        eps_rows = np.sort(rng.normal(size=(m, n)), axis=1)
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
        eps_rows = np.sort(rng.uniform(0.0, 1.0, (m, n)), axis=1)
        sig_rows = c[:, None] * eps_rows + rng.normal(scale=1e-4, size=(m, n))
        costs = rng.uniform(0.0, 1e-6, (m, n))
        at = rng.integers(n // 4, 3 * n // 4, m)
        below, above = at - 1, at
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

    def test_hint_bounds_the_walk_block(self, rng, monkeypatch):
        """A hint caps the neighbour bound by the value at the hint. On a
        costed stack whose two strain neighbours of each query carry a large
        cost, the neighbour bound spans more than an eighth of the row, so
        the row would be scanned; with the hint at the scan's winner, the
        planned block is no longer than the winner's strain radius."""
        m = 8
        n = data_module._SORTED_SEARCH_MIN_SIZE // m + 17
        rows = np.arange(m)
        c = np.full(m, 100.0)
        eps_rows = np.sort(rng.uniform(0.0, 1.0, (m, n)), axis=1)
        sig_rows = c[:, None] * eps_rows + rng.normal(scale=1e-4, size=(m, n))
        costs = rng.uniform(0.0, 1e-6, (m, n))
        at = rng.integers(n // 4, 3 * n // 4, m)
        below, above = at - 1, at
        costs[rows, below] = costs[rows, above] = 1.0
        eps = 0.5 * (eps_rows[rows, below] + eps_rows[rows, above])
        sig = c * eps
        stacked = StackedSets(eps_rows, sig_rows, costs)
        winner = scan_nearest(eps, sig, stacked, c, 1.0 / c)
        plans = []
        plan = data_module.plan_blocks
        monkeypatch.setattr(
            data_module, "plan_blocks", lambda *a: plans.append(plan(*a)) or plans[-1]
        )
        assert np.array_equal(batch_nearest(eps, sig, stacked, c, 1.0 / c, winner), winner)
        assert np.array_equal(batch_nearest(eps, sig, stacked, c, 1.0 / c), winner)
        (lo, hi, scan), (_, _, unhinted) = plans

        def d2(j):
            de, ds = eps_rows[rows, j] - eps, sig_rows[rows, j] - sig
            return c * de * de + ds * ds / c + costs[rows, j]

        def length(bound):
            """Points within the strain radius of a bound."""
            radius = np.sqrt(bound / c) * (1.0 + 1e-6)
            return np.sum(np.abs(eps_rows - eps[:, None]) <= radius[:, None], axis=1)

        assert not scan.any() and unhinted.all()
        assert np.all(hi - lo <= length(d2(winner)))
        assert np.all(length(np.minimum(d2(below), d2(above))) > n // 8)

    def test_row_search_equals_searchsorted(self, rng):
        """search gives np.searchsorted's left position per ascending row,
        for repeated strains, values on data, infinities and NaN, and for
        the rows given by ``rows``."""
        for n in (1, 2, 3, 7, 64, 1000):
            strains = rng.normal(size=(5, n))
            strains[:, : n // 2] = np.round(strains[:, : n // 2], 1)
            strains.sort(axis=1)
            specials = np.tile([np.nan, np.inf, -np.inf], (5, 1))
            x = np.concatenate([rng.normal(size=(5, 20)), strains[:, :3], specials], axis=1)
            expect = np.array([np.searchsorted(strains[e], x[e]) for e in range(5)])
            assert np.array_equal(search(strains, x), expect)
            rows = np.array([4, 1, 1])
            assert np.array_equal(search(strains, x[rows], rows), expect[rows])


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


def step_noise_row(seed, step, e, n, band):
    """Row e of step ``step``'s strain noise, drawn alone: the step's
    ``PCG64`` stream advanced past the e n uniforms of the rows before it."""
    bits = np.random.PCG64(np.random.SeedSequence([seed, step]))
    bits.advance(e * n)
    return np.random.Generator(bits).uniform(-0.5 * band, 0.5 * band, n)


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
    """Two-time archives of all bars as (M, n) slot arrays, and their cost
    rows."""

    def repo(self):
        return HistoryRepository(
            eps_prev=np.array([[0.0, 0.0, 1e-3]]),
            sig_prev=np.array([[0.0, 100.0, 160.0]]),
            eps_cur=np.array([[1e-3, 1e-3, 1e-3]]),
            sig_cur=np.array([[175.0, 150.0, 140.0]]),
        )

    def test_rejects_ragged_slots(self):
        with pytest.raises(ValueError, match=r"one shape \(M, n\).*\(1, 2\), \(1, 3\)"):
            HistoryRepository(np.zeros((1, 2)), np.zeros((1, 3)), np.zeros((1, 2)), np.zeros((1, 2)))

    @pytest.mark.parametrize(
        "shape", [(3,), (2, 0), (1, 2, 2)], ids=["one-dimensional", "no-entries", "three-dimensional"]
    )
    def test_rejects_slots_of_the_wrong_shape(self, shape):
        with pytest.raises(ValueError, match=r"one shape \(M, n\) with n >= 1"):
            HistoryRepository(*(np.zeros(shape) for _ in range(4)))

    @pytest.mark.parametrize("slot", range(4))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, slot, bad):
        slots = [np.zeros((3, 4)) for _ in range(4)]
        slots[slot][2, 1] = bad
        name = ("eps_prev", "sig_prev", "eps_cur", "sig_cur")[slot]
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            HistoryRepository(*slots)

    def test_slots_are_read_only_views_of_float64_input(self):
        """No slot is copied; the archive's views are read-only and the
        caller's arrays stay writable."""
        slots = [np.arange(6.0).reshape(2, 3) + i for i in range(4)]
        h = HistoryRepository(*slots)
        for name, a in zip(("eps_prev", "sig_prev", "eps_cur", "sig_cur"), slots):
            view = getattr(h, name)
            assert np.shares_memory(view, a)
            assert not view.flags.writeable and a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                view[0, 0] = 1.0

    def test_nearest_history_weighs_both_slots(self):
        """The search of the cost dataset weighs both slots: a prior state
        near entry 2's prior slot moves the winner off entry 1, the nearest
        in the current slot."""
        h = self.repo()
        d = history_cost_dataset(h, 0, 0.0, 100.0, 1.0)
        idx = nearest_in(d, 1e-3, 150.0)
        assert (idx, h.sig_cur[0, idx], h.sig_prev[0, idx]) == (1, 150.0, 100.0)
        d = history_cost_dataset(h, 0, 1e-3, 160.0, 1.0)
        assert nearest_in(d, 1e-3, 150.0) == 2

    def test_cost_dataset_equals_weighted_prior_distance(self):
        h = self.repo()
        d = history_cost_dataset(h, 0, 1e-3, 120.0, 2.0)
        assert d.costs.shape == (1, 3)
        assert np.array_equal(d.eps, h.eps_cur) and np.array_equal(d.sig, h.sig_cur)
        for i in range(3):
            de = h.eps_prev[0, i] - 1e-3
            ds = h.sig_prev[0, i] - 120.0
            expect = 2.0 * de * de + ds * ds / 2.0
            assert d.costs[0, i] == pytest.approx(expect, rel=1e-12)

    def test_cost_dataset_reproduces_nearest_history(self, rng):
        """Searching the cost dataset of any bar equals a two-slot search of
        that bar's archive."""
        shape = (3, 30)
        h = HistoryRepository(
            rng.normal(size=shape),
            rng.normal(size=shape) * 100.0,
            rng.normal(size=shape),
            rng.normal(size=shape) * 100.0,
        )
        for k in range(20):
            e = k % 3
            prior = (rng.normal(), rng.normal() * 100.0)
            current = (rng.normal(), rng.normal() * 100.0)
            d = history_cost_dataset(h, e, *prior, 175.0)
            got = nearest_in(d, *current, 175.0)
            assert got == two_slot_nearest(current, prior, h, e, 175.0)

    def test_stacked_costs_equal_cost_datasets(self, rng):
        """Each row of the stacked costs equals the cost dataset's costs
        bit for bit, and a non-finite cost is rejected as stack_sets
        rejects it."""
        moduli = (175.0, 2.0, 9.0)
        gm = GlobalMetric(moduli, np.ones(3))
        z_prev = GlobalState(rng.normal(size=3), rng.normal(size=3) * 100.0)
        shape = (3, 30)
        h = HistoryRepository(
            rng.normal(size=shape),
            rng.normal(size=shape) * 100.0,
            rng.normal(size=shape),
            rng.normal(size=shape) * 100.0,
        )
        costs = prior_slot_costs(h, z_prev, gm)
        assert costs.shape == (3, 30)
        for e in range(3):
            d = history_cost_dataset(h, e, z_prev.strain[e], z_prev.stress[e], moduli[e])
            assert np.array_equal(costs[e], d.costs[0])
        out = np.full((3, 30), np.nan)
        assert prior_slot_costs(h, z_prev, gm, out) is out
        assert np.array_equal(out, costs)
        huge = GlobalState(np.full(3, 1e200), np.zeros(3))
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="set 0: .*finite and nonn"):
                prior_slot_costs(h, huge, gm)
            with pytest.raises(ValueError, match="set 0: .*finite and nonn"):
                history_cost_dataset(h, 0, 1e200, 0.0, moduli[0])


def build_order_archive(law, ec0, blocks):
    """The four slots of ``experiments._two_time_archive``'s archive in
    build order, each row the virgin pairs and then every block's priors,
    prior by prior, each paired with the whole current grid: the layout the
    builders wrote before rows were stored in strain order."""
    (m, c), p = ec0.shape, blocks[0][0].shape[1] if blocks else 0
    slots = [np.empty((m, c * (1 + len(blocks) * p))) for _ in range(4)]
    eps_prev, sig_prev, eps_cur, sig_cur = slots
    eps_prev[:, :c] = sig_prev[:, :c] = 0.0
    eps_cur[:, :c] = ec0
    sig_cur[:, :c] = law.modulus_instantaneous * ec0
    p_eps, p_sig, c_eps, c_sig = (a[:, c:].reshape(m, len(blocks), p, c) for a in slots)
    for k, (pe, ps, ec, dt) in enumerate(blocks):
        a, b = sls_affine_coefficients(pe, ps, law, dt)
        p_eps[:, k] = pe[:, :, None]
        p_sig[:, k] = ps[:, :, None]
        c_eps[:, k] = ec[:, None, :]
        np.add(a[:, :, None], b * ec[:, None, :], out=c_sig[:, k])
    return slots


SLOTS = ("eps_prev", "sig_prev", "eps_cur", "sig_cur")


class TestStrainOrder:
    """Every writer of a stack stores each row ascending in strain, with
    every other slot permuted alike."""

    def test_stack_sets_sorts_rows_stably(self, rng):
        """Shuffled ragged rows with repeated strains stack as their stable
        sort by strain, stresses and costs permuted alike: the stack equals
        the stack of the sorted rows, whose rows it keeps as given."""
        sizes = (7, 300, 1, 64)
        eps = [np.round(rng.normal(size=n), 1) for n in sizes]
        sig = [rng.normal(size=n) for n in sizes]
        costs = [rng.uniform(0.0, 1.0, n) if e % 2 else None for e, n in enumerate(sizes)]
        stacked = stack_sets(eps, sig, costs)
        orders = [np.argsort(a, kind="stable") for a in eps]
        by_strain = stack_sets(
            [a[o] for a, o in zip(eps, orders)],
            [a[o] for a, o in zip(sig, orders)],
            [None if a is None else a[o] for a, o in zip(costs, orders)],
        )
        assert np.all(np.diff(stacked.eps, axis=1) >= 0.0)
        assert any(np.any(np.diff(a) == 0.0) for a in eps)
        for name in ("eps", "sig", "costs", "lengths"):
            assert np.array_equal(getattr(stacked, name), getattr(by_strain, name))
        for e, (n, o) in enumerate(zip(sizes, orders)):
            assert np.array_equal(by_strain.eps[e, :n], eps[e][o])
            assert np.array_equal(by_strain.sig[e, :n], sig[e][o])
            if costs[e] is not None:
                assert np.array_equal(by_strain.costs[e, :n], costs[e][o])

    def test_history_repository_sorts_rows_stably(self, rng):
        """Archive rows given out of strain order are sorted stably by the
        current strains, every slot alike, into copies, and the given
        arrays are left as they were; rows given in order are kept, and
        float64 input is then not copied."""
        shape = (3, 200)
        given = [rng.normal(size=shape) for _ in range(4)]
        given[2] = np.round(given[2], 1)
        given[2][1].sort()
        kept = [a.copy() for a in given]
        h = HistoryRepository(*given)
        order = np.argsort(given[2], axis=1, kind="stable")
        for name, a, b in zip(SLOTS, given, kept):
            assert np.array_equal(a, b) and a.flags.writeable
            assert not np.shares_memory(getattr(h, name), a)
            assert np.array_equal(getattr(h, name), np.take_along_axis(a, order, 1))
        again = HistoryRepository(*(getattr(h, name) for name in SLOTS))
        for name in SLOTS:
            assert np.shares_memory(getattr(again, name), getattr(h, name))

    @pytest.mark.parametrize("law", [SLS, PLASTIC], ids=["sls", "plastic"])
    def test_draw_sorts_each_row_in_place(self, law, rng):
        """A noisy draw into a march's stack writes every row's strains
        sorted, as ``np.sort`` of the noisy grid whose row e is drawn alone
        from the step's stream (:func:`step_noise_row`), into the stack's
        own arrays, and the stresses of the sorted strains."""
        m, n, hw, band, step = 3, 512, 2e-3, 4e-4, 2
        eps_prev = rng.normal(scale=1e-3, size=m)
        sig_prev = rng.normal(scale=400.0, size=m)
        est = rng.normal(scale=1e-4, size=m)
        g = GeneratorSpec(
            law=law, n_points=n, band_width=band, window=WindowRule(halfwidth=hw), rng_seed=9
        )
        out = StackedSets(np.empty((m, n)), np.empty((m, n)), None)
        arrays = (out.eps, out.sig)
        d = _stacked_step_sets(g, eps_prev, sig_prev, np.zeros(m), est, 1.0, step, out)
        assert d.eps is arrays[0] and d.sig is arrays[1]
        grid = (np.arange(n) - n // 2) * (hw / (n // 2))
        for e in range(m):
            row = (eps_prev[e] + est[e]) + grid
            row += step_noise_row(9, step, e, n, band)
            assert np.any(np.diff(row) < 0.0)
            assert np.array_equal(out.eps[e], np.sort(row))
        again = draw_sets(g, eps_prev, sig_prev, est, step=step)
        assert np.array_equal(again.eps, out.eps) and np.array_equal(again.sig, out.sig)

    def test_draw_is_one_stream_per_step(self, rng):
        """The noise of a draw is one ``PCG64`` stream keyed by (seed, step),
        row e at stream positions ``[e n, (e + 1) n)``: the strains equal the
        sorted grid plus the step's (M, n) uniforms drawn at once, and each
        row of those uniforms equals the row drawn alone with ``advance(e
        n)``. Another step or seed draws other noise."""
        m, n, hw, band, seed, step = 5, 96, 2e-3, 4e-4, 11, 3
        eps_prev = rng.normal(scale=1e-3, size=m)
        est = rng.normal(scale=1e-4, size=m)
        g = GeneratorSpec(
            law=SLS, n_points=n, band_width=band, window=WindowRule(halfwidth=hw), rng_seed=seed
        )
        d = draw_sets(g, eps_prev, np.zeros(m), est, step=step)
        stream = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, step])))
        noise = stream.uniform(-0.5 * band, 0.5 * band, (m, n))
        grid = (np.arange(n) - n // 2) * (hw / (n // 2))
        assert np.array_equal(d.eps, np.sort((eps_prev + est)[:, None] + grid + noise, axis=1))
        for e in range(m):
            assert np.array_equal(step_noise_row(seed, step, e, n, band), noise[e])
        for other_seed, other_step in ((seed, step + 1), (seed + 1, step)):
            g2 = GeneratorSpec(
                law=SLS, n_points=n, band_width=band, window=WindowRule(halfwidth=hw),
                rng_seed=other_seed,
            )
            other = draw_sets(g2, eps_prev, np.zeros(m), est, step=other_step)
            assert not np.array_equal(other.eps, d.eps)

    def test_archive_builders_write_rows_in_strain_order(self, monkeypatch):
        """The truss and relaxation archives equal their build-order slots
        sorted stably by current strain, bit for bit."""
        built = []
        archive = experiments._two_time_archive

        def recorded(law, ec0, blocks):
            built.append(build_order_archive(law, ec0, blocks))
            return archive(law, ec0, blocks)

        monkeypatch.setattr(experiments, "_two_time_archive", recorded)
        mesh, gm, loads, times = experiments.small_truss_fixture(t_end=4.0)
        archives = [
            experiments.build_truss_repositories(
                mesh, gm, SLS, loads, times, n_prior_strain=3, n_prior_offset=5, n_current=9
            ),
            experiments.build_relaxation_repository(SLS, 0.01, 1.0, n_prior=1001),
        ]
        for h, slots in zip(archives, built):
            order = np.argsort(slots[2], axis=1, kind="stable")
            assert np.any(np.diff(order, axis=1) != 1)  # the build order is not sorted
            for name, a in zip(SLOTS, slots):
                assert np.array_equal(getattr(h, name), np.take_along_axis(a, order, 1))

    def test_archive_ties_keep_their_key_order(self):
        """Equal current strains keep the order of their keys: the virgin
        pairs, then block by block and column by column, each key's run of
        priors in order."""
        pe = np.zeros((1, 3))
        ps = np.array([[1.0, 2.0, 3.0]])
        h = experiments._two_time_archive(SLS, np.zeros((1, 2)), [(pe, ps, np.zeros((1, 2)), 1.0)])
        assert h.eps_cur.tolist() == [[0.0] * 8]
        assert h.sig_prev.tolist() == [[0.0, 0.0, 1.0, 2.0, 3.0, 1.0, 2.0, 3.0]]
