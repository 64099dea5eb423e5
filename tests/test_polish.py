"""The swap polish against the per-element loop it replaced.

``reference_polish`` is that loop, kept here unchanged: it scores every
candidate of one element at a time with ``gain_vec``, a scan of the whole
row, and recomputes the leverage on every call. ``solver._swap_polish``
must return the same assignment on every instance; only where
``argpartition`` breaks an exact tie at the k-th smallest gain differently
may it pick another copy of the same point. The reference still ends in the
block stage the solver no longer has (joint moves confirmed by an exact
re-projection), so the equivalence also pins that this stage would not have
moved on any instance here.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from ddmech import data as data_module
from ddmech import solver
from ddmech.data import StackedSets, stack_sets
from ddmech.phase import GlobalMetric
from ddmech.solver import _GainSearch, _objective, _swap_polish
from ddmech.truss import TrussMesh, assemble


def _gather_lists(idx, eps_list, sig_list, cost_list):
    y_eps = np.array([eps_list[e][i] for e, i in enumerate(idx)])
    y_sig = np.array([sig_list[e][i] for e, i in enumerate(idx)])
    cost = np.array(
        [0.0 if cost_list[e] is None else cost_list[e][i] for e, i in enumerate(idx)]
    )
    return y_eps, y_sig, cost


def reference_polish(sys, eps_list, sig_list, cost_list, f, g, y_eps0, y_sig0, assign0):
    """The swap polish as a loop over elements: the reference.

    Greedy exact-gain reassignment descent: single swaps, then pair moves.

    Both projections are affine in the assigned points, so switching one
    element changes the step objective by a quadratic whose coefficients
    come from the factorized metric stiffness: every candidate is scored in
    O(1) and an accepted switch updates the residuals in O(m). When no
    single switch improves, coordinated pair moves are scored the same way
    (the cross term is one off-diagonal leverage entry), and when pairs
    stall too, joint blocks of the most inconsistent elements are tried
    against an exact re-projection, which unlocks equilibrium-coupled
    stalls lower-order moves cannot leave. Only strictly improving moves
    are taken, so ties never move and a global minimizer is a fixed point.
    Returns the improved assignment, or None.
    """
    m = sys.n_elements
    b = sys.b_free
    w = sys.weights
    c = sys.c
    wc = w * c
    s = sys.solve_k(b.T)  # K^-1 B^T
    infl = b @ s  # per-element leverage of a unit data shift
    hdiag = np.diag(infl)
    a_eps = np.maximum(wc * (1.0 - wc * hdiag), 0.0)
    a_sig = (w * w) * hdiag
    y_eps = np.array(y_eps0, dtype=float)
    y_sig = np.array(y_sig0, dtype=float)
    assign = assign0.copy()
    x_eps = s @ (wc * (y_eps - g))
    r_eps = b @ x_eps + g - y_eps
    x_sig = sys.solve_k(f - b.T @ (w * y_sig))
    r_sig = c * (b @ x_sig)
    cur_cost = np.array(
        [0.0 if cost_list[e] is None else float(cost_list[e][assign[e]]) for e in range(m)]
    )
    phi = float(np.sum(w * (c * r_eps * r_eps + r_sig * r_sig / c + cur_cost)))
    tol = 1e-12 * max(1.0, phi)

    def gain_vec(e):
        de = eps_list[e] - y_eps[e]
        ds = sig_list[e] - y_sig[e]
        gain = (
            (-2.0 * wc[e] * r_eps[e]) * de
            + a_eps[e] * de * de
            + (-2.0 * (w[e] / c[e]) * r_sig[e]) * ds
            + a_sig[e] * ds * ds
        )
        if cost_list[e] is not None:
            gain = gain + w[e] * (cost_list[e] - cost_list[e][assign[e]])
        return gain, de, ds

    def apply_move(e, j, de, ds):
        dee = de[j]
        dss = ds[j]
        r_eps[:] += (dee * wc[e]) * infl[:, e]
        r_eps[e] -= dee
        r_sig[:] -= (dss * w[e]) * (c * infl[:, e])
        y_eps[e] = eps_list[e][j]
        y_sig[e] = sig_list[e][j]
        assign[e] = j

    changed = False
    for _ in range(60):
        swept_any = False
        for _sweep in range(60):
            accepted = False
            for e in range(m):
                gain, de, ds = gain_vec(e)
                j = int(np.argmin(gain))
                if j == assign[e] or not (gain[j] < -tol):
                    continue
                apply_move(e, j, de, ds)
                accepted = True
            if accepted:
                swept_any = True
                changed = True
            else:
                break
        # pair stage: the most mismatched elements, each with its best few
        # alternatives, scored jointly
        loc = w * (c * r_eps * r_eps + r_sig * r_sig / c)
        k_short = min(32, m)
        short = np.sort(np.argpartition(-loc, k_short - 1)[:k_short])
        cand: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
        for e in short:
            gain, de, ds = gain_vec(e)
            n_l = min(6, gain.size)
            top = np.sort(np.argpartition(gain, n_l - 1)[:n_l])
            cand[e] = (top, gain[top], de[top], ds[top])
        best_pair = None
        for i1 in range(k_short):
            e1 = int(short[i1])
            t1, g1, de1, ds1 = cand[e1]
            for i2 in range(i1 + 1, k_short):
                e2 = int(short[i2])
                t2, g2, de2, ds2 = cand[e2]
                cross = 2.0 * infl[e1, e2] * (
                    (w[e1] * w[e2]) * np.outer(ds1, ds2)
                    - (wc[e1] * wc[e2]) * np.outer(de1, de2)
                )
                total = g1[:, None] + g2[None, :] + cross
                flat = int(np.argmin(total))
                val = float(total.flat[flat])
                if best_pair is None or val < best_pair[0]:
                    j1, j2 = divmod(flat, t2.size)
                    best_pair = (val, e1, int(t1[j1]), e2, int(t2[j2]))
        if best_pair is not None and best_pair[0] < -tol:
            _, e1, j1, e2, j2 = best_pair
            for e, j in ((e1, j1), (e2, j2)):
                de = eps_list[e] - y_eps[e]
                ds = sig_list[e] - y_sig[e]
                apply_move(e, j, de, ds)
            changed = True
            continue
        # subset stage: the objective is quadratic in the assigned points,
        # so the exact change of any joint move is its single gains plus
        # pairwise cross terms; enumerate full candidate products over small
        # groups of the most inconsistent elements
        order = np.lexsort((np.arange(m), -loc))
        n_grp = 6
        sub_best = None
        for g0 in (0, n_grp):
            grp = [int(e) for e in order[g0 : g0 + n_grp]]
            if len(grp) < 2:
                continue
            cands = []
            for e in grp:
                gain, de, ds = gain_vec(e)
                n_c = min(4, gain.size - 1)
                top = np.argpartition(gain, n_c)[: n_c + 1] if n_c > 0 else np.array([0])
                js = np.unique(np.append(top, assign[e]))
                cands.append((e, js, gain[js], de, ds))
            shape = tuple(ct[1].size for ct in cands)
            total = np.zeros(shape)
            for i, (e, js, gi, de, ds) in enumerate(cands):
                ax = [1] * len(shape)
                ax[i] = shape[i]
                total += gi.reshape(ax)
            for i in range(len(cands)):
                ei, ji, _, dei, dsi = cands[i]
                for j in range(i + 1, len(cands)):
                    ej, jj, _, dej, dsj = cands[j]
                    cross = 2.0 * infl[ei, ej] * (
                        (w[ei] * w[ej]) * np.outer(dsi[ji], dsj[jj])
                        - (wc[ei] * wc[ej]) * np.outer(dei[ji], dej[jj])
                    )
                    ax = [1] * len(shape)
                    ax[i] = shape[i]
                    ax[j] = shape[j]
                    total += cross.reshape(ax)
            flat = int(np.argmin(total))
            val = float(total.flat[flat])
            if val < -tol and (sub_best is None or val < sub_best[0]):
                combo = np.unravel_index(flat, shape)
                moves = []
                for i, (e, js, _, de, ds) in enumerate(cands):
                    jn = int(js[combo[i]])
                    if jn != assign[e]:
                        moves.append((e, jn, de, ds))
                if moves:
                    sub_best = (val, moves)
        if sub_best is not None:
            for e, jn, de, ds in sub_best[1]:
                apply_move(e, jn, de, ds)
            changed = True
            continue
        # block stage: stalls that survive subset moves are collective, so
        # jointly send the most inconsistent elements to their own best
        # candidates and keep the block only if an exact re-projection
        # confirms the objective drops
        cost_now = sum(
            0.0 if cost_list[e] is None else w[e] * float(cost_list[e][assign[e]])
            for e in range(m)
        )
        phi_now = float(np.sum(w * (c * r_eps * r_eps + r_sig * r_sig / c))) + cost_now
        targets = np.empty(m, dtype=np.int64)
        for e in range(m):
            gain, _, _ = gain_vec(e)
            targets[e] = int(np.argmin(gain))
        best_block = None
        for kb in (2, 4, 8, 16, 32):
            if kb > m:
                break
            trial = assign.copy()
            sel = order[:kb]
            trial[sel] = targets[sel]
            if np.array_equal(trial, assign):
                continue
            ye, ys, cost_t = _gather_lists(trial, eps_list, sig_list, cost_list)
            eps_t, sig_t, _ = sys.project_arrays(ye, ys, f, g)
            _, obj_t = _objective(sys, eps_t, sig_t, ye, ys, cost_t)
            if obj_t < phi_now - tol and (best_block is None or obj_t < best_block[0]):
                best_block = (obj_t, trial)
        if best_block is None:
            break
        assign = best_block[1]
        y_eps, y_sig, _ = _gather_lists(assign, eps_list, sig_list, cost_list)
        x_eps = s @ (wc * (y_eps - g))
        r_eps = b @ x_eps + g - y_eps
        x_sig = sys.solve_k(f - b.T @ (w * y_sig))
        r_sig = c * (b @ x_sig)
        changed = True
    return assign if changed else None


def polish_truss(rng, special=True):
    """35 bars: 30 tie three fully free nodes to random anchors; one bar
    alone carries a one-dof node, with powers of two so its leverage is
    exactly one and ``a_eps`` exactly 0; four join fixed anchors, so their
    leverage is exactly zero (``a_sig = r_sig = 0``). ``special`` False
    keeps the first 30 bars only."""
    anchors = rng.normal(size=(12, 3)) * 1.5
    free = rng.normal(size=(3, 3)) * 0.3
    coords = np.vstack([anchors, free, [[5.0, 5.0, 5.0], [4.0, 5.0, 5.0]]])
    conn = [[12 + i, int(a)] for i in range(3) for a in rng.choice(12, 10, replace=False)]
    conn += [[16, 15], [0, 1], [2, 3], [4, 5], [6, 7]]
    m = len(conn)
    areas = rng.uniform(0.5, 2.0, m)
    areas[30] = 1.0
    moduli = rng.uniform(500.0, 2000.0, m)
    moduli[30] = 1024.0
    if not special:
        conn, areas, moduli, m = conn[:30], areas[:30], moduli[:30], 30
    supports = {(i, d) for i in list(range(12)) + [16] for d in range(3)}
    # node 15 moves only along its one bar, and not at all without it
    supports |= {(15, 1), (15, 2)} if special else {(15, 0), (15, 1), (15, 2)}
    mesh = TrussMesh(coords, np.array(conn), areas, frozenset(supports))
    gm = GlobalMetric(moduli, mesh.volumes)
    return assemble(mesh, gm)


def random_sets(rng, sys, sizes, *, costs=False, duplicates=False, spread=1.0):
    """Per-bar (strain, stress) clouds near a linear response, as lists."""
    eps_list, sig_list, cost_list = [], [], []
    for e, n in enumerate(sizes):
        eps = rng.normal(scale=0.01 * spread, size=n)
        sig = sys.c[e] * (eps + rng.normal(scale=0.004 * spread, size=n))
        cost = rng.uniform(0.0, 1e-3, n) * sys.c[e] if costs and e % 3 else None
        if duplicates and n > 2:
            src = rng.integers(0, n, n // 4)
            dst = rng.integers(0, n, n // 4)
            eps[dst], sig[dst] = eps[src], sig[src]
            if cost is not None:
                cost[dst] = cost[src]
        eps_list.append(eps)
        sig_list.append(sig)
        cost_list.append(cost)
    return eps_list, sig_list, cost_list


def both_polishes(rng, sys, eps_list, sig_list, cost_list, force=1.0):
    m = sys.n_elements
    f = rng.normal(size=sys.n_free) * 20.0 * force
    g = rng.normal(size=m) * 1e-3
    assign0 = np.array([rng.integers(0, a.size) for a in eps_list], dtype=np.int64)
    y_eps0 = np.array([eps_list[e][j] for e, j in enumerate(assign0)])
    y_sig0 = np.array([sig_list[e][j] for e, j in enumerate(assign0)])
    sets = stack_sets(eps_list, sig_list, cost_list)
    if sets.lengths is None:
        ref_costs = [None] * m if sets.costs is None else list(sets.costs)
    else:
        ref_costs = cost_list
    got = _swap_polish(sys, sets, f, g, y_eps0, y_sig0, assign0)
    expect = reference_polish(
        sys, eps_list, sig_list, ref_costs, f, g, y_eps0, y_sig0, assign0
    )
    return got, expect


class PlanCounter:
    """Counts the rows the polish searched by block, certified empty, or
    scanned whole because the bound did not apply or the block was long,
    as the shared block planner planned them."""

    def __init__(self, monkeypatch):
        self.blocked = self.empty = self.long = self.uncertified = 0
        plan = solver.plan_blocks

        def counted(index, *args):
            lo, hi, scan = plan(index, *args)
            length = hi - lo
            long = length > data_module._MAX_BLOCK_SHARE * index.eps.shape[1]
            self.blocked += int(np.sum(~scan & (length > 0)))
            self.empty += int(np.sum(~scan & (length == 0)))
            self.long += int(np.sum(scan & long))
            self.uncertified += int(np.sum(scan & ~long))
            return lo, hi, scan

        monkeypatch.setattr(solver, "plan_blocks", counted)


class TestPolishEquivalence:
    """Stacked, chunked and block-searched polish == the element loop."""

    def test_truss_has_exact_special_bars(self):
        sys = polish_truss(np.random.default_rng(0))
        gs = _GainSearch(sys, StackedSets(np.zeros((35, 1)), np.zeros((35, 1)), None),
                         *(np.zeros(35) for _ in range(5)))
        assert gs.a_eps[30] == 0.0
        assert np.all(gs.a_sig[31:] == 0.0) and np.all(gs.a_eps[31:] > 0.0)

    @pytest.mark.parametrize("n", [8, 64, 300, 5000])
    @pytest.mark.parametrize("costs", [False, True])
    def test_stacked_sets(self, n, costs, monkeypatch):
        counter = PlanCounter(monkeypatch)
        rng = np.random.default_rng(1000 * n + costs)
        for _ in range(3 if n == 5000 else 6):
            sys = polish_truss(rng)
            lists = random_sets(rng, sys, [n] * sys.n_elements, costs=costs)
            got, expect = both_polishes(rng, sys, *lists)
            assert (got is None) == (expect is None)
            if got is not None:
                assert np.array_equal(got, expect)
        if n >= solver._CHUNK_POINTS:
            assert counter.blocked > 0 and counter.empty > 0
            assert counter.uncertified > 0

    def test_large_residuals_scan_long_blocks(self, monkeypatch):
        """Far from the data the block bound spans most of a row, which is
        then scanned whole."""
        counter = PlanCounter(monkeypatch)
        rng = np.random.default_rng(77)
        sys = polish_truss(rng)
        lists = random_sets(rng, sys, [4096] * sys.n_elements, costs=True)
        got, expect = both_polishes(rng, sys, *lists, force=1e3)
        assert np.array_equal(got, expect)
        assert counter.long > 0 and counter.blocked > 0

    @pytest.mark.parametrize("n", [64, 3000])
    def test_duplicate_points_and_exact_ties(self, n):
        """Copies of a point tie exactly; the lowest index wins wherever the
        loop takes an argmin. A tie at the k-th smallest gain may keep
        another copy in a candidate list, so the points are compared."""
        rng = np.random.default_rng(5 + n)
        for _ in range(4):
            sys = polish_truss(rng)
            eps_list, sig_list, cost_list = random_sets(
                rng, sys, [n] * sys.n_elements, costs=True, duplicates=True
            )
            got, expect = both_polishes(rng, sys, eps_list, sig_list, cost_list)
            assert (got is None) == (expect is None)
            if got is not None:
                rows = np.arange(sys.n_elements)
                eps, sig = np.stack(eps_list), np.stack(sig_list)
                assert np.array_equal(eps[rows, got], eps[rows, expect])
                assert np.array_equal(sig[rows, got], sig[rows, expect])

    @pytest.mark.parametrize("largest", [4, 9, 40, 2600])
    @pytest.mark.parametrize("costs", [False, True])
    def test_ragged_sets_padded(self, largest, costs):
        rng = np.random.default_rng(largest + 3 * costs)
        for _ in range(5):
            sys = polish_truss(rng)
            sizes = rng.integers(1, largest + 1, sys.n_elements)
            lists = random_sets(rng, sys, sizes, costs=costs)
            got, expect = both_polishes(rng, sys, *lists)
            assert (got is None) == (expect is None)
            if got is not None:
                assert np.array_equal(got, expect)


class MoveCounter:
    """Counts accepted single moves and the polish's ``plan_blocks`` calls."""

    def __init__(self, monkeypatch):
        self.moves = self.plans = 0
        self._sweeping = False
        first_move, plan = _GainSearch.first_move, solver.plan_blocks

        def counted_first_move(gs, *args):
            self._sweeping = True
            try:
                move, stop = first_move(gs, *args)
            finally:
                self._sweeping = False
            self.moves += move is not None
            return move, stop

        def counted_plan(*args):
            self.plans += 1
            return plan(*args)

        monkeypatch.setattr(_GainSearch, "first_move", counted_first_move)
        monkeypatch.setattr(solver, "plan_blocks", counted_plan)


class WindowCounter(MoveCounter):
    """Also counts what the single sweep does with the windows of rows
    searched in strain order: rows whose window it placed again, rows it
    scored on a planned block longer than K instead, and windows that
    touch the low or the high end of their row."""

    def __init__(self, monkeypatch):
        super().__init__(monkeypatch)
        self.replaced = self.long = self.low_end = self.high_end = 0
        place, evaluate = _GainSearch._place, solver.planned_lowest

        def counted_place(gs, r, lo, hi):
            place(gs, r, lo, hi)
            self.replaced += r.size if self._sweeping else 0
            self.low_end += int(np.sum(gs.guards[r, 0] == -np.inf))
            self.high_end += int(np.sum(gs.guards[r, 1] == np.inf))

        def counted_evaluate(index, rows, plan, *args):
            lo, hi, scan = plan
            if self._sweeping:
                self.long += int(np.sum(~scan & (hi - lo > solver._WINDOW)))
            return evaluate(index, rows, plan, *args)

        monkeypatch.setattr(_GainSearch, "_place", counted_place)
        monkeypatch.setattr(solver, "planned_lowest", counted_evaluate)


def assert_same(got, expect):
    assert (got is None) == (expect is None)
    if got is not None:
        assert np.array_equal(got, expect)


class TestWindows:
    """The single sweep on K-point windows of rows of 2048 points or more
    == the element loop, case by case of the window's life."""

    def test_block_leaves_its_window(self, monkeypatch):
        """From a random assignment the residuals move far, and blocks leave
        the windows placed when the polish started."""
        counter = WindowCounter(monkeypatch)
        rng = np.random.default_rng(41)
        for _ in range(2):
            sys = polish_truss(rng, special=False)
            lists = random_sets(rng, sys, [4096] * sys.n_elements)
            assert_same(*both_polishes(rng, sys, *lists))
        assert counter.replaced > 0

    def test_block_longer_than_window(self, monkeypatch):
        counter = WindowCounter(monkeypatch)
        rng = np.random.default_rng(42)
        for _ in range(2):
            sys = polish_truss(rng)
            lists = random_sets(rng, sys, [4096] * sys.n_elements, costs=True)
            assert_same(*both_polishes(rng, sys, *lists, force=10.0))
        assert counter.long > 0

    def test_window_at_either_end_of_its_row(self, monkeypatch):
        """Rows whose data lie all above or all below the strain their bar
        is pulled to have their blocks, and windows, at an end."""
        counter = WindowCounter(monkeypatch)
        rng = np.random.default_rng(43)
        for _ in range(2):
            sys = polish_truss(rng)
            eps_list, sig_list, cost_list = random_sets(rng, sys, [4096] * sys.n_elements)
            for e in range(sys.n_elements):
                eps_list[e] += 0.03 * (e % 3 - 1)
            assert_same(*both_polishes(rng, sys, eps_list, sig_list, cost_list))
        assert counter.low_end > 0 and counter.high_end > 0

    @pytest.mark.parametrize("costs", [False, True])
    def test_ragged_long_rows_padded(self, costs, monkeypatch):
        """Padded entries repeat their row's last point, so they sit in its
        strain order and may fall in a window, with gain +inf."""
        counter = WindowCounter(monkeypatch)
        rng = np.random.default_rng(44 + costs)
        for _ in range(2):
            sys = polish_truss(rng)
            sizes = rng.integers(solver._CHUNK_POINTS, 4097, sys.n_elements)
            lists = random_sets(rng, sys, sizes, costs=costs)
            sets = stack_sets(*lists)
            assert sets.lengths is not None and sets.lengths.min() >= solver._CHUNK_POINTS
            assert_same(*both_polishes(rng, sys, *lists))
        assert counter.moves > 0

    def test_equal_gains_go_to_the_lowest_index(self):
        """Every point is stored twice, at i and i + 2048; where the strain
        order puts the higher copy first, a window's first minimum is not
        the scan's. Ranks come in pairs, so no top-6 list breaks a tie at
        its last place, and the indices must agree exactly."""
        rng = np.random.default_rng(45)
        half = solver._CHUNK_POINTS
        flipped = 0
        for _ in range(3):
            sys = polish_truss(rng)
            eps_list, sig_list, cost_list = random_sets(rng, sys, [half] * sys.n_elements)
            eps_list = [np.concatenate([a, a]) for a in eps_list]
            sig_list = [np.concatenate([a, a]) for a in sig_list]
            order = StackedSets(np.stack(eps_list), np.stack(sig_list), None).strain_index().order
            flipped += int(np.sum(order[:, :-1] == order[:, 1:] + half))
            assert_same(*both_polishes(rng, sys, eps_list, sig_list, cost_list))
        assert flipped > 0

    def test_plans_fewer_than_moves(self, monkeypatch):
        """On data close to a linear response, every row starts three
        strain neighbours off a polished assignment and moves back; the
        windows placed when the polish starts hold the short blocks, so
        ``plan_blocks`` runs far less often than once per move."""
        rng = np.random.default_rng(46)
        sys = polish_truss(rng, special=False)
        m, rows = sys.n_elements, np.arange(sys.n_elements)
        eps = rng.normal(scale=0.01, size=(m, 4096))
        sig = sys.c[:, None] * (eps + rng.normal(scale=4e-5, size=(m, 4096)))
        sets = StackedSets(eps, sig, None)
        f = rng.normal(size=sys.n_free) * 20.0
        g = rng.normal(size=m) * 1e-3

        def polish(assign0, polish_fn=_swap_polish, *lists):
            y0 = (eps[rows, assign0], sig[rows, assign0])
            return polish_fn(sys, *(lists or (sets,)), f, g, *y0, assign0)

        polished = polish(rng.integers(0, 4096, m))
        order = sets.strain_index().order
        pos = np.argsort(order, axis=1)[rows, polished] + rng.choice([-3, 3], m)
        start = order[rows, np.clip(pos, 0, 4095)]
        counter = MoveCounter(monkeypatch)
        got = polish(start)
        assert counter.moves >= m
        assert counter.plans < counter.moves
        assert_same(got, polish(start, reference_polish, eps, sig, [None] * m))


class CheckCounter:
    """Counts, for every ``_check_windows`` call, the ``block_ends`` calls
    made inside it, directly or through ``plan_blocks``, and the
    ``plan_blocks`` calls made inside any of them."""

    def __init__(self, monkeypatch):
        self.blocks: list[int] = []
        self.plans = 0
        self._inside = False
        check, block, plan = _GainSearch._check_windows, data_module.block_ends, solver.plan_blocks

        def counted_check(gs, *args):
            self.blocks.append(0)
            self._inside = True
            try:
                return check(gs, *args)
            finally:
                self._inside = False

        def counted_block(*args):
            if self._inside:
                self.blocks[-1] += 1
            return block(*args)

        def counted_plan(*args):
            self.plans += self._inside
            return plan(*args)

        monkeypatch.setattr(_GainSearch, "_check_windows", counted_check)
        monkeypatch.setattr(solver, "block_ends", counted_block)
        monkeypatch.setattr(data_module, "block_ends", counted_block)
        monkeypatch.setattr(solver, "plan_blocks", counted_plan)


def test_block_ends_computed_once_per_checked_chunk(monkeypatch):
    """``_check_windows`` computes its chunk's block ends once, and plans
    the rows whose block left its window from those same ends."""
    counter = CheckCounter(monkeypatch)
    rng = np.random.default_rng(41)
    for _ in range(2):
        sys = polish_truss(rng, special=False)
        lists = random_sets(rng, sys, [4096] * sys.n_elements)
        assert_same(*both_polishes(rng, sys, *lists))
    assert counter.blocks and set(counter.blocks) == {1}
    assert counter.plans > 0


def brute_lowest(gain, k):
    order = np.array([np.lexsort((np.arange(row.size), row))[:k] for row in gain])
    return order, np.take_along_axis(gain, order, axis=1)


class TestBlockSearch:
    """The certified blocks against a ranking of every candidate."""

    def test_bound_holds_candidates_that_sit_on_it(self):
        """On strain-only bars the current point scores exactly 0 and lies
        on the T = 0 bound, and the k-th strain neighbour lies on its own
        bound, so a block bound without its rounding slack loses them."""
        rng = np.random.default_rng(8)
        sys = polish_truss(rng)
        m, n = sys.n_elements, 4096
        rows = np.arange(m)
        for _ in range(10):
            # strains at least 0.6 spacings apart, in random order, with the
            # current point a hair off zero: the block centre is then almost
            # all alpha, and rounding it loses the point's tiny strain
            step = rng.uniform(1e-4, 1e-2)
            eps = step * np.stack(
                [rng.permutation(n) + rng.uniform(-0.2, 0.2, n) for _ in rows]
            )
            assign = rng.integers(0, n, m)
            eps -= eps[rows, assign][:, None]
            eps += rng.choice([-1.0, 1.0], (m, 1)) * 1e-20 * step
            sig = sys.c[:, None] * (eps + rng.normal(scale=1e-3, size=(m, n)))
            sets = StackedSets(eps, sig, None)
            y_eps, y_sig = eps[rows, assign], sig[rows, assign]
            # the block centre of a strain-only bar is its point plus r_eps:
            # less than 0.3 spacings off, so the point stays its minimizer
            r_eps = rng.uniform(-0.25, 0.25, m) * step
            r_sig = rng.normal(size=m) * sys.c * step
            r_sig[31:] = 0.0
            r_sig[34] = sys.c[34] * step  # zero leverage but nonzero residual
            gs = _GainSearch(sys, sets, y_eps, y_sig, r_eps, r_sig, np.zeros(m))
            gain = gs.rows(slice(0, m))
            for k in (6, 5, 1):
                if k == 1:  # the argmin on the T = 0 bound
                    plan = solver.plan_blocks(sets.strain_index(), rows, gs._terms(rows), 0.0)
                    j, v = gs.lowest(rows, 1, plan)
                else:
                    j, v = gs.lowest(rows, k)
                expect_j, expect_v = brute_lowest(gain, k)
                assert np.array_equal(j, expect_j)
                assert np.array_equal(v, expect_v)
            # the strain-only bars' own points are their minimizers
            assert np.array_equal(j[31:34, 0], assign[31:34])


def tied_truss(rng, n, n_low=32, n_tie=60, n_free=8):
    """A polish instance whose ``loc`` ties straddle the pair stage's 32nd
    row. ``n_low + n_tie`` bars join the same two fixed anchors, so their
    leverage is exactly zero and their residual is ``g - y_eps``: every
    strain of theirs is at most 0, the current one exactly 0, and ``g`` is
    the same ``d`` on the ``n_tie`` tied bars and less on the ``n_low``
    bars before them, so their ``loc`` values tie exactly, none of them
    ever moves, and no move elsewhere changes them. The last ``n_free``
    bars hang one free node from the anchors. Returns ``(sys, eps_list,
    sig_list, f, g, y_eps0, y_sig0, assign0)``."""
    anchors = rng.normal(size=(12, 3)) * 1.5
    coords = np.vstack([anchors, rng.normal(size=(1, 3)) * 0.3])
    fixed = n_low + n_tie
    conn = [[0, 1]] * fixed + [[12, int(a)] for a in rng.choice(12, n_free, replace=False)]
    m = len(conn)
    areas, moduli = np.ones(m), np.full(m, 1024.0)
    areas[fixed:] = rng.uniform(0.5, 2.0, n_free)
    moduli[fixed:] = rng.uniform(500.0, 2000.0, n_free)
    supports = frozenset((i, d) for i in range(12) for d in range(3))
    mesh = TrussMesh(coords, np.array(conn), areas, supports)
    sys = assemble(mesh, GlobalMetric(moduli, mesh.volumes))
    eps = rng.normal(scale=0.01, size=(m, n))
    sig = sys.c[:, None] * (eps + rng.normal(scale=0.004, size=(m, n)))
    assign0 = rng.integers(0, n, m)
    eps[:fixed] = -np.abs(eps[:fixed])
    eps[np.arange(fixed), assign0[:fixed]] = 0.0
    g = rng.normal(size=m) * 1e-3
    g[:n_low] = rng.uniform(0.1, 0.9, n_low) * 1e-4
    g[n_low:fixed] = 1e-4
    f = rng.normal(size=sys.n_free) * 20.0
    rows = np.arange(m)
    return sys, list(eps), list(sig), f, g, eps[rows, assign0], sig[rows, assign0], assign0


class TestSubsetCandidates:
    """The subset stage takes the top 5 of a row the pair stage ranked from
    that ranking, and searches every other row of its groups."""

    @pytest.mark.parametrize("n", [16, 2600])
    def test_rows_outside_the_pair_stage_are_searched(self, n, monkeypatch):
        """Tied ``loc`` values put rows in the subset stage's first 12 that
        ``argpartition`` left out of the pair stage's 32. Those rows are
        searched at k = 5, every group row's candidates hold its true top 5
        (lowest index on ties) and its current point, and the moves equal
        the element loop's."""
        asked, groups = [], []
        lowest, at = _GainSearch.lowest, _GainSearch.at

        def logged_lowest(gs, r, k, plan=None):
            asked.append((k, set(np.asarray(r).tolist())))
            return lowest(gs, r, k, plan)

        def checked_at(gs, r, j):
            if r.size == 1 and inspect.currentframe().f_back.f_code.co_name == "_swap_polish":
                # a subset group's row
                gain = gs.rows(slice(r[0], r[0] + 1))[0]
                top5 = np.lexsort((np.arange(gain.size), gain))[:5]
                assert set(top5.tolist()) <= set(j[0].tolist()) and j.shape[1] <= 6
                groups.append(int(r[0]))
            return at(gs, r, j)

        monkeypatch.setattr(_GainSearch, "lowest", logged_lowest)
        monkeypatch.setattr(_GainSearch, "at", checked_at)
        rng = np.random.default_rng(n)
        for _ in range(2):
            truss, eps_list, sig_list, f, g, y_eps0, y_sig0, assign0 = tied_truss(rng, n)
            sets = stack_sets(eps_list, sig_list)
            got = _swap_polish(truss, sets, f, g, y_eps0, y_sig0, assign0)
            expect = reference_polish(
                truss, eps_list, sig_list, [None] * truss.n_elements, f, g, y_eps0, y_sig0,
                assign0,
            )
            assert got is not None
            assert_same(got, expect)
        after_pairs = [
            (short, rows) for (k6, short), (k, rows) in zip(asked, asked[1:]) if (k6, k) == (6, 5)
        ]
        assert after_pairs, "no row of the subset groups lay outside the pair stage's 32"
        for short, rows in after_pairs:
            assert rows and not rows & short and rows <= set(groups)
