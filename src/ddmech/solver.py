"""Data-driven solvers: fixed-point projection iteration, the small-instance
enumeration oracle, and the conditioned time marches.

One time step solves

    min |z - y|^2 + cost(y)   over z in E(t), y in D

with E(t) the compatible-equilibrated set and D the product of per-bar
data sets. A bar's state is one (strain, stress) pair, so states and
assignments are flat arrays over the M bars. The fixed-point iteration
alternates the two closest-point maps (the per-bar nearest search, then
projection onto E) and stops when the data association repeats; the global
objective is non-increasing along the iteration because each half-step is
an exact minimization. The enumeration oracle checks every data assignment
and is the ground truth on instances small enough to afford it.

Every solve, search and polish reads the step's sets as one (M, n)
:class:`~ddmech.data.StackedSets`, row e holding bar e's set. A march's
sets all have n points; the enumeration oracle's may be of unequal size,
padded by :func:`~ddmech.data.stack_sets` with entries that are never
chosen.
Whenever the walk stops, an exact-gain swap polish (:func:`_swap_polish`)
tries single, pair and subset reassignments against the same objective. It
scores candidates with the scan's own arithmetic: the single sweep on
per-row candidate windows whose terms it caches (whole rows of short sets,
and for long ones a slice of each row, which ascends in strain, that holds
its certified strain block), the other stages on whole rows or certified
blocks, so every move, and every trajectory, is the one a scan of every
candidate gives. The walk's association and the polish plan their blocks
with one search (:func:`~ddmech.data.plan_blocks`), whose bound is proved
once, in :func:`_swap_polish`.

Both marches run one step loop and differ only in the data sets a step
searches, which every step draws into one (M, n) stack per march.
:func:`time_march` regenerates the per-element sets every step,
conditioned on the previously accepted local states; each step's noise is
one stream keyed by (run seed, step), every element's row at its own
offset in it, so trajectories are bit-reproducible and any row can be
drawn alone.
:func:`history_matching_march` searches fixed two-time archives, one
(M, n) :class:`~ddmech.data.HistoryRepository` whose current slots are the
march's stack, with the prior-slot mismatch against the previously accepted
state as a fidelity cost. Every step is solved once, in the march's own
process. On regenerated sets the solve starts from the predicted state or
from the empirical response read off the step's sets, whichever first
iterate has the lower objective. An archive step starts from the predicted
state: its current slots trace no response curve, so the response init
declines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .data import (
    GeneratorSpec,
    HistoryRepository,
    StackedSets,
    batch_nearest,
    block_ends,
    chunked_lowest,
    # no step calls it; perfbench's layer list names it in this module
    history_cost_dataset,  # noqa: F401
    plan_blocks,
    planned_lowest,
    prior_slot_costs,
    require_int,
    search,
    # no step calls it; perfbench's layer list names it in this module
    stack_sets,  # noqa: F401
    update_history_variable,
    write_csv,
)
from .materials import (
    PlasticParams,
    SlsParams,
    # no step calls it; perfbench's layer list names it in this module
    plastic_return_map,  # noqa: F401
    plastic_stress,
    sls_affine_coefficients,
)
from .phase import GlobalMetric, GlobalState
from .truss import ConstraintSystem, LoadProgram, TrussMesh, assemble

__all__ = [
    "SolverConfig",
    "StepResult",
    "Trajectory",
    "fixed_point_solve",
    "enumerate_global_min",
    "time_march",
    "history_matching_march",
    "export_trajectory_csv",
    "trajectory_summary",
]


@dataclass(frozen=True)
class SolverConfig:
    """The walk's iteration budget per solve. A march accepts the best
    iterate of a step whose fixed point the budget left unconfirmed, flagged
    in ``Trajectory.converged``.
    """

    max_fixed_point_iters: int = 200

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "max_fixed_point_iters",
            require_int("max_fixed_point_iters", self.max_fixed_point_iters, 1),
        )


@dataclass
class StepResult:
    """Converged (or best-found) state of one solve.

    ``objective_history`` records the global objective (square distance plus
    fidelity cost) after every projection; it is non-increasing. For cost-free
    data sets it coincides with the square distance.
    """

    z: GlobalState
    y: GlobalState
    assignment: np.ndarray
    iterations: int
    distance_sq: float
    converged: bool
    objective_history: list[float] = field(default_factory=list)
    equilibrium_residual: float = 0.0
    displacements: np.ndarray | None = None


def _stacked(sets: StackedSets, m: int) -> StackedSets:
    """The sets, checked to hold one row for each of the m elements."""
    if sets.eps.shape[0] != m:
        raise ValueError(f"{m} data sets required, got {sets.eps.shape[0]}")
    return sets


def _gather(idx, sets: StackedSets):
    """Strains, stresses and costs (0.0 when the sets carry none) at the
    assignments ``idx``, one index per element along the last axis."""
    rows = np.arange(idx.shape[-1])
    cost = 0.0 if sets.costs is None else sets.costs[rows, idx]
    return sets.eps[rows, idx], sets.sig[rows, idx], cost


def _objective(sys, eps, sig, y_eps, y_sig, cost) -> tuple[float, float]:
    """(square distance, square distance + weighted fidelity cost)."""
    de = eps - y_eps
    ds = sig - y_sig
    d2 = float(np.sum(sys.weights * (sys.c * de * de + sys.c_inv * ds * ds)))
    total = d2 + float(np.sum(sys.weights * cost))
    return d2, total


#: Points one array operation of the swap polish scores at most: the single
#: sweep scores ``_CHUNK_POINTS // K`` rows at a time on their K-point
#: candidate windows, and a whole-row scan ``_CHUNK_POINTS // n`` rows.
_CHUNK_POINTS = 2048
#: Rows this long or longer are searched in strain order by every stage of
#: the swap polish: the single sweep on windows, the others on blocks.
_WINDOW_POINTS = 512
#: K for rows searched in strain order: the consecutive indices of a window.
_WINDOW = 64


class _GainSearch:
    """Gains of single reassignments for the swap polish, by scan, block or
    window.

    Holds the polish's live arrays (current points, residuals, current
    costs), which the polish updates in place, and, from
    :meth:`open_windows` on, every row's candidate window with its cached
    terms, which :meth:`refresh` renews for a row that moves. Every gain is
    the scan expression of :func:`_swap_polish`, whether it is evaluated
    over whole rows, on their windows, or on the certified blocks of rows
    searched in strain order, which the shared block search of
    :mod:`ddmech.data` plans from the gain's coefficients (:meth:`_terms`)
    and evaluates with :meth:`_value`, as the walk's association does with
    its own square distance. Every stage searches rows in strain order
    (``by_strain``) exactly when they hold ``_WINDOW_POINTS`` points or more.
    """

    def __init__(self, sys, sets, y_eps, y_sig, r_eps, r_sig, cur_cost) -> None:
        w, c = sys.weights, sys.c
        wc = w * c
        hdiag = sys.leverage()[2]
        self.sets = sets
        self.n = sets.eps.shape[1]
        self.by_strain = self.n >= _WINDOW_POINTS
        self.w = w
        self.m2wc = -2.0 * wc
        self.m2w_c = -2.0 * (w / c)
        self.a_eps = np.maximum(wc * (1.0 - wc * hdiag), 0.0)
        self.a_sig = (w * w) * hdiag
        self.y_eps, self.y_sig = y_eps, y_sig
        self.r_eps, self.r_sig = r_eps, r_sig
        self.cur_cost = cur_cost

    def _gain(self, r, de, ds, cost):
        gain = (
            (self.m2wc[r] * self.r_eps[r])[:, None] * de
            + self.a_eps[r][:, None] * de * de
            + (self.m2w_c[r] * self.r_sig[r])[:, None] * ds
            + self.a_sig[r][:, None] * ds * ds
        )
        if cost is not None:
            gain = gain + self.w[r][:, None] * (cost - self.cur_cost[r][:, None])
        return gain

    def rows(self, r):
        """Gains over whole rows r (a slice or an index array)."""
        s = self.sets
        de = s.eps[r] - self.y_eps[r][:, None]
        ds = s.sig[r] - self.y_sig[r][:, None]
        return self._gain(r, de, ds, None if s.costs is None else s.costs[r])

    def at(self, r, j):
        """Gains, strain and stress shifts of rows r at indices j (one row
        of indices per entry of r)."""
        s = self.sets
        rc = r[:, None]
        de = s.eps[rc, j] - self.y_eps[rc]
        ds = s.sig[rc, j] - self.y_sig[rc]
        return self._gain(r, de, ds, None if s.costs is None else s.costs[rc, j]), de, ds

    def _terms(self, r):
        """The gain's coefficients for rows r, as :func:`~ddmech.data.block_ends`
        reads them."""
        l_e, l_s = self.m2wc[r] * self.r_eps[r], self.m2w_c[r] * self.r_sig[r]
        return self.a_eps[r], self.a_sig[r], l_e, l_s, self.y_eps[r], self.w[r] * self.cur_cost[r]

    def _value(self, r, j):
        """Gains of rows r at indices j, for the block planner."""
        return self.at(r, j)[0]

    def _scan(self, r, k):
        """:meth:`lowest` over whole rows r, ``_CHUNK_POINTS`` points at a time."""
        return chunked_lowest(self.rows, r, self.n, _CHUNK_POINTS, k)

    def lowest(self, r, k, plan=None):
        """The k lowest gains of every row in r and their indices, ordered by
        gain and then index: over whole rows for sets shorter than
        ``_WINDOW_POINTS``, else on the blocks of ``plan``, by default those
        of :func:`~ddmech.data.plan_blocks`'s neighbour bound."""
        if not self.by_strain:
            return self._scan(r, k)
        if plan is None:
            plan = plan_blocks(self.sets.eps, r, self._terms(r), None, k, self._value)
        return planned_lowest(self.n, r, plan, self._value, lambda rr: self._scan(rr, k), k)

    def open_windows(self, tol):
        """Places every row's candidate window and caches its terms: the
        whole row for sets shorter than ``_WINDOW_POINTS``, else ``_WINDOW``
        consecutive indices around the row's block at T = -tol."""
        s = self.sets
        m, n = s.eps.shape
        self.k = _WINDOW if self.by_strain else n
        self.de, self.ds, self.dede, self.dsds = (np.empty((m, self.k)) for _ in range(4))
        self.dc = None if s.costs is None else np.empty((m, self.k))
        # the rows :meth:`first_move` scores at a time, and its two gain buffers
        self.chunk = max(1, _CHUNK_POINTS // self.k)
        self.gain, self.lin = np.empty((self.chunk, self.k)), np.empty((self.chunk, self.k))
        if self.by_strain:
            # the window's first index, and its strains, stresses and costs
            self.win_start = np.empty(m, dtype=np.intp)
            self.win_eps, self.win_sig = np.empty((m, self.k)), np.empty((m, self.k))
            self.win_cost = None if s.costs is None else np.empty((m, self.k))
            self.guards = np.empty((m, 2))
            every = np.arange(m)
            lo, hi, _ = plan_blocks(s.eps, every, self._terms(every), -tol)
            self._place(every, lo, hi)
        else:
            self.win_eps, self.win_sig, self.win_cost = s.eps, s.sig, s.costs
        self.refresh(slice(None))

    def _place(self, r, lo, hi):
        """Centres the windows of rows r on the indices ``[lo, hi)``, which
        a window then holds if they are at most K, and keeps the strains
        just outside each window as its guards. A window holds K consecutive
        indices in ascending order, so its first minimum is the lowest index
        among its minima, as in a scan."""
        s, n, k = self.sets, self.n, self.k
        rc = r[:, None]
        start = np.clip((lo + hi) // 2 - k // 2, 0, n - k)
        j = start[:, None] + np.arange(k)
        self.win_start[r] = start
        self.win_eps[r] = s.eps[rc, j]
        self.win_sig[r] = s.sig[rc, j]
        if s.costs is not None:
            self.win_cost[r] = s.costs[rc, j]
        below = s.eps[r, np.maximum(start - 1, 0)]
        above = s.eps[r, np.minimum(start + k, n - 1)]
        self.guards[r, 0] = np.where(start > 0, below, -np.inf)
        self.guards[r, 1] = np.where(start + k < n, above, np.inf)

    def refresh(self, rows):
        """Caches the window terms of rows (a slice, or one row's index,
        whose terms are then 1-D views) at their current points: ``de``,
        ``ds``, ``a_eps de de``, ``a_sig ds ds`` and ``w (cost -
        cur_cost)``, each as the scan expression computes it."""
        # per-row factors: a column against a slice of rows, a scalar for one
        col = (rows, None) if isinstance(rows, slice) else rows
        de, ds, dede, dsds = self.de[rows], self.ds[rows], self.dede[rows], self.dsds[rows]
        np.subtract(self.win_eps[rows], self.y_eps[col], out=de)
        np.subtract(self.win_sig[rows], self.y_sig[col], out=ds)
        np.multiply(self.a_eps[col], de, out=dede)
        dede *= de
        np.multiply(self.a_sig[col], ds, out=dsds)
        dsds *= ds
        if self.dc is not None:
            dc = self.dc[rows]
            np.subtract(self.win_cost[rows], self.cur_cost[col], out=dc)
            dc *= self.w[col]

    def _check_windows(self, start, stop, tol):
        """Checks the block ends of rows ``start`` to ``stop - 1`` at T =
        -tol against their windows' guards and places again the window of
        every row whose block has left it, planned from the same ends.
        Returns ``{i: (j, v)}`` for the rows ``start + i`` whose block is
        longer than K or that must be scanned whole: the lowest gain v and
        its index j, from the planned block or the whole row."""
        eps, rows = self.sets.eps, slice(start, stop)
        e_lo, e_hi, ok, reach = block_ends(eps, rows, self._terms(rows), -tol)
        guards = self.guards[rows]
        out = np.flatnonzero(~(ok & (guards[:, 0] < e_lo) & (e_hi <= guards[:, 1])))
        if not out.size:
            return {}
        ends = (e_lo[out], e_hi[out], ok[out], reach[out])
        lo, hi, scan = plan_blocks(eps, start + out, None, ends)
        fits = ~scan & (hi - lo <= self.k)
        if fits.any():
            self._place(start + out[fits], lo[fits], hi[fits])
            for e in (start + out[fits]).tolist():
                self.refresh(e)
        rest = ~fits
        j, v = self.lowest(start + out[rest], 1, (lo[rest], hi[rest], scan[rest]))
        return dict(zip(out[rest].tolist(), zip(j[:, 0].tolist(), v[:, 0].tolist())))

    def first_move(self, start, tol):
        """The next single move of the sequential sweep from row ``start``.

        Scores the next ``_CHUNK_POINTS // K`` rows on their windows at the
        current residuals, so the first row among them with a gain below
        -tol is where the sequential sweep moves, to that row's lowest
        index of least gain. Returns ``((row, j), row + 1)``, or ``(None,
        stop)`` when rows ``start`` to ``stop - 1`` accept none. Rows
        searched in strain order have their windows checked first
        (:meth:`_check_windows`); a row scored off its window holds its
        lowest gain in column 0 of its buffer row and +inf in the others.
        """
        stop = min(self.sets.eps.shape[0], start + self.chunk)
        rows = slice(start, stop)
        fallback = self._check_windows(start, stop, tol) if self.by_strain else {}
        # the scan expression, term by term in its operand order
        gain, lin = self.gain[: stop - start], self.lin[: stop - start]
        np.multiply((self.m2wc[rows] * self.r_eps[rows])[:, None], self.de[rows], out=gain)
        gain += self.dede[rows]
        np.multiply((self.m2w_c[rows] * self.r_sig[rows])[:, None], self.ds[rows], out=lin)
        gain += lin
        gain += self.dsds[rows]
        if self.dc is not None:
            gain += self.dc[rows]
        for i, (_, v) in fallback.items():
            gain[i, 0] = v
            gain[i, 1:] = np.inf
        # the current point scores 0, so a gain below -tol is another point.
        # No gain is NaN: points and residuals are finite, a padded entry's
        # cost is +inf and weights are positive, so it scores +inf. The
        # first gain below -tol in row-major order therefore lies in the
        # first row with a move, whose argmin is the scan's.
        hit = gain < -tol
        i, j = divmod(int(hit.argmax()), self.k)
        if not hit[i, j]:
            return None, stop
        j = int(gain[i].argmin())
        if self.by_strain:
            j = fallback[i][0] if i in fallback else int(self.win_start[start + i]) + j
        return (start + i, j), start + i + 1


def _swap_polish(sys, sets, f, g, y_eps0, y_sig0, assign0):
    """Greedy exact-gain reassignment descent: single swaps, then pair and
    subset moves.

    Both projections are affine in the assigned points, so switching one
    element changes the step objective by a quadratic whose coefficients
    come from the factorized metric stiffness: every candidate is scored in
    O(1) and an accepted switch updates the residuals in O(m). When no
    single switch improves, coordinated pair moves are scored the same way
    (the cross term is one off-diagonal leverage entry), and when pairs
    stall too, full candidate products over small groups of the most
    inconsistent elements. Only strictly improving moves are taken, so ties
    never move and a global minimizer is a fixed point. Returns the improved
    assignment, or None.

    ``sets`` is one (M, n) stack, ragged sets padded by
    :func:`~ddmech.data.stack_sets`: a padded entry's gain is +inf, and its
    index sorts after every real one, so it is never chosen and leaves the
    finite members of every candidate list, and the moves, as they would be
    without it. The leverage is the system's cached
    :meth:`~ddmech.truss.ConstraintSystem.leverage`.

    **Scan expression.** For bar e at its current point (y, s) with
    residuals r_eps, r_sig, candidate j scores, left to right,
    ``gain_j = l_e de + a_e de de + l_s ds + a_s ds ds [+ w (cost_j -
    cost_cur)]`` with ``de = eps_j - y``, ``ds = sig_j - s``,
    ``l_e = -2 wc r_eps``, ``l_s = -2 (w/c) r_sig``. The current point
    scores exactly 0. Every stage takes the lowest index among equal gains,
    as a scan's argmin does. The single sweep scores a chunk of rows at a
    time (:meth:`_GainSearch.first_move`); the pair stage scores all its
    pairs as one (32, 32, 6, 6) array whose row-major first minimum is the
    first best pair, and within it the first best candidates, in loop
    order.

    **Windows.** The single sweep scores each row on a candidate window
    whose terms ``de``, ``ds``, ``a_e de de``, ``a_s ds ds`` and ``w
    (cost_j - cost_cur)`` are cached, as the scan computes them, and
    renewed only for a row that moves, in any stage (through 1-D views of
    that row). A chunk is then the cached terms combined with the current
    residuals in the scan's operand order, by in-place operations on two
    gain buffers allocated once per polish; an accepted move shifts the
    residuals along one column of the column-major influence matrix. No
    gain is NaN (a padded entry scores +inf, as weights are positive), so
    the first gain below -tol in row-major order, one flat ``argmax`` of
    the chunk's mask, lies in the first row with a move, and that row's
    ``argmin`` is the scan's move. For sets shorter than ``_WINDOW_POINTS``
    the window is the whole row. For longer sets the window is ``_WINDOW``
    = K consecutive indices of the row, which ascends in strain, centred
    on the row's block at T = -tol by one
    :func:`~ddmech.data.plan_blocks` of all rows when the polish starts. Its
    guard strains are the row's strains just outside it (-inf and +inf at
    the row's ends). Before a chunk is scored, each row's block ends at T =
    -tol are computed (:func:`~ddmech.data.block_ends`), without the search;
    the block lies in the window when its low end is above the low guard
    and its high end (exclusive) at most the high guard. A row whose block
    has left its window is planned from those same ends, which
    ``plan_blocks`` then only searches, and its window centred anew; a row
    whose block is longer than K, or that the plan scans whole, is scored
    on its planned block or whole row instead, and its buffer row holds
    that lowest gain in column 0 and +inf in the others. The window holds
    the block and the block every candidate scoring at most -tol, so a row
    has a gain below -tol in its window exactly when it has one in its
    row, at the same minimizers; the first such row and its move are the
    scan's. A window's indices ascend, so among equal gains its ``argmin``
    takes the lowest index, as a scan does. Chunks never change the
    sequential sweep: after a move, scoring resumes at the next row with
    the updated residuals.

    **Block bound.** This is the one proof of the block search that the
    polish and the walk's association (:func:`~ddmech.data.batch_nearest`)
    share. Treat the computed coefficients as exact and write
    ``alpha = -l_e / (2 a_e)``, ``beta = -l_s / (2 a_s)`` (0 when ``a_s =
    l_s = 0``: zero-leverage bars are strain-only) and ``kappa = a_e
    alpha^2 + a_s beta^2``. Completing the square, the exact gain is
    ``G_j = a_e p^2 + a_s q^2 - kappa + w (cost_j - cost_cur)`` with
    ``p = eps_j - y - alpha``, ``q = sig_j - s - beta``. In the scan every
    term carries at most 8 rounding factors (its difference twice, two
    products, four sums), so ``|gain_j - G_j| <= g S_j`` with ``g =
    8u/(1-8u)``, u = 2^-53, and ``S_j`` the sum of the terms' magnitudes.
    Since ``|l_e de| + a_e de^2 <= a_e (2|alpha| + |p|)^2 <= 8 a_e alpha^2
    + 2 a_e p^2`` (and the same for stress), ``S_j <= 8 kappa + 2 a_e p^2 +
    2 a_s q^2 + w cost_j + w cost_cur``. So ``gain_j <= T`` implies, as
    costs are nonnegative, ``a_e p^2 (1 - 2g) <= T + kappa (1 + 8g) + w
    cost_cur (1 + g)``: every candidate scoring at most T lies in the
    strain interval ``|eps_j - y - alpha| <= sqrt(R / a_e)`` for that R.
    The computed R, centre and half-width carry relative slack
    ``data._BOUND_SLACK`` = 2^-40 on every term (and ``data._BOUND_FLOOR``
    absolute).
    R needs about 12g + 10u < 2^-46 relative to ``|T| + kappa + w
    cost_cur`` for the terms above and its own few roundings, and the
    centre and half-width need 8u relative to ``|y| + |alpha|`` and to the
    half-width, so the interval searched in the strain order contains the
    exact one with a factor of 60 to spare. The argument assumes no term
    underflows to a subnormal; the absolute slack covers such terms in the
    sums. The scan expression is then evaluated on that block only. The
    walk's square distance ``c de de + c_inv ds ds [+ cost_j]`` is this gain
    with ``l_e = l_s = 0``, unit weight and zero current cost, so ``alpha =
    beta = kappa = 0``; it carries fewer roundings, and the same block holds
    every point within its bound.

    **Thresholds T.** A single move needs ``gain < -tol``, so T = -tol:
    the block holds every minimizer when a move exists, and a block with
    no candidate certifies the row move-free, which is skipped. The pair
    stage's top 6 and the subset stage's top 5 take T = the k-th smallest
    gain among the k + 1 strain neighbours of the block centre: the k
    smallest gains are at most that, so they lie in the block, with ties at
    the k-th value going to the lowest index. A row the pair stage ranked
    takes its subset top 5 from the first five columns of that top 6, which
    are the exact top 5 by (gain, index): the subset stage runs only when
    no pair move was applied, so the residuals, and with them every gain,
    are the pair stage's. Only the other rows of the subset groups, which
    ties in ``loc`` can leave outside the pair stage's 32, are searched
    again, at k = 5. The walk takes the same rule at k = 1, the lesser
    square distance at the query's two strain neighbours, capped by the
    square distance at the previous association where there is one (the
    last search's result, a given start assignment or the polish's result):
    any computed value of a row is at least its least one, so that block
    holds every minimizer too. Rows with ``a_e = 0``, with ``a_s = 0`` but
    ``l_s != 0`` (gain unbounded below in stress), with a non-finite bound,
    or with a block longer than ``data._MAX_BLOCK_SHARE`` of the row are
    scanned whole, as are all rows shorter than ``_WINDOW_POINTS``.
    """
    m, n = sets.eps.shape
    b = sys.b_free
    w = sys.weights
    c = sys.c
    wc = w * c
    s, infl, _ = sys.leverage()
    costs = sets.costs
    y_eps = np.array(y_eps0, dtype=float)
    y_sig = np.array(y_sig0, dtype=float)
    assign = np.array(assign0, dtype=np.int64)
    x_eps = s @ (wc * (y_eps - g))
    r_eps = b @ x_eps + g - y_eps
    x_sig = sys.solve_k(f - b.T @ (w * y_sig))
    r_sig = c * (b @ x_sig)
    cur_cost = np.zeros(m) if costs is None else costs[np.arange(m), assign]
    phi = float(np.sum(w * (c * r_eps * r_eps + r_sig * r_sig / c + cur_cost)))
    tol = 1e-12 * max(1.0, phi)
    gains = _GainSearch(sys, sets, y_eps, y_sig, r_eps, r_sig, cur_cost)
    gains.open_windows(tol)

    def apply_move(e, j):
        col = infl[:, e]  # contiguous: the influence matrix is column-major
        eps_j, sig_j = sets.eps[e, j], sets.sig[e, j]
        dee = eps_j - y_eps[e]
        dss = sig_j - y_sig[e]
        np.add(r_eps, (dee * wc[e]) * col, out=r_eps)
        r_eps[e] -= dee
        np.subtract(r_sig, (dss * w[e]) * (c * col), out=r_sig)
        y_eps[e] = eps_j
        y_sig[e] = sig_j
        assign[e] = j
        if costs is not None:
            cur_cost[e] = costs[e, j]
        gains.refresh(e)

    changed = False
    for _ in range(60):
        for _sweep in range(60):
            accepted = False
            e = 0
            while e < m:
                move, e = gains.first_move(e, tol)
                if move is not None:
                    apply_move(*move)
                    accepted = True
            if not accepted:
                break
            changed = True
        if m < 2:
            # one bar has no pair, and a subset group needs two bars
            break
        # pair stage: the most mismatched elements, each with its best few
        # alternatives, scored jointly as one (i1, i2, j1, j2) array whose
        # row-major first minimum is the first best pair in loop order
        loc = w * (c * r_eps * r_eps + r_sig * r_sig / c)
        k_short = min(32, m)
        short = np.sort(np.argpartition(-loc, k_short - 1)[:k_short])
        ranked = gains.lowest(short, min(6, n))[0]
        top = np.sort(ranked, axis=1)
        gain, de, ds = gains.at(short, top)
        pair_w = (w[short][:, None] * w[short][None, :])[:, :, None, None]
        pair_wc = (wc[short][:, None] * wc[short][None, :])[:, :, None, None]
        cross = (2.0 * infl[np.ix_(short, short)])[:, :, None, None] * (
            pair_w * (ds[:, None, :, None] * ds[None, :, None, :])
            - pair_wc * (de[:, None, :, None] * de[None, :, None, :])
        )
        total = gain[:, None, :, None] + gain[None, :, None, :] + cross
        total[np.tril_indices(k_short)] = np.inf
        flat = int(np.argmin(total))
        if total.flat[flat] < -tol:
            i1, i2, j1, j2 = np.unravel_index(flat, total.shape)
            apply_move(int(short[i1]), int(top[i1, j1]))
            apply_move(int(short[i2]), int(top[i2, j2]))
            changed = True
            continue
        # subset stage: the objective is quadratic in the assigned points,
        # so the exact change of any joint move is its single gains plus
        # pairwise cross terms; enumerate full candidate products over small
        # groups of the most inconsistent elements
        order = np.lexsort((np.arange(m), -loc))
        n_grp = 6
        # the residuals are the pair stage's, so a row it ranked has its
        # top 5 in the first columns of its top 6; the others are searched
        grp_rows = order[: 2 * n_grp]
        known = np.isin(grp_rows, short)
        top = np.empty((grp_rows.size, min(5, n)), dtype=np.intp)
        top[known] = ranked[np.searchsorted(short, grp_rows[known]), : top.shape[1]]
        if not known.all():
            top[~known] = gains.lowest(grp_rows[~known], top.shape[1])[0]
        sub_best = None
        for g0 in (0, n_grp):
            grp = [int(e) for e in order[g0 : g0 + n_grp]]
            if len(grp) < 2:
                continue
            cands = []
            for i, e in enumerate(grp):
                js = np.unique(np.append(top[g0 + i], assign[e]))
                gi, de, ds = gains.at(np.array([e]), js[None, :])
                cands.append((e, js, gi[0], de[0], ds[0]))
            shape = tuple(ct[1].size for ct in cands)
            total = np.zeros(shape)
            for i, (e, js, gi, de, ds) in enumerate(cands):
                ax = [1] * len(shape)
                ax[i] = shape[i]
                total += gi.reshape(ax)
            for i in range(len(cands)):
                ei, _, _, dei, dsi = cands[i]
                for j in range(i + 1, len(cands)):
                    ej, _, _, dej, dsj = cands[j]
                    cross = 2.0 * infl[ei, ej] * (
                        (w[ei] * w[ej]) * np.outer(dsi, dsj)
                        - (wc[ei] * wc[ej]) * np.outer(dei, dej)
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
                for i, (e, js, _, _, _) in enumerate(cands):
                    jn = int(js[combo[i]])
                    if jn != assign[e]:
                        moves.append((e, jn))
                if moves:
                    sub_best = (val, moves)
        if sub_best is None:
            break
        for e, jn in sub_best[1]:
            apply_move(e, jn)
        changed = True
    return assign if changed else None


def _empirical_response_init(
    sys: ConstraintSystem,
    stacked: StackedSets,
    f: np.ndarray,
    g: np.ndarray,
    eps_start: np.ndarray,
) -> GlobalState | None:
    """Equilibrium solve against the empirical response read off the data.

    Each element's set is treated as a response curve: stress is looked up
    at the nearest sampled strain and the tangent is a local secant over a
    few sorted neighbours. Newton steps on that curve, each one banded
    Cholesky solve with ``B^T diag(w slope) B`` (``sys.solve_tangent``),
    land the state near the assignment a globally consistent walk would
    reach, using nothing but the data itself: at most 20 steps, stopping
    once the force residual is below 1e-10 of ``max(1, |f|)``. The returned
    state is each element's sampled (strain, stress) pair at the
    lowest-residual iterate. Returns None when the sets are too small, when
    they carry fidelity costs, or when a tangent is not positive definite;
    callers then keep the predicted start. Sets with costs are two-time
    archives: their current slots pool the responses of every prior state
    and trace no response curve, and on 35 measured archive steps this
    start never ended lower than the predicted one.
    """
    n = stacked.eps.shape[1]
    if n < 8 or stacked.costs is not None:
        return None
    b = sys.b_free
    w = sys.weights
    es, ss, rows = stacked.eps, stacked.sig, np.arange(stacked.eps.shape[0])
    k = min(4, (n - 1) // 2)
    c_ref = float(np.max(sys.c))
    # start from the metric-least-squares displacement fit of the predictor
    u = sys.solve_k(b.T @ (w * sys.c * (eps_start - g)))
    eps = b @ u + g
    f_scale = max(1.0, float(np.linalg.norm(f)))
    best = None
    for _ in range(20):
        # nearest sampled strain; an exact tie goes to the lower neighbour
        j = search(es, eps[:, None])[:, 0]
        above = np.minimum(j, n - 1)
        below = np.maximum(j - 1, 0)
        lower = (j > 0) & (j < n) & (eps - es[rows, below] <= es[rows, above] - eps)
        idx = np.where(lower, below, above)
        sig_hat = ss[rows, idx]
        r = f - b.T @ (w * sig_hat)
        res = float(np.linalg.norm(r)) / f_scale
        if best is None or res < best[0]:
            best = (res, es[rows, idx], sig_hat)
        if res < 1e-10:
            break
        lo = np.maximum(idx - k, 0)
        hi = np.minimum(idx + k, n - 1)
        de = es[rows, hi] - es[rows, lo]
        dsg = ss[rows, hi] - ss[rows, lo]
        slope = np.where(de > 0.0, dsg / np.where(de > 0.0, de, 1.0), c_ref)
        slope = np.clip(slope, 1e-3 * c_ref, 1e3 * c_ref)
        du = sys.solve_tangent(w * slope, r)
        if du is None:
            return None
        u = u + du
        eps = b @ u + g
    return GlobalState(best[1], best[2])


#: Walk and polish rounds of one solve at most: a round walks to a fixed
#: point and polishes it, and an improving polish starts the next round.
_MAX_ROUNDS = 64


def fixed_point_solve(
    sys: ConstraintSystem,
    sets: StackedSets,
    gm: GlobalMetric,
    f: np.ndarray | None = None,
    init: GlobalState | None = None,
    cfg: SolverConfig | None = None,
    *,
    t: float | None = None,
    init_assignment: np.ndarray | None = None,
) -> StepResult:
    """Alternating closest-point iteration for one time step.

    ``sets`` holds one row per bar. The walk starts from the state ``init``
    (zero when None) or from the projection of ``init_assignment``, which
    must index a real point of every set. It stops as soon as the data
    association repeats (the iterate is then a fixed point of the composed
    map) or the state itself repeats bitwise. Whenever the walk stops,
    :func:`_swap_polish` looks for a lower objective and the walk restarts
    from any association it finds. Every search with a previous association
    (the last search's, ``init_assignment`` or the polish's) takes it as
    :func:`~ddmech.data.batch_nearest`'s hint. On hitting the iteration cap,
    or when the last of ``_MAX_ROUNDS`` rounds ends in an improving polish,
    returns the lowest-objective iterate seen with ``converged=False``.
    """
    cfg = cfg or SolverConfig()
    m = sys.n_elements
    f = np.zeros(sys.n_free) if f is None else np.asarray(f, dtype=float).reshape(-1)
    if f.size != sys.n_free:
        raise ValueError(f"force vector must have {sys.n_free} entries")
    g = sys.affine_strain(t)
    sets = _stacked(sets, m)

    if init is None:
        eps = np.zeros(m)
        sig = np.zeros(m)
    else:
        if init.n_elements != m:
            raise ValueError("initial state shape does not match the system")
        eps, sig = init.strain, init.stress
    u = np.zeros(sys.n_free)
    prev_assign = None
    if init_assignment is not None:
        prev_assign = np.asarray(init_assignment, dtype=np.int64).reshape(-1).copy()
        if prev_assign.size != m:
            raise ValueError("init_assignment must hold one index per element")
        sizes = np.full(m, sets.eps.shape[1]) if sets.lengths is None else sets.lengths
        bad = np.flatnonzero((prev_assign < 0) | (prev_assign >= sizes))
        if bad.size:
            e = int(bad[0])
            raise ValueError(
                f"init_assignment[{e}] = {prev_assign[e]} is not a point of "
                f"set {e}, which has {sizes[e]}"
            )
        y_eps, y_sig, _ = _gather(prev_assign, sets)
        eps, sig, u = sys.project_arrays(y_eps, y_sig, f, g)

    history: list[float] = []
    best = None
    converged = False
    iterations = 0
    budget = cfg.max_fixed_point_iters
    assign = prev_assign
    y_eps = y_sig = None
    cost = 0.0
    for _round in range(_MAX_ROUNDS):
        seen: set[bytes] = set()
        if prev_assign is not None:
            seen.add(prev_assign.tobytes())
        walk_done = False
        cycled = False
        while budget > 0:
            budget -= 1
            iterations += 1
            assign = batch_nearest(eps, sig, sets, gm.c_diag, gm.c_inv_diag, prev_assign)
            y_eps, y_sig, cost = _gather(assign, sets)
            if prev_assign is not None and np.array_equal(assign, prev_assign):
                walk_done = True
                break
            if assign.tobytes() in seen:
                # deterministic map revisiting an assignment: a limit cycle on
                # an objective plateau; accept its best member
                walk_done = True
                cycled = True
                break
            seen.add(assign.tobytes())
            eps_new, sig_new, u_new = sys.project_arrays(y_eps, y_sig, f, g)
            d2, obj = _objective(sys, eps_new, sig_new, y_eps, y_sig, cost)
            history.append(obj)
            if best is None or obj < best[0]:
                best = (obj, d2, eps_new, sig_new, u_new, assign, y_eps, y_sig)
            repeated = np.array_equal(eps_new, eps) and np.array_equal(sig_new, sig)
            eps, sig, u = eps_new, sig_new, u_new
            prev_assign = assign
            if repeated:
                walk_done = True
                break
        converged = walk_done
        if walk_done and not cycled:
            d2, obj = _objective(sys, eps, sig, y_eps, y_sig, cost)
            if not history or obj < history[-1]:
                history.append(obj)
            if best is None or obj <= best[0]:
                best = (obj, d2, eps, sig, u, assign, y_eps, y_sig)
        if cycled or not walk_done:
            obj, d2, eps, sig, u, assign, y_eps, y_sig = best
            prev_assign = assign
        polished = _swap_polish(sys, sets, f, g, best[6], best[7], best[5])
        if polished is None:
            break
        y_eps, y_sig, cost = _gather(polished, sets)
        eps, sig, u = sys.project_arrays(y_eps, y_sig, f, g)
        d2, obj = _objective(sys, eps, sig, y_eps, y_sig, cost)
        if obj >= best[0]:
            break
        history.append(obj)
        best = (obj, d2, eps, sig, u, polished, y_eps, y_sig)
        assign = polished
        prev_assign = polished
        if budget <= 0:
            # improved association left unconfirmed by a walk restart
            converged = False
            break
    else:
        # the last round's polish improved, and no round is left to confirm it
        converged = False

    _, d2, eps, sig, u, assign, y_eps, y_sig = best
    residual = sys.equilibrium_residual(sig, f)
    return StepResult(
        z=GlobalState(eps, sig),
        y=GlobalState(y_eps, y_sig),
        assignment=np.asarray(assign, dtype=np.int64),
        iterations=iterations,
        distance_sq=d2,
        converged=converged,
        objective_history=history,
        equilibrium_residual=residual,
        displacements=u,
    )


#: Assignment entries (assignments times bars) the enumeration oracle scores
#: at once. The peak memory grows with it and the result does not depend on
#: it (see the cutoff below). At this size ``oracle-check`` peaks at 103
#: MiB, and a whole 3 x 20 instance (8,000 assignments) is one chunk.
_ENUMERATION_CHUNK_ENTRIES = 500_000


def enumerate_global_min(
    sys: ConstraintSystem,
    sets: StackedSets,
    gm: GlobalMetric,
    f: np.ndarray | None = None,
    *,
    t: float | None = None,
    budget: int = 1_000_000,
) -> StepResult:
    """Exhaustive minimum over all data assignments of the stacked
    ``sets`` (small instances only).

    Assignments are ranked by a vectorized batched projection, then the
    near-minimal candidates are re-evaluated through the same path the
    fixed-point solver uses, so the returned objective is float-identical to
    a fixed-point solve that lands on the same assignment. Ties resolve to
    the lexicographically smallest assignment. Only the real points of
    padded sets are enumerated.
    """
    m = sys.n_elements
    f = np.zeros(sys.n_free) if f is None else np.asarray(f, dtype=float).reshape(-1)
    g = sys.affine_strain(t)
    sets = _stacked(sets, m)
    counts = np.full(m, sets.eps.shape[1]) if sets.lengths is None else sets.lengths
    total = 1
    for c in counts:  # python ints cannot overflow, unlike np.prod
        total *= int(c)
    if total > budget:
        raise ValueError(
            f"{total} assignments exceed the enumeration budget {budget}"
        )

    wc = sys.weights * sys.c
    w = sys.weights
    b = sys.b_free

    def batch_objective(ids: np.ndarray) -> np.ndarray:
        multi = np.array(np.unravel_index(ids, counts), dtype=np.int64).T  # (chunk, M)
        eps_c, sig_c, cost_c = _gather(multi, sets)
        uu = sys.solve_k(b.T @ ((wc * (eps_c - g)).T))
        eps_p = (b @ uu).T + g
        lam = sys.solve_k(f[:, None] - b.T @ ((w * sig_c).T))
        sig_p = sig_c + (sys.c[None, :] * (b @ lam).T)
        de = eps_p - eps_c
        ds = sig_p - sig_c
        return np.sum(
            w * (sys.c * de * de + sys.c_inv * ds * ds + cost_c), axis=1
        )

    # one pass: keep every id within the cutoff of the best objective so
    # far, which never falls below the final cutoff, then apply the final one
    chunk = max(1, min(total, _ENUMERATION_CHUNK_ENTRIES // max(m, 1)))
    best_obj, kept = np.inf, []
    for lo in range(0, total, chunk):
        ids = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        obj = batch_objective(ids)
        best_obj = min(best_obj, float(np.min(obj)))
        near = obj <= best_obj * (1.0 + 1e-9) + 1e-300
        kept.append((ids[near], obj[near]))
    cutoff = best_obj * (1.0 + 1e-9) + 1e-300
    candidates = [int(i) for ids, obj in kept for i in ids[obj <= cutoff]]

    best = None
    for lin in candidates:
        idx = np.array(np.unravel_index(lin, counts), dtype=np.int64)
        y_eps, y_sig, cost = _gather(idx, sets)
        eps_p, sig_p, uu = sys.project_arrays(y_eps, y_sig, f, g)
        d2, obj = _objective(sys, eps_p, sig_p, y_eps, y_sig, cost)
        if best is None or obj < best[0]:
            best = (obj, d2, idx, eps_p, sig_p, uu, y_eps, y_sig)
    obj, d2, idx, eps_p, sig_p, uu, y_eps, y_sig = best
    return StepResult(
        z=GlobalState(eps_p, sig_p),
        y=GlobalState(y_eps, y_sig),
        assignment=idx,
        iterations=0,
        distance_sq=d2,
        converged=True,
        objective_history=[obj],
        equilibrium_residual=sys.equilibrium_residual(sig_p, f),
        displacements=uu,
    )


@dataclass
class Trajectory:
    """Per-step states and solver diagnostics of one march."""

    times: np.ndarray
    strain: np.ndarray  # (T, M)
    stress: np.ndarray  # (T, M)
    assignment: np.ndarray  # (T, M), -1 where not applicable
    iterations: np.ndarray  # (T,)
    distance_sq: np.ndarray  # (T,)
    converged: np.ndarray  # (T,) bool
    equilibrium_residual: np.ndarray  # (T,)
    displacements: np.ndarray  # (T, n_free)
    q_acc: np.ndarray  # (T, M)
    gm: GlobalMetric

    @property
    def n_steps(self) -> int:
        return self.times.size

    @property
    def n_elements(self) -> int:
        return self.strain.shape[1]


def _check_times(times) -> np.ndarray:
    t = np.asarray(times, dtype=float).reshape(-1)
    if t.size < 1:
        raise ValueError("at least one time step is required")
    if not np.all(np.isfinite(t)):
        raise ValueError("times must be finite")
    if t.size > 1 and not np.all(np.diff(t) > 0.0):
        raise ValueError("time grid must be strictly increasing")
    return t


def _stacked_step_sets(
    g: GeneratorSpec,
    eps_prev: np.ndarray,
    sig_prev: np.ndarray,
    q_acc: np.ndarray,
    est: np.ndarray,
    dt: float | None,
    step: int,
    out: StackedSets | None = None,
) -> StackedSets:
    """The per-step data sets of the M elements, stacked as arrays with one
    row per element.

    Each element's strains are sampled in a window about its predicted
    strain ``eps_prev + est``, whose half-width :meth:`WindowRule.halfwidths`
    gives from the larger of the elastic step estimate and, for the standard
    linear solid, the creep the previous state would show over ``dt``. The
    strains are spaced evenly with the predicted strain a sample, perturbed
    uniformly within ``band_width`` when it is positive, and each row is
    then sorted in place, so every row ascends in strain. Stresses are the
    one-step response of the law to each strain: the response line over
    ``dt`` (``dt=None``: the instantaneous limit of a suddenly applied first
    step) for the standard linear solid,
    and for plasticity the return map from the internal variable recovered
    from the previous state alone, ``q = ((e0+e1) eps_k - sig_k) / e1``,
    with the accumulated slip ``q_acc``, evaluated by
    :func:`~ddmech.materials.plastic_stress` without the law's temporaries.

    The noise of a step is one ``PCG64`` stream seeded from
    ``SeedSequence([run seed, step])``: its M n uniforms are drawn at once
    into the stresses, which the sort leaves free, then scaled and added in
    place, so no (M, n) temporary is made. Row e is stream positions ``[e
    n, (e + 1) n)``, so it can be drawn alone with ``PCG64.advance(e n)``,
    and every other operation is elementwise, so a row does not depend on
    the other rows' states. With ``out``, an (M, n) stack, the rows are
    written into its strains and stresses, and the result views them.
    """
    m = eps_prev.size
    n = g.n_points
    eps = np.empty((m, n)) if out is None else out.eps
    sig = np.empty((m, n)) if out is None else out.sig
    centers = eps_prev + est
    ab = None
    if isinstance(g.law, SlsParams):
        ab = sls_affine_coefficients(eps_prev, sig_prev, g.law, dt)
    if ab is not None and dt is not None:
        creep = (sig_prev - ab[0]) / ab[1] - eps_prev
    else:
        creep = np.zeros(m)
    hw = g.window.halfwidths(g.band_width, np.maximum(np.abs(est), np.abs(creep)))
    steps = hw / max(n // 2, 1)
    np.multiply((np.arange(n) - n // 2)[None, :], steps[:, None], out=eps)
    np.add(centers[:, None], eps, out=eps)
    if g.band_width > 0.0:
        # one stream per step, drawn into the stresses, which the sort leaves free
        bits = np.random.PCG64(np.random.SeedSequence([int(g.rng_seed), int(step)]))
        np.random.Generator(bits).random(out=sig)
        np.multiply(sig, g.band_width, out=sig)
        np.add(sig, -0.5 * g.band_width, out=sig)
        np.add(eps, sig, out=eps)
    eps.sort(axis=1)
    if ab is not None:
        a, b = ab
        np.multiply(b, eps, out=sig)
        np.add(a[:, None], sig, out=sig)
    else:
        p = g.law
        q_prev = ((p.e0 + p.e1) * eps_prev - sig_prev) / p.e1
        plastic_stress(eps, q_prev, q_acc, p, out=sig)
    return StackedSets(eps, sig, None)


def _first_objective(
    system: ConstraintSystem,
    sets: StackedSets,
    gm: GlobalMetric,
    f: np.ndarray,
    g: np.ndarray,
    start: GlobalState,
) -> float:
    """The objective of the first iterate of a solve from ``start``: one
    nearest search and one projection, as :func:`fixed_point_solve` takes
    them, so it is the first entry of that solve's objective history."""
    assign = batch_nearest(start.strain, start.stress, sets, gm.c_diag, gm.c_inv_diag)
    y_eps, y_sig, cost = _gather(assign, sets)
    eps, sig, _ = system.project_arrays(y_eps, y_sig, f, g)
    return _objective(system, eps, sig, y_eps, y_sig, cost)[1]


def _march(
    system: ConstraintSystem,
    gm: GlobalMetric,
    loads: LoadProgram | None,
    t_grid: np.ndarray,
    cfg: SolverConfig,
    sets: StackedSets,
    draw: Callable[..., None],
    plastic_law: PlasticParams | None,
) -> Trajectory:
    """The step loop of both marches.

    ``sets`` is the march's one (M, n) stack of data sets, every row
    ascending in strain. ``draw(k, dt, est, eps_prev, sig_prev, q_acc)``
    writes step k's sets into it, from the step's time increment (None on
    the first step), its elastic strain estimate and the previously
    accepted strain, stress and accumulated slip, and keeps every row
    sorted. No row may be padded, as the response init's lookups by strain
    would read the padding.

    Each step is solved once, from one of two starts: the predicted start,
    the previous accepted state advanced by the step's elastic strain
    estimate plus the previous step's inelastic increment, and the
    empirical response init. The solve starts from the response init when
    the objective of its first iterate (:func:`_first_objective`) is
    strictly lower than the predicted start's; on a tie, and where the init
    declines (an archive's stack, which has costs), from the predicted
    start. The accumulated slip is tracked only for a ``plastic_law``.
    """
    m = system.n_elements
    steps: list[StepResult] = []
    q_rows: list[np.ndarray] = []
    eps_prev = np.zeros(m)
    sig_prev = np.zeros(m)
    q_acc = np.zeros(m)
    drift_eps = np.zeros(m)
    drift_sig = np.zeros(m)
    f_prev: np.ndarray | None = None
    t_prev: float | None = None
    for k in range(t_grid.size):
        t = float(t_grid[k])
        f = loads.forces(t) if loads is not None else np.zeros(system.n_free)
        dt = None if k == 0 else float(t_grid[k] - t_grid[k - 1])
        est = system.elastic_strain_increment(f, f_prev, t, t_prev)
        draw(k, dt, est, eps_prev, sig_prev, q_acc)
        # warm start at the elastic estimate plus the previous step's
        # inelastic increment, so steady flow never has to climb out of
        # the previous step's basin (and a cold start inside an archive's
        # stale neighbourhood cannot pin the walk there)
        init = GlobalState(
            eps_prev + est + drift_eps,
            sig_prev + gm.c_diag * est + drift_sig,
        )
        g = system.affine_strain(t)
        resp = _empirical_response_init(system, sets, f, g, eps_prev + est)
        if resp is not None:
            first = [_first_objective(system, sets, gm, f, g, s) for s in (init, resp)]
            if first[1] < first[0]:
                init = resp
        step = fixed_point_solve(system, sets, gm, f, init, cfg, t=t)
        eps_new = step.z.strain
        sig_new = step.z.stress
        if plastic_law is not None:
            q_acc = update_history_variable(
                q_acc, eps_prev, sig_prev, eps_new, sig_new, plastic_law
            )
        steps.append(step)
        q_rows.append(q_acc)
        drift_eps = (eps_new - eps_prev) - est
        drift_sig = (sig_new - sig_prev) - gm.c_diag * est
        eps_prev, sig_prev = eps_new, sig_new
        f_prev, t_prev = f, t
    return Trajectory(
        times=t_grid,
        strain=np.array([s.z.strain for s in steps]),
        stress=np.array([s.z.stress for s in steps]),
        assignment=np.array([s.assignment for s in steps]),
        iterations=np.array([s.iterations for s in steps]),
        distance_sq=np.array([s.distance_sq for s in steps]),
        converged=np.array([s.converged for s in steps]),
        equilibrium_residual=np.array([s.equilibrium_residual for s in steps]),
        displacements=np.array([s.displacements for s in steps]),
        q_acc=np.array(q_rows),
        gm=gm,
    )


def time_march(
    mesh: TrussMesh,
    gm: GlobalMetric,
    generator: GeneratorSpec,
    loads: LoadProgram | None,
    times,
    cfg: SolverConfig | None = None,
    *,
    sys: ConstraintSystem | None = None,
) -> Trajectory:
    """Incremental data-driven solve over a monotone time grid.

    Every step regenerates the per-element data sets conditioned on the
    previously accepted states; the first step uses the instantaneous
    (rate-free) response so a suddenly applied load or displacement yields
    the correct initial state. Each step is solved once, from the better of
    two warm starts (see :func:`_march`). Every step's sets are drawn into
    one (M, n) stack, each row sorted in place by the draw.
    """
    cfg = cfg or SolverConfig()
    t_grid = _check_times(times)
    system = sys if sys is not None else assemble(mesh, gm)
    law = generator.law
    plastic_law = law if isinstance(law, PlasticParams) else None
    shape = (system.n_elements, generator.n_points)
    sets = StackedSets(np.empty(shape), np.empty(shape), None)

    def draw(k, dt, est, eps_prev, sig_prev, q_acc):
        _stacked_step_sets(generator, eps_prev, sig_prev, q_acc, est, dt, k, sets)

    return _march(system, gm, loads, t_grid, cfg, sets, draw, plastic_law)


def history_matching_march(
    mesh: TrussMesh,
    gm: GlobalMetric,
    archive: HistoryRepository,
    loads: LoadProgram | None,
    times,
    cfg: SolverConfig | None = None,
    *,
    sys: ConstraintSystem | None = None,
) -> Trajectory:
    """March against fixed two-time archives instead of regenerated sets.

    Each step searches the current slots of every bar's archive, row e of
    ``archive``, with the prior-slot mismatch (against the previously
    accepted state) added as a fidelity cost; nothing is regenerated, so
    the archives can be sampled entirely offline. The archive must hold one
    row per bar (``ValueError`` naming both counts). Its current slots,
    stored in strain order, are the march's stack as they are, uncopied;
    every step's draw writes only the stack's (M, n) cost rows.
    """
    cfg = cfg or SolverConfig()
    t_grid = _check_times(times)
    system = sys if sys is not None else assemble(mesh, gm)
    (m, n), bars = archive.eps_cur.shape, system.n_elements
    if m != bars:
        raise ValueError(f"the archive must hold one row per bar: {bars} bars, got {m} rows")
    sets = StackedSets(archive.eps_cur, archive.sig_cur, np.empty((m, n)))

    def draw(k, dt, est, eps_prev, sig_prev, q_acc):
        prior_slot_costs(archive, GlobalState(eps_prev, sig_prev), gm, sets.costs)

    return _march(system, gm, loads, t_grid, cfg, sets, draw, None)


def export_trajectory_csv(traj: Trajectory, path) -> None:
    """One row per (time, element): strain, stress, assignment, iterations,
    square distance."""
    write_csv(
        path,
        ["time", "element", "strain", "stress", "assignment", "iterations", "distance_sq"],
        (
            (float(traj.times[k]), e, float(traj.strain[k, e]), float(traj.stress[k, e]),
             int(traj.assignment[k, e]), int(traj.iterations[k]), float(traj.distance_sq[k]))
            for k in range(traj.n_steps)
            for e in range(traj.n_elements)
        ),
    )


def trajectory_summary(traj: Trajectory) -> dict:
    """Step counts, convergence and the largest distances and residuals.

    ``n_nonconverged`` counts the steps whose fixed point was not confirmed
    (iteration budget spent); their best iterate was accepted.
    """
    return {
        "n_steps": int(traj.n_steps),
        "n_elements": int(traj.n_elements),
        "all_converged": bool(np.all(traj.converged)),
        "n_nonconverged": int(np.count_nonzero(~traj.converged)),
        "max_iterations": int(np.max(traj.iterations)),
        "total_iterations": int(np.sum(traj.iterations)),
        "max_distance_sq": float(np.max(traj.distance_sq)),
        "max_equilibrium_residual": float(np.max(traj.equilibrium_residual)),
        "final_time": float(traj.times[-1]),
    }
