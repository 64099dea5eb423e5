"""Data-driven solvers: fixed-point projection iteration, the small-instance
enumeration oracle, and the conditioned time marches.

One time step solves

    min |z - y|^2 + cost(y)   over z in E(t), y in D

with E(t) the compatible-equilibrated set and D the product of per-element
data sets. The fixed-point iteration alternates the two closest-point maps
(data association, then projection onto E) and stops when the data
association repeats; the global objective is non-increasing along the
iteration because each half-step is an exact minimization. The enumeration
oracle checks every data assignment and is the ground truth on instances
small enough to afford it.

Every solve, search and polish reads the step's sets as one (M, n)
:class:`~ddmech.data.StackedSets`; sets of unequal size are padded once, by
:func:`~ddmech.data.stack_sets`, with entries that are never chosen.
Whenever the walk stops, an exact-gain swap polish (:func:`_swap_polish`)
tries single, pair and subset reassignments against the same objective. It
scores candidates with the scan's own arithmetic, over whole rows for short
sets and, for long ones, on the certified strain blocks of the step's
:class:`~ddmech.data.StrainIndex`, so every move, and every trajectory, is
the one a scan of every candidate gives.

Both marches run one step loop and differ only in the data sets a step
searches. :func:`time_march` regenerates the per-element sets every step,
conditioned on the previously accepted local states; randomness is split
per (step, element) from the run seed, so trajectories are bit-reproducible
and elements could be generated concurrently. :func:`history_matching_march`
searches fixed two-time archives, with the prior-slot mismatch against the
previously accepted state as a fidelity cost.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .data import (
    _MAX_BLOCK_SHARE,
    ConditioningState,
    GeneratorSpec,
    HistoryRepository,
    LocalDataSet,
    StackedSets,
    _stack_rows,
    batch_nearest,
    block_lowest,
    # no step calls it; perfbench's layer list names it in this module
    history_cost_dataset,  # noqa: F401
    lowest,
    prior_slot_costs,
    stack_sets,
    update_history_variable,
)
from .materials import PlasticParams, SlsParams, plastic_return_map, sls_affine_coefficients
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
    "write_summary_csv",
]


@dataclass(frozen=True)
class SolverConfig:
    """Iteration limit, warm-start policy, abort and polish switches.

    ``init_strategy`` picks the marches' warm start: "response" equilibrates
    against the empirical response read off the step's own data sets (nearest
    stress by strain, local secant slope) and starts the walk there, which
    keeps the association in the globally consistent basin; "predicted"
    advances the previous accepted state by the elastic strain estimate of
    the step, "previous" reuses the state unchanged, "zero" starts virgin.
    ``swap_polish`` runs an exact-gain single-element reassignment descent
    whenever the alternating walk stops, restarting the walk from any
    improved association; it only ever lowers the same objective.
    """

    max_fixed_point_iters: int = 200
    init_strategy: str = "response"
    abort_on_nonconvergence: bool = False
    swap_polish: bool = True

    def __post_init__(self) -> None:
        if int(self.max_fixed_point_iters) < 1:
            raise ValueError("max_fixed_point_iters must be positive")
        object.__setattr__(self, "max_fixed_point_iters", int(self.max_fixed_point_iters))
        if self.init_strategy not in ("response", "predicted", "previous", "zero"):
            raise ValueError(f"unknown init strategy {self.init_strategy!r}")


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


def _stacked(sets: Sequence[LocalDataSet] | StackedSets, m: int) -> StackedSets:
    """The sets of m elements as one stack; a list is stacked here, once."""
    if not isinstance(sets, StackedSets):
        sets = stack_sets(sets)
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


#: Points one array operation of the swap polish scores at most. The single
#: sweep scores a chunk of rows this many points at a time, and a row this
#: long or longer is searched through its strain order instead of scanned.
_CHUNK_POINTS = 2048
#: Relative slack of the polish's block bound; the rounding it must absorb
#: is below 2^-46 relative (see :func:`_swap_polish`).
_BOUND_SLACK = 2.0**-40
#: Absolute slack of the same bound, for sums of underflowed terms.
_BOUND_FLOOR = 2.0**-1000


class _GainSearch:
    """Gains of single reassignments for the swap polish, by scan or block.

    Holds the polish's live arrays (current points, residuals, current
    costs), which the polish updates in place. Every gain is the scan
    expression of :func:`_swap_polish`, whether it is evaluated over whole
    rows or on the certified blocks of rows searched in strain order.
    """

    def __init__(self, sys, sets, y_eps, y_sig, r_eps, r_sig, cur_cost) -> None:
        w, c = sys.weights, sys.c
        wc = w * c
        hdiag = sys.leverage()[2]
        self.sets = sets
        self.n = sets.eps.shape[1]
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

    def plan(self, r, bound, k):
        """``(lo, hi, scan)``: for rows r, the blocks ``[lo, hi)`` of sorted
        positions that hold every candidate whose gain is at most the bound
        (empty where none can be), and the rows to scan whole instead.

        ``bound`` None takes each row's bound as the k-th smallest gain among
        k strain neighbours of its block centre.
        """
        n = self.n
        index = self.sets.strain_index()
        a_e, a_s = self.a_eps[r], self.a_sig[r]
        l_s = self.m2w_c[r] * self.r_sig[r]
        y = self.y_eps[r]
        with np.errstate(all="ignore"):
            alpha = -(self.m2wc[r] * self.r_eps[r]) / (2.0 * a_e)
            beta = np.where(a_s > 0.0, -l_s / (2.0 * a_s), 0.0)
            centre = y + alpha
        ok = (a_e > 0.0) & ((a_s > 0.0) | (l_s == 0.0)) & np.isfinite(centre)
        if bound is None:
            t = np.full(r.size, np.nan)
            if ok.any():
                near = index.search(centre[ok, None], r[ok])
                pos = np.clip(near - k // 2, 0, n - k) + np.arange(k)[None, :]
                j = index.order[r[ok, None], pos]
                t[ok] = self.at(r[ok], j)[0].max(axis=1)
        else:
            t = np.full(r.size, float(bound))
        with np.errstate(all="ignore"):
            kappa = a_e * alpha * alpha + a_s * beta * beta
            reach = (
                t
                + _BOUND_SLACK * np.abs(t)
                + kappa * (1.0 + _BOUND_SLACK)
                + (self.w[r] * self.cur_cost[r]) * (1.0 + _BOUND_SLACK)
                + _BOUND_FLOOR
            )
            half = np.sqrt(np.maximum(reach, 0.0) / a_e) * (
                1.0 + _BOUND_SLACK
            ) + _BOUND_SLACK * (np.abs(y) + np.abs(alpha))
            ends = np.stack([centre - half, np.nextafter(centre + half, np.inf)], axis=1)
        ok &= np.isfinite(reach) & np.isfinite(half)
        lo, hi = index.search(ends, r).T
        hi = np.where(reach < 0.0, lo, hi)
        return lo, hi, ~ok | (hi - lo > _MAX_BLOCK_SHARE * n)

    def lowest(self, r, k):
        """The k lowest gains of every row in r and their indices, ordered by
        gain and then index."""
        if self.n < _CHUNK_POINTS:
            zero = np.zeros(r.size, dtype=np.intp)
            return self._evaluate(r, zero, zero, np.ones(r.size, dtype=bool), k)
        return self._evaluate(r, *self.plan(r, None, k), k)

    def _evaluate(self, r, lo, hi, scan, k):
        """:meth:`lowest` for rows r planned as ``(lo, hi, scan)``."""
        n = self.n
        out_j = np.full((r.size, k), n, dtype=np.intp)
        out_v = np.full((r.size, k), np.inf)
        blocked = np.flatnonzero(~scan & (hi > lo))
        if blocked.size:
            rb = r[blocked]
            out_j[blocked], out_v[blocked] = block_lowest(
                self.sets.strain_index(),
                rb,
                lo[blocked],
                hi[blocked],
                lambda pos, j: self.at(rb, j)[0],
                k,
            )
        scanned = np.flatnonzero(scan)
        step = max(1, _CHUNK_POINTS // n)
        for i in range(0, scanned.size, step):
            part = scanned[i : i + step]
            first, last = r[part[0]], r[part[-1]]
            # a run of consecutive rows is read as a slice, not copied
            rows = slice(first, last + 1) if last - first == part.size - 1 else r[part]
            out_j[part], out_v[part] = lowest(self.rows(rows), np.arange(n)[None, :], k)
        return out_j, out_v

    def first_move(self, start, assign, tol):
        """The next single move of the sequential sweep from row ``start``.

        Scores the rows of one chunk at the current residuals, so the first
        row in it with an accepted move is where the sequential sweep moves.
        Returns ``((row, j), row + 1)``, or ``(None, end)`` when rows
        ``start`` to ``end - 1`` accept none. A chunk holds the rows up to
        ``_CHUNK_POINTS`` scored points: whole rows of shorter sets, and for
        longer ones the blocks of rows searched in strain order (a row
        certified move-free costs nothing, a row scanned whole costs n).
        """
        m, n = self.sets.eps.shape
        if n < _CHUNK_POINTS:
            stop = min(m, start + max(1, _CHUNK_POINTS // n))
            gain = self.rows(slice(start, stop))
            j = gain.argmin(axis=1)
            v = gain[np.arange(stop - start), j]
        else:
            r = np.arange(start, m)
            lo, hi, scan = self.plan(r, -tol, 1)
            points = np.where(scan, n, hi - lo)
            size = np.searchsorted(np.cumsum(points), _CHUNK_POINTS, side="right")
            stop = start + max(1, int(size))
            k = stop - start
            j, v = self._evaluate(r[:k], lo[:k], hi[:k], scan[:k], 1)
            j, v = j[:, 0], v[:, 0]
        hit = (j != assign[start:stop]) & (v < -tol)
        i = int(hit.argmax())
        if hit[i]:
            return (start + i, int(j[i])), start + i + 1
        return None, stop


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

    **Block bound.** Treat the computed coefficients as exact and write
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
    ``_BOUND_SLACK`` = 2^-40 on every term (and ``_BOUND_FLOOR`` absolute).
    R needs about 12g + 10u < 2^-46 relative to ``|T| + kappa + w
    cost_cur`` for the terms above and its own few roundings, and the
    centre and half-width need 8u relative to ``|y| + |alpha|`` and to the
    half-width, so the interval searched in the strain order contains the
    exact one with a factor of 60 to spare. The argument assumes no term
    underflows to a subnormal; the absolute slack covers such terms in the
    sums. The scan expression is then evaluated on that block only.

    **Thresholds T.** A single move needs ``gain < -tol``, so T = -tol:
    the block holds every minimizer when a move exists, and a block with
    no candidate certifies the row move-free, which is skipped. The pair
    stage's top 6 and the subset stage's top 5 take T = the largest gain
    among k strain neighbours of the block centre: the k smallest gains are
    at most that, so they lie in the block, with ties at the k-th value
    going to the lowest index. Rows with ``a_e = 0``, with ``a_s = 0`` but
    ``l_s != 0`` (gain unbounded below in stress), with a non-finite bound,
    or with a block longer than ``_MAX_BLOCK_SHARE`` of the row are scanned
    whole, as are all rows shorter than ``_CHUNK_POINTS``.
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

    def apply_move(e, j):
        dee = sets.eps[e, j] - y_eps[e]
        dss = sets.sig[e, j] - y_sig[e]
        r_eps[:] += (dee * wc[e]) * infl[:, e]
        r_eps[e] -= dee
        r_sig[:] -= (dss * w[e]) * (c * infl[:, e])
        y_eps[e] = sets.eps[e, j]
        y_sig[e] = sets.sig[e, j]
        assign[e] = j
        if costs is not None:
            cur_cost[e] = costs[e, j]

    changed = False
    for _ in range(60):
        for _sweep in range(60):
            accepted = False
            e = 0
            while e < m:
                move, e = gains.first_move(e, assign, tol)
                if move is not None:
                    apply_move(*move)
                    accepted = True
            if not accepted:
                break
            changed = True
        # pair stage: the most mismatched elements, each with its best few
        # alternatives, scored jointly as one (i1, i2, j1, j2) array whose
        # row-major first minimum is the first best pair in loop order
        loc = w * (c * r_eps * r_eps + r_sig * r_sig / c)
        k_short = min(32, m)
        short = np.sort(np.argpartition(-loc, k_short - 1)[:k_short])
        top = np.sort(gains.lowest(short, min(6, n))[0], axis=1)
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
        top = gains.lowest(order[: 2 * n_grp], min(5, n))[0]
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
    *,
    max_iters: int = 20,
    rel_tol: float = 1e-10,
) -> GlobalState | None:
    """Equilibrium solve against the empirical response read off the data.

    Each element's set is treated as a response curve: stress is looked up
    at the nearest sampled strain and the tangent is a local secant over a
    few sorted neighbours. Newton steps on that curve land the state near
    the assignment a globally consistent walk would reach, using nothing
    but the data itself. The returned state is the sampled (strain, stress)
    pair of each element at the lowest-residual iterate. Returns None when
    the sets are too small or a tangent solve fails; callers then fall back
    to an elastic predictor.
    """
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
    # start from the metric-least-squares displacement fit of the predictor
    u = sys.solve_k(b.T @ (w * sys.c * (eps_start - g)))
    eps = b @ u + g
    f_scale = max(1.0, float(np.linalg.norm(f)))
    best = None
    for _ in range(max_iters):
        # nearest sampled strain; an exact tie goes to the lower neighbour
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
        if res < rel_tol:
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
    if best is None:
        return None
    return GlobalState(best[1], best[2])


def fixed_point_solve(
    sys: ConstraintSystem,
    sets: Sequence[LocalDataSet] | StackedSets,
    gm: GlobalMetric,
    f: np.ndarray | None = None,
    init: GlobalState | None = None,
    cfg: SolverConfig | None = None,
    *,
    t: float | None = None,
    init_assignment: np.ndarray | None = None,
) -> StepResult:
    """Alternating closest-point iteration for one time step.

    Stops as soon as the data association repeats (the iterate is then a
    fixed point of the composed map) or the state itself repeats bitwise.
    On hitting the iteration cap, returns the lowest-objective iterate seen
    with ``converged=False``. A list of sets is stacked once
    (:func:`~ddmech.data.stack_sets`); ``init_assignment`` must index a
    real point of every set.
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
        eps = init.strain[:, 0].copy()
        sig = init.stress[:, 0].copy()
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
    for _round in range(64 if cfg.swap_polish else 1):
        seen: set[bytes] = set()
        if prev_assign is not None:
            seen.add(prev_assign.tobytes())
        walk_done = False
        cycled = False
        while budget > 0:
            budget -= 1
            iterations += 1
            assign = batch_nearest(eps, sig, sets, gm.c_diag, gm.c_inv_diag)
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
        if best is None:
            break
        if cycled or not walk_done:
            obj, d2, eps, sig, u, assign, y_eps, y_sig = best
            prev_assign = assign
        if not cfg.swap_polish:
            break
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

    obj, d2, eps, sig, u, assign, y_eps, y_sig = best
    residual = sys.equilibrium_residual(sig, f)
    return StepResult(
        z=GlobalState(eps, sig),
        y=GlobalState(y_eps, y_sig),
        assignment=np.asarray(assign, dtype=np.int64),
        iterations=iterations,
        distance_sq=d2,
        converged=converged,
        objective_history=history if history else [obj],
        equilibrium_residual=residual,
        displacements=u,
    )


def enumerate_global_min(
    sys: ConstraintSystem,
    sets: Sequence[LocalDataSet] | StackedSets,
    gm: GlobalMetric,
    f: np.ndarray | None = None,
    *,
    t: float | None = None,
    budget: int = 1_000_000,
) -> StepResult:
    """Exhaustive minimum over all data assignments (small instances only).

    Assignments are ranked by a vectorized batched projection, then the
    near-minimal candidates are re-evaluated through the same scalar path the
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

    chunk = max(1, min(total, 4_000_000 // max(m, 1)))
    best_obj = np.inf
    for lo in range(0, total, chunk):
        ids = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        best_obj = min(best_obj, float(np.min(batch_objective(ids))))
    candidates: list[int] = []
    cutoff = best_obj * (1.0 + 1e-9) + 1e-300
    for lo in range(0, total, chunk):
        ids = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        obj = batch_objective(ids)
        candidates.extend(int(i) for i in ids[obj <= cutoff])

    best = None
    for lin in sorted(candidates):
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

    def state(self, k: int) -> GlobalState:
        return GlobalState(self.strain[k], self.stress[k])


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
) -> StackedSets:
    """The per-step data sets of every element, stacked as (M, n) arrays.

    Each element's strains are sampled in a window about its predicted
    strain ``eps_prev + est``, whose half-width :meth:`WindowRule.halfwidths`
    gives from the larger of the elastic step estimate and, for the standard
    linear solid, the creep the previous state would show over ``dt``,
    times ``window_scale``. ``sampling="grid"`` spaces the strains evenly
    with the predicted strain a sample, perturbed uniformly within
    ``band_width`` when it is positive; ``"uniform"`` draws them uniformly
    in the window. Stresses are the one-step response of the law to each
    strain: the response line over ``dt`` (``dt=None``: the instantaneous
    limit of a suddenly applied first step) for the standard linear solid,
    and for plasticity the return map from the internal variable recovered
    from the previous state alone, ``q = ((e0+e1) eps_k - sig_k) / e1``,
    with the accumulated slip ``q_acc``. Every element's noise stream is
    seeded from (run seed, step, element), so a row does not depend on the
    other rows or on how elements are batched.
    """
    m = eps_prev.size
    n = g.n_points
    centers = eps_prev + est
    ab = None
    if isinstance(g.law, SlsParams):
        cond = ConditioningState(eps_prev, sig_prev)
        ab = sls_affine_coefficients(cond, g.law, dt)
    if ab is not None and dt is not None:
        creep = (sig_prev - ab[0]) / ab[1] - eps_prev
    else:
        creep = np.zeros(m)
    hw = g.window.halfwidths(g.band_width, np.maximum(np.abs(est), np.abs(creep)))
    hw = hw * g.window_scale
    if g.sampling == "grid":
        steps = hw / max(n // 2, 1)
        eps = centers[:, None] + (np.arange(n) - n // 2)[None, :] * steps[:, None]
        if g.band_width > 0.0:
            for e in range(m):
                rng = np.random.default_rng(
                    np.random.SeedSequence([int(g.rng_seed), int(step), int(e)])
                )
                eps[e] += rng.uniform(-0.5 * g.band_width, 0.5 * g.band_width, n)
    else:
        eps = np.empty((m, n))
        for e in range(m):
            rng = np.random.default_rng(
                np.random.SeedSequence([int(g.rng_seed), int(step), int(e)])
            )
            eps[e] = centers[e] + rng.uniform(-hw[e], hw[e], n)
    if ab is not None:
        a, b = ab
        sig = a[:, None] + b * eps
    else:
        p = g.law
        q_prev = ((p.e0 + p.e1) * eps_prev - sig_prev) / p.e1
        sig, _, _ = plastic_return_map(eps, q_prev[:, None], q_acc[:, None], p)
    return StackedSets(eps, sig, None)


def _march(
    system: ConstraintSystem,
    gm: GlobalMetric,
    loads: LoadProgram | None,
    t_grid: np.ndarray,
    cfg: SolverConfig,
    step_sets: Callable[..., StackedSets],
    plastic_law: PlasticParams | None,
) -> Trajectory:
    """The step loop of both marches.

    ``step_sets(k, dt, est, eps_prev, sig_prev, q_acc)`` returns step k's
    data sets from its time increment (None on the first step), its elastic
    strain estimate and the previously accepted strain, stress and
    accumulated slip. Each step is solved from the warm start
    ``cfg.init_strategy`` picks and, under "response" on sets with no padded
    row, also from the empirical response init (its strain-order lookups
    would read padded entries); the lower objective wins. The accumulated
    slip is tracked only for a ``plastic_law``.
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
        # free the previous step's sets and index before drawing this step's
        sets = None
        sets = step_sets(k, dt, est, eps_prev, sig_prev, q_acc)
        if cfg.init_strategy == "zero":
            inits = [GlobalState.zeros(m)]
        elif cfg.init_strategy == "previous":
            inits = [GlobalState(eps_prev, sig_prev)]
        else:
            # warm start at the elastic estimate plus the previous step's
            # inelastic increment, so steady flow never has to climb out of
            # the previous step's basin (and a cold start inside an
            # archive's stale neighbourhood cannot pin the walk there)
            inits = [
                GlobalState(
                    eps_prev + est + drift_eps,
                    sig_prev + gm.c_diag * est + drift_sig,
                )
            ]
            if cfg.init_strategy == "response" and sets.lengths is None:
                resp = _empirical_response_init(
                    system, sets, f, system.affine_strain(t), eps_prev + est
                )
                if resp is not None:
                    inits.append(resp)
        step = None
        for ini in inits:
            cand = fixed_point_solve(system, sets, gm, f, ini, cfg, t=t)
            if step is None or cand.objective_history[-1] < step.objective_history[-1]:
                step = cand
        if not step.converged and cfg.abort_on_nonconvergence:
            raise RuntimeError(
                f"fixed point did not converge at step {k} (t={t}): "
                f"{step.iterations} iterations, objective {step.objective_history[-1]:.6e}"
            )
        eps_new = step.z.strain[:, 0]
        sig_new = step.z.stress[:, 0]
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
        strain=np.array([s.z.strain[:, 0] for s in steps]),
        stress=np.array([s.z.stress[:, 0] for s in steps]),
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
    dataset_sink: Callable[[int, Sequence[LocalDataSet]], None] | None = None,
) -> Trajectory:
    """Incremental data-driven solve over a monotone time grid.

    Every step regenerates the per-element data sets conditioned on the
    previously accepted states; the first step uses the instantaneous
    (rate-free) response so a suddenly applied load or displacement yields
    the correct initial state. The step solution warm-starts from the
    elastically advanced previous state (see SolverConfig.init_strategy).
    """
    cfg = cfg or SolverConfig()
    t_grid = _check_times(times)
    system = sys if sys is not None else assemble(mesh, gm)
    law = generator.law
    plastic_law = law if isinstance(law, PlasticParams) else None

    def step_sets(k, dt, est, eps_prev, sig_prev, q_acc):
        stacked = _stacked_step_sets(generator, eps_prev, sig_prev, q_acc, est, dt, k)
        if dataset_sink is not None:
            dataset_sink(k, [LocalDataSet(*row) for row in zip(stacked.eps, stacked.sig)])
        return stacked

    return _march(system, gm, loads, t_grid, cfg, step_sets, plastic_law)


def history_matching_march(
    mesh: TrussMesh,
    gm: GlobalMetric,
    repositories: Sequence[HistoryRepository],
    loads: LoadProgram | None,
    times,
    cfg: SolverConfig | None = None,
    *,
    sys: ConstraintSystem | None = None,
) -> Trajectory:
    """March against fixed two-time archives instead of regenerated sets.

    Each step searches the current slots of every element's repository with
    the prior-slot mismatch (against the previously accepted state) added as
    a fidelity cost; nothing is regenerated, so the archives can be sampled
    entirely offline. The archives are stacked (ragged ones padded as
    :func:`~ddmech.data.stack_sets` pads) and strain-sorted once per march,
    and each step computes only their cost rows, +inf on padded entries.
    """
    cfg = cfg or SolverConfig()
    t_grid = _check_times(times)
    system = sys if sys is not None else assemble(mesh, gm)
    m = system.n_elements
    if len(repositories) != m:
        raise ValueError(f"{m} repositories required, got {len(repositories)}")

    archive = _stack_rows(
        [h.eps_cur for h in repositories],
        [h.sig_cur for h in repositories],
        [None] * m,
    )
    archive.strain_index()

    def step_sets(k, dt, est, eps_prev, sig_prev, q_acc):
        z_prev = GlobalState(eps_prev, sig_prev)
        return replace(archive, costs=prior_slot_costs(repositories, z_prev, gm))

    return _march(system, gm, loads, t_grid, cfg, step_sets, None)


def export_trajectory_csv(traj: Trajectory, path) -> None:
    """One row per (time, element): strain, stress, assignment, iterations,
    square distance."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["time", "element", "strain", "stress", "assignment", "iterations", "distance_sq"]
        )
        for k in range(traj.n_steps):
            for e in range(traj.n_elements):
                writer.writerow(
                    [
                        repr(float(traj.times[k])),
                        e,
                        repr(float(traj.strain[k, e])),
                        repr(float(traj.stress[k, e])),
                        int(traj.assignment[k, e]),
                        int(traj.iterations[k]),
                        repr(float(traj.distance_sq[k])),
                    ]
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


def write_summary_csv(traj: Trajectory, path) -> None:
    summary = trajectory_summary(traj)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(summary))
        writer.writerow([summary[k] for k in summary])
