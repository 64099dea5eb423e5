"""Per-bar data sets as one padded stack, the per-step set window, and
nearest-point search.

A bar's data set is a cloud of scalar (strain, stress) points, each
optionally with a nonnegative fidelity cost added to its square distance
in every search. The solver reads all sets of a step from one
:class:`StackedSets`, (M, n) arrays whose row e is bar e's set, stored
ascending in strain; :func:`stack_sets` builds it from flat rows, checks
them, sorts them stably and pads unequal ones. Evolving-material behaviour
enters through the per-step draw (``solver._stacked_step_sets``), which
writes fresh sets conditioned on the previously converged states (and, for
plasticity, on an accumulated-slip history variable recovered from
stress-strain increments alone) into a march's stack, each row sorted, in
the window :class:`WindowRule` and :class:`GeneratorSpec` describe; the
two-time archives of all bars, stored in the same strain order, enter as
the current slots of one (M, n) :class:`HistoryRepository`, uncopied, with
the prior-slot mismatch as cost (:func:`prior_slot_costs`).

Every search is exact and returns the lowest index among the minimizers;
since rows ascend in strain, an index is a position in the strain order.
:func:`batch_nearest` scans small stacks; above a size crossover it
bisects the rows (:func:`search`), so it equals :func:`scan_nearest`, the
reference scan. The walk's association and the solver's swap polish share
one certified block search: :func:`plan_blocks` turns a bound on a row's
value into the slice of the row that holds every candidate within it, and
:func:`planned_lowest` evaluates the caller's own value expression on the
blocks and scans the rows the plan leaves whole.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .materials import PlasticParams, SlsParams
from .phase import GlobalMetric, GlobalState

__all__ = [
    "WindowRule",
    "GeneratorSpec",
    "HistoryRepository",
    "update_history_variable",
    "history_cost_dataset",
    "prior_slot_costs",
    "write_csv",
]


#: Smallest stacked size M*n searched in strain order rather than by a
#: scan of every point: the sorted search pays a fixed cost of a few dozen
#: vectorized calls on M-element arrays, the scan a cost per point. Median
#: ms per call, scan against sorted, on association calls recorded from
#: plastic / visco study marches (2-CPU x86-64, numpy 2.4, one thread): at
#: 197 x 64, 0.062 / 0.069 against 0.275 / 0.248; x 256, 0.248 / 0.244
#: against 0.358 / 0.277; x 512, 0.618 / 0.655 against 0.461 / 0.349; x
#: 1024, 1.31 / 1.32 against 0.617 / 0.313; x 4096, 5.82 / 6.57 against
#: 1.39 / 0.360. No study size lies between 50k and 100k points.
_SORTED_SEARCH_MIN_SIZE = 100_000
#: Longest candidate block, as a share of the row, evaluated as a block.
#: Blocks are padded to the longest one, so a row with a longer block is
#: scanned whole instead of widening every row's block.
_MAX_BLOCK_SHARE = 0.125
#: Relative slack of the block bound; the rounding it must absorb is below
#: 2^-46 relative (see ``solver._swap_polish``'s "Block bound").
_BOUND_SLACK = 2.0**-40
#: Absolute slack of the same bound, for sums of underflowed terms.
_BOUND_FLOOR = 2.0**-1000



def search(eps: np.ndarray, x: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Left insertion positions of ``x`` in the ascending rows of ``eps``.

    ``x`` has one row per row of ``eps``, or one per entry of ``rows`` when
    given, and any number of columns; every entry equals
    ``np.searchsorted(eps[e], x[i, k])`` for its row e, NaN included. All
    rows are bisected at once: the position is built bit by bit, from the
    highest, as the count of row strains below x, with one ``take`` per bit.
    """
    x = np.asarray(x, dtype=float)
    m, n = eps.shape
    rows = np.arange(m) if rows is None else np.asarray(rows)
    base = (rows * n - 1).reshape((rows.size,) + (1,) * (x.ndim - 1))
    flat = eps.reshape(-1)
    pos = np.zeros(x.shape, dtype=np.intp)
    step = 1 << (n.bit_length() - 1)
    while step:
        cand = pos + step
        # x <= s fails for NaN, so NaN counts after every number
        pos = np.where(x <= flat.take(base + np.minimum(cand, n)), pos, cand)
        step >>= 1
    return np.minimum(pos, n)


@dataclass(frozen=True, eq=False)
class StackedSets:
    """Scalar data sets stacked as (M, n) arrays: the layout every solve,
    search and polish reads.

    Every row is ascending in strain, with its stresses and costs at the
    same positions, so a sorted position is an index: the searches bisect
    ``eps`` rows, and blocks and windows of the strain order are slices of
    a row. Each writer of a stack keeps this: :func:`stack_sets` and
    :class:`HistoryRepository` sort their input stably, a march's draw sorts
    each drawn strain row before computing its stresses, and the archive
    builders write rows in strain order. ``lengths`` holds the true row
    sizes of sets padded to a common width by :func:`stack_sets`; it is None
    when no row is padded.
    """

    eps: np.ndarray
    sig: np.ndarray
    costs: np.ndarray | None
    lengths: np.ndarray | None = None


def stack_sets(eps_rows, sig_rows, cost_rows=None) -> StackedSets:
    """Stacks per-bar data sets as one (M, n_max) :class:`StackedSets`.

    Set e holds the strains ``eps_rows[e]``, the stresses ``sig_rows[e]``
    and the fidelity costs ``cost_rows[e]`` (None: none) of its points, each
    a flat array. It must hold at least one point, its points must be finite
    and its costs finite and nonnegative; an error names the set.

    Each set is stored in ascending strain order: an unsorted set is sorted
    stably, its stresses and costs permuted alike, so equal strains keep
    their given order. Sets shorter than the longest are then padded: each
    padded entry repeats its row's last point, the largest strain, and has
    cost +inf, and ``lengths`` records the true
    sizes. Costs are None when no set has costs and no row is padded; a set
    without costs otherwise reads cost 0.

    The padding changes no search, argmin or polish move. Every row has at
    least one real entry with a finite cost, and real indices precede
    padded ones, so an argmin, :func:`lowest` and :func:`planned_lowest`
    never return a padded entry: even a tie among +inf values goes to a
    real index. On a row that carries no cost of its own the added cost is
    0, and ``x + 0.0 == x`` for every square distance ``x >= 0``, so its
    argmin is unchanged. A block search planned on a +inf bound
    (:func:`plan_blocks`) scans the whole row.
    """
    m = len(eps_rows)
    cost_rows = [None] * m if cost_rows is None else cost_rows
    if m < 1 or len(sig_rows) != m or len(cost_rows) != m:
        raise ValueError(
            f"at least one set is required, with as many stress and cost rows as "
            f"strain rows; got {m}, {len(sig_rows)} and {len(cost_rows)}"
        )
    eps_rows = [np.asarray(a, dtype=float) for a in eps_rows]
    sig_rows = [np.asarray(a, dtype=float) for a in sig_rows]
    for e, (eps, sig) in enumerate(zip(eps_rows, sig_rows)):
        if eps.ndim != 1 or eps.size < 1 or sig.shape != eps.shape:
            raise ValueError(
                f"set {e}: strains and stresses must share one shape (n,) of at least "
                f"one point, got {eps.shape} and {sig.shape}"
            )
        if not (np.all(np.isfinite(eps)) and np.all(np.isfinite(sig))):
            raise ValueError(f"set {e}: data points must be finite")
    cost_rows = [
        c if c is None else _checked_costs(e, c, eps_rows[e].size) for e, c in enumerate(cost_rows)
    ]
    for e, eps in enumerate(eps_rows):
        order = _strain_order(eps)
        if order is not None:
            eps_rows[e], sig_rows[e] = eps[order], sig_rows[e][order]
            if cost_rows[e] is not None:
                cost_rows[e] = cost_rows[e][order]
    lengths = np.array([a.size for a in eps_rows])
    shape = (m, int(lengths.max()))
    ragged = bool(np.any(lengths < shape[1]))
    costs = None
    if ragged or any(c is not None for c in cost_rows):
        rows = (np.zeros(a.size) if c is None else c for a, c in zip(eps_rows, cost_rows))
        costs = _padded(rows, shape, np.inf)
    return StackedSets(
        _padded(eps_rows, shape), _padded(sig_rows, shape), costs, lengths if ragged else None
    )


def _strain_order(eps: np.ndarray) -> np.ndarray | None:
    """None when the strains ``eps`` ascend, else their stable sort order."""
    if np.all(eps[1:] >= eps[:-1]):
        return None
    return np.argsort(eps, kind="stable")


def _checked_costs(e: int, costs, n: int) -> np.ndarray:
    """``costs`` as an array when it holds n finite, nonnegative values;
    otherwise ``ValueError`` naming set e."""
    costs = np.asarray(costs, dtype=float)
    if costs.shape != (n,):
        raise ValueError(f"set {e}: one cost per point is required")
    # written so that NaN, which min and max return, fails and is rejected
    if not (0.0 <= costs.min() and costs.max() < np.inf):
        raise ValueError(f"set {e}: fidelity costs must be finite and nonnegative")
    return costs


def _padded(rows, shape, fill=None) -> np.ndarray:
    """The rows as one array of ``shape``; past its length each row
    repeats its last entry, or holds ``fill`` when one is given."""
    out = np.empty(shape)
    for e, a in enumerate(rows):
        out[e, : a.size] = a
        out[e, a.size :] = a[-1] if fill is None else fill
    return out


def scan_nearest(
    eps: np.ndarray,
    sig: np.ndarray,
    stacked: StackedSets,
    c: np.ndarray,
    c_inv: np.ndarray,
) -> np.ndarray:
    """Per-element argmin by a scan of every point: the reference search."""
    return np.argmin(_scan_d2(stacked, slice(None), eps, sig, c, c_inv), axis=1)


def batch_nearest(
    eps: np.ndarray,
    sig: np.ndarray,
    stacked: StackedSets,
    c: np.ndarray,
    c_inv: np.ndarray,
    hint: np.ndarray | None = None,
) -> np.ndarray:
    """Per-element argmin over stacked sets, identical to :func:`scan_nearest`.

    Below ``_SORTED_SEARCH_MIN_SIZE`` points in all, or for a non-finite
    query, this is the scan. Above it, the scan's own expression ``c de de
    + c_inv ds ds [+ cost]`` is evaluated on the blocks :func:`plan_blocks`
    plans in each row from a bound on the row's least value: the lesser
    value at the query's two strain neighbours, or the value at the row's
    ``hint`` (one real index per row, such as the last association) where
    that is lower. Rows it leaves whole are scanned, one ``argmin`` per row
    (:func:`lowest` over column positions). That expression is the swap
    polish's gain with zero linear terms, unit weight and zero current cost,
    so the "Block bound" of :func:`~ddmech.solver._swap_polish` proves that
    a block holds every point whose computed value is at most the bound, and
    so every minimizer, ties included: each bound is a computed value. The
    scan ignores ``hint``.
    """
    m, n = stacked.eps.shape
    if m * n < _SORTED_SEARCH_MIN_SIZE or not (
        np.all(np.isfinite(eps)) and np.all(np.isfinite(sig))
    ):
        return scan_nearest(eps, sig, stacked, c, c_inv)
    every = np.arange(m)

    def value(r, j):
        # the scan's expression at indices j
        at = r[:, None] * n + j
        de = stacked.eps.reshape(-1).take(at) - eps[r, None]
        ds = stacked.sig.reshape(-1).take(at) - sig[r, None]
        out = c[r, None] * de * de + c_inv[r, None] * ds * ds
        if stacked.costs is not None:
            out += stacked.costs.reshape(-1).take(at)
        return out

    def scan(r):
        return lowest(_scan_d2(stacked, r, eps, sig, c, c_inv))

    cap = None
    if hint is not None:
        cap = value(every, np.asarray(hint)[:, None])[:, 0]
    plan = plan_blocks(stacked.eps, every, (c, c_inv, 0.0, 0.0, eps, 0.0), None, 1, value, cap)
    return planned_lowest(n, every, plan, value, scan)[0][:, 0]


def lowest(values: np.ndarray, idx: np.ndarray | None = None, k: int = 1):
    """The k smallest values of every row with their indices, ordered by
    value and, among equal values, by index, so the lowest index wins every
    tie. ``idx`` holds the index of every entry of ``values`` (broadcast
    against it), distinct among a row's finite values; None means the
    column positions. Values must not be NaN. Returns ``(indices,
    values)``, each with k columns. Where a row runs out of finite values,
    every further column is ``+inf`` at the row's lowest index.

    k = 1 is one pass: an ``argmin`` over column positions, else a minimum
    and its lowest index. A larger k takes one ``np.partition`` for the
    value ranked ``min(k, width)``; only the entries at or below it are
    then sorted by (row, value, index), and columns past the width are
    padding.
    """
    m, width = values.shape
    if k == 1:
        if idx is None:
            j = values.argmin(axis=1)
            return j[:, None], values[np.arange(m), j][:, None]
        best = values.min(axis=1)
        first = np.where(values == best[:, None], idx, np.iinfo(np.intp).max).min(axis=1)
        return first[:, None], best[:, None]
    kk = min(k, width)
    kth = np.partition(values, kk - 1, axis=1)[:, kk - 1]
    r, col = np.nonzero(values <= kth[:, None])
    full = np.broadcast_to(np.arange(width) if idx is None else idx, values.shape)
    j, v = full[r, col], values[r, col]
    # every row holds at least kk entries at or below its kk-th value
    count = np.bincount(r, minlength=m)
    take = np.lexsort((j, v, r))[(np.cumsum(count) - count)[:, None] + np.arange(kk)]
    out_j, out_v = j[take], v[take]
    if k > kk:
        out_j = np.hstack([out_j, np.zeros((m, k - kk), out_j.dtype)])
        out_v = np.hstack([out_v, np.full((m, k - kk), np.inf)])
    spent = out_v == np.inf
    if spent.any():
        out_j = np.where(spent, full.min(axis=1)[:, None], out_j)
    return out_j, out_v


def block_ends(eps, rows, terms, bound, k: int = 1, value=None, cap=None):
    """The strain ends of :func:`plan_blocks`'s blocks, before the search:
    ``(lo, hi, ok, reach)``, the block of ``rows[i]`` being the positions of
    row ``rows[i]`` of the ascending strains ``eps`` whose strains lie in
    ``[lo[i], hi[i])``, empty where ``reach[i] < 0``, and meaningful only
    where ``ok[i]``. ``rows`` may be a slice when a bound is given.
    """
    a_e, a_s, l_e, l_s, y, base = terms
    with np.errstate(all="ignore"):
        alpha = -l_e / (2.0 * a_e)
        beta = np.where(a_s > 0.0, -l_s / (2.0 * a_s), 0.0)
        centre = y + alpha
        ok = (a_e > 0.0) & ((a_s > 0.0) | (l_s == 0.0)) & np.isfinite(centre)
        if bound is None:
            n = eps.shape[1]
            t = np.full(rows.size, np.nan)
            if ok.any():
                near = search(eps, centre[ok, None], rows[ok])
                width = min(k + 1, n)
                pos = np.clip(near - width // 2, 0, n - width) + np.arange(width)[None, :]
                t[ok] = np.sort(value(rows[ok], pos), axis=1)[:, min(k, n) - 1]
            if cap is not None:
                t = np.fmin(t, cap)
        else:
            # a scalar bound rounds as an array of it would, entry by entry
            t = float(bound)
        kappa = a_e * alpha * alpha + a_s * beta * beta
        up = 1.0 + _BOUND_SLACK
        reach = t + _BOUND_SLACK * np.abs(t) + kappa * up + base * up + _BOUND_FLOOR
        half = np.sqrt(np.maximum(reach, 0.0) / a_e) * up
        half += _BOUND_SLACK * (np.abs(y) + np.abs(alpha))
        ok &= np.isfinite(reach) & np.isfinite(half)
        return centre - half, np.nextafter(centre + half, np.inf), ok, reach


def plan_blocks(eps, rows, terms, bound, k: int = 1, value=None, cap=None):
    """``(lo, hi, scan)``: for ``rows`` of the ascending strains ``eps``, the
    blocks ``[lo, hi)`` of positions that hold every candidate whose value
    is at most the bound (empty where none can be), and the rows to scan
    whole instead: where the bound does not apply or the block is longer
    than ``_MAX_BLOCK_SHARE`` of the row.

    ``terms = (a_e, a_s, l_e, l_s, y, base)`` (arrays over the rows, or
    scalars) are the coefficients of the value ``l_e de + a_e de de + l_s
    ds + a_s ds ds``, plus a nonnegative cost, minus ``base``, with ``de``
    a strain's shift from ``y``; ``_swap_polish``'s "Block bound" proves
    the blocks. A number ``bound`` is every row's bound. None takes a row's
    bound as the k-th smallest of ``value(rows, j)`` at the k + 1 positions
    j nearest its block centre, or as the row's entry of ``cap`` (None:
    none), a computed value of the row, where that is lower. A tuple is the
    rows' :func:`block_ends`, already computed, which are then only
    searched.
    """
    if isinstance(bound, tuple):
        e_lo, e_hi, ok, reach = bound
    else:
        e_lo, e_hi, ok, reach = block_ends(eps, rows, terms, bound, k, value, cap)
    lo, hi = search(eps, np.stack([e_lo, e_hi], axis=1), rows).T
    hi = np.where(reach < 0.0, lo, hi)
    return lo, hi, ~ok | (hi - lo > _MAX_BLOCK_SHARE * eps.shape[1])


def planned_lowest(n: int, rows, plan, value, scan, k: int = 1):
    """:func:`lowest` of every row in ``rows`` (an index array) of n
    points, planned as ``plan = (lo, hi, scanned)`` by :func:`plan_blocks`:
    ``scan(r)`` of the rows r to scan whole, and ``value(r, j)`` on blocks,
    the values at indices ``j`` (one row per entry of r). Blocks are padded
    to the longest one; padding reads as ``+inf`` after the block's last
    index, so it is chosen only after every entry of its block, and an
    empty block gives index n and value ``+inf``.
    """
    lo, hi, scanned = plan
    out_j = np.full((rows.size, k), n, dtype=np.intp)
    out_v = np.full((rows.size, k), np.inf)
    b = np.flatnonzero(~scanned & (hi > lo))
    if b.size:
        j = lo[b, None] + np.arange(int((hi[b] - lo[b]).max()))[None, :]
        valid = j < hi[b, None]
        j = np.minimum(j, n - 1)
        # a block's columns ascend in index, so a column's rank is its index's
        col, out_v[b] = lowest(np.where(valid, value(rows[b], j), np.inf), None, k)
        out_j[b] = lo[b, None] + col
    s = np.flatnonzero(scanned)
    if s.size:
        out_j[s], out_v[s] = scan(rows[s])
    return out_j, out_v


def _scan_d2(stacked, r, eps, sig, c, c_inv):
    """The scan's d2 over whole rows r (a slice or an index array)."""
    de = stacked.eps[r] - eps[r, None]
    ds = stacked.sig[r] - sig[r, None]
    d2 = c[r, None] * de * de + c_inv[r, None] * ds * ds
    if stacked.costs is not None:
        d2 += stacked.costs[r]
    return d2


def require_int(name: str, value, least: int) -> int:
    """``value`` as an int, when it is an integer (an integral float
    included) of at least ``least``; otherwise ``ValueError`` naming
    ``name``. Nothing is truncated."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if n < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")
    return n


@dataclass(frozen=True)
class WindowRule:
    """Half-width rule for the strain sampling window.

    The half-width is ``max(4 |elastic step estimate|, 8 band_width,
    floor)``; a fixed ``halfwidth`` overrides the rule entirely.
    """

    halfwidth: float | None = None
    floor: float = 0.0

    def __post_init__(self) -> None:
        # written so that NaN fails every comparison and is rejected
        if self.halfwidth is not None and not 0.0 < float(self.halfwidth) < np.inf:
            raise ValueError("fixed halfwidth must be finite and positive")
        if not 0.0 <= float(self.floor) < np.inf:
            raise ValueError("floor must be finite and nonnegative")

    def halfwidths(self, band_width: float, step_estimates) -> np.ndarray:
        """The half-width for every entry of ``step_estimates``."""
        est = np.abs(np.asarray(step_estimates, dtype=float))
        if self.halfwidth is not None:
            return np.full(est.shape, float(self.halfwidth))
        hw = np.maximum(4.0 * est, max(8.0 * band_width, self.floor))
        if np.any(hw <= 0.0):
            raise ValueError("sampling window collapsed to zero; set floor or halfwidth")
        return hw


@dataclass(frozen=True)
class GeneratorSpec:
    """Everything a per-step data set draw depends on.

    ``band_width`` is the full width of the uniform strain perturbation of
    an evenly spaced grid whose center is the predicted strain; zero means
    noiseless, and the center is then a sample. The draw itself is
    ``solver._stacked_step_sets``; the time step comes from the march.
    """

    law: SlsParams | PlasticParams
    n_points: int
    band_width: float = 0.0
    window: WindowRule = WindowRule(floor=1.0)
    rng_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_points", require_int("n_points", self.n_points, 1))
        object.__setattr__(self, "rng_seed", require_int("rng_seed", self.rng_seed, 0))
        if not 0.0 <= float(self.band_width) < np.inf:
            raise ValueError("band_width must be finite and nonnegative")


def update_history_variable(
    q_acc: np.ndarray,
    prev_strain: np.ndarray,
    prev_stress: np.ndarray,
    strain: np.ndarray,
    stress: np.ndarray,
    p: PlasticParams,
) -> np.ndarray:
    """Accumulated-slip update from accepted increments only, elementwise.

    ``dq = |((e0+e1) deps - dsig) / e1|`` is the slip increment implied by
    the accepted state change; it is nonnegative by construction, so the
    history variable is monotone along any trajectory.
    """
    dq = np.abs(((p.e0 + p.e1) * (strain - prev_strain) - (stress - prev_stress)) / p.e1)
    return q_acc + dq


@dataclass(frozen=True)
class HistoryRepository:
    """Two-time archives of all M bars as four (M, n) slot arrays: entry
    ``(e, j)`` pairs bar e's prior state ``(eps_prev, sig_prev)`` with its
    state ``(eps_cur, sig_cur)`` one step later. A search weighs both slots
    equally. The slots must be finite and of one shape with n >= 1. Each
    row is stored ascending in current strain, as :class:`StackedSets` rows
    are: a row given unsorted is sorted stably by ``eps_cur``, every slot
    permuted alike, into copies of the four arrays. The slots are read-only
    views: float64 input whose rows ascend is not copied, and stays
    writable to its owner.
    """

    eps_prev: np.ndarray
    sig_prev: np.ndarray
    eps_cur: np.ndarray
    sig_cur: np.ndarray

    def __post_init__(self) -> None:
        slots = ("eps_prev", "sig_prev", "eps_cur", "sig_cur")
        arrays = [np.ascontiguousarray(getattr(self, name), dtype=float) for name in slots]
        shapes = [a.shape for a in arrays]
        if len(shapes[0]) != 2 or shapes[0][1] < 1 or len(set(shapes)) != 1:
            raise ValueError(
                f"the four slot arrays must share one shape (M, n) with n >= 1, got {shapes}"
            )
        for name, a in zip(slots, arrays):
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} must be finite")
        given = arrays
        for e in range(shapes[0][0]):
            order = _strain_order(arrays[2][e])
            if order is not None:
                if arrays is given:
                    arrays = [a.copy() for a in given]
                for a in arrays:
                    a[e] = a[e, order]
        for name, a in zip(slots, arrays):
            view = a.view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)


def history_cost_dataset(
    archive: HistoryRepository, e: int, eps_prev: float, sig_prev: float, c: float
) -> StackedSets:
    """Bar e's archive as a one-row stack, the reference for a row of
    :func:`prior_slot_costs`: its current slots are the points, and their
    prior-slot mismatch ``c de^2 + ds^2 / c`` against the bar's previously
    accepted state ``(eps_prev, sig_prev)`` is their fidelity cost, so a
    search minimizes ``d^2 + d_prev^2``, the square distances in both slots.
    """
    de = archive.eps_prev[e] - eps_prev
    ds = archive.sig_prev[e] - sig_prev
    cost = c * de * de + (1.0 / c) * ds * ds
    return stack_sets([archive.eps_cur[e]], [archive.sig_cur[e]], [cost])


def prior_slot_costs(
    archive: HistoryRepository,
    z_prev: GlobalState,
    gm: GlobalMetric,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Fidelity costs of the archive's (M, n) entries against the previously
    accepted state ``z_prev``, written into ``out`` when it is given.

    Row e holds the costs :func:`history_cost_dataset` gives bar e from
    ``z_prev.strain[e]``, ``z_prev.stress[e]`` and ``gm.c_diag[e]``, checked
    as :func:`stack_sets` checks them. Rows are computed one at a time from
    the archive's prior slots (a cost of every row at once would hold two
    more (M, n) arrays), each in place, in the operand order ``c * de * de +
    (1.0 / c) * ds * ds``, through two scratch rows.
    """
    m, n = archive.eps_prev.shape
    out = np.empty((m, n)) if out is None else out
    d, term = np.empty((2, n))
    for e in range(m):
        c, row = gm.c_diag[e], out[e]
        np.subtract(archive.eps_prev[e], z_prev.strain[e], out=d)
        np.multiply(c, d, out=row)
        row *= d
        np.subtract(archive.sig_prev[e], z_prev.stress[e], out=d)
        np.multiply(1.0 / c, d, out=term)
        term *= d
        row += term
        _checked_costs(e, row, n)
    return out


def write_csv(path, header, rows) -> None:
    """Writes a header row and then ``rows`` as CSV with LF line endings.

    Floats, numpy scalars included, are written by ``repr`` of the Python
    float, so they read back exactly; ``None`` is written as an empty field.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows
        )
