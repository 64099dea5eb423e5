"""Per-bar data sets as one padded stack, the per-step set window, and
nearest-point search.

A bar's data set is a cloud of scalar (strain, stress) points, each
optionally with a nonnegative fidelity cost added to its square distance
in every search. The solver reads all sets of a step from one
:class:`StackedSets`, (M, n) arrays whose row e is bar e's set;
:func:`stack_sets` builds it from flat rows, checks them and pads unequal
ones. Evolving-material behaviour enters through the per-step draw
(``solver._stacked_step_sets``), which writes fresh sets conditioned on the
previously converged states (and, for plasticity, on an accumulated-slip
history variable recovered from stress-strain increments alone) into a
march's stack, in the window :class:`WindowRule` and :class:`GeneratorSpec`
describe; a two-time archive enters as its current slots with the
prior-slot mismatch as cost (:func:`prior_slot_costs`).

Every search is exact and returns the lowest index among the minimizers.
:func:`batch_nearest` scans small stacks; above a size crossover it searches
each row in its strain order, so it equals :func:`scan_nearest`, the
reference scan. The walk's association and the solver's swap polish share
one certified block search: :func:`plan_blocks` turns a bound on a row's
value into the block of its strain order that holds every candidate within
it, and :func:`planned_lowest` evaluates the caller's own value expression
on the blocks and scans the rows the plan leaves whole.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Sequence

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


#: Smallest stacked size M*n searched through the strain order rather than
#: by a scan of every point. The sorted search pays a fixed cost of a few
#: dozen vectorized calls on M-element arrays, the scan a cost per point.
#: Measured per call on association calls recorded from visco and plastic
#: marches (2-CPU x86-64, numpy 2.4, one thread): at 197 bars both cost
#: about 1.2 ms near 100k points (plastic, n=512), the scan costs 2.7 ms
#: against 1.0 ms at n=1024 and 15 ms against 1.2 ms at n=4096, and at
#: 197 x 64 it costs 0.13 ms against 0.8 ms.
_SORTED_SEARCH_MIN_SIZE = 100_000
#: Longest candidate block, as a share of the row, evaluated through the
#: strain order. Blocks are padded to the longest one, so a row with a
#: longer block is scanned whole instead of widening every row's block.
_MAX_BLOCK_SHARE = 0.125
#: Relative slack of the block bound; the rounding it must absorb is below
#: 2^-46 relative (see ``solver._swap_polish``'s "Block bound").
_BOUND_SLACK = 2.0**-40
#: Absolute slack of the same bound, for sums of underflowed terms.
_BOUND_FLOOR = 2.0**-1000



class StrainIndex:
    """Per-row strain order of stacked sets.

    ``order`` sorts every row by strain (``np.argsort``'s default kind) and
    ``eps`` holds the strains in that order. It keeps no reference to the
    sets it was built from, so the sets and the index free together. Rows
    are sorted one by one, so the index of some rows is those rows of the
    index of all: a march in two processes has each sort its own rows into
    one shared pair of arrays (every step for regenerated sets, the first
    step for a fixed archive), and both read that pair as one index
    (:meth:`of`).
    """

    __slots__ = ("order", "eps")

    def __init__(self, strains: np.ndarray) -> None:
        self.order, self.eps = np.empty(strains.shape, dtype=np.intp), np.empty(strains.shape)
        self.sort(strains, slice(None))

    @classmethod
    def of(cls, order: np.ndarray, eps: np.ndarray) -> StrainIndex:
        """The index held in ``order`` and ``eps``, arrays shaped like the
        strains, whose rows :meth:`sort` fills."""
        index = cls.__new__(cls)
        index.order, index.eps = order, eps
        return index

    def sort(self, strains: np.ndarray, rows: slice) -> None:
        """Writes the index of the rows ``rows`` of ``strains`` into the
        same rows of this index. Rows are sorted one at a time, so the work
        array is one row: sorting half of a 197 x 4096 stack at once held 6
        MB of work arrays next to the index, which raised the march's peak
        RSS by 5 MiB, and sorting a 526,565-point archive's four rows at
        once raised it by 15 MiB."""
        for e in range(strains.shape[0])[rows]:
            self.order[e] = np.argsort(strains[e])
            strains[e].take(self.order[e], out=self.eps[e])

    def search(self, x: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """Left insertion positions of ``x`` in its sorted row.

        ``x`` has one row per set, or one per entry of ``rows`` when given,
        and any number of columns; every entry equals
        ``np.searchsorted(self.eps[e], x[i, k])`` for its row e, NaN
        included. All rows are bisected at once: the position is built bit
        by bit, from the highest, as the count of row strains below x.
        """
        x = np.asarray(x, dtype=float)
        m, n = self.eps.shape
        rows = np.arange(m) if rows is None else np.asarray(rows)
        flat = self.eps.reshape(-1)
        last = (rows * n - 1).reshape((rows.size,) + (1,) * (x.ndim - 1))
        pos = np.zeros(x.shape, dtype=np.intp)
        step = 1 << (n.bit_length() - 1)
        while step:
            cand = pos + step
            # x <= s fails for NaN, so NaN counts after every number
            pos = np.where(x <= flat.take(last + np.minimum(cand, n)), pos, cand)
            step >>= 1
        return np.minimum(pos, n)


@dataclass(frozen=True, eq=False)
class StackedSets:
    """Scalar data sets stacked as (M, n) arrays: the layout every solve,
    search and polish reads.

    ``lengths`` holds the true row sizes of sets padded to a common width
    by :func:`stack_sets`; it is None when no row is padded. ``index`` is
    the rows' :class:`StrainIndex`. It is built on the first call of
    :meth:`strain_index` and then shared by every search of the step
    (association and the response warm start). A march's stack carries an
    index that its draws fill: every step's for regenerated sets, the first
    step's for a fixed archive.
    """

    eps: np.ndarray
    sig: np.ndarray
    costs: np.ndarray | None
    lengths: np.ndarray | None = None
    index: StrainIndex | None = field(default=None, repr=False)

    def strain_index(self) -> StrainIndex:
        if self.index is None:
            object.__setattr__(self, "index", StrainIndex(self.eps))
        return self.index


def stack_sets(eps_rows, sig_rows, cost_rows=None) -> StackedSets:
    """Stacks per-bar data sets as one (M, n_max) :class:`StackedSets`.

    Set e holds the strains ``eps_rows[e]``, the stresses ``sig_rows[e]``
    and the fidelity costs ``cost_rows[e]`` (None: none) of its points, each
    a flat array. It must hold at least one point, its points must be finite
    and its costs finite and nonnegative; an error names the set.

    Sets shorter than the longest are padded: each padded entry repeats its
    row's last point and has cost +inf, and ``lengths`` records the true
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


def _checked_costs(e: int, costs, n: int) -> np.ndarray:
    """``costs`` as an array when it holds n finite, nonnegative values;
    otherwise ``ValueError`` naming set e."""
    costs = np.asarray(costs, dtype=float)
    if costs.shape != (n,):
        raise ValueError(f"set {e}: one cost per point is required")
    # written so that NaN fails the comparison and is rejected
    if not np.all((0.0 <= costs) & (costs < np.inf)):
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
) -> np.ndarray:
    """Per-element argmin over stacked sets, identical to :func:`scan_nearest`.

    Below ``_SORTED_SEARCH_MIN_SIZE`` points in all, or for a non-finite
    query, this is the scan. Above it, the scan's own expression ``c de de
    + c_inv ds ds [+ cost]`` is evaluated on the blocks :func:`plan_blocks`
    plans in each row's strain order from the bound at the query's two
    strain neighbours; rows it leaves whole are scanned, one ``argmin`` per
    row (:func:`lowest` over column positions). That expression is
    the swap polish's gain with zero linear terms, unit weight and zero
    current cost, so the "Block bound" of
    :func:`~ddmech.solver._swap_polish` proves that a block holds every
    minimizer, ties included.
    """
    m, n = stacked.eps.shape
    if m * n < _SORTED_SEARCH_MIN_SIZE or not (
        np.all(np.isfinite(eps)) and np.all(np.isfinite(sig))
    ):
        return scan_nearest(eps, sig, stacked, c, c_inv)
    index = stacked.strain_index()
    every = np.arange(m)

    def value(r, pos, j):
        # the scan's expression on sorted strains, the rest gathered by j
        start = r[:, None] * n
        de = index.eps.reshape(-1).take(start + pos) - eps[r, None]
        ds = stacked.sig.reshape(-1).take(start + j) - sig[r, None]
        d2 = c[r, None] * de * de + c_inv[r, None] * ds * ds
        if stacked.costs is not None:
            d2 += stacked.costs.reshape(-1).take(start + j)
        return d2

    def scan(r):
        return lowest(_scan_d2(stacked, r, eps, sig, c, c_inv))

    plan = plan_blocks(index, every, (c, c_inv, 0.0, 0.0, eps, 0.0), None, 1, value)
    return planned_lowest(index, every, plan, value, scan)[0][:, 0]


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


def block_ends(index: StrainIndex, rows, terms, bound, k: int = 1, value=None):
    """The strain ends of :func:`plan_blocks`'s blocks, before the search:
    ``(lo, hi, ok, reach)``, the block of ``rows[i]`` being the sorted
    positions whose strains lie in ``[lo[i], hi[i])``, empty where
    ``reach[i] < 0``, and meaningful only where ``ok[i]``. ``rows`` may be a
    slice when a bound is given.
    """
    a_e, a_s, l_e, l_s, y, base = terms
    with np.errstate(all="ignore"):
        alpha = -l_e / (2.0 * a_e)
        beta = np.where(a_s > 0.0, -l_s / (2.0 * a_s), 0.0)
        centre = y + alpha
        ok = (a_e > 0.0) & ((a_s > 0.0) | (l_s == 0.0)) & np.isfinite(centre)
        if bound is None:
            n = index.eps.shape[1]
            t = np.full(rows.size, np.nan)
            if ok.any():
                near = index.search(centre[ok, None], rows[ok])
                width = min(k + 1, n)
                pos = np.clip(near - width // 2, 0, n - width) + np.arange(width)[None, :]
                j = index.order[rows[ok, None], pos]
                t[ok] = np.sort(value(rows[ok], pos, j), axis=1)[:, min(k, n) - 1]
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


def plan_blocks(index: StrainIndex, rows, terms, bound, k: int = 1, value=None):
    """``(lo, hi, scan)``: for ``rows``, the blocks ``[lo, hi)`` of sorted
    positions that hold every candidate whose value is at most the bound
    (empty where none can be), and the rows to scan whole instead: where
    the bound does not apply or the block is longer than
    ``_MAX_BLOCK_SHARE`` of the row.

    ``terms = (a_e, a_s, l_e, l_s, y, base)`` (arrays over the rows, or
    scalars) are the coefficients of the value ``l_e de + a_e de de + l_s
    ds + a_s ds ds``, plus a nonnegative cost, minus ``base``, with ``de``
    a strain's shift from ``y``; ``_swap_polish``'s "Block bound" proves
    the blocks. A number ``bound`` is every row's bound. None takes a row's
    bound as the k-th smallest of ``value(rows, pos, j)`` at the k + 1
    sorted positions ``pos`` (original indices ``j``) nearest its block
    centre. A tuple is the rows' :func:`block_ends`, already computed,
    which are then only searched.
    """
    if isinstance(bound, tuple):
        e_lo, e_hi, ok, reach = bound
    else:
        e_lo, e_hi, ok, reach = block_ends(index, rows, terms, bound, k, value)
    lo, hi = index.search(np.stack([e_lo, e_hi], axis=1), rows).T
    hi = np.where(reach < 0.0, lo, hi)
    return lo, hi, ~ok | (hi - lo > _MAX_BLOCK_SHARE * index.eps.shape[1])


def planned_lowest(index: StrainIndex, rows, plan, value, scan, k: int = 1):
    """:func:`lowest` of every row in ``rows`` (an index array), planned as
    ``plan = (lo, hi, scanned)`` by :func:`plan_blocks`: ``scan(r)`` of the
    rows r to scan whole, and ``value(r, pos, j)`` on blocks, the values at
    sorted positions ``pos`` (one row per entry of r) of original indices
    ``j``. Blocks are padded to the longest one; padding reads as ``+inf``
    at index n, so it is chosen only after every entry of its block, and an
    empty block gives index n and value ``+inf``.
    """
    lo, hi, scanned = plan
    n = index.eps.shape[1]
    out_j = np.full((rows.size, k), n, dtype=np.intp)
    out_v = np.full((rows.size, k), np.inf)
    b = np.flatnonzero(~scanned & (hi > lo))
    if b.size:
        pos = lo[b, None] + np.arange(int((hi[b] - lo[b]).max()))[None, :]
        valid = pos < hi[b, None]
        pos = np.minimum(pos, n - 1)
        j = index.order.reshape(-1).take(rows[b, None] * n + pos)
        v = np.where(valid, value(rows[b], pos, j), np.inf)
        out_j[b], out_v[b] = lowest(v, np.where(valid, j, n), k)
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
    """Two-time archive for one element: entries pair a prior state with the
    state one step later; ``weights = (w_current, w_prior)``."""

    eps_prev: np.ndarray
    sig_prev: np.ndarray
    eps_cur: np.ndarray
    sig_cur: np.ndarray
    weights: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self) -> None:
        slots = ("eps_prev", "sig_prev", "eps_cur", "sig_cur")
        for name in slots:
            a = np.array(getattr(self, name), dtype=float).reshape(-1)
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} must be finite")
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        if len({getattr(self, name).size for name in slots}) != 1:
            raise ValueError("all slot arrays must have equal length")
        if self.eps_cur.size == 0:
            raise ValueError("a history repository must contain at least one entry")
        w = tuple(float(x) for x in self.weights)
        # written so that NaN fails every comparison and is rejected
        if not (len(w) == 2 and 0.0 < w[0] < np.inf and 0.0 <= w[1] < np.inf):
            raise ValueError(
                f"weights must be two finite values, the current weight positive "
                f"and the prior weight nonnegative; got {w}"
            )
        object.__setattr__(self, "weights", w)

    @property
    def n_entries(self) -> int:
        return self.eps_cur.size


def history_cost_dataset(
    h: HistoryRepository, eps_prev: float, sig_prev: float, c: float
) -> StackedSets:
    """One bar's archive as a one-row stack: its current slots are the
    points, and their prior-slot mismatch against the bar's previously
    accepted state ``(eps_prev, sig_prev)``, in the norm of modulus ``c``,
    is their fidelity cost.

    Minimizing ``w_cur d^2 + w_prior d_prev^2`` equals minimizing
    ``d^2 + (w_prior / w_cur) d_prev^2``, so the prior-slot term enters the
    standard solver as a per-point cost; weight (w, 0) gives no costs, so
    the search reduces exactly to the plain differential one.
    """
    return stack_sets([h.eps_cur], [h.sig_cur], [_prior_slot_cost(h, eps_prev, sig_prev, c)])


def _prior_slot_cost(
    h: HistoryRepository, eps_prev: float, sig_prev: float, c: float
) -> np.ndarray | None:
    """``(w_prior / w_cur) (c de^2 + ds^2 / c)`` over the prior slots of
    ``h``, with ``(de, ds)`` their distance to ``(eps_prev, sig_prev)``;
    None for a zero prior weight."""
    w_cur, w_prev = h.weights
    if w_prev == 0.0:
        return None
    de = h.eps_prev - eps_prev
    ds = h.sig_prev - sig_prev
    return (w_prev / w_cur) * (c * de * de + (1.0 / c) * ds * ds)


def prior_slot_costs(
    repositories: Sequence[HistoryRepository],
    z_prev: GlobalState,
    gm: GlobalMetric,
    rows: slice = slice(None),
    out: np.ndarray | None = None,
) -> np.ndarray | None:
    """Fidelity costs of the bars' archives, all of one size n, against the
    previously accepted state ``z_prev``, as an (M, n) array.

    Row e holds the costs :func:`history_cost_dataset` gives bar e from
    ``z_prev.strain[e]``, ``z_prev.stress[e]`` and ``gm.c_diag[e]`` (zeros
    where the prior weight is zero), checked as :func:`stack_sets` checks
    them; None when every prior weight is zero. Only the ``rows`` of that
    array are computed, one at a time (a stack of every prior slot would
    hold two more (M, n) arrays), and written into ``out`` when it is
    given; each row depends on its own bar.
    """
    if all(h.weights[1] == 0.0 for h in repositories):
        return None
    chosen = range(len(repositories))[rows]
    out = np.empty((len(chosen), repositories[0].n_entries)) if out is None else out
    for i, e in enumerate(chosen):
        h = repositories[e]
        row = _prior_slot_cost(h, z_prev.strain[e], z_prev.stress[e], gm.c_diag[e])
        out[i] = 0.0 if row is None else _checked_costs(e, row, h.n_entries)
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
