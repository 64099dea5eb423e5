"""Material data sets, the per-step set window, and nearest-point search.

A local data set is a cloud of scalar (strain, stress) points for one bar,
optionally tagged with a nonnegative fidelity cost added to the square
distance during search. Evolving-material behaviour enters through the
per-step draw (``solver._stacked_step_sets``): each time step gets fresh
sets conditioned on the previously converged local states (and, for
plasticity, on an accumulated-slip history variable recovered from
stress-strain increments alone), sampled in the window :class:`WindowRule`
and :class:`GeneratorSpec` describe.

Every search is exact and returns the lowest index among the minimizers.
The solver reads every set of a step from one :class:`StackedSets`, (M, n)
arrays in which sets of unequal size are padded (:func:`stack_sets` holds
the padding rule). It searches them with :func:`batch_nearest`: a scan of
every point for small stacks, and above a size crossover a search of each
row in its strain order, which evaluates the scan's own arithmetic on a
certified block of candidates (:func:`block_lowest`, which the solver's
swap polish shares with its own bound). A single set is scanned by
:meth:`LocalDataSet.nearest`, the tests' independent reference.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .materials import PlasticParams, SlsParams
from .phase import GlobalMetric, GlobalState, LocalMetric, LocalPhasePoint

__all__ = [
    "LocalDataSet",
    "ConditioningState",
    "WindowRule",
    "GeneratorSpec",
    "HistoryRepository",
    "update_history_variable",
    "gaussian_fidelity_cost",
    "nearest_history",
    "history_cost_dataset",
    "prior_slot_costs",
    "write_datasets_csv",
    "read_datasets_csv",
]


class LocalDataSet:
    """Immutable scalar point cloud for one element, with exact nearest search.

    Strains and stresses are stored as (n, 1) columns.
    """

    __slots__ = ("strains", "stresses", "costs")

    def __init__(self, strains, stresses, costs=None) -> None:
        eps = np.asarray(strains, dtype=float)
        sig = np.asarray(stresses, dtype=float)
        if eps.ndim == 1:
            eps = eps[:, None]
        if sig.ndim == 1:
            sig = sig[:, None]
        if eps.ndim != 2 or eps.shape[1] != 1 or eps.shape != sig.shape:
            raise ValueError("strains and stresses must share shape (n, 1)")
        if eps.shape[0] < 1:
            raise ValueError("a data set must contain at least one point")
        if not (np.all(np.isfinite(eps)) and np.all(np.isfinite(sig))):
            raise ValueError("data points must be finite")
        eps = eps.copy()
        sig = sig.copy()
        eps.setflags(write=False)
        sig.setflags(write=False)
        self.strains = eps
        self.stresses = sig
        if costs is None:
            self.costs = None
        else:
            c = np.asarray(costs, dtype=float).reshape(-1).copy()
            if c.size != eps.shape[0]:
                raise ValueError("one cost per point is required")
            if np.any(~np.isfinite(c)) or np.any(c < 0.0):
                raise ValueError("fidelity costs must be finite and nonnegative")
            c.setflags(write=False)
            self.costs = c

    @property
    def n_points(self) -> int:
        return self.strains.shape[0]

    def point(self, i: int) -> LocalPhasePoint:
        return LocalPhasePoint(self.strains[i], self.stresses[i])

    def nearest(self, z: LocalPhasePoint, metric: LocalMetric) -> tuple[int, LocalPhasePoint]:
        """Lowest-index minimizer of square distance plus fidelity cost, by a
        scan of every point."""
        de = self.strains[:, 0] - z.strain[0]
        ds = self.stresses[:, 0] - z.stress[0]
        d2 = metric.c * de * de + metric.c_inv * ds * ds
        if self.costs is not None:
            d2 = d2 + self.costs
        idx = int(np.argmin(d2))
        return idx, self.point(idx)


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


class StrainIndex:
    """Per-row strain order of stacked sets.

    ``order`` sorts every row by strain (``np.argsort``'s default kind) and
    ``eps`` holds the strains in that order. It keeps no reference to the
    sets it was built from, so the sets and the index free together.
    """

    __slots__ = ("order", "eps")

    def __init__(self, strains: np.ndarray) -> None:
        self.order = np.argsort(strains, axis=1)
        self.eps = np.take_along_axis(strains, self.order, axis=1)

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
    (association and the response warm start); a caller whose strains
    outlive one step (a fixed archive) builds it once.
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


def stack_sets(sets: Sequence[LocalDataSet]) -> StackedSets:
    """Stacks the sets as one (M, n_max) :class:`StackedSets`.

    Sets shorter than the longest are padded: each padded entry repeats its
    row's last point and has cost +inf, and ``lengths`` records the true
    sizes. Costs are None when no set has costs and no row is padded; a set
    without costs otherwise reads cost 0.

    The padding changes no search, argmin or polish move. Every row has at
    least one real entry with a finite cost, and real indices precede
    padded ones, so an argmin, :func:`lowest` and :func:`block_lowest`
    never return a padded entry: even a tie among +inf values goes to a
    real index. On a row that carries no cost of its own the added cost is
    0, and ``x + 0.0 == x`` for every square distance ``x >= 0``, so its
    argmin is unchanged. In the sorted path of :func:`batch_nearest` a
    +inf bound widens the block to the whole row, which is then scanned.
    """
    if not sets:
        raise ValueError("at least one data set is required")
    return _stack_rows(
        [d.strains[:, 0] for d in sets],
        [d.stresses[:, 0] for d in sets],
        [d.costs for d in sets],
    )


def _stack_rows(eps_rows, sig_rows, cost_rows) -> StackedSets:
    """:func:`stack_sets` on rows of strains, stresses and costs (or None)."""
    lengths = np.array([a.size for a in eps_rows])
    shape = (lengths.size, int(lengths.max()))
    ragged = bool(np.any(lengths < shape[1]))
    costs = None
    if ragged or any(c is not None for c in cost_rows):
        rows = (
            np.zeros(a.size) if c is None else c for a, c in zip(eps_rows, cost_rows)
        )
        costs = _padded(rows, shape, np.inf)
    return StackedSets(
        _padded(eps_rows, shape),
        _padded(sig_rows, shape),
        costs,
        lengths if ragged else None,
    )


def _padded(rows, shape, fill=None) -> np.ndarray:
    """The rows as one array of ``shape``; past its length each row repeats
    its last entry, or holds ``fill`` when one is given."""
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
    de = stacked.eps - eps[:, None]
    ds = stacked.sig - sig[:, None]
    d2 = c[:, None] * de * de + c_inv[:, None] * ds * ds
    if stacked.costs is not None:
        d2 += stacked.costs
    return np.argmin(d2, axis=1)


def batch_nearest(
    eps: np.ndarray,
    sig: np.ndarray,
    stacked: StackedSets,
    c: np.ndarray,
    c_inv: np.ndarray,
) -> np.ndarray:
    """Per-element argmin over stacked sets, identical to :func:`scan_nearest`.

    Below ``_SORTED_SEARCH_MIN_SIZE`` points in all, or for a non-finite
    query, this is the scan. Above it, each row is searched in its strain
    order. For query (x, s) the scan computes, per point j,
    ``d2_j = fl(fl(c de) de) + fl(fl(c_inv ds) ds) [+ cost_j]``; call its
    first term ``P_j``. Rounding is monotone, so ``P_j`` is non-decreasing
    in ``|eps_j - x|``, and ``P_j <= d2_j`` because the other terms are
    nonnegative. With ``B`` the smallest ``d2`` evaluated at the strain
    neighbours of x, every minimizer, ties included, lies in the contiguous
    block ``{P_j <= B}`` of the sorted row. That block is found by a
    strain-radius search and certified by ``P > B`` just outside both its
    ends, ``d2`` is evaluated on it with the scan's own expression, and the
    lowest original index among its minima is returned. A row whose block
    cannot be certified, or is long enough that padding it would cost more
    than a scan, is scanned whole. So the result never depends on how the
    sort orders equal strains.
    """
    m, n = stacked.eps.shape
    if m * n < _SORTED_SEARCH_MIN_SIZE or not (
        np.all(np.isfinite(eps)) and np.all(np.isfinite(sig))
    ):
        return scan_nearest(eps, sig, stacked, c, c_inv)
    index = stacked.strain_index()
    every = np.arange(m)
    at = index.search(eps[:, None])
    neighbours = np.clip(np.concatenate([at - 1, at], axis=1), 0, n - 1)
    d2_near = _sorted_d2(stacked, index, every, neighbours, eps, sig, c, c_inv)[0]
    bound = d2_near.min(axis=1)
    radius = np.sqrt(bound / c) * (1.0 + 1e-12)
    # the block runs from the first strain >= x - radius to the last <= x + radius
    ends = np.stack([eps - radius, np.nextafter(eps + radius, np.inf)], axis=1)
    lo, hi = index.search(ends).T
    # certify both ends: P just outside the block must exceed the bound
    edges = np.stack([np.maximum(lo - 1, 0), np.minimum(hi, n - 1)], axis=1)
    p_edges = _sorted_d2(stacked, index, every, edges, eps, sig, c, c_inv)[1]
    outside = np.stack([lo > 0, hi < n], axis=1)
    certified = np.all(~outside | (p_edges > bound[:, None]), axis=1)
    length = hi - lo
    blocked = certified & (length <= _MAX_BLOCK_SHARE * n)
    out = np.empty(m, dtype=np.intp)
    r = np.flatnonzero(blocked)
    if r.size:
        out[r] = block_lowest(
            index,
            r,
            lo[r],
            hi[r],
            lambda pos, j: _sorted_d2(stacked, index, r, pos, eps, sig, c, c_inv)[0],
        )[0][:, 0]
    r = np.flatnonzero(~blocked)
    if r.size:
        sub = StackedSets(
            stacked.eps[r],
            stacked.sig[r],
            None if stacked.costs is None else stacked.costs[r],
        )
        out[r] = scan_nearest(eps[r], sig[r], sub, c[r], c_inv[r])
    return out


def lowest(values: np.ndarray, idx: np.ndarray, k: int = 1):
    """The k smallest values of every row with their indices, ordered by
    value and, among equal values, by index, so the lowest index wins every
    tie. ``idx`` holds the index of every entry of ``values`` (broadcast
    against it). Returns ``(indices, values)``, each with k columns.
    """
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


def block_lowest(index: StrainIndex, rows, lo, hi, value, k: int = 1):
    """:func:`lowest` over blocks of sorted positions ``lo[i] <= p < hi[i]``
    of rows ``rows[i]``, each block non-empty.

    Blocks are padded to the longest one. ``value(pos, j)`` gives the values
    at sorted positions ``pos`` (one row of positions per entry of ``rows``)
    whose original indices are ``j``; padding reads as ``+inf`` at index n,
    so it is chosen only after every entry of the block. The caller's bound
    must guarantee that every candidate it can want lies in its block; the
    result is then the one a scan of the whole row gives.
    """
    n = index.eps.shape[1]
    pos = lo[:, None] + np.arange(int((hi - lo).max()))[None, :]
    valid = pos < hi[:, None]
    pos = np.minimum(pos, n - 1)
    j = index.order.reshape(-1).take(rows[:, None] * n + pos)
    v = np.where(valid, value(pos, j), np.inf)
    return lowest(v, np.where(valid, j, n), k)


def _sorted_d2(stacked, index, r, pos, eps, sig, c, c_inv):
    """The scan's d2, its strain term P and the original point indices at
    sorted positions ``pos`` (one row of positions per entry of ``r``)."""
    n = index.eps.shape[1]
    start = r[:, None] * n
    j = index.order.reshape(-1).take(start + pos)
    de = index.eps.reshape(-1).take(start + pos) - eps[r, None]
    ds = stacked.sig.reshape(-1).take(start + j) - sig[r, None]
    p = c[r, None] * de * de
    d2 = p + c_inv[r, None] * ds * ds
    if stacked.costs is not None:
        d2 += stacked.costs.reshape(-1).take(start + j)
    return d2, p, j


@dataclass(frozen=True)
class ConditioningState:
    """Previously converged local states, one entry per element; scalars
    are promoted to 1-vectors."""

    prev_strain: np.ndarray | float = 0.0
    prev_stress: np.ndarray | float = 0.0

    def __post_init__(self) -> None:
        eps = np.array(self.prev_strain, dtype=float, ndmin=1)
        sig = np.array(self.prev_stress, dtype=float, ndmin=1)
        if eps.ndim != 1 or eps.shape != sig.shape or not np.all(
            np.isfinite(eps) & np.isfinite(sig)
        ):
            raise ValueError(
                "prev_strain and prev_stress must be finite and 1-D of equal "
                f"shape, got shapes {eps.shape} and {sig.shape}"
            )
        eps.setflags(write=False)
        sig.setflags(write=False)
        object.__setattr__(self, "prev_strain", eps)
        object.__setattr__(self, "prev_stress", sig)


@dataclass(frozen=True)
class WindowRule:
    """Half-width rule for the strain sampling window.

    The half-width is ``max(incr_factor * |elastic step estimate|,
    band_factor * band_width, floor)``; a fixed ``halfwidth`` overrides the
    rule entirely.
    """

    halfwidth: float | None = None
    incr_factor: float = 4.0
    band_factor: float = 8.0
    floor: float = 0.0

    def __post_init__(self) -> None:
        # written so that NaN fails every comparison and is rejected
        if self.halfwidth is not None and not 0.0 < float(self.halfwidth) < np.inf:
            raise ValueError("fixed halfwidth must be finite and positive")
        for name in ("incr_factor", "band_factor", "floor"):
            if not 0.0 <= float(getattr(self, name)) < np.inf:
                raise ValueError(f"{name} must be finite and nonnegative")

    def halfwidths(self, band_width: float, step_estimates) -> np.ndarray:
        """The half-width for every entry of ``step_estimates``."""
        est = np.abs(np.asarray(step_estimates, dtype=float))
        if self.halfwidth is not None:
            return np.full(est.shape, float(self.halfwidth))
        hw = np.maximum(
            self.incr_factor * est, max(self.band_factor * band_width, self.floor)
        )
        if np.any(hw <= 0.0):
            raise ValueError("sampling window collapsed to zero; set floor or halfwidth")
        return hw

    def resolve(self, band_width: float, step_estimate: float = 0.0) -> float:
        return float(self.halfwidths(band_width, step_estimate))


@dataclass(frozen=True)
class GeneratorSpec:
    """Everything a per-step data set draw depends on.

    ``band_width`` is the full width of the uniform strain perturbation;
    zero means noiseless. ``sampling`` is 'grid' (uniform spacing, window
    center always a sample) or 'uniform' (independent uniform positions).
    ``window_scale`` multiplies the resolved half-width; sweeps use it to
    couple the window to the sampling resolution. The draw itself is
    ``solver._stacked_step_sets``; the time step comes from the march.
    """

    law: SlsParams | PlasticParams
    n_points: int
    band_width: float = 0.0
    window: WindowRule = WindowRule(floor=1.0)
    rng_seed: int = 0
    sampling: str = "grid"
    window_scale: float = 1.0

    def __post_init__(self) -> None:
        if int(self.n_points) < 1:
            raise ValueError("n_points must be at least 1")
        object.__setattr__(self, "n_points", int(self.n_points))
        if not 0.0 <= float(self.band_width) < np.inf:
            raise ValueError("band_width must be finite and nonnegative")
        if self.sampling not in ("grid", "uniform"):
            raise ValueError(f"unknown sampling mode {self.sampling!r}")
        if not 0.0 < float(self.window_scale) < np.inf:
            raise ValueError("window_scale must be finite and positive")


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


def gaussian_fidelity_cost(std_devs) -> float:
    """Additive cost ``sum_e 2 s_e^2`` of Gaussian uncertainty of scalar
    points."""
    s = np.asarray(std_devs, dtype=float).reshape(-1)
    if np.any(s < 0.0) or np.any(~np.isfinite(s)):
        raise ValueError("standard deviations must be finite and nonnegative")
    return float(np.sum(2.0 * s * s))


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
        arrays = {}
        n = None
        for name in ("eps_prev", "sig_prev", "eps_cur", "sig_cur"):
            a = np.asarray(getattr(self, name), dtype=float).reshape(-1).copy()
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} must be finite")
            if n is None:
                n = a.size
            elif a.size != n:
                raise ValueError("all slot arrays must have equal length")
            a.setflags(write=False)
            arrays[name] = a
        if n == 0:
            raise ValueError("a history repository must contain at least one entry")
        w = (float(self.weights[0]), float(self.weights[1]))
        # written so that NaN fails every comparison and is rejected
        if not (0.0 < w[0] < np.inf and 0.0 <= w[1] < np.inf):
            raise ValueError(
                f"weights must be finite, the current weight positive and the "
                f"prior weight nonnegative; got {w}"
            )
        for name, a in arrays.items():
            object.__setattr__(self, name, a)
        object.__setattr__(self, "weights", w)

    @property
    def n_entries(self) -> int:
        return self.eps_cur.size


def _slot_distances_sq(
    h: HistoryRepository, z: LocalPhasePoint, metric: LocalMetric, slot: str
) -> np.ndarray:
    c = metric.c
    ci = metric.c_inv
    eps = getattr(h, f"eps_{slot}")
    sig = getattr(h, f"sig_{slot}")
    de = eps - z.strain[0]
    ds = sig - z.stress[0]
    return c * de * de + ci * ds * ds


def nearest_history(
    z_hist: Sequence[LocalPhasePoint],
    h: HistoryRepository,
    metric: LocalMetric,
    weights: tuple[float, float] | None = None,
) -> tuple[int, tuple[LocalPhasePoint, LocalPhasePoint]]:
    """Entry minimizing the weighted sum of slot distances.

    ``z_hist = (current, prior)``; the objective is
    ``w_cur d^2(current slot) + w_prior d^2(prior slot)`` and ties go to the
    lowest entry index. With weights (1, 0) this reduces to a plain nearest
    search on the current slot.
    """
    if len(z_hist) != 2:
        raise ValueError("z_hist must hold (current, prior) states")
    w = h.weights if weights is None else (float(weights[0]), float(weights[1]))
    obj = w[0] * _slot_distances_sq(h, z_hist[0], metric, "cur")
    if w[1] != 0.0:
        obj = obj + w[1] * _slot_distances_sq(h, z_hist[1], metric, "prev")
    idx = int(np.argmin(obj))
    entry = (
        LocalPhasePoint(h.eps_cur[idx], h.sig_cur[idx]),
        LocalPhasePoint(h.eps_prev[idx], h.sig_prev[idx]),
    )
    return idx, entry


def history_cost_dataset(
    h: HistoryRepository, z_prev: LocalPhasePoint, metric: LocalMetric
) -> LocalDataSet:
    """Current slots as a data set, prior-slot mismatch as fidelity cost.

    Minimizing ``w_cur d^2 + w_prior d_prev^2`` equals minimizing
    ``d^2 + (w_prior / w_cur) d_prev^2``, so the prior-slot term enters the
    standard solver as a per-point cost; weight (w, 0) reduces exactly to
    the plain differential search.
    """
    return LocalDataSet(h.eps_cur, h.sig_cur, _prior_slot_cost(h, z_prev, metric))


def _prior_slot_cost(
    h: HistoryRepository, z_prev: LocalPhasePoint, metric: LocalMetric
) -> np.ndarray | None:
    w_cur, w_prev = h.weights
    if w_prev == 0.0:
        return None
    return (w_prev / w_cur) * _slot_distances_sq(h, z_prev, metric, "prev")


def prior_slot_costs(
    repositories: Sequence[HistoryRepository], z_prev: GlobalState, gm: GlobalMetric
) -> np.ndarray | None:
    """Fidelity costs of the archives as an (M, n_max) array, padded as
    :func:`stack_sets` pads: +inf past each archive's entries.

    Row e holds the costs :func:`history_cost_dataset` gives element e
    (zeros where the prior weight is zero); None when the archives have
    equal sizes and every prior weight is zero. Costs are checked as
    :class:`LocalDataSet` checks them.
    """
    sizes = [h.n_entries for h in repositories]
    if len(set(sizes)) == 1 and all(h.weights[1] == 0.0 for h in repositories):
        return None

    def rows():
        for e, h in enumerate(repositories):
            row = _prior_slot_cost(h, z_prev.point(e), gm.locals[e])
            if row is None:
                row = np.zeros(h.n_entries)
            elif np.any(~np.isfinite(row)) or np.any(row < 0.0):
                raise ValueError("fidelity costs must be finite and nonnegative")
            yield row

    return _padded(rows(), (len(sizes), max(sizes)), np.inf)


def write_datasets_csv(path, rows) -> None:
    """Writes (step, element, LocalDataSet) triples as step, element,
    strain, stress, cost lines."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["step", "element", "strain", "stress", "cost"])
        for step, element, d in rows:
            costs = d.costs if d.costs is not None else np.zeros(d.n_points)
            for i in range(d.n_points):
                writer.writerow(
                    [
                        step,
                        element,
                        repr(float(d.strains[i, 0])),
                        repr(float(d.stresses[i, 0])),
                        repr(float(costs[i])),
                    ]
                )


def read_datasets_csv(path) -> list[tuple[int, int, LocalDataSet]]:
    """Inverse of :func:`write_datasets_csv`.

    Returns the (step, element, LocalDataSet) triples in file order; each
    run of consecutive lines with the same (step, element) is one set. An
    all-zero cost column reads back as ``costs=None``. A malformed line
    raises ``ValueError`` naming ``path:line``.
    """
    runs: list[tuple[int, int, list[tuple[float, float, float]]]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["step", "element", "strain", "stress", "cost"]:
            raise ValueError(f"{path}: unexpected header {header!r}")
        for row in reader:
            if not row:
                continue
            where = f"{path}:{reader.line_num}"
            if len(row) != 5:
                raise ValueError(f"{where}: expected 5 fields, got {len(row)}")
            try:
                step, element = int(row[0]), int(row[1])
                point = tuple(float(v) for v in row[2:])
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            if not np.all(np.isfinite(point)) or point[2] < 0.0:
                raise ValueError(f"{where}: values must be finite and the cost nonnegative")
            if not runs or runs[-1][:2] != (step, element):
                runs.append((step, element, []))
            runs[-1][2].append(point)
    out = []
    for step, element, pts in runs:
        eps, sig, cost = (np.array(col) for col in zip(*pts))
        out.append(
            (step, element, LocalDataSet(eps, sig, cost if np.any(cost != 0.0) else None))
        )
    return out
