"""Material data sets, conditioned set generators, and nearest-point search.

A local data set is a cloud of (strain, stress) points for one element,
optionally tagged with a nonnegative fidelity cost added to the square
distance during search. Evolving-material behaviour enters through the
generators: each time step gets a fresh set conditioned on the previously
converged local state (and, for plasticity, on an accumulated-slip history
variable recovered from stress-strain increments alone).

Every search is exact and returns the lowest index among the minimizers.
The solver searches equal-size scalar sets stacked as (M, n) arrays with
:func:`batch_nearest`: a scan of every point for small stacks, and above a
size crossover a search of each row in its strain order, which evaluates the
scan's own arithmetic on a certified block of candidates. Single sets
(:meth:`LocalDataSet.nearest`) are scanned, or searched through a KD-tree
whose candidates are re-checked with the scan arithmetic when the set is
large and cost-free.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.spatial import cKDTree

from .materials import (
    PlasticParams,
    SlsParams,
    plastic_return_map,
    sls_affine_coefficients,
)
from .phase import GlobalMetric, GlobalState, LocalMetric, LocalPhasePoint

__all__ = [
    "DataPoint",
    "LocalDataSet",
    "ConditioningState",
    "WindowRule",
    "GeneratorSpec",
    "HistoryRepository",
    "nearest_point",
    "project_onto_D",
    "generate_sls_set",
    "generate_plastic_set",
    "update_history_variable",
    "gaussian_fidelity_cost",
    "nearest_history",
    "history_cost_dataset",
    "prior_slot_costs",
    "write_datasets_csv",
    "read_datasets_csv",
]

_TREE_THRESHOLD = 64


@dataclass(frozen=True)
class DataPoint:
    """One (strain, stress) sample with an optional fidelity cost."""

    strain: np.ndarray
    stress: np.ndarray
    fidelity_cost: float = 0.0

    def __post_init__(self) -> None:
        point = LocalPhasePoint(self.strain, self.stress)
        object.__setattr__(self, "strain", point.strain)
        object.__setattr__(self, "stress", point.stress)
        cost = float(self.fidelity_cost)
        if not np.isfinite(cost) or cost < 0.0:
            raise ValueError(f"fidelity cost must be nonnegative, got {cost!r}")
        object.__setattr__(self, "fidelity_cost", cost)

    @property
    def dim(self) -> int:
        return self.strain.size


class LocalDataSet:
    """Immutable point cloud for one element, with exact nearest search."""

    __slots__ = ("strains", "stresses", "costs", "_tree", "_tree_key")

    def __init__(self, strains, stresses, costs=None) -> None:
        eps = np.asarray(strains, dtype=float)
        sig = np.asarray(stresses, dtype=float)
        if eps.ndim == 1:
            eps = eps[:, None]
        if sig.ndim == 1:
            sig = sig[:, None]
        if eps.ndim != 2 or eps.shape != sig.shape:
            raise ValueError("strains and stresses must share shape (n, m)")
        if eps.shape[0] < 1:
            raise ValueError("a data set must contain at least one point")
        if eps.shape[1] < 1 or eps.shape[1] > 3:
            raise ValueError("local dimension must be between 1 and 3")
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
        self._tree = None
        self._tree_key = None

    @classmethod
    def from_points(cls, points: Sequence[DataPoint]) -> "LocalDataSet":
        if not points:
            raise ValueError("a data set must contain at least one point")
        dims = {p.dim for p in points}
        if len(dims) != 1:
            raise ValueError("all points must share one local dimension")
        costs = np.array([p.fidelity_cost for p in points])
        return cls(
            np.stack([p.strain for p in points]),
            np.stack([p.stress for p in points]),
            costs if np.any(costs != 0.0) else None,
        )

    @property
    def n_points(self) -> int:
        return self.strains.shape[0]

    @property
    def dim(self) -> int:
        return self.strains.shape[1]

    def point(self, i: int) -> DataPoint:
        cost = 0.0 if self.costs is None else float(self.costs[i])
        return DataPoint(self.strains[i], self.stresses[i], cost)

    def _distances_sq(self, z: LocalPhasePoint, metric: LocalMetric) -> np.ndarray:
        de = self.strains - z.strain
        ds = self.stresses - z.stress
        if metric.dim == 1:
            d2 = metric.c[0, 0] * de[:, 0] * de[:, 0] + metric.c_inv[0, 0] * ds[:, 0] * ds[:, 0]
        else:
            d2 = np.einsum("ni,ij,nj->n", de, metric.c, de) + np.einsum(
                "ni,ij,nj->n", ds, metric.c_inv, ds
            )
        if self.costs is not None:
            d2 = d2 + self.costs
        return d2

    def _get_tree(self, metric: LocalMetric) -> tuple[cKDTree, np.ndarray]:
        key = metric.c.tobytes()
        if self._tree is None or self._tree_key != key:
            chol = np.linalg.cholesky(metric.c)
            coords = np.hstack(
                [
                    self.strains @ chol,  # |L^T e|^2 = e^T C e
                    np.linalg.solve(chol, self.stresses.T).T,
                ]
            )
            self._tree = (cKDTree(coords), chol)
            self._tree_key = key
        return self._tree

    def nearest(self, z: LocalPhasePoint, metric: LocalMetric) -> tuple[int, DataPoint]:
        """Lowest-index minimizer of square distance plus fidelity cost."""
        if z.dim != self.dim or metric.dim != self.dim:
            raise ValueError("point, metric and data set dimensions must agree")
        if self.costs is not None or self.n_points < _TREE_THRESHOLD:
            d2 = self._distances_sq(z, metric)
            idx = int(np.argmin(d2))
            return idx, self.point(idx)
        tree, chol = self._get_tree(metric)
        query = np.concatenate([z.strain @ chol, np.linalg.solve(chol, z.stress)])
        dist, _ = tree.query(query)
        # re-check candidates with scan arithmetic so ties and rounding agree
        # with the linear-scan reference exactly
        radius = dist * (1.0 + 1e-9) + 1e-300
        candidates = sorted(tree.query_ball_point(query, radius))
        if not candidates:
            candidates = list(range(self.n_points))
        cand = np.asarray(candidates, dtype=int)
        de = self.strains[cand] - z.strain
        ds = self.stresses[cand] - z.stress
        if metric.dim == 1:
            d2 = metric.c[0, 0] * de[:, 0] * de[:, 0] + metric.c_inv[0, 0] * ds[:, 0] * ds[:, 0]
        else:
            d2 = np.einsum("ni,ij,nj->n", de, metric.c, de) + np.einsum(
                "ni,ij,nj->n", ds, metric.c_inv, ds
            )
        idx = int(cand[np.argmin(d2)])
        return idx, self.point(idx)


def nearest_point(
    z: LocalPhasePoint, d: LocalDataSet, metric: LocalMetric
) -> tuple[int, DataPoint]:
    """Module-level alias of :meth:`LocalDataSet.nearest`."""
    return d.nearest(z, metric)


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

    def search(self, x: np.ndarray) -> np.ndarray:
        """Left insertion positions of ``x`` in its sorted row.

        ``x`` has one row per set and any number of columns; every entry
        equals ``np.searchsorted(self.eps[e], x[e, i])``, NaN included. All
        rows are bisected at once: the position is built bit by bit, from
        the highest, as the count of row strains below x.
        """
        x = np.asarray(x, dtype=float)
        m, n = self.eps.shape
        flat = self.eps.reshape(-1)
        last = (np.arange(m) * n - 1).reshape((m,) + (1,) * (x.ndim - 1))
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
    """Equal-size scalar data sets stacked as (M, n) arrays for batch search.

    ``index`` is the rows' :class:`StrainIndex`. It is built on the first
    call of :meth:`strain_index` and then shared by every search of the
    step (association and the response warm start); a caller whose strains
    outlive one step (a fixed archive) passes it in once.
    """

    eps: np.ndarray
    sig: np.ndarray
    costs: np.ndarray | None
    index: StrainIndex | None = field(default=None, repr=False)

    def strain_index(self) -> StrainIndex:
        if self.index is None:
            object.__setattr__(self, "index", StrainIndex(self.eps))
        return self.index


def stack_sets(sets: Sequence[LocalDataSet]) -> StackedSets | None:
    """Stacks scalar sets of equal size; None when the fast path cannot apply."""
    if not sets:
        return None
    n = sets[0].n_points
    if any(d.dim != 1 or d.n_points != n for d in sets):
        return None
    eps = np.stack([d.strains[:, 0] for d in sets])
    sig = np.stack([d.stresses[:, 0] for d in sets])
    any_costs = any(d.costs is not None for d in sets)
    costs = None
    if any_costs:
        costs = np.stack(
            [d.costs if d.costs is not None else np.zeros(n) for d in sets]
        )
    return StackedSets(eps, sig, costs)


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
        pos = lo[r, None] + np.arange(int(length[r].max()))[None, :]
        valid = pos < hi[r, None]
        d2, _, j = _sorted_d2(
            stacked, index, r, np.minimum(pos, n - 1), eps, sig, c, c_inv
        )
        d2[~valid] = np.inf
        tied = valid & (d2 == d2.min(axis=1)[:, None])
        out[r] = np.where(tied, j, n).min(axis=1)
    r = np.flatnonzero(~blocked)
    if r.size:
        sub = StackedSets(
            stacked.eps[r],
            stacked.sig[r],
            None if stacked.costs is None else stacked.costs[r],
        )
        out[r] = scan_nearest(eps[r], sig[r], sub, c[r], c_inv[r])
    return out


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


def project_onto_D(
    z: GlobalState, sets: Sequence[LocalDataSet], gm: GlobalMetric
) -> tuple[np.ndarray, GlobalState]:
    """Elementwise nearest data points; global minimizer by decomposability."""
    if len(sets) != gm.n_elements or z.n_elements != gm.n_elements:
        raise ValueError("state, data sets and metric must have equal element counts")
    stacked = stack_sets(sets)
    if stacked is not None and gm.is_scalar and z.dim == 1:
        idx = batch_nearest(
            z.strain[:, 0], z.stress[:, 0], stacked, gm.c_diag, gm.c_inv_diag
        )
        eps = np.take_along_axis(stacked.eps, idx[:, None], axis=1)[:, 0]
        sig = np.take_along_axis(stacked.sig, idx[:, None], axis=1)[:, 0]
        return idx.astype(np.int64), GlobalState(eps, sig)
    indices = np.zeros(len(sets), dtype=np.int64)
    eps_rows = []
    sig_rows = []
    for e, d in enumerate(sets):
        i, p = d.nearest(z.point(e), gm.locals[e])
        indices[e] = i
        eps_rows.append(p.strain)
        sig_rows.append(p.stress)
    return indices, GlobalState(np.stack(eps_rows), np.stack(sig_rows))


@dataclass(frozen=True)
class ConditioningState:
    """Previously converged local state (plus accumulated slip, if any)."""

    prev_strain: np.ndarray | float = 0.0
    prev_stress: np.ndarray | float = 0.0
    q_acc: float = 0.0

    def __post_init__(self) -> None:
        point = LocalPhasePoint(
            np.atleast_1d(self.prev_strain), np.atleast_1d(self.prev_stress)
        )
        object.__setattr__(self, "prev_strain", point.strain)
        object.__setattr__(self, "prev_stress", point.stress)
        qa = float(self.q_acc)
        if not np.isfinite(qa) or qa < 0.0:
            raise ValueError(f"q_acc must be nonnegative, got {qa!r}")
        object.__setattr__(self, "q_acc", qa)


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
        if self.halfwidth is not None and float(self.halfwidth) <= 0.0:
            raise ValueError("fixed halfwidth must be positive")
        for name in ("incr_factor", "band_factor", "floor"):
            if float(getattr(self, name)) < 0.0:
                raise ValueError(f"{name} must be nonnegative")

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
    couple the window to the sampling resolution.
    """

    law: SlsParams | PlasticParams
    n_points: int
    band_width: float = 0.0
    window: WindowRule = WindowRule(floor=1.0)
    rng_seed: int = 0
    dt: float = 1.0
    sampling: str = "grid"
    window_scale: float = 1.0

    def __post_init__(self) -> None:
        if int(self.n_points) < 1:
            raise ValueError("n_points must be at least 1")
        object.__setattr__(self, "n_points", int(self.n_points))
        if float(self.band_width) < 0.0:
            raise ValueError("band_width must be nonnegative")
        if self.sampling not in ("grid", "uniform"):
            raise ValueError(f"unknown sampling mode {self.sampling!r}")
        if float(self.window_scale) <= 0.0:
            raise ValueError("window_scale must be positive")


def _sample_strains(
    g: GeneratorSpec,
    center: float,
    halfwidth: float,
    rng: np.random.Generator | None,
) -> np.ndarray:
    n = g.n_points
    if g.sampling == "uniform":
        if rng is None:
            raise ValueError("uniform sampling requires a random generator")
        return center + rng.uniform(-halfwidth, halfwidth, n)
    # uniform grid through the center: offsets (i - n//2) * step
    step = halfwidth / max(n // 2, 1)
    grid = center + (np.arange(n) - n // 2) * step
    if g.band_width > 0.0:
        if rng is None:
            raise ValueError("a banded draw requires a random generator")
        grid = grid + rng.uniform(-0.5 * g.band_width, 0.5 * g.band_width, n)
    return grid


def _resolve_window(
    cond: ConditioningState,
    g: GeneratorSpec,
    center: float | None,
    halfwidth: float | None,
    step_estimate: float,
    creep_estimate: float = 0.0,
) -> tuple[float, float]:
    c = float(cond.prev_strain[0] + step_estimate) if center is None else float(center)
    if halfwidth is None:
        est_eff = max(abs(float(step_estimate)), abs(float(creep_estimate)))
        hw = g.window.resolve(g.band_width, est_eff) * g.window_scale
    else:
        hw = float(halfwidth)
    if hw <= 0.0:
        raise ValueError("window half-width must be positive")
    return c, hw


def generate_sls_set(
    cond: ConditioningState,
    g: GeneratorSpec,
    rng: np.random.Generator | None = None,
    *,
    dt: float | None | str = "spec",
    center: float | None = None,
    halfwidth: float | None = None,
    step_estimate: float = 0.0,
) -> LocalDataSet:
    """Data set of one-step viscoelastic responses about the conditioning state.

    Strains are sampled in a window centered (by default) on the previous
    converged strain shifted by the elastic step estimate; stresses follow
    the one-step response line for the given ``dt``; ``dt=None`` selects the
    instantaneous limit for a suddenly applied first step. When
    ``band_width > 0`` the sampled strains are perturbed uniformly within
    the band, leaving stresses on the line (a noisy strain axis).
    """
    if not isinstance(g.law, SlsParams):
        raise ValueError("generate_sls_set requires SlsParams")
    if cond.prev_strain.size != 1:
        raise ValueError("scalar conditioning state required")
    dt_eff = g.dt if isinstance(dt, str) else dt
    a, b = sls_affine_coefficients(cond, g.law, dt_eff)
    if dt_eff is None:
        creep = 0.0
    else:
        # creep widens the window during load holds but never moves its center
        creep = float((cond.prev_stress[0] - a[0]) / b - cond.prev_strain[0])
    c, hw = _resolve_window(cond, g, center, halfwidth, step_estimate, creep)
    eps_grid = _sample_strains(g, c, hw, rng)
    sig = float(a[0]) + b * eps_grid
    return LocalDataSet(eps_grid, sig)


def generate_plastic_set(
    cond: ConditioningState,
    g: GeneratorSpec,
    rng: np.random.Generator | None = None,
    *,
    center: float | None = None,
    halfwidth: float | None = None,
    step_estimate: float = 0.0,
) -> LocalDataSet:
    """Data set of return-mapped responses about the conditioning state.

    The internal variable is recovered from the conditioning state alone,
    ``q = ((e0+e1) eps_k - sig_k) / e1``, and the accumulated slip from the
    tracked history variable, so the generator never sees solver internals.
    """
    if not isinstance(g.law, PlasticParams):
        raise ValueError("generate_plastic_set requires PlasticParams")
    if cond.prev_strain.size != 1:
        raise ValueError("scalar conditioning state required")
    p = g.law
    eps_k = float(cond.prev_strain[0])
    sig_k = float(cond.prev_stress[0])
    q_prev = ((p.e0 + p.e1) * eps_k - sig_k) / p.e1
    c, hw = _resolve_window(cond, g, center, halfwidth, step_estimate)
    eps_grid = _sample_strains(g, c, hw, rng)
    sig, _, _ = plastic_return_map(eps_grid, q_prev, cond.q_acc, p)
    return LocalDataSet(eps_grid, sig)


def update_history_variable(
    cond: ConditioningState, z_new: LocalPhasePoint, p: PlasticParams
) -> float:
    """Accumulated-slip update from accepted increments only.

    ``dq = |((e0+e1) deps - dsig) / e1|`` is the slip increment implied by
    the accepted state change; it is nonnegative by construction, so the
    history variable is monotone along any trajectory.
    """
    deps = z_new.strain - cond.prev_strain
    dsig = z_new.stress - cond.prev_stress
    dq = np.linalg.norm(((p.e0 + p.e1) * deps - dsig) / p.e1)
    return cond.q_acc + float(dq)


def gaussian_fidelity_cost(std_devs, dims) -> float:
    """Additive cost ``sum_e 2 m_e s_e^2`` of Gaussian point uncertainty."""
    s = np.asarray(std_devs, dtype=float).reshape(-1)
    m = np.asarray(dims, dtype=int).reshape(-1)
    if s.size != m.size:
        raise ValueError("one standard deviation per element is required")
    if np.any(s < 0.0) or np.any(~np.isfinite(s)):
        raise ValueError("standard deviations must be finite and nonnegative")
    if np.any(m < 1):
        raise ValueError("dimensions must be positive")
    return float(np.sum(2.0 * m * s * s))


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
        if w[0] <= 0.0 or w[1] < 0.0:
            raise ValueError("current weight must be positive, prior weight nonnegative")
        for name, a in arrays.items():
            object.__setattr__(self, name, a)
        object.__setattr__(self, "weights", w)

    @property
    def n_entries(self) -> int:
        return self.eps_cur.size


def _slot_distances_sq(
    h: HistoryRepository, z: LocalPhasePoint, metric: LocalMetric, slot: str
) -> np.ndarray:
    c = metric.c[0, 0]
    ci = metric.c_inv[0, 0]
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
    if metric.dim != 1:
        raise ValueError("history repositories hold scalar states")
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
    """Fidelity costs of equal-size archives stacked as an (M, n) array.

    Row e holds the costs :func:`history_cost_dataset` gives element e
    (zeros where the prior weight is zero); None when every prior weight
    is zero. Costs are checked as :class:`LocalDataSet` checks them.
    """
    if all(h.weights[1] == 0.0 for h in repositories):
        return None
    costs = np.zeros((len(repositories), repositories[0].n_entries))
    for e, h in enumerate(repositories):
        row = _prior_slot_cost(h, z_prev.point(e), gm.locals[e])
        if row is not None:
            costs[e] = row
    if np.any(~np.isfinite(costs)) or np.any(costs < 0.0):
        raise ValueError("fidelity costs must be finite and nonnegative")
    return costs


def write_datasets_csv(path, rows) -> None:
    """Writes (step, element, LocalDataSet) triples as step, element,
    strain, stress, cost lines; scalar sets only."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["step", "element", "strain", "stress", "cost"])
        for step, element, d in rows:
            if d.dim != 1:
                raise ValueError("CSV dump supports scalar data sets only")
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
    all-zero cost column reads back as ``costs=None``.
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
            step, element = int(row[0]), int(row[1])
            if not runs or runs[-1][:2] != (step, element):
                runs.append((step, element, []))
            runs[-1][2].append((float(row[2]), float(row[3]), float(row[4])))
    out = []
    for step, element, pts in runs:
        eps, sig, cost = (np.array(col) for col in zip(*pts))
        out.append(
            (step, element, LocalDataSet(eps, sig, cost if np.any(cost != 0.0) else None))
        )
    return out
