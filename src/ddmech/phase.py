"""Phase-space points, local metrics, and the weighted global metric.

The state of a material point is a strain-stress pair ``z = (eps, sig)``.
States of a structure with ``M`` material points live in the product of the
local phase spaces, one factor per point. Every distance used by the
projection solvers derives from the quadratic local norm

    |z|^2 = C eps^2 + C^{-1} sig^2

with ``C > 0`` a scalar modulus-like constant of the bar, and from the
volume-weighted global norm ``|z|^2 = sum_e w_e |z_e|^2``. The global square
distance therefore decomposes into independent per-point terms, which is what
makes the data-side projection a batch of local nearest-neighbour searches.
:class:`GlobalMetric` holds ``w``, ``C`` and ``C^{-1}`` as arrays, from which
the solver and the error norms evaluate these sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "LocalPhasePoint",
    "LocalMetric",
    "GlobalMetric",
    "GlobalState",
]


def _as_scalar(x, name: str) -> np.ndarray:
    v = np.array(x, dtype=float, ndmin=1)
    if v.shape != (1,):
        raise ValueError(f"{name} must be a scalar, got shape {v.shape}")
    if not np.isfinite(v[0]):
        raise ValueError(f"{name} must be finite")
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class LocalPhasePoint:
    """A scalar (strain, stress) pair at one material point, each stored as
    a 1-vector."""

    strain: np.ndarray
    stress: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "strain", _as_scalar(self.strain, "strain"))
        object.__setattr__(self, "stress", _as_scalar(self.stress, "stress"))


@dataclass(frozen=True)
class LocalMetric:
    """Scalar modulus ``c`` defining the local phase-space norm, and its
    inverse ``c_inv``, derived from it. ``c`` must be finite and positive.
    """

    c: float
    c_inv: float = field(init=False)

    def __post_init__(self) -> None:
        c = float(self.c)
        if not 0.0 < c < np.inf:  # NaN fails the comparison too
            raise ValueError(f"modulus must be finite and positive, got {c!r}")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "c_inv", 1.0 / c)

    @classmethod
    def from_modulus(cls, value: float) -> "LocalMetric":
        """Scalar metric for one-dimensional local states."""
        return cls(value)


class GlobalMetric:
    """Per-element local metrics plus positive volume weights.

    ``c_diag`` and ``c_inv_diag`` hold every element's modulus and its
    inverse as arrays, the form all vectorized norms and searches read.
    """

    __slots__ = ("locals", "weights", "c_diag", "c_inv_diag")

    def __init__(self, locals: Sequence[LocalMetric], weights) -> None:
        self.locals = tuple(locals)
        if not self.locals:
            raise ValueError("at least one local metric is required")
        w = np.asarray(weights, dtype=float).reshape(-1).copy()
        if w.size != len(self.locals):
            raise ValueError(
                f"{len(self.locals)} local metrics but {w.size} weights"
            )
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("weights must be finite and positive")
        c = np.array([m.c for m in self.locals])
        ci = np.array([m.c_inv for m in self.locals])
        for a in (w, c, ci):
            a.setflags(write=False)
        self.weights = w
        self.c_diag = c
        self.c_inv_diag = ci

    @classmethod
    def uniform(cls, c_value: float, weights) -> "GlobalMetric":
        """Same scalar metric for every element."""
        w = np.asarray(weights, dtype=float).reshape(-1)
        m = LocalMetric.from_modulus(c_value)
        return cls([m] * w.size, w)

    @property
    def n_elements(self) -> int:
        return len(self.locals)


@dataclass(frozen=True)
class GlobalState:
    """Strain and stress arrays of shape ``(M, 1)`` for the whole structure;
    1-D arrays of length ``M`` are promoted to columns."""

    strain: np.ndarray
    stress: np.ndarray

    def __post_init__(self) -> None:
        eps = np.asarray(self.strain, dtype=float)
        sig = np.asarray(self.stress, dtype=float)
        if eps.ndim == 1:
            eps = eps[:, None]
        if sig.ndim == 1:
            sig = sig[:, None]
        if eps.ndim != 2 or eps.shape[1] != 1 or sig.shape != eps.shape:
            raise ValueError(
                f"strain/stress must share shape (M, 1), got {eps.shape} vs {sig.shape}"
            )
        if eps.shape[0] < 1:
            raise ValueError("state must hold at least one element")
        if not (np.all(np.isfinite(eps)) and np.all(np.isfinite(sig))):
            raise ValueError("state entries must be finite")
        eps = eps.copy()
        sig = sig.copy()
        eps.setflags(write=False)
        sig.setflags(write=False)
        object.__setattr__(self, "strain", eps)
        object.__setattr__(self, "stress", sig)

    @classmethod
    def zeros(cls, n_elements: int) -> "GlobalState":
        return cls(np.zeros(n_elements), np.zeros(n_elements))

    @property
    def n_elements(self) -> int:
        return self.strain.shape[0]

    def point(self, e: int) -> LocalPhasePoint:
        return LocalPhasePoint(self.strain[e], self.stress[e])
