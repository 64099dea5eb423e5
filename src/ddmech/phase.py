"""Per-bar states and the weighted phase-space metric, as flat arrays.

The local state of a bar is one scalar strain-stress pair ``z_e = (eps_e,
sig_e)``, and every per-bar quantity of a structure with ``M`` bars is a
flat array of length ``M``: :class:`GlobalState` holds the strains and
stresses, :class:`GlobalMetric` the moduli, their inverses and the volume
weights. Every distance used by the projection solvers derives from the
local norm

    |z_e|^2 = C_e eps_e^2 + C_e^{-1} sig_e^2

with ``C_e > 0`` a modulus-like constant of bar e, and from the
volume-weighted global norm ``|z|^2 = sum_e w_e |z_e|^2``. The global square
distance therefore decomposes into independent per-bar terms, which is what
makes the data-side projection a batch of per-bar nearest-point searches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GlobalMetric",
    "GlobalState",
]


class GlobalMetric:
    """Per-bar moduli ``C`` and volume weights ``w``.

    ``c_diag`` holds the moduli, ``c_inv_diag`` their inverses ``1.0 / C``
    and ``weights`` the weights: read-only copies of length M, the form
    every norm and search reads. Moduli and weights must be finite and
    positive, one of each per bar.
    """

    __slots__ = ("weights", "c_diag", "c_inv_diag")

    def __init__(self, moduli, weights) -> None:
        c = np.array(moduli, dtype=float).reshape(-1)
        w = np.array(weights, dtype=float).reshape(-1)
        if c.size < 1:
            raise ValueError("at least one modulus is required")
        if w.size != c.size:
            raise ValueError(f"{c.size} moduli but {w.size} weights")
        for name, a in (("moduli", c), ("weights", w)):
            # written so that NaN fails the comparison and is rejected
            bad = np.flatnonzero(~((0.0 < a) & (a < np.inf)))
            if bad.size:
                raise ValueError(f"{name} must be finite and positive, got {a[bad[0]]} at {bad[0]}")
        ci = 1.0 / c
        for a in (w, c, ci):
            a.setflags(write=False)
        self.weights = w
        self.c_diag = c
        self.c_inv_diag = ci

    @classmethod
    def uniform(cls, c_value: float, weights) -> "GlobalMetric":
        """The same modulus for every bar."""
        w = np.asarray(weights, dtype=float).reshape(-1)
        return cls(np.full(w.size, float(c_value)), w)

    @property
    def n_elements(self) -> int:
        return self.c_diag.size


@dataclass(frozen=True)
class GlobalState:
    """Strain and stress of every bar: finite, read-only copies of shape
    ``(M,)``; any other shape is rejected."""

    strain: np.ndarray
    stress: np.ndarray

    def __post_init__(self) -> None:
        eps = np.array(self.strain, dtype=float)
        sig = np.array(self.stress, dtype=float)
        if eps.ndim != 1 or eps.size < 1 or sig.shape != eps.shape:
            raise ValueError(
                f"strain/stress must share one shape (M,) with M at least one, "
                f"got {eps.shape} vs {sig.shape}"
            )
        if not (np.all(np.isfinite(eps)) and np.all(np.isfinite(sig))):
            raise ValueError("state entries must be finite")
        eps.setflags(write=False)
        sig.setflags(write=False)
        object.__setattr__(self, "strain", eps)
        object.__setattr__(self, "stress", sig)

    @property
    def n_elements(self) -> int:
        return self.strain.size
