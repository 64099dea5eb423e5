"""Reference inelastic material models used as data generators and oracles.

Two one-dimensional laws drive everything:

* a standard linear solid (spring ``e0`` in parallel with a Maxwell branch
  ``e1 - tau1``), discretized in time with a backward difference of the
  viscous rate equation, and
* rate-independent plasticity with combined linear kinematic/isotropic
  hardening, evaluated through an elastic-predictor return map.

Functions operate on floats or numpy arrays elementwise, so the same code
evaluates a single state or a whole sampling grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "SlsParams",
    "PlasticParams",
    "ReturnMapResult",
    "sls_affine_coefficients",
    "sls_relaxation_exact",
    "plastic_return_map",
]


@dataclass(frozen=True)
class SlsParams:
    """Standard linear solid moduli: equilibrium spring ``e0``, Maxwell
    branch stiffness ``e1`` and relaxation time ``tau1``."""

    e0: float
    e1: float
    tau1: float

    def __post_init__(self) -> None:
        for name in ("e0", "e1", "tau1"):
            v = float(getattr(self, name))
            if not np.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be positive, got {v!r}")
            object.__setattr__(self, name, v)

    @property
    def modulus_instantaneous(self) -> float:
        return self.e0 + self.e1


@dataclass(frozen=True)
class PlasticParams:
    """Elastic spring ``e0`` in parallel with an elastoplastic branch of
    stiffness ``e1``, initial yield ``sigma1`` and hardening modulus ``h``."""

    e0: float
    e1: float
    sigma1: float
    h: float = 0.0

    def __post_init__(self) -> None:
        for name in ("e0", "e1", "sigma1"):
            v = float(getattr(self, name))
            if not np.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be positive, got {v!r}")
            object.__setattr__(self, name, v)
        h = float(self.h)
        if not np.isfinite(h) or h < 0.0:
            raise ValueError(f"h must be nonnegative, got {h!r}")
        object.__setattr__(self, "h", h)

    @property
    def modulus_instantaneous(self) -> float:
        return self.e0 + self.e1

    def yield_stress(self, q_acc) -> float | np.ndarray:
        """Current yield level of the plastic branch."""
        return self.sigma1 + self.h * np.asarray(q_acc, dtype=float)


def sls_affine_coefficients(
    eps_prev, sig_prev, p: SlsParams, dt: float | None
) -> tuple[np.ndarray, float]:
    """Coefficients (a, b) of the one-step response line ``sig = a + b eps``.

    The line collects all states reachable in one backward-difference step of
    size ``dt`` from the previously converged state ``(eps_prev, sig_prev)``
    (arrays, one entry per element): ``sig + tau1 (sig - sig_prev)/dt = e0
    eps + (e0+e1) tau1 (eps - eps_prev)/dt``. ``dt=None`` selects the
    instantaneous limit (slope ``e0 + e1`` through the prior state), used for
    a suddenly applied first step; otherwise ``dt`` must be positive.
    """
    if dt is None:
        b = p.e0 + p.e1
        a = sig_prev - b * eps_prev
        return a, b
    dt = float(dt)
    if dt <= 0.0 or not np.isfinite(dt):
        raise ValueError(f"dt must be positive, got {dt!r}")
    r = p.tau1 / dt
    b = (p.e0 + (p.e0 + p.e1) * r) / (1.0 + r)
    a = (sig_prev * r - (p.e0 + p.e1) * r * eps_prev) / (1.0 + r)
    return a, b


def sls_relaxation_exact(k, p: SlsParams, eps_bar: float, dt: float):
    """Closed-form relaxation series under constant strain ``eps_bar``.

    With rho = tau1/(dt + tau1), the discrete stress history is
    ``sig_k = e0 eps_bar + e1 eps_bar rho^k``; k = 0 carries the
    instantaneous response ``(e0 + e1) eps_bar``.
    """
    dt = float(dt)
    if dt <= 0.0 or not np.isfinite(dt):
        raise ValueError(f"dt must be positive, got {dt!r}")
    k = np.asarray(k)
    if np.any(k < 0):
        raise ValueError("step index must be nonnegative")
    rho = p.tau1 / (dt + p.tau1)
    return p.e0 * eps_bar + p.e1 * eps_bar * rho ** k.astype(float)


class ReturnMapResult(NamedTuple):
    stress: np.ndarray
    q: np.ndarray
    q_acc: np.ndarray


def plastic_return_map(eps_new, q_prev, qacc_prev, p: PlasticParams) -> ReturnMapResult:
    """Elastic-predictor/plastic-corrector update of the hardening model.

    The plastic branch stress ``e1 (eps - q)`` is returned to the yield
    surface ``|e1 (eps - q)| <= sigma1 + h q_acc`` by the closed-form
    increment ``dlam = f_trial / (e1 + h)``; the total stress is
    ``e0 eps + e1 (eps - q)``. Inputs broadcast elementwise, so a whole grid
    of trial strains can share one prior internal state.
    """
    eps = np.asarray(eps_new, dtype=float)
    q0 = np.asarray(q_prev, dtype=float)
    qa0 = np.asarray(qacc_prev, dtype=float)
    if np.any(qa0 < 0.0):
        raise ValueError("accumulated plastic slip must be nonnegative")
    p_trial = p.e1 * (eps - q0)
    f_trial = np.abs(p_trial) - p.yield_stress(qa0)
    dlam = np.where(f_trial > 0.0, f_trial / (p.e1 + p.h), 0.0)
    q = q0 + dlam * np.sign(p_trial)
    qa = qa0 + dlam
    return ReturnMapResult(p.e0 * eps + p.e1 * (eps - q), q, qa)
