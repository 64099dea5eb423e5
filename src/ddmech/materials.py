"""Reference inelastic material models used as data generators and oracles.

Two one-dimensional laws drive everything:

* a standard linear solid (spring ``e0`` in parallel with a Maxwell branch
  ``e1 - tau1``), discretized in time with a backward difference of the
  viscous rate equation, and
* rate-independent plasticity with combined linear kinematic/isotropic
  hardening, evaluated through an elastic-predictor return map.

Functions operate on floats or numpy arrays elementwise, so the same code
evaluates a single state or a whole sampling grid. A per-step draw takes
its plastic stresses from :func:`plastic_stress`, the return map's
stresses bit for bit, without its temporaries.
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
    "plastic_stress",
]

#: Entries per chunk of :func:`plastic_stress`, whose scratch rows stay in
#: cache. Best ms per 197 x 4096 stack of sorted rows, 35% of them plastic
#: (2-CPU x86-64, numpy 2.4, one thread, three rounds): 5.0-5.2 at 2^13
#: entries, 4.0-4.2 at 2^15, 4.0-4.4 at 2^16 and 6.0-6.4 unchunked, against
#: 21-23 for :func:`plastic_return_map`.
_CHUNK_ENTRIES = 1 << 15


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


def plastic_stress(eps, q_prev, qacc_prev, p: PlasticParams, out=None) -> np.ndarray:
    """The stresses :func:`plastic_return_map` gives the (M, n) strains
    ``eps``, row e from the prior state ``q_prev[e]``, ``qacc_prev[e]``:
    bit for bit, signed zeros included. They are written into ``out`` (an
    (M, n) array other than ``eps``; None: a new one).

    With ``p = e1 (eps - q)`` the trial stress and ``Y`` the yield stress,
    the law's ``dlam sign(p)`` is ``(p + Y) / (e1 + h)`` where ``p < -Y``,
    ``(p - Y) / (e1 + h)`` where ``p > Y`` and ``0 sign(p)`` between. That
    is ``(p - clip(p, -Y, Y)) / (e1 + h)``, with the law's rounding in each
    case, except that between it is ``+0``. Adding ``+0`` to ``q`` differs
    from the law's sum only for ``q = -0`` and ``p < 0``, where the strain
    is not zero, so ``eps - q`` and the stress are the same. Neither ``q``
    nor ``q_acc`` is returned. The rows are evaluated ``_CHUNK_ENTRIES``
    entries at a time.
    """
    q0 = np.asarray(q_prev, dtype=float)
    qa0 = np.asarray(qacc_prev, dtype=float)
    if np.any(qa0 < 0.0):
        raise ValueError("accumulated plastic slip must be nonnegative")
    m, n = eps.shape
    out = np.empty((m, n)) if out is None else out
    y = p.yield_stress(qa0)
    k = max(1, min(m, _CHUNK_ENTRIES // n))
    scratch = np.empty((k, n))
    for r in range(0, m, k):
        rows = slice(r, r + k)
        e, s = eps[rows], out[rows]
        t = scratch[: e.shape[0]]
        q, yc = q0[rows, None], y[rows, None]
        np.subtract(e, q, out=s)
        np.multiply(s, p.e1, out=s)
        np.clip(s, -yc, yc, out=t)
        np.subtract(s, t, out=s)
        np.divide(s, p.e1 + p.h, out=s)
        np.add(s, q, out=s)
        np.subtract(e, s, out=s)
        np.multiply(s, p.e1, out=s)
        np.multiply(e, p.e0, out=t)
        np.add(t, s, out=s)
    return out
