"""Generating material laws: one-step viscoelastic response and the plastic
return map.

Frozen values used as oracles:
  - instantaneous SLS modulus e0 + e1 = 175000
  - one-step SLS modulus at dt=1, tau=5: (e0 + (e0+e1)*5) / 6 = 950000/6
  - plastic step at eps=0.01 (e0=10000, e1=100000, sigma1=500):
    trial 1000 > 500, dlam = 0.005, sigma = 600
"""

from __future__ import annotations

import numpy as np
import pytest

from ddmech.materials import (
    PlasticParams,
    SlsParams,
    plastic_return_map,
    plastic_stress,
    sls_affine_coefficients,
    sls_relaxation_exact,
)

SLS = SlsParams(e0=75_000.0, e1=100_000.0, tau1=5.0)
PLASTIC = PlasticParams(e0=10_000.0, e1=100_000.0, sigma1=500.0, h=0.0)

VIRGIN = (np.zeros(1), np.zeros(1))


def one_step(eps, prev, p, dt):
    """The stress ``a + b eps`` on the one-step response line from the
    previous state ``prev`` (strain and stress arrays) at strain ``eps``."""
    a, b = sls_affine_coefficients(*prev, p, dt)
    return a + b * eps


def held(eps, sig):
    """A previous state of one element held at strain ``eps``."""
    return np.array([eps]), np.array([sig])


class TestSlsParams:
    """Parameter container and derived moduli."""

    def test_moduli(self):
        assert SLS.modulus_instantaneous == 175_000.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SlsParams(e0=-1.0, e1=1.0, tau1=1.0)
        with pytest.raises(ValueError):
            SlsParams(e0=1.0, e1=1.0, tau1=0.0)


class TestSlsOneStep:
    """Affine one-step response sigma = a + b * eps."""

    def test_instantaneous_limit(self):
        """dt=None gives the full stiffness through the previous state."""
        a, b = sls_affine_coefficients(*VIRGIN, SLS, None)
        assert b == 175_000.0
        assert a[0] == 0.0
        sig = one_step(np.array([2e-3]), VIRGIN, SLS, None)
        assert sig[0] == 350.0

    def test_one_step_modulus_frozen(self):
        """r = tau/dt = 5: b = (e0 + (e0+e1) r) / (1+r) = 950000/6."""
        a, b = sls_affine_coefficients(*VIRGIN, SLS, 1.0)
        assert b == pytest.approx(950_000.0 / 6.0, rel=1e-15)
        assert a[0] == 0.0
        sig = one_step(np.array([1e-3]), VIRGIN, SLS, 1.0)
        assert sig[0] == pytest.approx(950.0 / 6.0, rel=1e-14)

    def test_held_strain_relaxes_monotonically(self):
        """Holding the strain decays the stress toward e0 * eps."""
        eps = 1e-3
        sig = one_step(np.array([eps]), VIRGIN, SLS, None)
        for _ in range(30):
            new = one_step(np.array([eps]), held(eps, sig[0]), SLS, 1.0)
            assert new[0] < sig[0]
            sig = new
        assert sig[0] > SLS.e0 * eps

    def test_update_matches_closed_form_recurrence(self, rng):
        """Iterated one-step updates equal the exact held-strain solution."""
        for _ in range(20):
            p = SlsParams(
                e0=float(rng.uniform(1e3, 1e5)),
                e1=float(rng.uniform(1e3, 2e5)),
                tau1=float(rng.uniform(0.5, 20.0)),
            )
            dt = float(rng.uniform(0.2, 4.0))
            eps_bar = float(rng.uniform(0.2e-3, 5e-3))
            n = 40
            exact = sls_relaxation_exact(np.arange(n), p, eps_bar, dt)
            sig = one_step(np.array([eps_bar]), VIRGIN, p, None)
            assert sig[0] == pytest.approx(exact[0], rel=1e-13)
            for k in range(1, n):
                sig = one_step(np.array([eps_bar]), held(eps_bar, sig[0]), p, dt)
                assert sig[0] == pytest.approx(exact[k], rel=1e-12)

    def test_relaxation_limits(self):
        """k=0 hits the instantaneous modulus; large k relaxes to e0.

        The series decays monotonically. In float64 a step can only be seen
        to decrease while the exact decrement e1 eps (1 - rho) rho^k exceeds
        the spacing of the value (the first 191 steps here); past that the
        stored value stops changing, so only non-increase is required.
        """
        eps_bar = 1e-3
        k = np.arange(2000)
        exact = sls_relaxation_exact(k, SLS, eps_bar, 1.0)
        assert exact[0] == pytest.approx(175_000.0 * eps_bar, rel=1e-15)
        assert exact[-1] == pytest.approx(75_000.0 * eps_bar, rel=1e-6)
        diffs = np.diff(exact)
        rho = SLS.tau1 / (1.0 + SLS.tau1)
        decrement = SLS.e1 * eps_bar * (1.0 - rho) * rho ** k[:-1]
        resolvable = decrement > np.spacing(exact[:-1])
        assert resolvable.sum() == 191
        assert np.all(diffs[resolvable] < 0.0)
        assert np.all(diffs <= 0.0)


class TestPlasticReturnMap:
    """Radial return against the moving back strain."""

    def test_elastic_below_yield_frozen(self):
        """eps=0.004: trial 400 < 500, sigma = (e0+e1) eps = 440."""
        out = plastic_return_map(np.array([4e-3]), np.zeros(1), np.zeros(1), PLASTIC)
        assert out.stress[0] == pytest.approx(440.0, rel=1e-15)
        assert out.q[0] == 0.0
        assert out.q_acc[0] == 0.0

    def test_plastic_step_frozen(self):
        """eps=0.01: trial 1000, dlam=0.005, sigma = 100 + 500 = 600."""
        out = plastic_return_map(np.array([1e-2]), np.zeros(1), np.zeros(1), PLASTIC)
        assert out.stress[0] == pytest.approx(600.0, rel=1e-14)
        assert out.q[0] == pytest.approx(5e-3, rel=1e-14)
        assert out.q_acc[0] == pytest.approx(5e-3, rel=1e-14)

    def test_unload_is_elastic(self):
        """Stepping back inside the elastic domain leaves q unchanged."""
        first = plastic_return_map(np.array([1e-2]), np.zeros(1), np.zeros(1), PLASTIC)
        out = plastic_return_map(np.array([8e-3]), first.q, first.q_acc, PLASTIC)
        assert out.q[0] == first.q[0]
        assert out.stress[0] == pytest.approx(
            PLASTIC.e0 * 8e-3 + PLASTIC.e1 * (8e-3 - first.q[0]), rel=1e-14
        )

    def test_hardening_raises_yield(self):
        p = PlasticParams(e0=10_000.0, e1=100_000.0, sigma1=500.0, h=1000.0)
        assert p.yield_stress(0.0) == 500.0
        assert p.yield_stress(0.1) == 600.0

    def test_consistency_inside_yield_surface(self, rng):
        """After the return map the driving stress never exceeds yield."""
        for _ in range(30):
            p = PlasticParams(
                e0=float(rng.uniform(1e3, 5e4)),
                e1=float(rng.uniform(1e4, 2e5)),
                sigma1=float(rng.uniform(50.0, 800.0)),
                h=float(rng.uniform(0.0, 2e3)),
            )
            q = np.zeros(1)
            qa = np.zeros(1)
            for _ in range(40):
                eps = np.array([rng.normal(scale=2e-2)])
                out = plastic_return_map(eps, q, qa, p)
                driving = abs(p.e1 * (eps[0] - out.q[0]))
                assert driving <= p.yield_stress(out.q_acc[0]) * (1.0 + 1e-12) + 1e-9
                assert out.q_acc[0] >= qa[0]  # accumulated slip is monotone
                q, qa = out.q, out.q_acc

    def test_broadcasts_over_grids(self):
        eps = np.linspace(-2e-2, 2e-2, 11)
        out = plastic_return_map(eps, np.zeros(1), np.zeros(1), PLASTIC)
        assert out.stress.shape == out.q.shape == out.q_acc.shape == eps.shape
        assert np.all(np.diff(out.stress) > 0.0)  # monotone response curve

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            PlasticParams(e0=1.0, e1=1.0, sigma1=0.0)


def law_stress(eps, q, qa, p):
    """:func:`plastic_return_map`'s stresses, row e from ``q[e]``, ``qa[e]``."""
    return plastic_return_map(eps, q[:, None], qa[:, None], p).stress


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


class TestPlasticStress:
    """The draw's stresses are the return map's, bit for bit."""

    @pytest.mark.parametrize("n", [1, 7, 64, 4096])
    def test_equals_the_return_map_bit_for_bit(self, n, rng):
        """Rows wholly elastic, wholly plastic, and reaching past the lower,
        the upper or both yield strains, in no order, with and without
        hardening and prior slip, over several chunks (19 rows of 4096
        points are 3 chunks)."""
        m = 19
        for h in (0.0, 1500.0):
            p = PlasticParams(e0=10_000.0, e1=100_000.0, sigma1=500.0, h=h)
            q = rng.normal(scale=4e-3, size=m)
            q[:2] = [0.0, -0.0]
            qa = np.where(np.arange(m) % 2 == 0, 0.0, rng.uniform(0.0, 1e-2, m))
            reach = p.yield_stress(qa) / p.e1
            # one interval of trial strains per row, in units of its yield strain
            spans = np.array([(-0.5, 0.5), (-2.0, 0.0), (0.0, 2.0), (-2.0, 2.0), (1.5, 3.0)])
            lo, hi = spans[np.arange(m) % len(spans)].T
            eps = q[:, None] + reach[:, None] * rng.uniform(lo, hi, (n, m)).T
            want = law_stress(eps, q, qa, p)
            out = np.full((m, n), np.nan)
            assert plastic_stress(eps, q, qa, p, out=out) is out
            assert np.array_equal(bits(out), bits(want))
            assert np.array_equal(bits(plastic_stress(eps, q, qa, p)), bits(want))
        if n >= 64:
            f = np.abs(p.e1 * (eps - q[:, None])) - p.yield_stress(qa)[:, None]
            lower = (f > 0.0) & (eps < q[:, None])
            upper = (f > 0.0) & (eps > q[:, None])
            assert not (f[0] > 0.0).any() and (f[4] > 0.0).all()
            assert lower[1].any() and not upper[1].any()
            assert upper[2].any() and not lower[2].any()
            assert lower[3].any() and upper[3].any() and (f[3] <= 0.0).any()

    def test_exact_yield_and_signed_zeros(self):
        """Entries exactly at a yield strain (``f_trial == 0``), hardening
        with prior slip, and strains and prior states of either signed zero:
        powers of two make every trial stress exact."""
        p = PlasticParams(e0=8192.0, e1=65536.0, sigma1=512.0, h=1024.0)
        q = np.array([0.0, -0.0, 0.0, -0.0, 2.0**-8])
        qa = np.array([0.0, 0.0, 0.25, 0.25, 0.25])
        reach = p.yield_stress(qa) / p.e1
        rows = []
        for e in range(q.size):
            y = reach[e]
            row = q[e] + np.array([-y - 2.0**-7, -y, -2.0**-9, 2.0**-9, y, y + 2.0**-7])
            rows.append(np.sort(np.concatenate([row, [-0.0, 0.0]])))
        eps = np.array(rows)
        want = law_stress(eps, q, qa, p)
        f = np.abs(p.e1 * (eps - q[:, None])) - p.yield_stress(qa)[:, None]
        assert (f == 0.0).sum() == 2 * q.size
        assert np.any((want == 0.0) & np.signbit(want))
        assert np.any((want == 0.0) & ~np.signbit(want))
        assert np.array_equal(bits(plastic_stress(eps, q, qa, p)), bits(want))

    def test_rejects_negative_slip(self):
        with pytest.raises(ValueError, match="nonnegative"):
            plastic_stress(np.zeros((1, 2)), np.zeros(1), -np.ones(1), PLASTIC)
