"""Phase-space containers and the weighted energetic metric."""

from __future__ import annotations

import numpy as np
import pytest

from ddmech.experiments import _step_norms_sq
from ddmech.phase import GlobalMetric, GlobalState, LocalMetric, LocalPhasePoint


def norm_sq(z: GlobalState, gm: GlobalMetric) -> float:
    """The weighted square norm of one state as the error norms evaluate it:
    ``sum_e w_e (C_e eps_e^2 + sig_e^2 / C_e)``."""
    return float(_step_norms_sq(z.strain.T, z.stress.T, gm)[0])


def local_norm_sq(z: LocalPhasePoint, lm: LocalMetric) -> float:
    """``C eps^2 + sig^2 / C`` of one point, evaluated independently."""
    return float(lm.c * z.strain[0] ** 2 + lm.c_inv * z.stress[0] ** 2)


class TestLocalPhasePoint:
    """Scalar points."""

    def test_scalar_promotes_to_vector(self):
        """Scalars become one-component arrays."""
        z = LocalPhasePoint(0.5, 10.0)
        assert z.strain.shape == (1,)
        assert z.stress.shape == (1,)

    def test_vectors_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            LocalPhasePoint(np.zeros(3), np.zeros(3))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LocalPhasePoint(np.zeros(2), np.zeros(3))


class TestLocalMetric:
    """Scalar positive modulus-like metric."""

    def test_from_modulus(self):
        lm = LocalMetric.from_modulus(100.0)
        assert lm.c == 100.0
        assert lm.c_inv == 0.01

    def test_norm_exact_value(self):
        """|z|^2 = eps C eps + sig C^-1 sig; 0.5^2*100 + 10^2/100 = 26."""
        lm = LocalMetric.from_modulus(100.0)
        assert norm_sq(GlobalState([0.5], [10.0]), GlobalMetric([lm], [1.0])) == 26.0

    def test_distance_is_norm_of_difference(self, rng):
        lm = LocalMetric.from_modulus(175_000.0)
        for _ in range(50):
            a = GlobalState([rng.normal()], [rng.normal(scale=100.0)])
            b = GlobalState([rng.normal()], [rng.normal(scale=100.0)])
            diff_state = GlobalState(a.strain - b.strain, a.stress - b.stress)
            d = norm_sq(diff_state, GlobalMetric([lm], [1.0]))
            diff = LocalPhasePoint(a.strain[0] - b.strain[0], a.stress[0] - b.stress[0])
            assert d == pytest.approx(local_norm_sq(diff, lm), rel=1e-12)
            assert d >= 0.0

    def test_rejects_non_positive_definite(self):
        """A scalar metric is positive definite only for a positive modulus."""
        with pytest.raises(ValueError):
            LocalMetric.from_modulus(-2.0)

    def test_rejects_nonpositive_modulus(self):
        for bad in (0.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                LocalMetric.from_modulus(bad)


class TestGlobalMetric:
    """Volume-weighted assembly of local metrics."""

    def test_uniform_scalar_fast_path(self):
        gm = GlobalMetric.uniform(100.0, np.array([2.0, 3.0]))
        assert np.array_equal(gm.c_diag, np.array([100.0, 100.0]))
        assert np.array_equal(gm.c_inv_diag, np.array([0.01, 0.01]))
        assert np.array_equal(gm.weights, np.array([2.0, 3.0]))

    def test_global_norm_exact_value(self):
        """2*(0.5^2*100 + 1) + 3*(1*100 + 400/100) = 364."""
        gm = GlobalMetric.uniform(100.0, np.array([2.0, 3.0]))
        z = GlobalState(np.array([0.5, 1.0]), np.array([10.0, 20.0]))
        assert norm_sq(z, gm) == 364.0

    def test_global_norm_matches_local_sum(self, rng):
        """Weighted sum of local norms, for mixed moduli."""
        for _ in range(25):
            m = int(rng.integers(1, 6))
            mods = rng.uniform(10.0, 1e5, m)
            w = rng.uniform(0.1, 3.0, m)
            gm = GlobalMetric([LocalMetric.from_modulus(c) for c in mods], w)
            z = GlobalState(rng.normal(size=m), rng.normal(scale=50.0, size=m))
            manual = sum(
                w[e] * local_norm_sq(z.point(e), gm.locals[e]) for e in range(m)
            )
            assert norm_sq(z, gm) == pytest.approx(manual, rel=1e-12)

    def test_global_distance(self, rng):
        gm = GlobalMetric.uniform(175_000.0, np.ones(4))
        a = GlobalState(rng.normal(size=4), rng.normal(size=4))
        b = GlobalState(rng.normal(size=4), rng.normal(size=4))
        d = norm_sq(GlobalState(a.strain - b.strain, a.stress - b.stress), gm)
        de = a.strain[:, 0] - b.strain[:, 0]
        ds = a.stress[:, 0] - b.stress[:, 0]
        manual = sum(
            gm.weights[e] * local_norm_sq(LocalPhasePoint(de[e], ds[e]), gm.locals[e])
            for e in range(4)
        )
        assert d == pytest.approx(manual, rel=1e-12)

    def test_weight_count_must_match(self):
        with pytest.raises(ValueError):
            GlobalMetric([LocalMetric.from_modulus(1.0)], np.ones(2))


class TestGlobalState:
    """Stacked per-element states."""

    def test_zeros_and_shape(self):
        z = GlobalState.zeros(3)
        assert z.n_elements == 3
        assert np.all(z.strain == 0.0)

    def test_point_round_trip(self):
        z = GlobalState(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        p = z.point(1)
        assert p.strain[0] == 2.0
        assert p.stress[0] == 4.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GlobalState(np.zeros((2, 1)), np.zeros((3, 1)))
        with pytest.raises(ValueError, match=r"\(M, 1\)"):
            GlobalState(np.zeros((2, 2)), np.zeros((2, 2)))
