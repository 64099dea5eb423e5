"""Phase-space containers and the weighted energetic metric."""

from __future__ import annotations

import numpy as np
import pytest

from ddmech.experiments import _step_norms_sq
from ddmech.phase import GlobalMetric, GlobalState


def norm_sq(z: GlobalState, gm: GlobalMetric) -> float:
    """The weighted square norm of one state as the error norms evaluate it:
    ``sum_e w_e (C_e eps_e^2 + sig_e^2 / C_e)``."""
    return float(_step_norms_sq(z.strain[None, :], z.stress[None, :], gm)[0])


def local_norm_sq(eps: float, sig: float, c: float) -> float:
    """``C eps^2 + sig^2 / C`` of one bar, evaluated independently."""
    return float(c * eps**2 + sig**2 / c)


class TestLocalMetric:
    """The local norm of one bar: its modulus C and the inverse 1 / C, as
    the metric holds them."""

    def test_from_modulus(self):
        gm = GlobalMetric([100.0], [1.0])
        assert gm.c_diag.tolist() == [100.0]
        assert gm.c_inv_diag.tolist() == [0.01]

    def test_norm_exact_value(self):
        """|z|^2 = eps C eps + sig C^-1 sig; 0.5^2*100 + 10^2/100 = 26."""
        assert norm_sq(GlobalState([0.5], [10.0]), GlobalMetric([100.0], [1.0])) == 26.0

    def test_distance_is_norm_of_difference(self, rng):
        gm = GlobalMetric([175_000.0], [1.0])
        for _ in range(50):
            a = GlobalState([rng.normal()], [rng.normal(scale=100.0)])
            b = GlobalState([rng.normal()], [rng.normal(scale=100.0)])
            diff = GlobalState(a.strain - b.strain, a.stress - b.stress)
            d = norm_sq(diff, gm)
            expect = local_norm_sq(diff.strain[0], diff.stress[0], 175_000.0)
            assert d == pytest.approx(expect, rel=1e-12)
            assert d >= 0.0

    def test_rejects_non_positive_definite(self):
        """A scalar metric is positive definite only for a positive modulus."""
        with pytest.raises(ValueError):
            GlobalMetric([1.0, -2.0], [1.0, 1.0])

    def test_rejects_nonpositive_modulus(self):
        """Every non-positive or non-finite modulus is rejected, and the
        error names its element."""
        for bad in (0.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite and positive, got .* at 1"):
                GlobalMetric([1.0, bad], [1.0, 1.0])
            with pytest.raises(ValueError, match="finite and positive"):
                GlobalMetric.uniform(bad, [1.0, 1.0])


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
            gm = GlobalMetric(mods, w)
            z = GlobalState(rng.normal(size=m), rng.normal(scale=50.0, size=m))
            manual = sum(
                w[e] * local_norm_sq(z.strain[e], z.stress[e], mods[e]) for e in range(m)
            )
            assert norm_sq(z, gm) == pytest.approx(manual, rel=1e-12)

    def test_global_distance(self, rng):
        gm = GlobalMetric.uniform(175_000.0, np.ones(4))
        a = GlobalState(rng.normal(size=4), rng.normal(size=4))
        b = GlobalState(rng.normal(size=4), rng.normal(size=4))
        d = norm_sq(GlobalState(a.strain - b.strain, a.stress - b.stress), gm)
        de = a.strain - b.strain
        ds = a.stress - b.stress
        manual = sum(gm.weights[e] * local_norm_sq(de[e], ds[e], 175_000.0) for e in range(4))
        assert d == pytest.approx(manual, rel=1e-12)

    def test_weight_count_must_match(self):
        with pytest.raises(ValueError, match="1 moduli but 2 weights"):
            GlobalMetric([1.0], np.ones(2))
        for weights in ([1.0, 0.0], [1.0, np.nan], [np.inf, 1.0]):
            with pytest.raises(ValueError, match="weights must be finite and positive"):
                GlobalMetric([1.0, 1.0], weights)

    def test_arrays_are_read_only_copies(self):
        moduli, weights = np.array([4.0, 5.0]), np.array([1.0, 2.0])
        gm = GlobalMetric(moduli, weights)
        moduli[0] = weights[0] = 9.0
        assert gm.c_diag.tolist() == [4.0, 5.0]
        assert gm.weights.tolist() == [1.0, 2.0]
        assert gm.c_inv_diag.tolist() == [0.25, 0.2]
        with pytest.raises(ValueError):
            gm.c_diag[0] = 1.0


class TestGlobalState:
    """Stacked per-element states."""

    def test_zeros_and_shape(self):
        z = GlobalState(np.zeros(3), np.zeros(3))
        assert z.n_elements == 3
        assert np.all(z.strain == 0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GlobalState(np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError, match=r"\(M,\)"):
            GlobalState(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_columns_rejected(self):
        """One flat form: an (M, 1) column is not promoted, and neither is
        a scalar."""
        with pytest.raises(ValueError, match=r"shape \(M,\).*got \(3, 1\)"):
            GlobalState(np.zeros((3, 1)), np.zeros((3, 1)))
        with pytest.raises(ValueError, match=r"shape \(M,\)"):
            GlobalState(0.0, 0.0)

    def test_entries_checked_copied_and_frozen(self):
        with pytest.raises(ValueError, match="finite"):
            GlobalState([0.0, np.nan], [0.0, 0.0])
        with pytest.raises(ValueError, match="at least one"):
            GlobalState(np.zeros(0), np.zeros(0))
        eps = np.array([1.0, 2.0])
        z = GlobalState(eps, np.zeros(2))
        eps[0] = 5.0
        assert z.strain.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            z.strain[0] = 3.0
