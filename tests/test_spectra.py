"""Tests for the shared Chebyshev amplification math."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.spectra import (
    growth_factor,
    map_to_reference,
    required_degree,
)


class TestIntervalParams:
    """The filter interval ``[mu_ne, b_sup]`` as center ``c`` and
    half-width ``e``, mapped onto ``[-1, 1]``."""

    def test_map(self):
        c, e = 2.0, 1.0  # [1, 3]
        assert map_to_reference(1.0, c, e) == -1.0
        assert map_to_reference(3.0, c, e) == 1.0
        np.testing.assert_allclose(map_to_reference([1.0, 2.0, 3.0], c, e), [-1, 0, 1])

    def test_zero_halfwidth_rejected(self):
        with pytest.raises(ValueError):
            map_to_reference(0.0, 0.0, 0.0)


class TestGrowthFactor:
    def test_inside_interval_is_one(self):
        np.testing.assert_allclose(growth_factor([-1.0, -0.5, 0.0, 0.99, 1.0]), 1.0)

    def test_outside(self):
        assert growth_factor(2.0) == pytest.approx(2 + np.sqrt(3))
        assert growth_factor(-2.0) == pytest.approx(2 + np.sqrt(3))

    def test_scalar_in_scalar_out(self):
        assert isinstance(growth_factor(3.0), float)

    @given(t=st.floats(-100, 100))
    def test_at_least_one(self, t):
        assert growth_factor(t) >= 1.0

    @given(t=st.floats(1.1, 50))
    def test_chebyshev_asymptotics(self, t):
        """T_m(t) ~ rho^m / 2 for large m, away from the interval edge."""
        rho = growth_factor(t)
        m = 12
        ratio = np.polynomial.Chebyshev.basis(m)(t) / (rho**m / 2)
        assert 0.9 < ratio < 1.2


class TestRequiredDegree:
    def test_already_converged(self):
        assert required_degree(1e-12, 1e-10, rho=2.0) == 2

    def test_even_and_clamped(self):
        d = required_degree(1.0, 1e-10, rho=1.5)
        assert d % 2 == 0
        assert 2 <= d <= 36

    def test_larger_rho_needs_fewer(self):
        d_slow = required_degree(1.0, 1e-10, rho=1.2)
        d_fast = required_degree(1.0, 1e-10, rho=3.0)
        assert d_fast < d_slow

    def test_rho_one_maxes_out(self):
        assert required_degree(1.0, 1e-10, rho=1.0) == 36

    def test_exact_math(self):
        # res/tol = 1e6, rho = 10 -> m = 6 -> even 6
        assert required_degree(1e-4, 1e-10, rho=10.0) == 6

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            required_degree(-1.0, 1e-10, 2.0)
        with pytest.raises(ValueError):
            required_degree(1.0, 0.0, 2.0)

    @given(
        res=st.floats(1e-12, 1e3),
        tol=st.floats(1e-14, 1e-2),
        rho=st.floats(1.0, 50.0),
    )
    def test_always_even_in_range(self, res, tol, rho):
        d = required_degree(res, tol, rho)
        assert d % 2 == 0 and 2 <= d <= 36
