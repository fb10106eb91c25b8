from fractions import Fraction

import numpy as np
import pytest

from chdbc.integrator import bdf_scheme


def test_known_small_orders():
    np.testing.assert_array_equal(bdf_scheme(1).delta, [1.0, -1.0])
    np.testing.assert_array_equal(bdf_scheme(2).delta, [1.5, -2.0, 0.5])
    np.testing.assert_array_equal(bdf_scheme(3).delta, [11 / 6, -3.0, 1.5, -1 / 3])
    np.testing.assert_array_equal(bdf_scheme(1).gamma, [1.0])
    np.testing.assert_array_equal(bdf_scheme(2).gamma, [2.0, -1.0])
    np.testing.assert_array_equal(bdf_scheme(3).gamma, [3.0, -3.0, 1.0])


@pytest.mark.parametrize("k", range(1, 6))
def test_consistency_identities(k):
    delta = [Fraction(f).limit_denominator(10 ** 9)
             for f in bdf_scheme(k).delta]
    assert sum(delta) == 0                       # delta(1) = 0
    assert sum(j * d for j, d in enumerate(delta)) == -1  # first order
    gamma = [Fraction(g).limit_denominator(10 ** 9)
             for g in bdf_scheme(k).gamma]
    assert sum(gamma) == 1                       # reproduces constants


@pytest.mark.parametrize("k", range(1, 6))
def test_extrapolation_reproduces_low_degree_polynomials(k):
    # gamma-weighted history values at t_{n-1-j} must reproduce p(t_n)
    gamma = bdf_scheme(k).gamma
    rng = np.random.default_rng(k)
    for _ in range(3):
        coeffs = rng.standard_normal(k)  # polynomial of degree k-1
        p = np.polynomial.Polynomial(coeffs)
        tn, tau = 0.37, 0.05
        value = sum(g * p(tn - (j + 1) * tau) for j, g in enumerate(gamma))
        assert value == pytest.approx(p(tn), rel=1e-12, abs=1e-12)


def test_scheme_bundles_both_coefficient_sets():
    s = bdf_scheme(3)
    assert s.k == 3
    assert s.delta.shape == (4,) and s.gamma.shape == (3,)
