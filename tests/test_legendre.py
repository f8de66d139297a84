import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_legendre

from kooba import (InputError, gauss_legendre_rule, legendre_eval,
                   legendre_values, reconstruct)
from kooba.legendre import normalization


def test_low_orders_match_monomial_forms():
    s = np.linspace(-1.0, 1.0, 41)
    expected = [
        np.ones_like(s),
        s,
        (3 * s**2 - 1) / 2,
        (5 * s**3 - 3 * s) / 2,
        (35 * s**4 - 30 * s**2 + 3) / 8,
        (63 * s**5 - 70 * s**3 + 15 * s) / 8,
        (231 * s**6 - 315 * s**4 + 105 * s**2 - 5) / 16,
    ]
    values = legendre_values(6, s)
    for n, ref in enumerate(expected):
        np.testing.assert_allclose(values[n], ref, atol=1e-12)


# 2,001 even points on [-1, 1], and two a hair inside the ends
ORACLE_POINTS = np.concatenate([np.linspace(-1.0, 1.0, 2001), [-(1.0 - 1e-13), 1.0 - 1e-13]])


def test_values_match_scipy_up_to_order_32():
    values = legendre_values(32, ORACLE_POINTS)
    assert values.flags.c_contiguous
    for n in range(33):
        np.testing.assert_allclose(values[n], eval_legendre(n, ORACLE_POINTS), rtol=0, atol=1e-12)


@pytest.mark.parametrize("order", [6, 24, 32])
def test_reconstruct_matches_the_sum_of_scipy_values(order):
    c = np.random.default_rng(order).normal(size=order + 1)
    expected = sum(c[n] * normalization(order)[n] * eval_legendre(n, ORACLE_POINTS)
                   for n in range(order + 1))
    # relative to the largest value, since the sum crosses zero
    error = np.max(np.abs(reconstruct(c, ORACLE_POINTS) - expected))
    assert error <= 1e-12 * np.max(np.abs(expected))


def test_endpoint_values_are_exact():
    # the recurrence reduces to exact small-integer arithmetic at s = +/-1
    for n in range(33):
        assert legendre_eval(n, 1.0) == 1.0
        assert legendre_eval(n, -1.0) == (-1.0) ** n


def test_scalar_evaluation():
    assert legendre_eval(0, 0.7) == 1.0
    assert legendre_eval(1, -0.3) == -0.3
    assert legendre_eval(2, 0.5) == pytest.approx(-0.125)
    np.testing.assert_allclose(normalization(1), [np.sqrt(0.5), np.sqrt(1.5)])


def test_orthonormality_by_quadrature():
    # 128 nodes integrate products up to degree 255 exactly, far past 16 + 16
    nodes, weights = gauss_legendre_rule(128)
    g = normalization(16)[:, None] * legendre_values(16, nodes)
    gram = (g * weights) @ g.T
    np.testing.assert_allclose(gram, np.eye(17), atol=1e-10)


def test_reconstruct_constant_and_line():
    s = np.linspace(-1.0, 1.0, 17)
    np.testing.assert_allclose(reconstruct([np.sqrt(2.0), 0.0, 0.0], s), 1.0)
    np.testing.assert_allclose(reconstruct([0.0, 1.0], s), np.sqrt(1.5) * s)
    assert reconstruct(np.zeros(5), 0.3) == 0.0


def test_reconstruct_inverts_quadrature_projection():
    nodes, weights = gauss_legendre_rule(64)
    target = np.exp(nodes) * np.sin(2.0 * nodes)
    order = 14
    g = normalization(order)[:, None] * legendre_values(order, nodes)
    c = (g * weights) @ target
    np.testing.assert_allclose(reconstruct(c, nodes), target, atol=1e-6)


@settings(max_examples=25, deadline=None)
@given(order=st.integers(min_value=0, max_value=12),
       seed=st.integers(min_value=0, max_value=2**31 - 1),
       u=st.floats(-3, 3), v=st.floats(-3, 3))
def test_reconstruct_is_linear_in_coefficients(order, seed, u, v):
    rng = np.random.default_rng(seed)
    c1 = rng.normal(size=order + 1)
    c2 = rng.normal(size=order + 1)
    s = np.linspace(-1.0, 1.0, 9)
    lhs = reconstruct(u * c1 + v * c2, s)
    rhs = u * reconstruct(c1, s) + v * reconstruct(c2, s)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_domain_is_enforced():
    with pytest.raises(InputError):
        legendre_values(3, 1.1)
    with pytest.raises(InputError):
        reconstruct([1.0, 0.0], -1.0001)
    # a hair outside from floating-point maps is clamped, not rejected
    assert legendre_eval(1, 1.0 + 1e-13) == 1.0


def test_invalid_inputs():
    with pytest.raises(InputError):
        legendre_values(-1, 0.0)
    with pytest.raises(InputError):
        reconstruct([], 0.0)
    with pytest.raises(InputError):
        reconstruct(np.ones((2, 2)), 0.0)


def test_quadrature_rule_basics():
    nodes, weights = gauss_legendre_rule(16)
    assert weights.sum() == pytest.approx(2.0)
    assert (weights * nodes**2).sum() == pytest.approx(2.0 / 3.0)
    assert np.all(np.diff(nodes) > 0)
    with pytest.raises(InputError):
        gauss_legendre_rule(0)
