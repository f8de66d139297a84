import math

import numpy as np
import pytest

from kooba import (ConfigError, DegenerateCoefficientsError, InputError,
                   LiftedState, NumericalError, build_companion, build_system,
                   companion_discrete, lift_initial_state, poly_ode_coeffs,
                   propagate, readout, require_defined)
from kooba.koopman import check_order


def _transform_oracle(c):
    # same rescaling via exact integer factorials
    n = len(c) - 1
    a = np.empty(n + 1)
    for k in range(n + 1):
        a[n - k] = math.sqrt((2 * k + 1) / 2.0) * c[k] * math.factorial(k) / math.factorial(n)
    return a


def test_transform_constant_window():
    np.testing.assert_allclose(poly_ode_coeffs([1.0, 0.0, 0.0]),
                               [0.0, 0.0, np.sqrt(0.5) / 2.0])


def test_transform_top_coefficient_is_degenerate():
    # only the highest-degree input survives; its leading ODE coefficient
    # vanishes, which the transform returns and companion_discrete flags
    a = poly_ode_coeffs([0.0, 0.0, 1.0])
    np.testing.assert_allclose(a, [np.sqrt(2.5), 0.0, 0.0])
    abar, w, ok = companion_discrete(a, 0.25)
    assert not ok
    assert np.all(abar == 0.0) and np.all(w == 0.0)
    with pytest.raises(DegenerateCoefficientsError):
        require_defined(a, ok, 0.25)
    with pytest.raises(DegenerateCoefficientsError):
        build_system(a, [1.0], 0.25)


def test_transform_against_exact_factorials():
    rng = np.random.default_rng(5)
    for n in (1, 3, 8, 15, 20, 21, 25, 32):
        c = rng.normal(size=n + 1)
        np.testing.assert_allclose(poly_ode_coeffs(c), _transform_oracle(c), rtol=1e-10)


def test_transform_of_a_batch_is_bit_identical():
    rng = np.random.default_rng(6)
    for n in (1, 6, 20, 21, 32):
        c = rng.normal(size=(4, 3, n + 1))
        batch = poly_ode_coeffs(c)
        for i in np.ndindex(4, 3):
            np.testing.assert_array_equal(batch[i], poly_ode_coeffs(c[i]))


def test_order_limits():
    check_order(32)
    with pytest.raises(ConfigError, match="32"):
        poly_ode_coeffs(np.ones(34))
    for empty in (1.0, np.empty(0), np.empty((2, 0))):
        with pytest.raises(InputError):
            poly_ode_coeffs(empty)


def test_require_defined_names_the_failure():
    a = np.array([1.0, 1.0])
    require_defined(a, True, 0.1)
    with pytest.raises(DegenerateCoefficientsError, match="leading coefficient"):
        require_defined(np.array([1.0, 1e-13]), False, 0.1)
    # a defined leading coefficient: the solve was singular
    with pytest.raises(NumericalError, match="bilinear solve singular at dt = 0.1") as exc:
        require_defined(a, False, 0.1)
    assert not isinstance(exc.value, DegenerateCoefficientsError)
    # one system only: a batch's flags are not a single answer
    with pytest.raises(InputError, match="one coefficient vector"):
        require_defined(np.ones((2, 2)), np.array([True, True]), 0.1)
    with pytest.raises(InputError, match="one coefficient vector"):
        build_system(np.ones((2, 2)), [1.0], 0.1)


def test_companion_example():
    A, b_base = build_companion(np.array([2.0, 3.0, 1.0]))
    np.testing.assert_allclose(A, [[0.0, 1.0], [-2.0, -3.0]])
    np.testing.assert_allclose(b_base, [0.0, 1.0])


def test_companion_first_order_and_scaling():
    A, b_base = build_companion(np.array([1.0, 2.0]))
    np.testing.assert_allclose(A, [[-0.5]])
    np.testing.assert_allclose(b_base, [0.5])


def test_companion_characteristic_polynomial():
    # det(lam I - A) equals the monic polynomial with coefficients a / a_n
    rng = np.random.default_rng(2)
    for n in range(1, 6):
        a = rng.normal(size=n + 1)
        a[n] = np.sign(a[n]) * (abs(a[n]) + 0.5)
        A, _ = build_companion(a)
        monic = (a / a[n])[::-1]
        for lam in (-1.3, 0.2, 0.9, 2.1):
            det = np.linalg.det(lam * np.eye(n) - A)
            assert det == pytest.approx(np.polyval(monic, lam), rel=1e-9, abs=1e-9)


def test_companion_guards():
    with pytest.raises(ConfigError):
        build_companion(np.array([1.0]))
    with pytest.raises(DegenerateCoefficientsError):
        build_companion(np.array([1.0, 0.0]))


def test_lifted_state_values():
    state = lift_initial_state(1)
    np.testing.assert_allclose(state.x, [1.0])
    assert state.x1_prev == 1.0
    np.testing.assert_allclose(lift_initial_state(2).x, [1.0, 2.0])
    np.testing.assert_allclose(lift_initial_state(3).x, [1.0, 3.0, 6.0])
    # entry j is the falling product n (n-1) ... (n-j+1) = perm(n, j): exact
    # while it fits in 53 bits, and within the rounding of the running product
    # beyond that
    for n in range(1, 33):
        x = lift_initial_state(n).x
        oracle = [math.perm(n, j) for j in range(n)]
        exact = [j for j, v in enumerate(oracle) if v < 2**53]
        np.testing.assert_array_equal(x[exact], [float(oracle[j]) for j in exact])
        np.testing.assert_allclose(x, [float(v) for v in oracle], rtol=n * 2.0**-52)
    with pytest.raises(ConfigError):
        lift_initial_state(0)


def test_propagate_scalar_decay():
    # x' = -x under the bilinear rule at dt = 0.1; zero weights ignore the input
    sys = build_system(np.array([1.0, 1.0]), [0.0], 0.1)
    out = propagate(sys, LiftedState(x=np.array([2.0]), x1_prev=0.0), [5.0])
    assert out.x[0] == pytest.approx(2.0 * 0.95 / 1.05)
    assert out.x1_prev == 2.0


def test_propagate_frozen_state():
    # a = (0, 1) gives A = 0, so with zero weights nothing moves
    sys = build_system(np.array([0.0, 1.0]), [0.0], 0.5)
    out = propagate(sys, LiftedState(x=np.array([1.7]), x1_prev=0.3), [3.0])
    assert out.x[0] == pytest.approx(1.7)
    assert out.x1_prev == 1.7


def test_propagate_control_injection():
    # same frozen system with unit weight: x' = u integrates the input
    sys = build_system(np.array([0.0, 1.0]), [1.0], 0.5)
    out = propagate(sys, LiftedState(x=np.array([0.0]), x1_prev=0.0), [2.0])
    assert out.x[0] == pytest.approx(1.0)  # dt * u


def test_propagate_input_checks():
    sys = build_system(np.array([1.0, 1.0]), [0.5], 0.1)
    state = LiftedState(x=np.array([1.0]), x1_prev=0.0)
    with pytest.raises(InputError):
        propagate(sys, state, [1.0, 2.0])
    with pytest.raises(InputError):
        propagate(sys, state, [float("nan")])
    with pytest.raises(ConfigError):
        build_system(np.array([1.0, 1.0]), [0.5], 0.0)
    with pytest.raises(ConfigError):
        build_system(np.array([1.0, 1.0]), [], 0.1)
    with pytest.raises(DegenerateCoefficientsError):
        build_system(np.array([1.0, 0.0]), [0.5], 0.1)


def test_readout_uses_retained_first_entry():
    sys = build_system(np.array([0.5, -1.0, 2.0]), [1.0], 0.1)
    state = LiftedState(x=np.array([3.0, 4.0]), x1_prev=7.0)
    assert readout(sys, state) == pytest.approx(0.5 * 7.0 - 1.0 * 3.0 + 2.0 * 4.0)
    with pytest.raises(InputError):
        readout(sys, LiftedState(x=np.array([1.0]), x1_prev=0.0))


def _rk4_lti(A, b_vec, u, z0, dt, steps):
    z = np.array(z0, dtype=float)
    out = np.empty((steps, z.size))
    for i in range(steps):
        k1 = A @ z + b_vec * u
        k2 = A @ (z + dt / 2.0 * k1) + b_vec * u
        k3 = A @ (z + dt / 2.0 * k2) + b_vec * u
        k4 = A @ (z + dt * k3) + b_vec * u
        z = z + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i] = z
    return out


def test_damped_oscillator_step_response():
    # unit mass, damping 0.5, stiffness 2, unit step input, from rest
    a = np.array([2.0, 0.5, 1.0])
    sys = build_system(a, [1.0], 0.01)
    state = LiftedState(x=np.zeros(2), x1_prev=0.0)
    pos = np.empty(200)
    for i in range(200):
        state = propagate(sys, state, [1.0])
        pos[i] = state.x[0]
    A, b_base = build_companion(a)
    ref = _rk4_lti(A, b_base, 1.0, np.zeros(2), 1e-4, 20000)[99::100, 0]
    rel = np.linalg.norm(pos - ref) / np.linalg.norm(ref)
    assert rel < 1e-3
