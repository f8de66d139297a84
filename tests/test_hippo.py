import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve

from kooba import (ConfigError, InputError, NumericalError, block_step,
                   build_basis, build_continuous, build_kernel,
                   discretize_bilinear, init_state, lookback_argument,
                   project, reconstruct, step)
from kooba import hippo
from kooba.hippo import CoefficientState, block_input


def test_sliding_family_order1_matrices():
    n_mat, m_vec = build_continuous("legt", 1, omega=1.0)
    root3 = np.sqrt(3.0)
    np.testing.assert_allclose(n_mat, [[-1.0, root3], [-root3, -3.0]])
    np.testing.assert_allclose(m_vec, [np.sqrt(2.0), np.sqrt(6.0)])


def test_sliding_family_scales_with_window_length():
    n1, m1 = build_continuous("legt", 3, omega=1.0)
    n4, m4 = build_continuous("legt", 3, omega=4.0)
    np.testing.assert_allclose(n4, n1 / 4.0)
    np.testing.assert_allclose(m4, m1 / 4.0)


def test_sliding_family_parity_pattern():
    n_mat, _ = build_continuous("legt", 4, omega=2.0)
    rows, cols = np.indices(n_mat.shape)
    mag = np.sqrt((2 * rows + 1) * (2 * cols + 1)) / 2.0
    # on and above the diagonal the sign alternates with n - k; below it is fixed
    above = cols >= rows
    expected = np.where((rows - cols) % 2 == 0, -mag, mag)
    np.testing.assert_allclose(n_mat[above], expected[above])
    np.testing.assert_allclose(n_mat[~above], -mag[~above])


def test_scaling_family_order2_matrices():
    n_mat, m_vec = build_continuous("legs", 2)
    np.testing.assert_allclose(np.diag(n_mat), [-1.0, -2.0, -3.0])
    assert np.all(n_mat[np.triu_indices(3, 1)] == 0.0)
    assert n_mat[1, 0] == pytest.approx(-np.sqrt(3.0))
    assert n_mat[2, 0] == pytest.approx(-np.sqrt(5.0))
    assert n_mat[2, 1] == pytest.approx(-np.sqrt(15.0))
    np.testing.assert_allclose(m_vec, np.sqrt([2.0, 6.0, 10.0]))


def test_unstable_variant_rejected_at_build(monkeypatch):
    # positive spectrum maps outside the unit circle under the bilinear rule
    monkeypatch.setattr(hippo, "build_continuous",
                        lambda method, order, omega=None: (np.eye(5), np.ones(5)))
    with pytest.raises(NumericalError, match="unstable"):
        build_basis("legs", 4, dt=0.01)


def test_construction_errors():
    with pytest.raises(ConfigError):
        build_continuous("legt", 2)  # omega missing
    with pytest.raises(ConfigError):
        build_continuous("legt", 2, omega=-1.0)
    with pytest.raises(ConfigError):
        build_continuous("fourier", 2)
    with pytest.raises(ConfigError):
        build_continuous("legs", -1)
    with pytest.raises(ConfigError):
        discretize_bilinear(np.eye(2), np.ones(2), 0.0)


def test_bilinear_identity_and_scalar():
    nbar, mbar = discretize_bilinear(np.zeros((2, 2)), np.array([1.0, 2.0]), 0.25)
    np.testing.assert_allclose(nbar, np.eye(2))
    np.testing.assert_allclose(mbar, [0.25, 0.5])
    nbar, mbar = discretize_bilinear(np.array([[-1.0]]), np.array([1.0]), 0.1)
    assert nbar[0, 0] == pytest.approx(0.95 / 1.05)
    assert mbar[0] == pytest.approx(0.1 / 1.05)


@pytest.mark.parametrize("method", ["legs", "legt"])
def test_bilinear_matches_an_lu_solve(method):
    # oracle: scipy's pivoted LU of I - dt/2 N, solved once per right-hand side
    worst = 0.0
    for order in range(33):
        n_mat, m_vec = build_continuous(method, order, omega=2.0)
        eye = np.eye(order + 1)
        for dt in (0.01, 0.125, 0.25, 1.0):
            factors = lu_factor(eye - dt / 2.0 * n_mat)
            nbar_ref = lu_solve(factors, eye + dt / 2.0 * n_mat)
            mbar_ref = dt * lu_solve(factors, m_vec)
            nbar, mbar = discretize_bilinear(n_mat, m_vec, dt)
            worst = max(worst,
                        np.linalg.norm(nbar - nbar_ref) / np.linalg.norm(nbar_ref),
                        np.linalg.norm(mbar - mbar_ref) / np.linalg.norm(mbar_ref))
    assert worst <= 1e-14


@pytest.mark.parametrize("dt", [0.1, 0.25, 1.0])
def test_bilinear_rejects_a_singular_solve(dt):
    # I - dt/2 N vanishes (to rounding) when N = 2/dt I
    with pytest.raises(NumericalError, match=f"bilinear solve singular at dt = {dt}"):
        discretize_bilinear(np.eye(3) * 2 / dt, np.ones(3), dt)


def test_bilinear_is_second_order_accurate():
    n_mat, m_vec = build_continuous("legs", 4)
    eye = np.eye(5)
    err = []
    for dt in (1e-2, 1e-3):
        nbar, _ = discretize_bilinear(n_mat, m_vec, dt)
        taylor = eye + dt * n_mat + (dt * n_mat) @ (dt * n_mat) / 2.0
        err.append(np.linalg.norm(nbar - taylor))
    # the residual is third order, so a 10x smaller step shrinks it ~1000x
    assert err[1] < err[0] * 1e-2


def test_step_matches_implicit_trapezoid_solve():
    basis = build_basis("legs", 6, dt=0.05)
    rng = np.random.default_rng(0)
    c = rng.normal(size=7)
    out = step(CoefficientState(c=c, step_index=3), 0.7, basis)
    n_mat, m_vec = build_continuous("legs", 6)
    lhs = np.eye(7) - 0.025 * n_mat
    rhs = (np.eye(7) + 0.025 * n_mat) @ c + 0.05 * m_vec * 0.7
    np.testing.assert_allclose(out.c, np.linalg.solve(lhs, rhs), atol=1e-12)
    assert out.step_index == 4


def test_step_superposition():
    basis = build_basis("legs", 5, dt=0.1)
    rng = np.random.default_rng(1)
    for _ in range(10):
        c1, c2 = rng.normal(size=(2, 6))
        g1, g2 = rng.normal(size=2)
        lhs = step(CoefficientState(c=c1 + c2), g1 + g2, basis).c
        rhs = step(CoefficientState(c=c1), g1, basis).c + step(CoefficientState(c=c2), g2, basis).c
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_step_rejects_non_finite_samples():
    basis = build_basis("legs", 3, dt=0.1)
    with pytest.raises(InputError):
        step(init_state(3), float("nan"), basis)
    kernel = build_kernel(basis, 4)
    with pytest.raises(InputError):
        block_step(init_state(3), [0.0, np.inf, 0.0, 0.0], kernel)


def test_block_matches_sequential_steps():
    rng = np.random.default_rng(7)
    for method, omega in (("legt", 1.0), ("legs", None)):
        basis = build_basis(method, 8, dt=0.02, omega=omega)
        kernel = build_kernel(basis, 16)
        block = rng.normal(size=16)
        looped = project(basis, block)
        batched = block_step(init_state(8), block, kernel)
        np.testing.assert_allclose(batched.c, looped.c, atol=1e-12)
        assert batched.step_index == looped.step_index == 16


def test_block_input_is_the_update_from_zero():
    # model projects its checked windows with the input product alone; from
    # the zero state block_step adds zeros to that same product
    rng = np.random.default_rng(8)
    for method, omega in (("legt", 2.0), ("legs", None)):
        kernel = build_kernel(build_basis(method, 6, dt=0.25, omega=omega), 8)
        blocks = rng.normal(size=(5, 3, 8))
        np.testing.assert_array_equal(block_input(blocks, kernel),
                                      block_step(init_state(6), blocks, kernel).c)


def test_block_kernel_power_structure():
    basis = build_basis("legs", 4, dt=0.1)
    kernel = build_kernel(basis, 8)
    np.testing.assert_allclose(kernel.power, np.linalg.matrix_power(basis.Nbar, 8))
    for j in range(8):
        np.testing.assert_allclose(
            kernel.input_map[:, j], np.linalg.matrix_power(basis.Nbar, 7 - j) @ basis.Mbar)


def test_zero_block_is_pure_decay():
    basis = build_basis("legs", 3, dt=0.05)
    kernel = build_kernel(basis, 5)
    c0 = np.arange(4.0)
    out = block_step(CoefficientState(c=c0), np.zeros(5), kernel)
    np.testing.assert_allclose(out.c, np.linalg.matrix_power(basis.Nbar, 5) @ c0,
                               atol=1e-13)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), k=st.integers(2, 32), cut_raw=st.integers(0, 63))
def test_block_splits_anywhere(seed, k, cut_raw):
    rng = np.random.default_rng(seed)
    basis = build_basis("legs", 6, dt=0.03)
    block = rng.normal(size=k)
    whole = block_step(init_state(6), block, build_kernel(basis, k))
    cut = 1 + cut_raw % (k - 1)
    first = block_step(init_state(6), block[:cut], build_kernel(basis, cut))
    second = block_step(first, block[cut:], build_kernel(basis, k - cut))
    np.testing.assert_allclose(second.c, whole.c, atol=1e-10)
    assert second.step_index == whole.step_index == k


def test_block_shape_errors():
    basis = build_basis("legs", 3, dt=0.1)
    with pytest.raises(ConfigError):
        build_kernel(basis, 0)
    kernel = build_kernel(basis, 4)
    with pytest.raises(InputError):
        block_step(init_state(3), np.zeros(5), kernel)


def test_streaming_resumes_across_windows():
    basis = build_basis("legs", 5, dt=0.04)
    rng = np.random.default_rng(3)
    samples = rng.normal(size=40)
    whole = project(basis, samples)
    resumed = project(basis, samples[25:], state=project(basis, samples[:25]))
    np.testing.assert_allclose(resumed.c, whole.c, atol=1e-12)
    assert resumed.step_index == 40


def test_discrete_updates_are_contractive():
    for method, order, omega in (("legs", 24, None), ("legt", 16, 2.0)):
        basis = build_basis(method, order, dt=1.0 / 128.0, omega=omega)
        radius = np.max(np.abs(np.linalg.eigvals(basis.Nbar)))
        assert radius <= 1.0 + 1e-9


def test_constant_signal_reads_back_inside_the_represented_past():
    # a constant input must read back as itself wherever the compressed memory
    # actually holds signal; lookback_argument documents the fading profile
    dt = 1.0 / 512.0
    for order in (16, 24):
        basis = build_basis("legs", order, dt=dt)
        state = project(basis, np.ones(512))  # stream over one time unit
        for s in (0.0, 0.5):
            assert abs(reconstruct(state.c, s) - 1.0) < 0.05
        # s = -0.5 queries an age before the stream began, so it reads ~nothing
        assert abs(reconstruct(state.c, -0.5)) < 0.12
        state = project(basis, np.ones(4 * 512))  # four time units of history
        for s in (-0.5, 0.0, 0.5):
            assert abs(reconstruct(state.c, s) - 1.0) < 0.02


def test_sliding_window_reconstruction():
    # the fixed-window family reproduces its trailing window closely
    order, n = 16, 256
    basis = build_basis("legt", order, dt=1.0 / n, omega=1.0)
    t = np.arange(1, n + 1) / n
    sig = np.sin(2 * np.pi * t) + 0.5 * np.cos(6 * np.pi * t)
    state = project(basis, sig)
    s = np.array([lookback_argument(basis, 1.0 - tk) for tk in t])
    rel = np.linalg.norm(reconstruct(state.c, s) - sig) / np.linalg.norm(sig)
    assert rel < 0.06


def test_lookback_argument_maps():
    legt = build_basis("legt", 3, dt=0.1, omega=2.0)
    assert lookback_argument(legt, 0.0) == 1.0
    assert lookback_argument(legt, 1.0) == 0.0
    assert lookback_argument(legt, 2.0) == -1.0
    with pytest.raises(InputError):
        lookback_argument(legt, 2.5)
    with pytest.raises(InputError):
        lookback_argument(legt, -0.1)
    legs = build_basis("legs", 3, dt=0.1)
    assert lookback_argument(legs, 0.0) == pytest.approx(1.0)
    assert lookback_argument(legs, np.log(2.0)) == pytest.approx(0.0)
    assert lookback_argument(legs, np.log(4.0)) == pytest.approx(-0.5)
