"""Companion-form state space built from Legendre coefficients.

The coefficient vector of a projected window is rescaled into the
coefficients a_0..a_n of a scalar linear ODE; that ODE's companion matrix A
propagates a lifted state holding the window polynomial's value and
derivative stack, while a rank-one control matrix B = B_base b^T injects
exogenous inputs.

Convention note: the derivative stack follows the rescaled chain rule
d/ds p_n = n * p_{n-1}: the coefficient transform (poly_ode_coeffs) and the
lift (lift_initial_state) scale by the same falling products (_falling). The
lift is taken at the present edge s = 1, where every p_k(1) is exactly 1.
Nothing shows that this stack agrees with the window polynomial: readout of
the unstepped lift differs from legendre.reconstruct(c, 1.0) by about 0.04
rms on [0, 1]-scaled Lorenz test windows (0.041 legs, 0.046 legt, feature x).
An independent oracle for this identity is open work (ROADMAP item 3(a)).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .errors import ConfigError, DegenerateCoefficientsError, InputError, NumericalError
from .legendre import normalization

# double-precision factorials are exact only up to about 32!; beyond that the
# rescaling products silently lose integer precision
MAX_DIRECT_ORDER = 32
DEGENERATE_TOL = 1e-12
SINGULAR_TOL = 1e-14       # smallest over largest pivot of the bilinear solve


def check_order(order: int) -> None:
    """Reject orders whose factorial-sized rescaling exceeds float precision."""
    if order > MAX_DIRECT_ORDER:
        raise ConfigError(
            f"order {order} needs factorial products beyond exact double precision "
            f"(factorials are exactly representable only up to about {MAX_DIRECT_ORDER}!)")


def _falling(n: int) -> list[float]:
    """Falling products (k+1)(k+2)...n for k = 0..n (1 at k = n), in Python floats."""
    out = [1.0] * (n + 1)
    for k in range(n - 1, -1, -1):
        out[k] = out[k + 1] * (k + 1)
    return out


def poly_ode_coeffs(c) -> np.ndarray:
    """Rescale projection coefficients c_0..c_n into ODE coefficients a_0..a_n.

    a_{n-k} = sqrt((2k+1)/2) * c_k / (n * (n-1) * ... * (k+1)), with the empty
    product equal to 1. c may carry leading axes (..., n+1), each entry
    computed as a single vector. A vanishing a_n is returned as it is: whether
    a companion system exists is decided by companion_discrete.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim == 0 or c.shape[-1] == 0:
        raise InputError("coefficient vector must be a non-empty array")
    n = c.shape[-1] - 1
    check_order(n)
    a = (normalization(n) * c / _falling(n))[..., ::-1]
    if not np.all(np.isfinite(a)):
        raise NumericalError("non-finite ODE coefficients")
    return a


def build_companion(a) -> tuple[np.ndarray, np.ndarray]:
    """Companion matrix A and base input column B_base = (0, ..., 0, 1/a_n).

    a may carry leading axes (..., n+1), one system per entry.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[-1] - 1
    if n == 0:
        raise ConfigError("order 0 is unsupported: the state vector would be empty")
    if np.any(np.abs(a[..., n]) < DEGENERATE_TOL):
        raise DegenerateCoefficientsError(
            f"leading coefficient |a_n| = {np.min(np.abs(a[..., n])):.3e}")
    A = np.zeros(a.shape[:-1] + (n, n))
    A[..., :-1, 1:] = np.eye(n - 1)
    A[..., n - 1, :] = -a[..., :n] / a[..., n:]
    b_base = np.zeros(a.shape[:-1] + (n,))
    b_base[..., n - 1] = 1.0 / a[..., n]
    return A, b_base


@dataclass(frozen=True)
class LiftedState:
    """Polynomial value/derivative stack plus the retained previous first entry."""
    x: np.ndarray
    x1_prev: float


def lift_initial_state(order: int) -> LiftedState:
    """Lifted state at the window's present edge s = 1.

    Entry j holds the falling product n * (n-1) * ... * (n-j+2) times
    p_{n-j+1}(1) = 1, the derivative stack under the same rescaled chain rule
    the coefficient transform assumes.
    """
    if order < 1:
        raise ConfigError("order 0 is unsupported: the state vector would be empty")
    x = np.array(_falling(order)[:0:-1])
    return LiftedState(x=x, x1_prev=float(x[0]))


@dataclass(frozen=True)
class KoopmanSystem:
    """Bilinear discretization of a companion system around control weights b.

    Discrete update: x' = Abar x + w * (b . u), i.e. the discrete control
    matrix is the outer product of w with the trainable weights b.
    """
    a: np.ndarray                     # ODE coefficients a_0..a_n
    b: np.ndarray
    Abar: np.ndarray
    w: np.ndarray


def companion_discrete(a, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Control-independent discrete pieces (Abar, w, ok) of companion systems.

    Abar = (I - dt/2 A)^-1 (I + dt/2 A) and w = dt (I - dt/2 A)^-1 B_base, one
    per entry of a's leading axes, from one stacked solve. ok is False where
    the system is undefined, and Abar and w are zero there: a vanishing
    leading coefficient, or a singular solve, whose smallest pivot in the
    partially pivoted factorization of I - dt/2 A is below SINGULAR_TOL times
    the largest (or 1). This is the one place that decides it; require_defined
    turns a false ok of a single system into its error.
    """
    if dt <= 0:
        raise ConfigError(f"step size must be positive, got {dt}")
    a = np.asarray(a, dtype=float)
    n = a.shape[-1] - 1
    ok = np.abs(a[..., n]) >= DEGENERATE_TOL
    A, b_base = build_companion(np.where(ok[..., None], a, 1.0))
    half = dt / 2.0
    eye = np.eye(n)
    lhs = eye - half * A
    # I - dt/2 A is unit upper-bidiagonal but for its last row r. Elimination
    # keeps one dense row, and a row swap only rescales it by -1/pivot, so its
    # entry k is the Horner sum D_k = r_k + dt/2 D_{k-1} over the running
    # record R_k = max(1, |D_0|, ..., |D_{k-1}|); the dense row wins pivot k
    # when |D_k| > R_k, so pivot k has magnitude max(|D_k| / R_k, 1).
    horner = lhs[..., n - 1, :].T.copy()      # entry index first
    for k in range(1, n):
        horner[k] += half * horner[k - 1]
    size = np.abs(horner.T)
    record = np.maximum.accumulate(
        np.concatenate([np.ones(size.shape[:-1] + (1,)), size[..., :-1]], axis=-1), axis=-1)
    pivots = size / record
    pivots[..., :-1] = np.maximum(pivots[..., :-1], 1.0)
    ok &= pivots.min(axis=-1) >= SINGULAR_TOL * np.maximum(pivots.max(axis=-1), 1.0)

    rhs = np.concatenate([eye + half * A, b_base[..., None]], axis=-1)
    lhs[~ok] = eye
    rhs[~ok] = 0.0
    sol = np.linalg.solve(lhs, rhs)
    return sol[..., :n], dt * sol[..., n], ok


def require_defined(a, ok, dt: float) -> None:
    """Raise unless companion_discrete found the one system of a defined."""
    if np.ndim(a) != 1:
        raise InputError(f"need one coefficient vector, got shape {np.shape(a)}")
    if ok:
        return
    if abs(a[-1]) < DEGENERATE_TOL:
        raise DegenerateCoefficientsError(
            f"leading coefficient |a_n| = {abs(a[-1]):.3e} below {DEGENERATE_TOL}; "
            f"companion matrix undefined for this window")
    raise NumericalError(f"bilinear solve singular at dt = {dt}")


def build_system(a, b, dt: float) -> KoopmanSystem:
    """Assemble the system of one coefficient vector a around weights b."""
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if b.size == 0:
        raise ConfigError("control weight vector must not be empty")
    a = np.asarray(a, dtype=float)
    abar, w, ok = companion_discrete(a, dt)
    require_defined(a, ok, dt)
    return KoopmanSystem(a=a, b=b, Abar=abar, w=w)


def propagate(sys: KoopmanSystem, state: LiftedState, u) -> LiftedState:
    """One discrete step; the pre-step first entry is retained for readout."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.shape != sys.b.shape:
        raise InputError(f"control input shape {u.shape} does not match weights {sys.b.shape}")
    if not np.all(np.isfinite(u)):
        raise InputError("non-finite control input")
    x1_prev = float(state.x[0])
    x_next = sys.Abar @ state.x + sys.w * float(sys.b @ u)
    return LiftedState(x=x_next, x1_prev=x1_prev)


def readout(sys: KoopmanSystem, state: LiftedState) -> float:
    """Forecast value a_0 * x1_prev + sum_i a_i * x_i."""
    a = sys.a
    if a.size != state.x.size + 1:
        raise InputError(f"coefficient length {a.size} does not match state {state.x.size}")
    value = a[0] * state.x1_prev + float(a[1:] @ state.x)
    if not isfinite(value):
        raise NumericalError("non-finite readout")
    return value
