"""Companion-form state space built from Legendre coefficients.

The coefficient vector of a projected window is rescaled into the
coefficients a_0..a_n of a scalar linear ODE; that ODE's companion matrix A
propagates a lifted state holding the window polynomial's value and
derivative stack, while a rank-one control matrix B = B_base b^T injects
exogenous inputs. The bilinear discretization of that system is built in
closed form (companion_discrete): I - dt/2 A is unit upper-bidiagonal but
for its last row, so its inverse is a fixed upper-triangular matrix of
powers of dt/2 plus one outer product of that row's Horner sums: nothing
here calls a linear solver. propagate and readout step one system;
rollout runs the same recurrence for a batch of systems over a horizon,
reading each step off one readout row built from the same closed form, and
returns the forecast's affine pieces in the control weights.

Convention note: the derivative stack follows the rescaled chain rule
d/ds p_n = n * p_{n-1}: the coefficient transform (poly_ode_coeffs) and the
lift (lift_initial_state) scale by the same falling products (_ode_scale). The
lift is taken at the present edge s = 1, where every p_k(1) is exactly 1.
This stack is not the window polynomial's. With c^_k = sqrt((2k+1)/2) c_k,
readout of the unstepped lift is exactly

    c^_n + sum_{k<n} c^_k / (k+1),

while the window's value at the present edge, legendre.reconstruct(c, 1.0),
is sum_k c^_k: the two share the c^_0 and c^_n terms and weight every other
one by 1/(k+1) instead of 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isfinite

import numpy as np

from .errors import (ConfigError, DegenerateCoefficientsError, InputError, NumericalError,
                     check_positive, is_integer)
from .legendre import normalization

# double-precision factorials are exact only up to about 32!; beyond that the
# rescaling products silently lose integer precision
MAX_DIRECT_ORDER = 32
DEGENERATE_TOL = 1e-12
# smallest over largest pivot of the partially pivoted factorization of
# I - dt/2 A, which companion_discrete reads off its Horner sums
SINGULAR_TOL = 1e-14


def check_order(order) -> None:
    """The order rule: errors.is_integer from 1 to MAX_DIRECT_ORDER, else ConfigError.

    ModelConfig applies it to its order field, and poly_ode_coeffs,
    build_companion, companion_discrete (so rollout and build_system too) and
    lift_initial_state to the order they are given. Order 0 leaves the lifted
    state empty, and beyond MAX_DIRECT_ORDER the factorial-sized rescaling is
    no longer exact in double precision.
    """
    if not (is_integer(order) and 1 <= order <= MAX_DIRECT_ORDER):
        raise ConfigError(f"order must be an integer from 1 to {MAX_DIRECT_ORDER}, got {order!r} "
                          f"(order 0 has no lifted state, and beyond {MAX_DIRECT_ORDER} the "
                          f"factorial rescaling is not exact in double precision)")


@lru_cache(maxsize=16)
def _ode_scale(n: int) -> tuple[np.ndarray, np.ndarray]:
    """normalization(n) and the falling products, the factors of poly_ode_coeffs.

    Falling product k is (k+1)(k+2)...n for k = 0..n, 1 at k = n.
    lift_initial_state and rollout read the lift off them. Shared by every
    caller, so read-only.
    """
    norm, fall = normalization(n), np.append(np.cumprod(np.arange(n, 0, -1.0))[::-1], 1.0)
    norm.flags.writeable = fall.flags.writeable = False
    return norm, fall


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
    norm, fall = _ode_scale(n)
    a = (norm * c / fall)[..., ::-1]
    if not np.all(np.isfinite(a)):
        raise NumericalError("non-finite ODE coefficients")
    return a


def build_companion(a) -> tuple[np.ndarray, np.ndarray]:
    """Companion matrix A and base input column B_base = (0, ..., 0, 1/a_n).

    a may carry leading axes (..., n+1), one system per entry.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[-1] - 1
    check_order(n)
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
    check_order(order)
    x = _ode_scale(order)[1][:0:-1].copy()          # the cached array is read-only
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


@lru_cache(maxsize=16)
def _bilinear_base(n: int, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """2T - I and p of the closed form (I - dt/2 A)^-1 = T + p s^T / D_{n-1}.

    With h = dt/2, T_ij = h^(j-i) for i <= j <= n-2 (0 elsewhere) and
    p_i = h^(n-1-i): both depend on (n, dt) alone. The arrays are shared by
    every caller, so they are read-only.
    """
    powers = (dt / 2.0) ** np.arange(n)
    idx = np.arange(n)
    T = np.triu(powers[np.abs(idx - idx[:, None])])
    T[:, n - 1] = 0.0
    base = 2.0 * T - np.eye(n)
    p = powers[::-1].copy()
    base.flags.writeable = p.flags.writeable = False
    return base, p


def companion_discrete(a, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Control-independent discrete pieces (Abar, w, ok) of companion systems.

    Abar = (I - dt/2 A)^-1 (I + dt/2 A) and w = dt (I - dt/2 A)^-1 B_base, one
    per entry of a's leading axes, in closed form: no matrix is factorized.
    I - dt/2 A is unit upper-bidiagonal (-h above the diagonal, h = dt/2) but
    for its last row r = e_{n-1} + h a_{0..n-1} / a_n. With the Horner sums
    D_0 = r_0 and D_k = r_k + h D_{k-1},

        (I - hA)^-1 = T + p s^T / D_{n-1},   s = (-D_0, ..., -D_{n-2}, 1),

    for T and p from _bilinear_base. So Abar = 2 (I - hA)^-1 - I and
    w = dt p / (D_{n-1} a_n). ok is False where the system is undefined, and
    Abar and w are zero there: a vanishing leading coefficient, or a singular
    I - hA, whose smallest pivot in the partially pivoted factorization is
    below SINGULAR_TOL times the largest (or 1). This is the one place that
    decides it (_closed_form, which rollout shares); require_defined turns a
    false ok of a single system into its error.
    """
    s, w, ok = _closed_form(a, dt)
    abar = _abar(s, dt)
    abar[~ok] = 0.0
    return abar, w, ok


def _closed_form(a, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-system pieces (s, w, ok) of companion_discrete: Abar = 2T - I + p s^T.

    s is the closed form's s times 2 / D_{n-1}. Where ok is False, s and w
    are zero. dt follows errors.check_positive, for companion_discrete,
    build_system and rollout too.
    """
    check_positive("dt", dt)
    a = np.asarray(a, dtype=float)
    n = a.shape[-1] - 1
    check_order(n)
    ok = np.abs(a[..., n]) >= DEGENERATE_TOL
    a_n = np.where(ok, a[..., n], 1.0)
    half = dt / 2.0
    # Elimination on I - hA keeps one dense row, and a row swap only rescales
    # it by -1/pivot, so its entry k is the Horner sum D_k over the running
    # record R_k = max(1, |D_0|, ..., |D_{k-1}|); the dense row wins pivot k
    # when |D_k| > R_k, so pivot k has magnitude max(|D_k| / R_k, 1).
    horner = (half * (a[..., :n] / a_n[..., None])).T.copy()   # entry index first
    horner[n - 1] += 1.0
    for k in range(1, n):
        horner[k] += half * horner[k - 1]
    D = horner.T
    size = np.abs(D)
    record = np.maximum.accumulate(
        np.concatenate([np.ones(size.shape[:-1] + (1,)), size[..., :-1]], axis=-1), axis=-1)
    pivots = size / record
    # each intermediate goes as soon as it is spent, so that this function
    # stays below the rollout's own high-water mark
    del size, record
    pivots[..., :-1] = np.maximum(pivots[..., :-1], 1.0)
    ok &= pivots.min(axis=-1) >= SINGULAR_TOL * np.maximum(pivots.max(axis=-1), 1.0)
    del pivots

    last = np.where(ok, D[..., n - 1], 1.0)     # any nonzero value where undefined
    scale = 2.0 / last
    s = D * -scale[..., None]                   # s of the closed form, times 2 / D_{n-1}
    del D, horner
    s[..., n - 1] = scale
    s[~ok] = 0.0
    w = (dt / (last * a_n))[..., None] * _bilinear_base(n, float(dt))[1]
    w[~ok] = 0.0
    return s, w, ok


def _abar(s: np.ndarray, dt: float) -> np.ndarray:
    """Abar = (2T - I) + p s^T of each system, from _closed_form's s.

    The shared 2T - I is copied in and the outer product, a matmul over one
    term, added as an array of Abar's shape, so this holds two arrays of
    Abar's size at most. Adding 2T - I in place would broadcast it, and for
    such a sum numpy allocates an iteration buffer of up to 8,192 elements
    whose share per system depends on how many systems there are.
    """
    n = s.shape[-1]
    base, p = _bilinear_base(n, float(dt))
    abar = np.empty(s.shape + (n,))
    abar[...] = base
    abar += p[:, None] @ s[..., None, :]
    return abar


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
    """Assemble the system of one coefficient vector a around weights b.

    b must be non-empty and finite, else ConfigError; dt follows
    errors.check_positive.
    """
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if not (b.size and np.isfinite(b).all()):
        raise ConfigError(f"control weights must be a non-empty finite vector, got {b}")
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


def rollout(a: np.ndarray, u_future: np.ndarray,
            dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forecast pieces alpha (..., h) and G (..., h, m) of companion systems.

    The forecast under control weights b is alpha + G b: propagate from
    lift_initial_state, then readout, for every system at once. a is
    (..., n+1); u_future (..., h, m) broadcasts against its leading axes.
    Convolution form of the lifted recurrence x' = Abar x + w u: carry
    Abar^t [x0, w] for t = 0..h-1, step t of which gives alpha_t and the
    control impulse response k_{t+1}, with k_0 = a_1.. . w; then
    G = Toeplitz(k) u. The Toeplitz matrix is a strided view of k behind
    h - 1 zeros: entry (i, j) sits i - j places after k_0, so rows step
    forward and columns step back. The third result marks the systems that
    are defined (companion_discrete); alpha and G are zero where they are
    not.

    readout after a step is a_0 x_0 + a_1.. . Abar x for the pre-step x, so
    step t is one product of the readout row r = a_0 e_1 + Abar^T a_1.. with
    the carry. With Abar = 2T - I + p s^T (_closed_form), that row is
    r = a_0 e_1 + (2T - I)^T a_1.. + (p . a_1..) s, with no Abar. So the
    carry steps h - 1 times, and Abar (_abar) and the carry's second buffer
    exist only where it steps (h > 1). k_0 is taken before the steps, so w
    lives on only in the carry, and the steps record only their h outputs,
    step axis first. rollout_bytes counts what each phase holds: at h = 1
    the largest is _closed_form's pivot record, at h > 1 Abar's build or the
    steps beside Abar. Each system runs the same products alone and in a
    stack, so its numbers are the same bits either way.
    """
    h = u_future.shape[-2]
    s, w, ok = _closed_form(a, dt)
    n = w.shape[-1]
    base, p = _bilinear_base(n, float(dt))
    abar = _abar(s, dt) if h > 1 else None
    a1 = a[..., None, 1:]
    r = a1 @ base                                           # (..., 1, n)
    r += (a1 @ p[:, None]) @ s[..., None, :]
    del s
    r[..., 0, 0] += a[..., 0]
    r[~ok] = 0.0
    k0 = (a1 @ w[..., None])[..., 0, 0]
    cur = np.empty(w.shape + (2,))                          # (..., n, 2)
    cur[..., 0] = _ode_scale(n)[1][:0:-1]                   # lift_initial_state's x
    cur[..., 1] = w
    del w
    nxt = np.empty_like(cur) if h > 1 else None
    out = np.empty((h,) + ok.shape + (1, 2))                # r . carry: alpha_t, k_{t+1}
    for t in range(h):
        np.matmul(r, cur, out=out[t])
        if t < h - 1:
            np.matmul(abar, cur, out=nxt)
            cur, nxt = nxt, cur
    del abar, r, cur, nxt
    alpha = out[..., 0, 0].transpose(*range(1, ok.ndim + 1), 0).copy()   # (..., h)
    padded = np.zeros((2 * h - 1,) + ok.shape)              # k behind h - 1 zeros, step axis first
    padded[h - 1] = k0
    padded[h:] = out[:h - 1, ..., 0, 1]
    del out, k0
    st = padded.strides[0]
    toeplitz = np.ndarray(ok.shape + (h, h), padded.dtype, padded, (h - 1) * st,
                          padded.strides[1:] + (st, -st))
    return alpha, toeplitz @ u_future, ok


def rollout_bytes(n: int, h: int, m: int) -> int:
    """Bytes rollout holds at once per system of order n over h steps and m controls, then frees.

    In float64, two for flags, scalars and numpy's scratch, beside the
    largest of its phases:

    - the discretization's pivot record (_closed_form): the Horner sums,
      their magnitudes, the ones-padded running record, the pivots and
      numpy's buffer for dividing arrays of two layouts, beside a_n: 5n + 1.
      This is the largest phase at h = 1;
    - where the carry steps (h > 1), Abar's build (_abar) beside s and w:
      2n^2 + 2n;
    - the steps: r, the carry (2n, and 2n more for its second buffer where
      it steps), k_0 and the outputs (2h), beside Abar where it was built.
      At h > 1 this or Abar's build is the largest phase;
    - the Toeplitz response: the outputs, k_0, alpha (h) and the padded
      impulse response (2h - 1), then alpha, the padded response and G (h m).

    The readout row's build holds less than the steps. The coefficients a
    are the caller's.
    """
    abar, carry = (n * n, 4 * n) if h > 1 else (0, 2 * n)
    return 8 * (2 + max(5 * n + 1, 2 * abar + 2 * n, abar + n + carry + 1 + 2 * h, 5 * h,
                         3 * h - 1 + h * m))
