"""Streaming compression of a signal into Legendre coefficients.

Two operator families are built here: "legt" keeps a sliding window of fixed
length omega, "legs" keeps the whole elapsed history with exponentially fading
resolution (recent samples sharp, old samples compressed; see
lookback_argument for the exact memory profile). Both are linear systems
with constant coefficients

    c'(t) = N c(t) + M gamma(t)

discretized once with the bilinear (trapezoidal) rule and then stepped as
c_{k+1} = Nbar c_k + Mbar gamma_k from a zero initial state. Block updates
batch k steps into one matrix product and equal the loop to rounding, not
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError, NumericalError, check_integer, check_positive

_STABILITY_SLACK = 1e-6
METHODS = ("legt", "legs")      # the operator families; ModelConfig and the CLI take these


def build_continuous(method: str, order: int,
                     omega: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Continuous operator pair (N, M) for the chosen family.

    order follows errors.check_integer from 0, and legt's window omega
    errors.check_positive; legs ignores omega.
    """
    check_integer("order", order, 0)
    n_idx = np.arange(order + 1)

    if method == "legt":
        check_positive("omega", omega)
        rows = n_idx[:, None]
        cols = n_idx[None, :]
        mag = np.sqrt((2 * rows + 1) * (2 * cols + 1)).astype(float)
        m_vec = np.sqrt(2 * (2 * n_idx + 1)) / omega
        # below the diagonal the sign factor is 1; on and above it is (-1)^(n-k),
        # read as integer parity so k > n is well defined
        sign = np.where(cols < rows, 1.0, np.where((rows - cols) % 2 == 0, 1.0, -1.0))
        n_mat = -(mag * sign) / omega
        return n_mat, m_vec

    if method == "legs":
        n_mat = -np.sqrt(np.outer(2 * n_idx + 1, 2 * n_idx + 1))
        n_mat = np.tril(n_mat, -1) + np.diag(-(n_idx + 1.0))
        m_vec = np.sqrt(2 * (2 * n_idx + 1)).astype(float)
        return n_mat, m_vec

    raise ConfigError(f"unknown method {method!r}, expected one of {METHODS}")


def discretize_bilinear(n_mat: np.ndarray, m_vec: np.ndarray,
                        dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear images Nbar = (I - dt/2 N)^-1 (I + dt/2 N), Mbar = dt (I - dt/2 N)^-1 M.

    One dense solve with [I + dt/2 N | M] as the right-hand side; the matrices
    involved are small. I - dt/2 N counts as singular when its smallest
    singular value is under 1e-14 of the largest (or of 1). dt follows
    errors.check_positive.
    """
    check_positive("dt", dt)
    dim = n_mat.shape[0]
    eye = np.eye(dim)
    half = (dt / 2.0) * n_mat
    lhs = eye - half
    sv = np.linalg.svd(lhs, compute_uv=False)
    if sv[-1] < 1e-14 * max(sv[0], 1.0):
        raise NumericalError(f"bilinear solve singular at dt = {dt}")
    sol = np.linalg.solve(lhs, np.column_stack([eye + half, np.asarray(m_vec, dtype=float)]))
    return sol[:, :dim], dt * sol[:, dim]


@dataclass(frozen=True)
class HippoBasis:
    """The discrete recurrence c' = Nbar c + Mbar y of one operator family.

    method, order and omega name the family's (N, M) as build_continuous
    takes them; build_basis discretizes that pair at its dt.
    """
    method: str
    order: int
    omega: float | None
    Nbar: np.ndarray
    Mbar: np.ndarray


def build_basis(method: str, order: int, dt: float,
                omega: float | None = None) -> HippoBasis:
    """Construct and discretize a basis; asserts the update is stable.

    order, omega and dt follow the rules of build_continuous and
    discretize_bilinear. The spectral radius of Nbar is checked at
    construction and construction fails loudly if the discrete update could
    amplify state.
    """
    n_mat, m_vec = build_continuous(method, order, omega)
    nbar, mbar = discretize_bilinear(n_mat, m_vec, dt)
    radius = np.max(np.abs(np.linalg.eigvals(nbar)))
    if radius > 1.0 + _STABILITY_SLACK:
        raise NumericalError(
            f"discrete update is unstable: spectral radius {radius:.6f} "
            f"(method={method}, order={order}, dt={dt}, omega={omega})")
    return HippoBasis(method=method, order=order, omega=omega, Nbar=nbar, Mbar=mbar)


@dataclass(frozen=True)
class CoefficientState:
    """Coefficient vector plus how many samples produced it."""
    c: np.ndarray
    step_index: int = 0


def init_state(order: int) -> CoefficientState:
    """Zero initial state; also the warm-start entry point across windows."""
    return CoefficientState(c=np.zeros(order + 1), step_index=0)


def step(state: CoefficientState, sample: float, basis: HippoBasis) -> CoefficientState:
    """One recurrence step c' = Nbar c + Mbar * sample."""
    if not np.isfinite(sample):
        raise InputError(f"non-finite sample at step {state.step_index}")
    return CoefficientState(c=basis.Nbar @ state.c + basis.Mbar * sample,
                            step_index=state.step_index + 1)


@dataclass(frozen=True)
class BlockKernel:
    """Block-update operators: the state map Nbar^k and the stacked input map.

    input_map column j multiplies sample j of the block, so
    input_map = [Nbar^(k-1) Mbar, ..., Nbar Mbar, Mbar].
    """
    k: int
    power: np.ndarray       # (dim, dim), Nbar^k
    input_map: np.ndarray   # (dim, k)


def build_kernel(basis: HippoBasis, k: int) -> BlockKernel:
    """Kernel for block updates of length k, which follows errors.check_integer from 1."""
    check_integer("block length", k, 1)
    input_map = np.empty((basis.order + 1, k))
    input_map[:, k - 1] = basis.Mbar
    # row-major like the products below, so every power takes the same BLAS path
    power = np.ascontiguousarray(basis.Nbar)
    for j in range(k - 2, -1, -1):
        input_map[:, j] = power @ basis.Mbar        # power = Nbar^(k-1-j)
        power = basis.Nbar @ power
    return BlockKernel(k=k, power=power, input_map=input_map)


def block_step(state: CoefficientState, block, kernel: BlockKernel) -> CoefficientState:
    """Consume k samples at once; equivalent to k sequential step calls.

    block may carry leading axes (..., k), one block per entry; the state's
    coefficients broadcast against them.
    """
    block = np.asarray(block, dtype=float)
    if block.shape[-1:] != (kernel.k,):
        raise InputError(f"block length {block.shape} does not match kernel k = {kernel.k}")
    if not np.all(np.isfinite(block)):
        raise InputError(f"non-finite sample in block at step {state.step_index}")
    c_next = state.c @ kernel.power.T + block_input(block, kernel)
    return CoefficientState(c=c_next, step_index=state.step_index + kernel.k)


def block_input(block: np.ndarray, kernel: BlockKernel) -> np.ndarray:
    """The input term block @ input_map^T of block_step, unchecked.

    From the zero state this is the whole update (block_step adds zeros to
    it), so a caller whose blocks are already known to be finite arrays of
    length kernel.k gets the coefficients in one product.
    """
    return block @ kernel.input_map.T


def project(basis: HippoBasis, samples, state: CoefficientState | None = None) -> CoefficientState:
    """Stream a whole sample sequence through the recurrence."""
    if state is None:
        state = init_state(basis.order)
    for sample in np.asarray(samples, dtype=float):
        state = step(state, sample, basis)
    return state


def lookback_argument(basis: HippoBasis, age: float) -> float:
    """Canonical basis argument where a sample `age` time units old lives.

    legt represents the trailing window of length omega uniformly:
    s = 1 - 2 * age / omega. legs compresses the whole past exponentially:
    s = 2 * exp(-age) - 1, so resolution concentrates near the present edge
    and an age of ln(2/(1+s)) is needed before a query at s sees real data.
    Reconstruction of the history at that age is legendre.reconstruct(c, s).
    A negative or NaN age raises InputError.
    """
    if not age >= 0:
        raise InputError(f"age must be non-negative, got {age}")
    if basis.method == "legt":
        if age > basis.omega:
            raise InputError(f"age {age} is outside the window length {basis.omega}")
        return 1.0 - 2.0 * age / basis.omega
    return 2.0 * np.exp(-age) - 1.0
