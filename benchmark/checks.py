"""Output checks, each computed apart from the code it checks.

Every check returns a list of problems; an empty list means it passed.
test_checks.py shows that each one fails on a perturbed output.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

# RK4 at dt = 0.01 sits about 2e-5 (relative to the largest |value|) from an
# adaptive DOP853 solution over the first 500 steps; a wrong step or parameter
# is off by orders of magnitude more
LORENZ_STEPS = 500
LORENZ_RTOL = 1e-4
PROJECTION_RTOL = 1e-10
MSE_RTOL = 1e-9
REPORT_RTOL = 1e-12
GATE6_BOUND = 0.01


def _close(a, b, rtol: float) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    tol = rtol * np.maximum(np.abs(b), 1e-300)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))


def check_lorenz(table: np.ndarray, sigma: float, rho: float, beta: float,
                 dt: float, x0) -> list[str]:
    """The trajectory's early stretch agrees with scipy's DOP853 at rtol 1e-12."""
    if table.ndim != 2 or table.shape[1] != 3 or table.shape[0] < LORENZ_STEPS:
        return [f"lorenz table has shape {table.shape}"]

    def rhs(_t, v):
        return [sigma * (v[1] - v[0]), v[0] * (rho - v[2]) - v[1], v[0] * v[1] - beta * v[2]]

    times = dt * np.arange(1, LORENZ_STEPS + 1)
    sol = solve_ivp(rhs, (0.0, times[-1]), list(x0), method="DOP853",
                    t_eval=times, rtol=1e-12, atol=1e-12)
    ref = sol.y.T
    err = np.max(np.abs(table[:LORENZ_STEPS] - ref)) / np.max(np.abs(ref))
    if not err <= LORENZ_RTOL:
        return [f"gen_lorenz is {err:.3g} (relative) from solve_ivp over "
                f"{LORENZ_STEPS} steps, bound {LORENZ_RTOL}"]
    return []


def check_csv(names: list[str], table: np.ndarray, expected_names: list[str],
              expected: np.ndarray, planted: list[str]) -> list[str]:
    """load_csv returned exactly the written table, without the planted columns."""
    problems = []
    if names != expected_names:
        problems.append(f"load_csv columns {names}, expected {expected_names}")
    kept = sorted(set(planted) & set(names))
    if kept:
        problems.append(f"load_csv kept planted columns {kept}")
    if table.shape != expected.shape or not np.array_equal(table, expected):
        problems.append("load_csv table differs from the written values")
    return problems


def published_hippo(method: str, order: int, omega: float | None):
    """Continuous (A, B) from the published formulas, in the package's convention.

    The package's coefficients are orthonormal under unit weight on [-1, 1]
    with the present at s = +1, which makes them sqrt(2) times the HiPPO
    coefficients (orthonormal under the uniform probability measure).

    legs: HiPPO-LegS (Gu et al. 2020, Theorem 2), A_nk = -sqrt((2n+1)(2k+1))
    below the diagonal, -(n+1) on it, 0 above; B_n = sqrt(2n+1). Stepped here
    time-invariantly, as the package does.

    legt: the LMU matrices (Voelker et al. 2019), which HiPPO rederives as
    LegT: theta m' = A m + B u with A_nk = (2n+1) * (-1 if n < k else
    (-1)^(n-k+1)), B_n = (2n+1)(-1)^n, where m are plain Legendre coefficients
    with the present at argument -1. The change of basis
    c_n = (-1)^n sqrt(2 / (2n+1)) m_n maps them onto the package's coefficients.
    """
    n = np.arange(order + 1)
    rows, cols = n[:, None], n[None, :]
    if method == "legs":
        a = np.where(rows > cols, -np.sqrt((2 * rows + 1) * (2 * cols + 1.0)), 0.0)
        a = a - np.diag(n + 1.0)
        return a, np.sqrt(2.0) * np.sqrt(2 * n + 1.0)
    if method == "legt":
        sign = np.where(rows < cols, -1.0, (-1.0) ** (rows - cols + 1))
        a = (2 * rows + 1.0) * sign / omega
        b = (2 * n + 1.0) * (-1.0) ** n / omega
        s = (-1.0) ** n * np.sqrt(2.0 / (2 * n + 1.0))
        return s[:, None] * a / s[None, :], s * b
    raise ValueError(f"unknown method {method!r}")


def reference_projection(method: str, order: int, dt: float, omega: float | None,
                         histories: np.ndarray) -> np.ndarray:
    """Coefficients after streaming each row of histories from a zero state.

    Bilinear rule: Abar = (I - dt/2 A)^-1 (I + dt/2 A), Bbar = dt (I - dt/2 A)^-1 B.
    """
    a, b = published_hippo(method, order, omega)
    eye = np.eye(order + 1)
    lhs = eye - dt / 2.0 * a
    abar = np.linalg.solve(lhs, eye + dt / 2.0 * a)
    bbar = dt * np.linalg.solve(lhs, b)
    c = np.zeros((histories.shape[0], order + 1))
    for j in range(histories.shape[1]):
        c = c @ abar.T + histories[:, j, None] * bbar
    return c


def check_projection(method: str, order: int, dt: float, omega: float | None,
                     histories: np.ndarray, states: np.ndarray) -> list[str]:
    """hippo.project states equal the published-matrix recurrence."""
    ref = reference_projection(method, order, dt, omega, histories)
    err = np.max(np.abs(states - ref)) / max(np.max(np.abs(ref)), 1e-300)
    if states.shape != ref.shape or not err <= PROJECTION_RTOL:
        return [f"hippo.project ({method}) is {err:.3g} (relative) from the "
                f"published recurrence, bound {PROJECTION_RTOL}"]
    return []


def check_evaluate(per_feature, forecasts: np.ndarray, targets: np.ndarray) -> list[str]:
    """evaluate's per-feature MSE equals the MSE of predict on the same windows.

    forecasts and targets are (windows, features, horizon).
    """
    ours = np.mean((forecasts - targets) ** 2, axis=(0, 2))
    if not _close(per_feature, ours, MSE_RTOL):
        return [f"evaluate per-feature MSE {list(per_feature)} != MSE from predict "
                f"{ours.tolist()}"]
    return []


def training_losses(alpha: np.ndarray, G: np.ndarray, y: np.ndarray,
                    b: np.ndarray) -> dict:
    """Per-feature training loss at b, at b = 0 and at the least-squares optimum.

    alpha and y are (windows, features, horizon); G is (windows, features,
    horizon, controls), the forecast's response to each unit control weight.
    """
    n_feat = alpha.shape[1]
    out = {"trained": [], "zero": [], "optimum": [], "b_opt": []}
    for f in range(n_feat):
        g = G[:, f].reshape(-1, G.shape[-1])
        r0 = (y[:, f] - alpha[:, f]).ravel()
        b_opt = np.linalg.lstsq(g, r0, rcond=None)[0]
        out["trained"].append(float(np.mean((g @ b[f] - r0) ** 2)))
        out["zero"].append(float(np.mean(r0 ** 2)))
        out["optimum"].append(float(np.mean((g @ b_opt - r0) ** 2)))
        out["b_opt"].append(b_opt.tolist())
    return out


def check_trained_b(losses: dict) -> list[str]:
    """Trained b is no worse than b = 0 and no better than the optimum."""
    problems = []
    for f, (lt, l0, lo) in enumerate(zip(losses["trained"], losses["zero"], losses["optimum"])):
        if lt > l0 * (1 + 1e-12):
            problems.append(f"feature {f}: trained loss {lt:.6g} above b = 0 loss {l0:.6g}")
        if lt < lo * (1 - 1e-9):
            problems.append(f"feature {f}: trained loss {lt:.6g} below the "
                            f"least-squares optimum {lo:.6g}")
    return problems


def check_same_fits(fits: list[tuple[np.ndarray, list[float]]]) -> list[str]:
    """Fits with one seed give identical b and identical loss curves."""
    if len(fits) < 2:
        return ["fewer than two fits to compare"]
    b0, loss0 = fits[0]
    for i, (b, loss) in enumerate(fits[1:], 1):
        if not np.array_equal(b, b0) or list(loss) != list(loss0):
            return [f"fit {i} differs from fit 0 with the same seed"]
    return []


def check_report_mse(reported_per_feature, reported_mean, direct: dict,
                     where: str) -> list[str]:
    """A command's reported MSE equals the direct evaluate."""
    if reported_per_feature is not None and not _close(
            reported_per_feature, direct["per_feature"], REPORT_RTOL):
        return [f"{where}: reported per-feature MSE {reported_per_feature} != "
                f"direct evaluate {direct['per_feature']}"]
    if not _close(reported_mean, direct["mean"], REPORT_RTOL):
        return [f"{where}: reported mean MSE {reported_mean} != direct evaluate "
                f"{direct['mean']}"]
    return []


def check_gate6(test_mse: float) -> list[str]:
    """Test MSE on train-lorenz stays under gate 6's bound."""
    if not test_mse < GATE6_BOUND:
        return [f"test MSE {test_mse:.6g} not under gate 6's {GATE6_BOUND}"]
    return []
