"""End-to-end forecasting model: fit control weights, roll out forecasts.

Each state feature is an independent scalar channel sharing the control
block. For every window the pipeline is: project the history into Legendre
coefficients (one block update), rescale them into a companion system,
propagate the lifted state over the horizon, and read out forecasts. The
rollout is affine in the control weights b, so every window reduces to

    forecast = alpha + G b

with alpha the control-free response and G the per-channel control response.
featurize builds them for all windows at once, and predict uses the same
rollout. Each window's squared error is then a quadratic in b, so fit reduces
every window to its normal-equation sums (G^T G, G^T (alpha - y) and
||alpha - y||^2) and runs minibatch gradient descent on those alone, with the
exact gradient. window_loss_grad states the same loss and gradient on the
affine pieces and is the optimizer's reference; closed_form_b solves the
same regression directly and serves as the oracle for where it converges.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, asdict
from typing import NamedTuple

import numpy as np

from . import hippo, koopman
from .data import windows
from .errors import ConfigError, InputError, NumericalError, TrainingAbortedError

log = logging.getLogger(__name__)

MODEL_FORMAT = 1
# removed options that format-1 files may still carry: load_model drops each
# at its old default, given here, and rejects any other value
REMOVED_CONFIG_KEYS = {"momentum": 0.0, "teacher_forcing": False, "extended_order": False,
                       "s0": 1.0, "dt_system": None}


@dataclass(frozen=True)
class ModelConfig:
    method: str = "legs"
    order: int = 6
    omega: float | None = None        # legt window length; defaults to seq_len * dt_basis
    dt_basis: float | None = None     # projection step; defaults to 2 / seq_len
    controls: int = 1
    seq_len: int = 8
    horizon: int = 1
    learning_rate: float = 1e-3
    epochs: int = 50
    batch_size: int = 32
    stride: int | None = None         # defaults to seq_len (non-overlapping)
    seed: int = 0

    def __post_init__(self):
        for name in ("order", "controls", "seq_len", "horizon", "epochs", "batch_size",
                     "stride", "seed"):
            v = getattr(self, name)
            if type(v) is not int and not (name == "stride" and v is None):
                raise ConfigError(f"{name} must be an integer, got {v!r}")
        if self.method not in ("legt", "legs"):
            raise ConfigError(f"method must be 'legt' or 'legs', got {self.method!r}")
        if self.order < 1:
            raise ConfigError(f"order must be at least 1, got {self.order}")
        koopman.check_order(self.order)
        if self.controls < 1:
            raise ConfigError(f"need at least one control feature, got {self.controls}")
        if self.seq_len < 1 or self.horizon < 1:
            raise ConfigError(f"seq_len and horizon must be positive, got "
                              f"({self.seq_len}, {self.horizon})")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError(f"epochs and batch_size must be positive, got "
                              f"({self.epochs}, {self.batch_size})")
        if self.stride is not None and self.stride < 1:
            raise ConfigError(f"stride must be positive, got {self.stride}")
        for name in ("learning_rate", "omega", "dt_basis"):
            v = getattr(self, name)
            if v is not None and not 0 < v < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {v}")

    @property
    def eff_stride(self) -> int:
        return self.seq_len if self.stride is None else self.stride

    @property
    def eff_dt_basis(self) -> float:
        # one window of seq_len samples spans the length-2 canonical domain
        return 2.0 / self.seq_len if self.dt_basis is None else self.dt_basis

    @property
    def eff_dt_system(self) -> float:
        # the forecast step: one sample of the length-2 window domain
        return 2.0 / self.seq_len

    @property
    def eff_omega(self) -> float | None:
        if self.method != "legt":
            return None
        return self.seq_len * self.eff_dt_basis if self.omega is None else self.omega


def build_basis(config: ModelConfig) -> hippo.HippoBasis:
    return hippo.build_basis(config.method, config.order, dt=config.eff_dt_basis,
                             omega=config.eff_omega)


@dataclass(frozen=True)
class FlightKoobaModel:
    """Trained model: config, per-feature control weights, training history."""
    config: ModelConfig
    b: np.ndarray                     # (n_features, controls)
    loss_history: list[float] = field(default_factory=list)
    skipped_windows: int = 0

    @property
    def n_features(self) -> int:
        return self.b.shape[0]

    @property
    def parameter_count(self) -> int:
        return int(self.b.size)


class Regression(NamedTuple):
    """Affine forecast pieces of every usable window: forecast = alpha + G b."""
    alpha: np.ndarray       # (W, F, h) control-free forecasts
    G: np.ndarray           # (W, F, h, m) response to each control weight
    y: np.ndarray           # (W, F, h) targets
    skipped: int            # windows dropped for an undefined companion system


# window x feature rows per rollout chunk: bounds the (rows, n, n) temporaries
CHUNK_ROWS = 128


def _as_2d(arr, name: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise InputError(f"{name} must be a (time, features) matrix, got shape {arr.shape}")
    return arr


def _rollout(config: ModelConfig, a: np.ndarray,
             u_future: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forecast pieces alpha (..., h) and G (..., h, m) of companion systems.

    a is (..., n+1); u_future (..., h, m) broadcasts against its
    leading axes. Convolution form of the lifted recurrence x' = Abar x + w u:
    carry Abar^t [x0, w] for t = 0..h, read alpha off the first column and the
    control impulse response k off the second, then G = Toeplitz(k) u. The
    third result marks the systems that are defined (koopman.companion_discrete).
    """
    h = u_future.shape[-2]
    abar, w, ok = koopman.companion_discrete(a, config.eff_dt_system)
    carry = np.empty(w.shape[:-1] + (h + 1,) + w.shape[-1:] + (2,))   # (..., h+1, n, 2)
    carry[..., 0, :, 0] = koopman.lift_initial_state(config.order).x
    carry[..., 0, :, 1] = w
    for t in range(h):
        carry[..., t + 1, :, :] = abar @ carry[..., t, :, :]
    first = carry[..., 0, :]                                 # (..., h+1, 2)
    dot = (a[..., None, None, 1:] @ carry)[..., 0, :]        # a_1.. . carry
    a0 = a[..., :1]
    alpha = a0 * first[..., :h, 0] + dot[..., 1:, 0]
    k = dot[..., :h, 1].copy()
    k[..., 1:] += a0 * first[..., :h - 1, 1]
    lag = np.arange(h)[:, None] - np.arange(h)
    return alpha, (k[..., lag % h] * (lag >= 0)) @ u_future, ok


def featurize(config: ModelConfig, states: np.ndarray, controls: np.ndarray) -> Regression:
    """Affine pieces of every window as arrays, CHUNK_ROWS rows at a time.

    A window is skipped when any feature's companion system is undefined (a
    vanishing leading coefficient or a singular I - dt/2 A).
    """
    if controls.shape[1] != config.controls:
        raise InputError(f"control matrix has {controls.shape[1]} columns, "
                         f"config expects {config.controls}")
    L, h = config.seq_len, config.horizon
    hist, u_future, y = windows(states, controls, L, h, config.eff_stride)
    n_rows, n_feat, _ = hist.shape
    alpha = np.empty((n_rows, n_feat, h))
    G = np.empty(alpha.shape + (config.controls,))
    ok = np.empty((n_rows, n_feat), dtype=bool)
    kernel = hippo.build_kernel(build_basis(config), L)
    zero = hippo.init_state(config.order)
    step = max(1, CHUNK_ROWS // n_feat)
    for lo in range(0, n_rows, step):
        rows = slice(lo, lo + step)
        c = hippo.block_step(zero, hist[rows], kernel).c
        a = koopman.poly_ode_coeffs(c)
        alpha[rows], G[rows], ok[rows] = _rollout(config, a, u_future[rows, None])
    usable = ok.all(axis=1)
    skipped = int(usable.size - np.count_nonzero(usable))
    if skipped:
        alpha, G, y = alpha[usable], G[usable], y[usable]
    return Regression(alpha=alpha, G=G, y=y, skipped=skipped)


def _usable_windows(config: ModelConfig, states, controls, split: str) -> Regression:
    """featurize the given rows, raising unless at least one window is usable."""
    reg = featurize(config, _as_2d(states, "states"), _as_2d(controls, "controls"))
    if reg.alpha.shape[0] == 0:
        raise InputError(f"no usable {split} windows ({reg.skipped} skipped)")
    return reg


def window_loss_grad(alpha: np.ndarray, G: np.ndarray, y: np.ndarray,
                     b: np.ndarray) -> tuple[float, np.ndarray]:
    """MSE and its exact gradient in b for affine forecasts alpha + G b.

    alpha and y are (..., h), G is (..., h, m) and b is (..., m). Leading axes
    of G that b lacks are a batch of windows: the loss is the mean over every
    forecast and the gradient is the batch mean of each window's gradient.
    This defines the training loss and is fit's reference: fit reaches the
    same numbers from per-window sums without calling it.
    """
    residual = alpha + (G @ b[..., None])[..., 0] - y
    loss = float(np.mean(residual * residual))
    grad = 2.0 * (residual[..., None, :] @ G)[..., 0, :] / residual.shape[-1]
    return loss, grad.reshape((-1,) + b.shape).mean(axis=0)


def fit(config: ModelConfig, states, controls) -> FlightKoobaModel:
    """Train per-feature control weights by minibatch gradient descent.

    Windows are featurized once (the companion system is frozen per window)
    and each is reduced to its normal-equation sums G^T G, G^T (alpha - y)
    and ||alpha - y||^2. Each epoch shuffles the windows with the seeded
    generator, sums those per minibatch of batch_size windows and steps b,
    from zero, with the exact gradient of window_loss_grad's loss; the batch
    losses then follow from the stored b, and the first non-finite one
    aborts. Near zero residual the loss curve is exact only to the rounding
    of those sums, about 1e-16 of the first epoch's loss. Rows with no usable
    window raise InputError, as in evaluate and closed_form_b.
    """
    residual, G, y, skipped = _usable_windows(config, states, controls, "training")
    n_win, n_feat, h = residual.shape

    # per-window normal-equation sums; alpha - y is formed in featurize's own
    # buffer (y is a view of the caller's states)
    np.subtract(residual, y, out=residual)
    gram = G.swapaxes(-1, -2) @ G                               # (W, F, m, m)
    cross = residual[..., None, :] @ G                          # (W, F, 1, m)
    sq = np.einsum("wfh,wfh->w", residual, residual)           # (W,)
    del residual, G, y

    # b_{k+1} = b_k - lr * (2 / (n_k h)) * (cross_k + gram_k b_k), b as (F, 1, m) rows
    starts = np.arange(0, n_win, config.batch_size)
    step = 2.0 * config.learning_rate / (np.diff(starts, append=n_win) * h)
    # b before each batch of an epoch, and after its last batch in the last row
    bs = np.zeros((starts.size + 1, n_feat, 1, config.controls))
    rng = np.random.default_rng(config.seed)
    history: list[float] = []
    for epoch in range(config.epochs):
        order = rng.permutation(n_win)
        gram_b = np.add.reduceat(gram[order], starts)
        cross_b = np.add.reduceat(cross[order], starts)
        bs[0] = bs[-1]
        # a diverging b overflows mid-epoch; the check below names the first bad batch
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(starts.size):
                bs[k + 1] = bs[k] - step[k] * (cross_b[k] + bs[k] @ gram_b[k])
            # each batch's sum of ||alpha + G b - y||^2 at the b it saw
            seen = bs[:-1]
            quad = seen @ (2.0 * cross_b + seen @ gram_b).swapaxes(-1, -2)
            total = np.add.reduceat(sq[order], starts) + quad.sum(axis=(1, 2, 3))
        bad = np.flatnonzero(~np.isfinite(total))
        if bad.size:
            raise TrainingAbortedError(f"non-finite loss at epoch {epoch}, window batch "
                                       f"starting at index {starts[bad[0]]}")
        history.append(float(total.sum()) / (n_win * n_feat * h))
    return FlightKoobaModel(config=config, b=bs[-1, :, 0].copy(), loss_history=history,
                            skipped_windows=skipped)


class ClosedFormResult(NamedTuple):
    b: np.ndarray                 # (n_features, controls)
    rank_deficient: list[bool]


def closed_form_b(config: ModelConfig, states, controls) -> ClosedFormResult:
    """Least-squares control weights over all training windows (test oracle).

    Solves min_b sum_w ||alpha_w + G_w b - y_w||^2 per feature. Rank-deficient
    designs fall back to the minimum-norm solution and flag the feature.
    """
    reg = _usable_windows(config, states, controls, "training")
    n_feat = reg.y.shape[1]
    b = np.empty((n_feat, config.controls))
    flags: list[bool] = []
    for f in range(n_feat):
        design = reg.G[:, f].reshape(-1, config.controls)
        rhs = (reg.y[:, f] - reg.alpha[:, f]).ravel()
        sol, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
        deficient = rank < config.controls
        if deficient:
            log.warning("least-squares design for feature %d is rank deficient "
                        "(%d < %d); minimum-norm solution", f, rank, config.controls)
        b[f] = sol
        flags.append(deficient)
    return ClosedFormResult(b=b, rank_deficient=flags)


def predict(model: FlightKoobaModel, c_state: hippo.CoefficientState,
            u_future, feature: int = 0) -> np.ndarray:
    """Roll the companion system forward from a coefficient state.

    One forecast per row of u_future: alpha + G b from the same rollout the
    training windows use.
    """
    config = model.config
    u_future = np.asarray(u_future, dtype=float)
    if u_future.size == 0:
        return np.empty(0)
    if u_future.ndim == 1:
        u_future = u_future[:, None]
    if u_future.shape[1] != config.controls:
        raise InputError(f"u_future has {u_future.shape[1]} control columns, "
                         f"config expects {config.controls}")
    if not 0 <= feature < model.n_features:
        raise InputError(f"feature index {feature} out of range")
    if not np.all(np.isfinite(u_future)):
        raise InputError("non-finite control input")
    c = np.asarray(c_state.c, dtype=float)
    if c.shape[-1:] != (config.order + 1,):
        raise InputError(f"coefficient state has shape {c.shape}; a model of order "
                         f"{config.order} needs {config.order + 1} coefficients")
    a = koopman.poly_ode_coeffs(c)
    alpha, G, ok = _rollout(config, a, u_future)
    koopman.require_defined(a, ok, config.eff_dt_system)
    out = alpha + G @ model.b[feature]
    if not np.all(np.isfinite(out)):
        raise NumericalError("non-finite forecast")
    return out


def evaluate(model: FlightKoobaModel, states, controls) -> dict:
    """Per-feature and mean MSE of the trained model over the given rows."""
    reg = _usable_windows(model.config, states, controls, "evaluation")
    if reg.y.shape[1] != model.n_features:
        raise InputError(f"model was trained on {model.n_features} features, "
                         f"got {reg.y.shape[1]}")
    residual = reg.alpha + (reg.G @ model.b[..., None])[..., 0] - reg.y
    per_feature = np.mean(residual * residual, axis=(0, 2))
    return {
        "per_feature": [float(v) for v in per_feature],
        "mean": float(np.mean(per_feature)),
        "windows": reg.alpha.shape[0],
        "skipped_windows": reg.skipped,
    }


def save_model(model: FlightKoobaModel, path) -> None:
    """Write the model as a versioned JSON document."""
    doc = {
        "format": MODEL_FORMAT,
        "config": asdict(model.config),
        "b": model.b.tolist(),
        "loss_history": [float(v) for v in model.loss_history],
        "skipped_windows": model.skipped_windows,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_model(path) -> FlightKoobaModel:
    """Read a model document, checking the format version and removed options."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"model file {path} is not valid JSON "
                              f"(expected format version {MODEL_FORMAT}): {exc}") from exc
    version = doc.get("format") if isinstance(doc, dict) else None
    if version != MODEL_FORMAT:
        raise ConfigError(f"model file {path} has format version {version!r}, "
                          f"this build reads version {MODEL_FORMAT}")
    try:
        values = {**doc["config"]}
        for key, default in REMOVED_CONFIG_KEYS.items():
            value = values.pop(key, default)
            if value != default:
                raise ConfigError(f"model file {path} sets {key} = {value!r}; that option "
                                  f"was removed and only its old default {default!r} loads")
        config = ModelConfig(**values)
        b = np.asarray(doc["b"], dtype=float)
        loss_history = [float(v) for v in doc["loss_history"]]
        skipped = int(doc["skipped_windows"])
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"model file {path} is missing fields for format "
                          f"version {MODEL_FORMAT}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"model file {path}: b is not a numeric matrix, or loss_history "
                          f"or skipped_windows is not numeric: {exc}") from exc
    if b.ndim != 2 or b.shape[1] != config.controls or not np.all(np.isfinite(b)):
        raise ConfigError(f"model file {path}: b must be a finite (features, "
                          f"{config.controls}) matrix, got shape {b.shape}")
    return FlightKoobaModel(config=config, b=b, loss_history=loss_history,
                            skipped_windows=skipped)
