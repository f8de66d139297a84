"""End-to-end forecasting model: fit control weights, roll out forecasts.

Each state feature is an independent scalar channel sharing the control
block. For every window the pipeline is: project the history into Legendre
coefficients (one block update), rescale them into a companion system,
propagate the lifted state over the horizon, and read out forecasts. The
rollout is affine in the control weights b, so every window reduces to

    forecast = alpha + G b

with alpha the control-free response and G the per-channel control response,
both from koopman.rollout. Every entry point that takes a series passes it
through one gate (_windows), which checks the rows and cuts them into
windows; one generator (_chunks) rolls those windows out a fixed chunk of
window x feature rows at a time (_chunk_windows), releasing each chunk before
it rolls out the next (table_build_peak states what that bounds), and
predict rolls out one system.
Each window's squared error is then a quadratic in b, so fit reduces every
window to its normal-equation sums (G^T G, G^T (alpha - y) and
||alpha - y||^2) as its chunk is rolled out (normal_equations), and evaluate
reduces each chunk to its per-feature sums of squared error; neither holds
alpha or G for every window. fit runs minibatch gradient descent on those
sums alone, with the exact gradient. Each minibatch step is an affine map of
b, and a prefix scan composes an epoch's steps as arrays, for a block of
epochs at a time.
window_loss_grad states the same loss and gradient on the affine pieces and
is the optimizer's reference; closed_form_b stacks every window's pieces,
solves the same regression directly and serves as the oracle for where it
converges.
"""

from __future__ import annotations

import gc
import json
import logging
import tracemalloc
from dataclasses import dataclass, field, asdict
from typing import NamedTuple

import numpy as np

from . import hippo, koopman
from .data import save_json, window_count, windows
from .errors import (ConfigError, InputError, NumericalError, TrainingAbortedError,
                     check_integer, check_positive, is_finite_number)

log = logging.getLogger(__name__)

MODEL_FORMAT = 1
# removed options that format-1 files may still carry: load_model drops each
# at its old default, given here, and rejects any other value
REMOVED_CONFIG_KEYS = {"momentum": 0.0, "teacher_forcing": False, "extended_order": False,
                       "s0": 1.0, "dt_system": None, "omega": None, "dt_basis": None}

# least value of each integer field but order, whose bounds are koopman.check_order's
_LEAST = {"controls": 1, "seq_len": 1, "horizon": 1, "epochs": 1, "batch_size": 1,
          "stride": 1, "seed": 0}


@dataclass(frozen=True)
class ModelConfig:
    """Model settings, checked when built.

    method is one of hippo.METHODS and order follows koopman.check_order.
    Every other integer field follows check_integer from its least value in
    _LEAST (stride may also be None), and learning_rate follows
    check_positive. Any other value raises ConfigError.
    """
    method: str = "legs"
    order: int = 6
    controls: int = 1
    seq_len: int = 8
    horizon: int = 1
    learning_rate: float = 1e-3
    epochs: int = 50
    batch_size: int = 32
    stride: int | None = None         # defaults to seq_len (non-overlapping)
    seed: int = 0

    def __post_init__(self):
        if self.method not in hippo.METHODS:
            raise ConfigError(f"method must be one of {hippo.METHODS}, got {self.method!r}")
        koopman.check_order(self.order)
        for name, least in _LEAST.items():
            if not (name == "stride" and self.stride is None):
                check_integer(name, getattr(self, name), least)
        check_positive("learning_rate", self.learning_rate)

    @property
    def eff_stride(self) -> int:
        return self.seq_len if self.stride is None else self.stride

    @property
    def eff_dt_basis(self) -> float:
        # the projection and forecast step: one window of seq_len samples
        # spans the length-2 canonical domain
        return 2.0 / self.seq_len

    @property
    def eff_omega(self) -> float | None:
        # legt's window is the seq_len samples; this product is not always
        # 2.0 in floating point (seq_len = 49), and the fitted bits follow it
        return self.seq_len * self.eff_dt_basis if self.method == "legt" else None


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


# window x feature rows per rollout chunk: bounds the (rows, n, n) temporaries
CHUNK_ROWS = 128
# rows per finiteness mask of one input column (_require_finite)
MASK_ROWS = 16384


def _chunk_windows(n_feat: int) -> int:
    """Windows per rollout chunk of n_feat features: CHUNK_ROWS rows, at least one window."""
    return max(1, CHUNK_ROWS // n_feat)


def _table_columns(config: ModelConfig, n_feat: int) -> int:
    """Columns of fit's table of per-window sums (NormalEquations) for n_feat features."""
    m = config.controls
    return n_feat * (m * m + m) + 1


def _as_2d(arr, name: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise InputError(f"{name} must be a (time, features) matrix, got shape {arr.shape}")
    return arr


def _require_finite(arr: np.ndarray, name: str) -> None:
    """Raise InputError naming the column and row of the first non-finite cell.

    One column and MASK_ROWS rows at a time, so however long the series the
    masks (two at most, MASK_ROWS bytes each) stay below a chunk's arrays at
    the default order, and they go with this frame, before the rollout
    starts.
    """
    for j in range(arr.shape[1]):
        for lo in range(0, arr.shape[0], MASK_ROWS):
            finite = np.isfinite(arr[lo:lo + MASK_ROWS, j])
            if not finite.all():
                row = lo + int(np.argmin(finite))
                raise InputError(f"{name} column {j} holds the non-finite value "
                                 f"{arr[row, j]} at row {row}")


def _control_matrix(config: ModelConfig, arr, name: str) -> np.ndarray:
    """The control rule of the gate and predict: a (time, config.controls)
    matrix of finite cells, else InputError naming the matrix."""
    arr = _as_2d(arr, name)
    if arr.shape[1] != config.controls:
        raise InputError(f"{name} has {arr.shape[1]} columns, config expects {config.controls}")
    _require_finite(arr, name)
    return arr


def _windows(config: ModelConfig, states, controls, split: str):
    """The gate into the model: check the rows, then cut them into windows.

    Applies the control rule (_control_matrix) to controls and rejects a
    states matrix that is not (time, features), has no column or holds a
    non-finite cell, each with InputError. Rows too short for one window
    raise InputError naming the split before anything is sized by seq_len
    or horizon. Returns data.windows' views.
    """
    states = _as_2d(states, "states")
    controls = _control_matrix(config, controls, "controls")
    if states.shape[1] == 0:
        raise InputError("state matrix has no feature columns")
    _require_finite(states, "states")
    if window_count(states.shape[0], config.seq_len, config.horizon, config.eff_stride) == 0:
        raise InputError(f"no usable {split} windows (0 skipped)")
    return windows(states, controls, config.seq_len, config.horizon, config.eff_stride)


def _chunks(config: ModelConfig, win, split: str):
    """Affine pieces of the usable windows, CHUNK_ROWS window x feature rows at a time.

    win is what _windows returns, whose rows the gate found finite, so each
    chunk's histories project from the zero state in one product
    (hippo.block_input, block_step's numbers). Yields (alpha, G, y) of each
    chunk's usable windows, in window order: forecast = alpha + G b, with
    alpha (k, F, h), G (k, F, h, m) and targets y (k, F, h). A window is
    skipped when any feature's companion system is undefined (a vanishing
    leading coefficient or a singular I - dt/2 A). alpha and G are new
    arrays that the caller may overwrite; y is a view of states when the
    chunk skips no window. The generator drops its own references to a
    chunk before it rolls out the next, so once the caller drops its own
    too, no two chunks are held at once. Raises InputError, naming the
    split, once every window is rolled out if none was usable.
    """
    hist, u_future, y = win
    n_rows, n_feat, _ = hist.shape
    kernel = hippo.build_kernel(build_basis(config), config.seq_len)
    step = _chunk_windows(n_feat)
    n_usable = 0
    for lo in range(0, n_rows, step):
        rows = slice(lo, lo + step)
        a = koopman.poly_ode_coeffs(hippo.block_input(hist[rows], kernel))
        alpha, G, ok = koopman.rollout(a, u_future[rows, None], config.eff_dt_basis)
        usable = ok.all(axis=1)
        n_usable += np.count_nonzero(usable)
        if usable.all():
            yield alpha, G, y[rows]
        else:
            yield alpha[usable], G[usable], y[rows][usable]
        del a, alpha, G, ok, usable
    if n_usable == 0:
        raise InputError(f"no usable {split} windows ({n_rows} skipped)")


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


def _epochs_per_block(config: ModelConfig, n_win: int, n_feat: int) -> tuple[int, int, type]:
    """Epochs fit descends per array pass, batches per gather, and the permutation's index type.

    Both counts are as many as fit in the bytes koopman.rollout held for one
    chunk's window x feature rows (koopman.rollout_bytes), which the table
    build freed before training, and at least one. Per epoch and batch, a
    block holds its row of sums and the b the batch saw. Beside them it
    holds one epoch's permutation (an index per window) and one gather (a
    table row per gathered window) while it sums, and later the scan's A
    with one A-sized temporary and d with two d-sized temporaries. The count
    leaves out the batch starts and step sizes (two floats per batch), the
    generator, the int64 copy numpy takes of a gather's int32 indices and
    numpy's scratch, so the descent traces more than it counts: on the
    Lorenz train split 5.1 KB more at the default config and 14.1 KB more at
    horizon 4, stride 1, and 6.9 KB more on a 60,000-step series. fit's peak
    stays at the build's only because the build holds more beside its table
    than the rollout's bytes. The block's sums take at most half of what the
    permutation leaves, so that neither many blocks nor many slices per
    epoch eat the time, and the gathers take the rest: an epoch is one
    gather where its whole table fits there. The indices are int64, which
    numpy shuffles fastest, where that permutation leaves room for one
    batch's gather and one epoch's sums; else int32, half the bytes.
    """
    m = config.controls
    n_gram, n_cross = n_feat * m * m, n_feat * m
    n_cols = _table_columns(config, n_feat)
    n_batch = -(-n_win // config.batch_size)
    rows = min(_chunk_windows(n_feat), n_win) * n_feat
    budget = rows * koopman.rollout_bytes(config.order, config.horizon, m)
    held = 8 * n_batch * (n_cols + n_cross + 1)
    scan = 8 * n_batch * (2 * n_gram + 3 * n_cross)
    batch = 8 * n_cols * min(n_win, config.batch_size)
    index = np.int64 if budget - 8 * n_win - batch >= held else np.int32
    perm = np.dtype(index).itemsize * n_win
    block = min(config.epochs,
                max(1, min((budget - perm) // 2 // held, budget // (held + scan))))
    return block, min(n_batch, max(1, (budget - perm - block * held) // batch)), index


def _descend(config: ModelConfig, table: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """fit's minibatch descent on its table of per-window sums.

    Returns b as (F, m) and the loss history. A block of epochs and each
    gather hold what _epochs_per_block counts. An epoch gathers its permuted
    table rows and sums them per batch one slice of whole batches at a time,
    so the segments summed are those of one whole gather, and its
    permutation is the same in either index type.
    """
    n_win, h, m = table.shape[0], config.horizon, config.controls
    n_feat = (table.shape[1] - 1) // (m * m + m)
    n_gram = n_feat * m * m
    # batch k: b_{k+1} = b_k - lr * (2 / (n_k h)) * (cross_k + b_k gram_k)
    #                  = b_k A_k + d_k, with b as (F, 1, m) rows
    starts = np.arange(0, n_win, config.batch_size)
    n_batch = starts.size
    step = (2.0 * config.learning_rate / (np.diff(starts, append=n_win) * h)).reshape(-1, 1, 1, 1)
    eye = np.eye(m)
    block, per, index = _epochs_per_block(config, n_win, n_feat)
    span = per * config.batch_size
    sums = np.empty((block, n_batch, table.shape[1]))
    seen = np.empty((block, n_batch, n_feat, 1, m))
    b = np.zeros((n_feat, 1, m))
    rng = np.random.default_rng(config.seed)
    history: list[float] = []
    for first in range(0, config.epochs, block):
        n_ep = min(block, config.epochs - first)
        for e in range(n_ep):
            # rng.permutation(n_win)'s order, shuffled in place in either index
            # type (a table of 2^31 windows would not fit in memory)
            perm = np.arange(n_win, dtype=index)
            rng.shuffle(perm)
            # every batch but the last holds batch_size rows, so a slice's
            # segments start where the epoch's first ones do
            for j in range(0, n_batch, per):
                np.add.reduceat(table.take(perm[starts[j]:starts[j] + span], axis=0),
                                starts[:min(per, n_batch - j)], axis=0, out=sums[e, j:j + per])
            del perm
        s, bs = sums[:n_ep], seen[:n_ep]
        gram_b = s[..., :n_gram].reshape(n_ep, n_batch, n_feat, m, m)
        cross_b = s[..., n_gram:-1].reshape(n_ep, n_batch, n_feat, 1, m)
        # a diverging b overflows mid-epoch; the check below names the first bad batch
        with np.errstate(over="ignore", invalid="ignore"):
            A = eye - step * gram_b
            d = -step * cross_b
            # Hillis-Steele along each epoch's batches: after the pass with
            # offset off, entry k composes maps max(0, k - 2 off + 1)..k, the
            # earlier map applied first; epochs are never composed together
            off = 1
            while off < n_batch:
                d[:, off:] += d[:, :-off] @ A[:, off:]
                A[:, off:] = A[:, :-off] @ A[:, off:]
                off *= 2
            # each epoch starts from where the one before it ended
            for e in range(n_ep):
                bs[e, 0] = b
                b = b @ A[e, -1] + d[e, -1]
            bs[:, 1:] = bs[:, :1] @ A[:, :-1] + d[:, :-1]
            del A, d
            # each batch's sum of ||alpha + G b - y||^2 at the b it saw
            quad = bs @ (2.0 * cross_b + bs @ gram_b).swapaxes(-1, -2)
            total = s[..., -1] + quad.sum(axis=(2, 3, 4))
            del quad
        bad = np.argwhere(~np.isfinite(total))
        if bad.size:
            epoch, batch = bad[0]
            raise TrainingAbortedError(f"non-finite loss at epoch {first + epoch}, window "
                                       f"batch starting at index {starts[batch]}")
        history.extend(float(t) / (n_win * n_feat * h) for t in total.sum(axis=1))
    return b[:, 0].copy(), history


class NormalEquations(NamedTuple):
    """fit's training data: one row of per-window sums per usable window."""
    table: np.ndarray       # (W, F m^2 + F m + 1): G^T G, G^T (alpha - y), ||alpha - y||^2
    skipped: int            # windows dropped for an undefined companion system


def _table(config: ModelConfig, win) -> NormalEquations:
    """normal_equations over the windows _windows returned."""
    n_win, n_feat = win[0].shape[:2]
    m = config.controls
    n_gram = n_feat * m * m
    table = np.empty((n_win, _table_columns(config, n_feat)))
    n = 0
    for residual, G, y in _chunks(config, win, "training"):
        k = residual.shape[0]
        rows = table[n:n + k]
        np.subtract(residual, y, out=residual)
        rows[:, :n_gram] = (G.swapaxes(-1, -2) @ G).reshape(k, n_gram)
        rows[:, n_gram:-1] = (residual[..., None, :] @ G).reshape(k, n_feat * m)
        np.einsum("wfh,wfh->w", residual, residual, out=rows[:, -1])
        n += k
        del residual, G, y, rows
    return NormalEquations(table=table[:n], skipped=n_win - n)


def normal_equations(config: ModelConfig, states, controls) -> NormalEquations:
    """Reduce every usable training window to its normal-equation sums, chunk by chunk.

    The table is allocated up front. Each chunk's alpha - y is formed in
    place, then its rows of the table are written directly, and the chunk is
    released before the next is rolled out (table_build_peak states the peak
    this gives). Raises InputError unless at least one window is usable.
    """
    return _table(config, _windows(config, states, controls, "training"))


def table_build_peak(config: ModelConfig, states, controls) -> int:
    """Peak bytes of fit's table build (normal_equations), traced over one chunk.

    The rule behind the memory column: normal_equations allocates its table
    of per-window sums up front and releases each chunk before it rolls out
    the next, so its peak is the table plus one chunk's working set. The
    gate and the build of the first chunk's windows therefore run under
    tracemalloc, and the table rows of the other windows are added; no timed
    call runs under tracemalloc. A caller that is already tracing keeps its
    trace, but its peak is reset, and its own blocks are left out of the
    result. The garbage collector is off for the trace and then restored: a
    collection inside it empties CPython's free lists, and the objects the
    trace then allocates afresh read about 2 KB high. As the first call of
    its config in a process it reads about 3.9% high, because first-use
    caches (koopman's lru_caches, numpy's small-array caches) fall inside its
    short trace: call it after fit on the same rows.
    Raises fit's InputError on every row set that fit rejects.
    """
    tracing, collecting = tracemalloc.is_tracing(), gc.isenabled()
    gc.disable()
    tracemalloc.start()             # does nothing when the caller is tracing
    tracemalloc.reset_peak()
    try:
        held = tracemalloc.get_traced_memory()[0]
        win = _windows(config, states, controls, "training")
        n_win, n_feat = win[0].shape[:2]
        k = min(_chunk_windows(n_feat), n_win)
        # the first chunk's views stand in for the whole series' views
        win = tuple(part[:k] for part in win)
        try:
            _table(config, win)
        except InputError:
            # every window of the first chunk was skipped; its rollout, which
            # sets the peak, ran in full. When it holds every window, fit raises
            if k == n_win:
                raise
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        if not tracing:
            tracemalloc.stop()
        if collecting:
            gc.enable()
    return peak + (n_win - k) * 8 * _table_columns(config, n_feat)


def fit(config: ModelConfig, states, controls) -> FlightKoobaModel:
    """Train per-feature control weights by minibatch gradient descent.

    Windows are rolled out once (the companion system is frozen per window)
    and each is reduced to its normal-equation sums G^T G, G^T (alpha - y)
    and ||alpha - y||^2, packed as one row of a table that normal_equations
    fills one chunk of windows at a time. Each epoch shuffles the windows
    with the seeded generator and sums the table per minibatch of
    batch_size windows. Batch k then steps b, from zero, with the exact
    gradient of window_loss_grad's loss: an affine map b -> b A_k + d_k on
    each feature's row b. A prefix scan composes the epoch's maps in
    ceil(log2 batches) array steps, so the b every batch saw is known at once
    and the batch losses follow from it; the first non-finite one aborts.
    The scan and the losses run once for a block of consecutive epochs, each
    epoch composing only its own maps, and b passes from one epoch to the next
    by the same b A_K + d_K its last batch gives; so the numbers are those of
    one epoch at a time. A block holds as many epochs as fit in the bytes a
    chunk of the table build freed, and at least one; each epoch gathers and
    sums in slices of whole batches sized to what the block leaves there, one
    slice where its whole table fits (_epochs_per_block), with the same bits.
    Near zero residual the loss curve is exact only to the rounding of those
    sums and products, about 1e-16 of the first epoch's loss. Rows with no
    usable window raise InputError, as in evaluate and closed_form_b.

    The scan multiplies composed maps where a step-by-step loop multiplies
    b, so there is one case where it aborts and such a loop does not: every
    G^T (alpha - y) is exactly zero, so every d_k is zero and the loop keeps
    b = 0, and the step size is so large that the composed A_k overflow. The
    scan then forms 0 * inf.
    """
    table, skipped = normal_equations(config, states, controls)
    b, history = _descend(config, table)
    return FlightKoobaModel(config=config, b=b, loss_history=history,
                            skipped_windows=skipped)


class ClosedFormResult(NamedTuple):
    b: np.ndarray                 # (n_features, controls)
    rank_deficient: list[bool]


def closed_form_b(config: ModelConfig, states, controls) -> ClosedFormResult:
    """Least-squares control weights over all training windows (test oracle).

    Solves min_b sum_w ||alpha_w + G_w b - y_w||^2 per feature. Rank-deficient
    designs fall back to the minimum-norm solution and flag the feature.
    """
    win = _windows(config, states, controls, "training")
    alpha, G, y = (np.concatenate(pieces) for pieces in zip(*_chunks(config, win, "training")))
    n_feat = y.shape[1]
    b = np.empty((n_feat, config.controls))
    flags: list[bool] = []
    for f in range(n_feat):
        design = G[:, f].reshape(-1, config.controls)
        rhs = (y[:, f] - alpha[:, f]).ravel()
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
    training windows use. An empty u_future gives no forecast once the
    feature, the control width and the coefficient state have been checked.
    """
    config = model.config
    u_future = _control_matrix(config, u_future, "u_future")
    if isinstance(feature, bool) or not isinstance(feature, (int, np.integer)):
        raise InputError(f"feature must be an integer index, got {feature!r}")
    if not 0 <= feature < model.n_features:
        raise InputError(f"feature index {feature} out of range")
    c = np.asarray(c_state.c, dtype=float)
    if c.shape[-1:] != (config.order + 1,):
        raise InputError(f"coefficient state has shape {c.shape}; a model of order "
                         f"{config.order} needs {config.order + 1} coefficients")
    finite = np.isfinite(c)
    if not finite.all():
        i = int(np.argmin(finite))
        raise InputError(f"coefficient state holds the non-finite value {c.flat[i]} at entry {i}")
    if u_future.size == 0:
        return np.empty(0)
    a = koopman.poly_ode_coeffs(c)
    alpha, G, ok = koopman.rollout(a, u_future, config.eff_dt_basis)
    koopman.require_defined(a, ok, config.eff_dt_basis)
    out = alpha + G @ model.b[feature]
    if not np.all(np.isfinite(out)):
        raise NumericalError("non-finite forecast")
    return out


def evaluate(model: FlightKoobaModel, states, controls) -> dict:
    """Per-feature and mean MSE of the trained model over the given rows.

    Each chunk's residual alpha + G b - y is formed in place in its alpha and
    reduced to per-feature sums of squares, and the chunk is released before
    the next is rolled out, so the peak does not grow with the windows.
    Raises NumericalError, naming the features, when an MSE is not finite.
    """
    config = model.config
    win = _windows(config, states, controls, "evaluation")
    n_win, n_feat = win[0].shape[:2]
    if n_feat != model.n_features:
        raise InputError(f"model was trained on {model.n_features} features, got {n_feat}")
    sq_sum = np.zeros(n_feat)
    n = 0
    for residual, G, y in _chunks(config, win, "evaluation"):
        # a diverging rollout or b overflows; the check below names the features
        with np.errstate(over="ignore", invalid="ignore"):
            residual += (G @ model.b[..., None])[..., 0]
            residual -= y
            sq_sum += np.einsum("wfh,wfh->f", residual, residual)
        n += residual.shape[0]
        del residual, G, y
    per_feature = sq_sum / (n * config.horizon)
    bad = np.flatnonzero(~np.isfinite(per_feature))
    if bad.size:
        raise NumericalError(f"non-finite MSE for feature(s) {bad.tolist()}")
    return {
        "per_feature": [float(v) for v in per_feature],
        "mean": float(np.mean(per_feature)),
        "windows": n,
        "skipped_windows": n_win - n,
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
    save_json(path, doc)


def load_model(path) -> FlightKoobaModel:
    """Read a model document, checking the format version, removed options,
    unknown config fields and field types."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"model file {path} is not UTF-8 text: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"model file {path} is not valid JSON "
                              f"(expected format version {MODEL_FORMAT}): {exc}") from exc
    version = doc.get("format") if isinstance(doc, dict) else None
    if type(version) is not int or version != MODEL_FORMAT:
        raise ConfigError(f"model file {path} has format version {version!r}, "
                          f"this build reads version {MODEL_FORMAT}")
    try:
        values = {**doc["config"]}
        for key, default in REMOVED_CONFIG_KEYS.items():
            value = values.pop(key, default)
            if type(value) is not type(default) or value != default:
                raise ConfigError(f"model file {path} sets {key} = {value!r}; that option "
                                  f"was removed and only its old default {default!r} loads")
        config = ModelConfig(**values)
        b, loss_history, skipped = doc["b"], doc["loss_history"], doc["skipped_windows"]
    except KeyError as exc:
        raise ConfigError(f"model file {path} is missing fields for format "
                          f"version {MODEL_FORMAT}: {exc}") from exc
    except TypeError as exc:    # {**config} of a non-object, or a field ModelConfig lacks
        raise ConfigError(f"model file {path}: unknown field or non-object config: {exc}") from exc
    # JSON numbers only: text, booleans and non-finite values are not coerced
    m = config.controls
    if not (isinstance(b, list) and b and all(
            isinstance(row, list) and len(row) == m and all(map(is_finite_number, row))
            for row in b)):
        raise ConfigError(f"model file {path}: b is not a numeric matrix; expected a "
                          f"non-empty list of rows of {m} finite numbers")
    if not (isinstance(loss_history, list) and all(map(is_finite_number, loss_history))):
        raise ConfigError(f"model file {path}: loss_history must be a list of finite numbers")
    check_integer(f"model file {path}: skipped_windows", skipped, 0)
    return FlightKoobaModel(config=config, b=np.array(b, dtype=float),
                            loss_history=[float(v) for v in loss_history],
                            skipped_windows=skipped)
