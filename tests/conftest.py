import gc
import tracemalloc

import numpy as np
import pytest

from kooba import FlightKoobaModel, ModelConfig, normalize, predict
from kooba.hippo import project
from kooba.model import _chunks, _windows, build_basis


def traced_peak(fn, *args):
    """tracemalloc high-water mark of fn(*args), after one untraced warm-up call.

    The collector is off from the warm-up to the end of the trace: a full
    collection empties CPython's float, tuple, list and dict free lists, and
    one that falls between the warm-up and the trace, wherever earlier tests
    leave the collector's counts, makes the trace read about 2 KB more.
    """
    gc.disable()
    try:
        fn(*args)
        tracemalloc.start()
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()


def flight_track_dataset(rows=20_000, seed=0):
    """A normalized table shaped like one of kooba bench's flight-track files.

    Four noisy targets (east and north position, altitude, ground speed)
    and, last, one control: a climb-rate command, constant over 400-row
    segments, that the altitude integrates. No window is exactly flat.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(rows, dtype=float)
    climb = np.repeat(rng.choice([-10.0, 0.0, 10.0], size=rows // 400 + 1), 400)[:rows]
    table = np.column_stack([np.cumsum(np.cos(t / 900.0)), np.cumsum(np.sin(t / 700.0)),
                             3000.0 + 0.25 * np.cumsum(climb),
                             200.0 + 20.0 * np.sin(t / 1500.0), climb])
    table[:, :4] += rng.normal(size=(rows, 4)) * [0.005, 0.005, 3.0, 0.5]
    return normalize(["x_km", "y_km", "alt_m", "speed_mps", "climb_cmd_mps"], table)


def whole_regression(config, states, controls):
    """alpha, G and y of every usable window, stacked, and the skipped count."""
    win = _windows(config, states, controls, "training")
    alpha, G, y = (np.concatenate(pieces) for pieces in zip(*_chunks(config, win, "training")))
    return alpha, G, y, win[0].shape[0] - alpha.shape[0]


def realizable_series(config, b_star, n_windows, seed, ctrl_scale=5.0):
    """Series whose target blocks are exact forecasts under weights b_star.

    Windows tile disjointly (stride == seq_len + horizon): each history block
    is fresh smooth data, each target block is the model's own rollout with
    b_star, so the least-squares optimum over all windows is exactly b_star
    with zero residual. Used as the optimizer oracle fixture.
    """
    rng = np.random.default_rng(seed)
    L, h, m = config.seq_len, config.horizon, config.controls
    assert config.eff_stride == L + h
    total = n_windows * (L + h)
    t = np.arange(total, dtype=float)
    phases = rng.uniform(0, 2 * np.pi, size=m)
    periods = rng.uniform(9, 23, size=m)
    controls = np.column_stack(
        [ctrl_scale * np.sin(2 * np.pi * t / periods[j] + phases[j]) for j in range(m)])
    basis = build_basis(config)
    oracle = FlightKoobaModel(config=config, b=np.asarray([b_star], dtype=float))
    x = np.zeros(total)
    for i in range(n_windows):
        start = i * (L + h)
        amp = rng.uniform(0.8, 1.6)
        period = rng.uniform(7, 19)
        phase = rng.uniform(0, 2 * np.pi)
        x[start:start + L] = 1.5 + amp * np.sin(2 * np.pi * np.arange(L) / period + phase)
        state = project(basis, x[start:start + L])
        x[start + L:start + L + h] = predict(oracle, state, controls[start + L:start + L + h])
    return x[:, None], controls


@pytest.fixture
def realizable_fixture():
    b_star = np.array([0.7, -0.3])
    config = ModelConfig(order=4, seq_len=8, horizon=4, stride=12, controls=2,
                         epochs=50, learning_rate=1e-3, batch_size=1, seed=3)
    states, controls = realizable_series(config, b_star, n_windows=40, seed=11)
    return config, states, controls, b_star
