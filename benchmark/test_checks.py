"""Each output check passes on the program's output and fails on a perturbed one.

    python3 -m pytest -q benchmark/test_checks.py
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from kooba import data, hippo, model  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def lorenz():
    p = data.LorenzParams(steps=checks.LORENZ_STEPS)
    return p, data.gen_lorenz(p)


def test_lorenz_check(lorenz):
    p, table = lorenz
    args = (p.sigma, p.rho, p.beta, p.dt, p.x0)
    assert checks.check_lorenz(table, *args) == []
    bumped = table.copy()
    bumped[300, 2] += 1e-3 * np.max(np.abs(table))
    assert checks.check_lorenz(bumped, *args)
    other = data.gen_lorenz(replace(p, sigma=10.05))
    assert checks.check_lorenz(other, *args)


def test_csv_check(tmp_path):
    track, phase = workloads.flight_track(np.random.default_rng(0), rows=2000)
    path = tmp_path / "track.csv"
    workloads.write_track_csv(path, track, phase)
    names, table = data.load_csv(path)
    planted = [workloads.TRACK_TEXT_COLUMN, workloads.TRACK_CONSTANT_COLUMN]
    expected_names = workloads.TRACK_NAMES
    assert checks.check_csv(names, table, expected_names, track, planted) == []
    nudged = table.copy()
    nudged[17, 3] = np.nextafter(nudged[17, 3], np.inf)
    assert checks.check_csv(names, nudged, expected_names, track, planted)
    kept = [workloads.TRACK_CONSTANT_COLUMN] + names
    assert checks.check_csv(kept, table, expected_names, track, planted)


@pytest.mark.parametrize("method", ["legs", "legt"])
def test_projection_check(method):
    config = model.ModelConfig(method=method)
    basis = model.build_basis(config)
    histories = np.random.default_rng(1).uniform(size=(20, config.seq_len))
    states = np.array([hippo.project(basis, h).c for h in histories])
    args = (method, config.order, config.eff_dt_basis, config.eff_omega, histories)
    assert checks.check_projection(*args, states) == []
    bumped = states.copy()
    bumped[5, 3] *= 1 + 1e-8
    assert checks.check_projection(*args, bumped)
    flipped = states * (-1.0) ** np.arange(config.order + 1)
    assert checks.check_projection(*args, flipped)


def test_evaluate_check(lorenz):
    _, table = lorenz
    ds = data.normalize(workloads.LORENZ_NAMES, table)
    states, controls = data.split_controls(ds, 1)
    config = model.ModelConfig(horizon=3, epochs=2)
    fitted = model.fit(config, states[:300], controls[:300])
    rows = slice(300, 300 + 10 * config.seq_len + config.horizon)
    scores = model.evaluate(fitted, states[rows], controls[rows])
    basis = model.build_basis(config)
    preds, targets = [], []
    L, h = config.seq_len, config.horizon
    for s in range(rows.start, rows.stop - L - h + 1, config.eff_stride):
        preds.append([model.predict(fitted, hippo.project(basis, states[s:s + L, f]),
                                    controls[s + L:s + L + h], f) for f in range(2)])
        targets.append(states[s + L:s + L + h].T)
    preds, targets = np.array(preds), np.array(targets)
    assert checks.check_evaluate(scores["per_feature"], preds, targets) == []
    preds[4, 1, 2] += 1e-6
    assert checks.check_evaluate(scores["per_feature"], preds, targets)


def test_trained_b_check():
    rng = np.random.default_rng(2)
    alpha, y = rng.normal(size=(50, 2, 4)), rng.normal(size=(50, 2, 4))
    G = rng.normal(size=(50, 2, 4, 1))
    b_opt = np.array(checks.training_losses(alpha, G, y, np.zeros((2, 1)))["b_opt"])
    assert checks.check_trained_b(checks.training_losses(alpha, G, y, 0.5 * b_opt)) == []
    assert checks.check_trained_b(checks.training_losses(alpha, G, y, 2.5 * b_opt))
    below = checks.training_losses(alpha, G, y, 0.5 * b_opt)
    below["trained"][1] = 0.999 * below["optimum"][1]
    assert checks.check_trained_b(below)


def test_same_fits_check():
    b, loss = np.array([[0.25], [-0.5]]), [0.3, 0.2]
    assert checks.check_same_fits([(b, loss), (b.copy(), list(loss))]) == []
    assert checks.check_same_fits([(b, loss), (np.nextafter(b, 1.0), loss)])
    assert checks.check_same_fits([(b, loss), (b, [0.3, 0.2000001])])
    assert checks.check_same_fits([(b, loss)])


def test_report_checks(tmp_path):
    direct = {"per_feature": [0.001, 0.002], "mean": 0.0015}
    assert checks.check_report_mse([0.001, 0.002], 0.0015, direct, "r") == []
    assert checks.check_report_mse([0.001, 0.002], 0.0015000001, direct, "r")
    assert checks.check_report_mse([0.0011, 0.002], 0.0015, direct, "r")
    doc = {"schema": 1, "command": "bench", "seed": 0, "rows": [
        {"dataset": "a", "mse_mean": 0.1, "train_time_ms": 5.0,
         "memory_bytes_estimate": 100, "parameters": "1 / 4", "seed": 0}]}
    path = tmp_path / "bench_report.json"
    path.write_text(json.dumps(doc))
    assert workloads._report(path)[1] == []
    del doc["rows"][0]["seed"]
    path.write_text(json.dumps(doc))
    assert workloads._report(path)[1]
    assert checks.check_gate6(0.0012) == []
    assert checks.check_gate6(0.012)


def test_tracer_sees_calls_between_modules(lorenz):
    _, table = lorenz
    ds = data.normalize(workloads.LORENZ_NAMES, table)
    states, controls = data.split_controls(ds, 1)
    fitted = model.fit(model.ModelConfig(epochs=1), states[:200], controls[:200])
    original = model.evaluate
    tracer = Tracer()
    tracer.install()
    try:
        model.evaluate(fitted, states[200:400], controls[200:400])
    finally:
        tracer.uninstall()
    assert model.evaluate is original
    summary = tracer.summary(rounds=1)
    windows = (200 - 8 - 1) // 8 + 1
    assert summary["model.evaluate.calls"] == 1
    assert summary["koopman.poly_ode_coeffs.calls"] == 2 * windows
    assert summary["legendre.legendre_values.calls"] == 2 * windows
    assert summary["model.fit.calls"] == 0
    assert 0 < summary["model.evaluate.self_s"] < summary["model.evaluate.total_s"]
