import dataclasses
import gc
import json
import logging
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from scipy.linalg import lu_factor

from kooba import (ConfigError, DegenerateCoefficientsError, InputError, LorenzParams,
                   ModelConfig, NumericalError, TrainingAbortedError, cli,
                   closed_form_b, evaluate, fit, gen_lorenz, init_state, koopman,
                   load_model, normalize, predict, save_model, split_controls,
                   window_count, window_loss_grad)
from kooba.hippo import CoefficientState, project
from kooba.model import (CHUNK_ROWS, MASK_ROWS, FlightKoobaModel, _chunk_windows, _descend,
                         _epochs_per_block, _require_finite, _table_columns, build_basis,
                         normal_equations, table_build_peak)

from conftest import flight_track_dataset, realizable_series, traced_peak, whole_regression

GOLDEN = Path(__file__).parent / "data" / "golden_model.json"


def test_config_defaults_and_effective_values():
    config = ModelConfig()
    assert config.method == "legs"
    assert config.eff_stride == config.seq_len
    assert config.eff_dt_basis == pytest.approx(2.0 / config.seq_len)
    assert config.eff_omega is None
    legt = ModelConfig(method="legt", seq_len=10)
    assert legt.eff_omega == pytest.approx(10 * legt.eff_dt_basis)


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(method="wavelet")
    with pytest.raises(ConfigError):
        ModelConfig(order=0)
    with pytest.raises(ConfigError, match="32"):
        ModelConfig(order=33)
    with pytest.raises(ConfigError):
        ModelConfig(controls=0)
    with pytest.raises(ConfigError):
        ModelConfig(horizon=0)
    for name in ("epochs", "batch_size"):
        with pytest.raises(ConfigError, match=f"^{name} must be an integer from 1 to "
                                              f"9223372036854775807, got 0$"):
            ModelConfig(**{name: 0})
    with pytest.raises(ConfigError):
        ModelConfig(learning_rate=0.0)
    # 10**400 passed the old rule and then overflowed inside fit
    for value in (True, "0.1", None, -1e-3, float("nan"), float("inf"), 10**400):
        with pytest.raises(ConfigError, match=re.escape(
                f"learning_rate must be a positive finite number, got {value!r}") + "$"):
            ModelConfig(learning_rate=value)
    with pytest.raises(ConfigError):
        ModelConfig(stride=0)
    with pytest.raises(ConfigError,
                       match="^seed must be an integer from 0 to 9223372036854775807, got -1$"):
        ModelConfig(seed=-1)


@pytest.mark.parametrize("name, value", [("order", 6.5), ("seq_len", 8.0), ("epochs", "50"),
                                         ("batch_size", True), ("stride", 4.0),
                                         ("seed", None)])
def test_config_integer_fields_reject_other_types(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be an integer"):
        ModelConfig(**{name: value})


ORDER_RULE = ("order must be an integer from 1 to 32, got {!r} (order 0 has no lifted state, "
              "and beyond 32 the factorial rescaling is not exact in double precision)")
LEAST = {"controls": 1, "seq_len": 1, "horizon": 1, "epochs": 1, "batch_size": 1,
         "stride": 1, "seed": 0}


@pytest.mark.parametrize("entry, name, value", [
    *[("config", name, value) for name in ("order", *LEAST)
      for value in (True, 8.0, LEAST.get(name, 1) - 1, 2**63)],
    ("model-file", "skipped_windows", 2**63),
    ("report", "seed", 2**63)])
def test_integer_rule(entry, name, value, tmp_path):
    # one rule, errors.check_integer over errors.is_integer, for config fields,
    # model files and reports; order's bounds are koopman.check_order's
    text = (f"{name} must be an integer from {LEAST.get(name, 0)} to 9223372036854775807, "
            f"got {value!r}")
    if entry == "config":
        with pytest.raises(ConfigError) as info:
            ModelConfig(**{name: value})
        assert str(info.value) == (ORDER_RULE.format(value) if name == "order" else text)
    elif entry == "model-file":
        path = tmp_path / "model.json"
        save_model(FlightKoobaModel(config=ModelConfig(), b=np.zeros((1, 1))), path)
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, name: value}))
        with pytest.raises(ConfigError) as info:
            load_model(path)
        assert str(info.value) == f"model file {path}: {text}"
    else:
        report = {**cli._report("bench", ModelConfig(), rows=[]), name: value}
        assert cli.validate_report(report) == [f"{name}: expected int, got {value!r}"]


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(12)
    alpha = rng.normal(size=6)
    G = rng.normal(size=(6, 3))
    y = rng.normal(size=6)
    b = rng.normal(size=3)
    _, grad = window_loss_grad(alpha, G, y, b)
    eps = 1e-6
    fd = np.empty(3)
    for j in range(3):
        up, down = b.copy(), b.copy()
        up[j] += eps
        down[j] -= eps
        fd[j] = (window_loss_grad(alpha, G, y, up)[0]
                 - window_loss_grad(alpha, G, y, down)[0]) / (2 * eps)
    np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)


def test_closed_form_recovers_planted_weights(realizable_fixture):
    config, states, controls, b_star = realizable_fixture
    result = closed_form_b(config, states, controls)
    np.testing.assert_allclose(result.b[0], b_star, atol=1e-8)
    assert result.rank_deficient == [False]


def test_gradient_descent_reaches_the_oracle(realizable_fixture):
    config, states, controls, b_star = realizable_fixture
    oracle = closed_form_b(config, states, controls).b
    model = fit(config, states, controls)
    rel = np.linalg.norm(model.b - oracle) / np.linalg.norm(oracle)
    assert rel < 1e-3
    assert model.loss_history[-1] < model.loss_history[0] * 1e-3
    assert model.parameter_count == 2


def test_closed_form_zero_weights_with_zero_effect(realizable_fixture):
    config, _, _, _ = realizable_fixture
    states, controls = realizable_series(config, np.zeros(2), n_windows=30, seed=4)
    result = closed_form_b(config, states, controls)
    np.testing.assert_allclose(result.b, 0.0, atol=1e-9)


def test_closed_form_flags_rank_deficiency():
    config = ModelConfig(order=3, seq_len=8, horizon=2, controls=2, epochs=2)
    t = np.arange(120, dtype=float)
    states = (1.5 + np.sin(2 * np.pi * t / 13))[:, None]
    u = np.cos(2 * np.pi * t / 17)
    controls = np.column_stack([u, u])  # duplicated channel
    result = closed_form_b(config, states, controls)
    assert result.rank_deficient == [True]


def test_fit_is_deterministic(realizable_fixture):
    config, states, controls, _ = realizable_fixture
    m1 = fit(config, states, controls)
    m2 = fit(config, states, controls)
    np.testing.assert_array_equal(m1.b, m2.b)
    assert m1.loss_history == m2.loss_history


def test_fit_skips_degenerate_windows():
    # zero histories project to zero coefficients, which have no leading term
    config = ModelConfig(order=4, seq_len=8, horizon=4, stride=12, controls=1,
                         epochs=3)
    t = np.arange(72, dtype=float)
    states = np.where(t < 24, 0.0, 1.5 + np.sin(2 * np.pi * t / 9))[:, None]
    controls = np.cos(2 * np.pi * t / 15)[:, None]
    model = fit(config, states, controls)
    assert model.skipped_windows == 2
    assert len(model.loss_history) == config.epochs
    assert np.all(np.isfinite(model.b))


def test_fit_with_no_usable_windows():
    # zero histories have no leading coefficient: all 4 windows are skipped
    config = ModelConfig(order=3, seq_len=8, horizon=2, epochs=4)
    states = np.zeros((40, 1))
    controls = np.ones((40, 1))
    with pytest.raises(InputError, match=r"no usable training windows \(4 skipped\)"):
        fit(config, states, controls)
    # a series too short for one window has none to skip
    with pytest.raises(InputError, match=r"no usable training windows \(0 skipped\)"):
        fit(config, states[:9], controls[:9])


def test_evaluate_and_oracle_with_no_usable_windows():
    config = ModelConfig(order=3, seq_len=8, horizon=2)
    states = np.zeros((40, 1))
    controls = np.ones((40, 1))
    with pytest.raises(InputError, match=r"no usable training windows \(4 skipped\)"):
        closed_form_b(config, states, controls)
    model = FlightKoobaModel(config=config, b=np.zeros((1, 1)))
    with pytest.raises(InputError, match=r"no usable evaluation windows \(4 skipped\)"):
        evaluate(model, states, controls)


def test_evaluate_checks_the_feature_count_first():
    # a 2-feature model on 1-feature rows names the mismatch, also when no
    # window of those rows would be usable
    config = ModelConfig(order=3, seq_len=8, horizon=2)
    model = FlightKoobaModel(config=config, b=np.zeros((2, 1)))
    t = np.arange(40, dtype=float)
    controls = np.ones((40, 1))
    for states in (np.sin(t / 3)[:, None], np.zeros((40, 1))):
        with pytest.raises(InputError, match="model was trained on 2 features, got 1"):
            evaluate(model, states, controls)


def test_fit_input_checks():
    config = ModelConfig(order=3, seq_len=8, horizon=2, controls=2)
    with pytest.raises(InputError):
        fit(config, np.zeros((40, 1)), np.zeros((39, 2)))
    with pytest.raises(InputError):
        fit(config, np.zeros((5, 1)), np.zeros((5, 2)))
    with pytest.raises(InputError):
        fit(config, np.zeros((40, 1)), np.zeros((40, 1)))
    with pytest.raises(InputError, match=r"states must be a \(time, features\) matrix, "
                                         r"got shape \(40, 1, 1\)"):
        fit(config, np.zeros((40, 1, 1)), np.zeros((40, 2)))


def _gate_rows(case):
    """A 3,000-row, two-feature, one-control series spoiled as case says, and
    the text every entry point must raise on it."""
    t = np.arange(3000.0)
    states, controls = np.column_stack([np.sin(t / 9), np.cos(t / 13)]), np.sin(t / 7)[:, None]
    if case == "nan-at-row-10":
        states[10, 0] = np.nan
        return states, controls, "states column 0 holds the non-finite value nan at row 10"
    if case == "nan-past-the-first-chunk":
        states[2000, 1] = np.nan
        return states, controls, "states column 1 holds the non-finite value nan at row 2000"
    if case == "wrong-control-width":
        return (states, np.column_stack([controls, controls]),
                "controls has 2 columns, config expects 1")
    if case == "no-state-column":
        return states[:, :0], controls, "state matrix has no feature columns"
    return states[:5], controls[:5], "no usable {split} windows (0 skipped)"


@pytest.mark.parametrize("case", ["nan-at-row-10", "nan-past-the-first-chunk",
                                  "wrong-control-width", "no-state-column", "five-rows"])
def test_every_entry_point_rejects_what_the_gate_rejects(case, caplog):
    # the rows pass one gate, so each entry point raises the same text; the
    # memory estimate included, though it rolls out the first chunk only
    states, controls, message = _gate_rows(case)
    config = ModelConfig()
    model = FlightKoobaModel(config=config, b=np.zeros((2, 1)))
    for call, first, split in ((fit, config, "training"), (normal_equations, config, "training"),
                               (evaluate, model, "evaluation"),
                               (closed_form_b, config, "training"),
                               (table_build_peak, config, "training")):
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            with pytest.raises(InputError) as info:
                call(first, states, controls)
        assert str(info.value) == message.format(split=split), call.__name__
        assert caplog.text.count("too short") == (case == "five-rows"), call.__name__
        assert not tracemalloc.is_tracing()


@pytest.mark.parametrize("case, text", [
    ("two-columns", "{name} has 2 columns, config expects 1"),
    ("three-axes", "{name} must be a (time, features) matrix, got shape (3000, 1, 1)"),
    ("inf-at-row-7", "{name} column 0 holds the non-finite value inf at row 7")],
    ids=["two-columns", "three-axes", "inf-at-row-7"])
def test_control_rule(case, text):
    # one check (_control_matrix) for the gate's controls and predict's u_future
    t = np.arange(3000.0)
    states, controls = np.column_stack([np.sin(t / 9), np.cos(t / 13)]), np.sin(t / 7)[:, None]
    if case == "two-columns":
        controls = np.column_stack([controls, controls])
    elif case == "three-axes":
        controls = controls[..., None]
    else:
        controls[7, 0] = np.inf
    config = ModelConfig()
    model = FlightKoobaModel(config=config, b=np.zeros((2, 1)))
    for call, first in ((fit, config), (normal_equations, config), (evaluate, model),
                        (closed_form_b, config), (table_build_peak, config)):
        with pytest.raises(InputError) as info:
            call(first, states, controls)
        assert str(info.value) == text.format(name="controls"), call.__name__
    with pytest.raises(InputError) as info:
        predict(model, init_state(config.order), controls)
    assert str(info.value) == text.format(name="u_future")


@pytest.mark.parametrize("seq_len", [2**62, 50_000])
def test_no_window_fails_before_anything_is_sized(seq_len, lorenz_train, caplog):
    # the gate raises before the kernel or an empty window array is shaped by
    # seq_len; 2**62 used to end in numpy's "array is too big"
    states, controls = lorenz_train
    tracemalloc.start()
    try:
        with caplog.at_level(logging.WARNING):
            with pytest.raises(InputError) as info:
                fit(ModelConfig(seq_len=seq_len), states, controls)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == "no usable training windows (0 skipped)"
    assert caplog.text.count("too short") == 1
    assert peak < 100_000


def test_predict_is_affine_in_weights(realizable_fixture):
    config, states, controls, _ = realizable_fixture
    basis = build_basis(config)
    state = project(basis, states[:8, 0])
    u_future = controls[8:12]

    def forecast(b):
        model = FlightKoobaModel(config=config, b=np.asarray([b], dtype=float))
        return predict(model, state, u_future)

    alpha = forecast([0.0, 0.0])
    g0 = forecast([1.0, 0.0]) - alpha
    g1 = forecast([0.0, 1.0]) - alpha
    combined = forecast([0.7, -0.3])
    np.testing.assert_allclose(combined, alpha + 0.7 * g0 - 0.3 * g1, atol=1e-10)


def test_predict_edge_cases():
    config = ModelConfig(order=3, seq_len=8, horizon=2)
    model = FlightKoobaModel(config=config, b=np.zeros((1, 1)))
    basis = build_basis(config)
    state = project(basis, 1.0 + np.sin(np.arange(8.0)))
    assert predict(model, state, np.empty((0, 1))).size == 0
    # zero weights: the forecast ignores the control values
    out1 = predict(model, state, np.ones((3, 1)))
    out2 = predict(model, state, -5.0 * np.ones((3, 1)))
    np.testing.assert_allclose(out1, out2)
    with pytest.raises(InputError):
        predict(model, state, np.ones((3, 2)))
    with pytest.raises(InputError):
        predict(model, state, np.ones((3, 1)), feature=1)
    for feature in (0.5, True, np.float64(0.0), np.bool_(False)):
        with pytest.raises(InputError, match="feature must be an integer index"):
            predict(model, state, np.ones((3, 1)), feature=feature)
    np.testing.assert_array_equal(predict(model, state, np.ones((3, 1)), feature=np.int64(0)),
                                  out1)
    # zero coefficients have no leading term: no companion system
    with pytest.raises(DegenerateCoefficientsError):
        predict(model, CoefficientState(c=np.zeros(4)), np.ones((3, 1)))
    # a stack of coefficient vectors is not one state
    with pytest.raises(InputError, match="one coefficient vector"):
        predict(model, CoefficientState(c=np.stack([state.c, state.c])), np.ones((3, 1)))
    # one control column per step: a third axis is not a stack of forecasts
    shape = r"u_future must be a \(time, features\) matrix, got shape \(4, 1, 1\)"
    with pytest.raises(InputError, match=shape):
        predict(model, state, np.ones((4, 1, 1)))
    for value in (np.nan, np.inf):
        with pytest.raises(InputError,
                           match=f"u_future column 0 holds the non-finite value {value} at row 1$"):
            predict(model, state, [[1.0], [value]])
    # fit and load_model never give NaN weights, but a model built by hand can
    with pytest.raises(NumericalError, match="non-finite forecast"):
        predict(FlightKoobaModel(config=config, b=np.full((1, 1), np.nan)), state,
                np.ones((3, 1)))
    # a non-finite coefficient state is an input fault, named by its entry
    for entry, value in ((2, np.nan), (0, -np.inf)):
        c = state.c.copy()
        c[entry] = value
        with pytest.raises(InputError, match=f"non-finite value {value} at entry {entry}$"):
            predict(model, CoefficientState(c=c), np.ones((3, 1)))
    # an empty horizon gives no forecast only after every other check
    empty = np.empty((0, 1))
    with pytest.raises(InputError, match="feature index 7 out of range"):
        predict(model, CoefficientState(c=[np.nan] * 4), empty, feature=7)
    with pytest.raises(InputError, match="^u_future has 3 columns, config expects 1$"):
        predict(model, CoefficientState(c=np.ones(9)), np.empty((0, 3)), feature=True)
    with pytest.raises(InputError, match="feature must be an integer index"):
        predict(model, state, empty, feature=True)
    with pytest.raises(InputError, match="a model of order 3 needs 4 coefficients"):
        predict(model, CoefficientState(c=np.ones(9)), empty)
    with pytest.raises(InputError, match="non-finite value nan at entry 0$"):
        predict(model, CoefficientState(c=[np.nan] * 4), empty)


@pytest.mark.parametrize("length", [4, 9])
def test_predict_rejects_a_state_of_the_wrong_length(length):
    model = FlightKoobaModel(config=ModelConfig(), b=np.zeros((1, 1)))
    with pytest.raises(InputError, match=f"shape \\({length},\\); a model of order 6 "
                                         f"needs 7 coefficients"):
        predict(model, CoefficientState(c=np.linspace(1.0, 2.0, length)), np.ones((3, 1)))


def test_evaluate_reports_per_feature_scores(realizable_fixture):
    config, states, controls, _ = realizable_fixture
    model = fit(config, states, controls)
    scores = evaluate(model, states, controls)
    assert scores["windows"] == 40
    assert scores["skipped_windows"] == 0
    assert scores["mean"] == pytest.approx(scores["per_feature"][0])
    assert scores["mean"] < 1e-6  # realizable series, converged weights
    with pytest.raises(InputError):
        evaluate(model, np.column_stack([states, states]),
                 np.column_stack([controls, controls[:, :0]]))


def test_save_load_round_trip(tmp_path, realizable_fixture):
    config, states, controls, _ = realizable_fixture
    model = fit(config, states, controls)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.config == model.config
    written = json.loads(path.read_text(encoding="utf-8"))["config"]
    removed = {"momentum", "teacher_forcing", "extended_order", "s0", "dt_system", "omega",
               "dt_basis"}
    assert not removed & set(written)
    np.testing.assert_array_equal(loaded.b, model.b)
    assert loaded.loss_history == model.loss_history
    assert loaded.skipped_windows == model.skipped_windows
    # loaded model forecasts identically
    basis = build_basis(config)
    state = project(basis, states[:8, 0])
    np.testing.assert_array_equal(predict(loaded, state, controls[8:12]),
                                  predict(model, state, controls[8:12]))


def test_load_model_diagnostics(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_model(bad)
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"format": 99, "config": {}, "b": []}', encoding="utf-8")
    with pytest.raises(ConfigError, match="format version"):
        load_model(wrong)
    missing = tmp_path / "missing.json"
    missing.write_text('{"format": 1, "config": {"order": 3}}', encoding="utf-8")
    with pytest.raises(ConfigError, match="missing fields"):
        load_model(missing)


def test_golden_model_file_still_loads():
    # frozen artifact guards the on-disk format against silent drift
    model = load_model(GOLDEN)
    assert model.config.order == 3
    assert model.config.seq_len == 8
    assert model.config.horizon == 2
    assert model.n_features == 2
    assert model.parameter_count == 2
    np.testing.assert_array_equal(model.b, [[0.00026149942727153326],
                                            [0.006152454077944911]])
    assert len(model.loss_history) == 4
    assert model.loss_history[0] == pytest.approx(0.30921759955595224)
    assert model.skipped_windows == 0


@pytest.mark.parametrize("key, value", [("momentum", 0.6), ("teacher_forcing", True),
                                        ("s0", 0.5), ("dt_system", 0.1), ("omega", 4.0),
                                        ("dt_basis", 0.3), ("s0", True), ("momentum", False),
                                        ("teacher_forcing", 0)])
def test_model_file_setting_a_removed_option_is_rejected(tmp_path, key, value):
    # the golden file holds every removed option at its old default and loads;
    # any other value, or the default's value of another JSON type, names the
    # option and fails like any bad config (exit 2)
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    doc["config"][key] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError, match=f"sets {key} = {value!r}"):
        load_model(path)
    rc = cli.main(["eval", "--model", str(path), "--dataset", "lorenz",
                   "--out", str(tmp_path / "ev")])
    assert rc == cli.EXIT_CONFIG
    assert not (tmp_path / "ev").exists()


@pytest.mark.parametrize("config, named", [
    ({"foo": 1}, "unexpected keyword argument 'foo'"),
    ([3], "'list' object is not a mapping"),
    ("legs", "'str' object is not a mapping")])
def test_model_file_with_an_unknown_or_non_object_config_says_so(tmp_path, config, named):
    # neither fault is a missing field, and each fails like any bad config (exit 2)
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    doc["config"] = {**doc["config"], **config} if isinstance(config, dict) else config
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown field or non-object config") as err:
        load_model(path)
    assert named in str(err.value)
    assert "missing fields" not in str(err.value)
    rc = cli.main(["eval", "--model", str(path), "--dataset", "lorenz",
                   "--out", str(tmp_path / "ev")])
    assert rc == cli.EXIT_CONFIG


def test_ragged_weights_are_rejected(tmp_path):
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    doc["b"] = [[0.1], [0.2, 0.3]]
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError, match=f"{path}: b is not a numeric matrix"):
        load_model(path)
    rc = cli.main(["eval", "--model", str(path), "--dataset", "lorenz",
                   "--out", str(tmp_path / "ev")])
    assert rc == cli.EXIT_CONFIG
    assert not (tmp_path / "ev").exists()


@pytest.mark.parametrize("section, key, value", [
    (None, "loss_history", [0.3, "fast"]), (None, "skipped_windows", "many"),
    (None, "b", [[0.1, 0.2], [0.3, 0.4]]), (None, "b", [[float("nan")], [0.1]]),
    ("config", "learning_rate", True), ("config", "learning_rate", "0.1"),
    (None, "format", True), (None, "format", 1.0),
    (None, "skipped_windows", "3"), (None, "skipped_windows", 2.9),
    (None, "skipped_windows", True), (None, "skipped_windows", -4),
    (None, "loss_history", "12"), (None, "loss_history", [0.3, float("nan")]),
    (None, "b", [["0.5"], [0.1]]), (None, "b", [[True], [0.1]]), (None, "b", [[10**400], [0.1]]),
], ids=["loss-text", "skipped-text", "b-columns", "b-nan", "lr-true", "lr-text",
        "format-true", "format-float", "skipped-digit-text", "skipped-fraction",
        "skipped-true", "skipped-negative", "loss-digit-text", "loss-nan", "b-cell-text",
        "b-cell-true", "b-cell-beyond-float"])
def test_malformed_model_file_exits_2(tmp_path, capsys, section, key, value):
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    (doc[section] if section else doc)[key] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc = cli.main(["eval", "--model", str(path), "--dataset", "lorenz",
                   "--out", str(tmp_path / "ev")])
    assert rc == cli.EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not (tmp_path / "ev").exists()


def test_non_finite_score_raises_naming_the_features(lorenz_train):
    states, controls = lorenz_train
    model = FlightKoobaModel(config=ModelConfig(), b=np.array([[1e300], [0.0]]))
    with pytest.raises(NumericalError, match=r"^non-finite MSE for feature\(s\) \[0\]$"):
        evaluate(model, states, controls)


def test_non_finite_score_exits_3(tmp_path, capsys):
    # b is finite, so the file loads; its score is not, and no report is written
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    doc["b"] = [[1e300], [1e300]]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc = cli.main(["eval", "--model", str(path), "--dataset", "lorenz",
                   "--out", str(tmp_path / "ev")])
    assert rc == cli.EXIT_TRAINING
    assert capsys.readouterr().err == "error: non-finite MSE for feature(s) [0, 1]\n"
    assert not (tmp_path / "ev").exists()


def test_fit_ignores_cold_state_reuse(realizable_fixture):
    # projecting each window starts from a fresh zero state by construction
    config, states, controls, _ = realizable_fixture
    basis = build_basis(config)
    cold = project(basis, states[:8, 0])
    warm = project(basis, states[:8, 0], state=init_state(config.order))
    np.testing.assert_array_equal(cold.c, warm.c)


# ---- chunked rollout against the reference step API -------------------------

def _smooth_series(n_rows, n_feat, n_ctrl, seed):
    rng = np.random.default_rng(seed)
    t = np.arange(n_rows, dtype=float)
    cols = [0.5 + 0.4 * np.sin(2 * np.pi * t / rng.uniform(9, 31) + rng.uniform(0, 6))
            for _ in range(n_feat + n_ctrl)]
    table = np.column_stack(cols) + 0.01 * rng.normal(size=(n_rows, n_feat + n_ctrl))
    return table[:, :n_feat], table[:, n_feat:]


def _reference_rollout(config, c, u_future, b):
    """Forecasts from one coefficient state by propagate/readout steps."""
    a = koopman.poly_ode_coeffs(c)
    system = koopman.build_system(a, b, config.eff_dt_basis)
    state = koopman.lift_initial_state(config.order)
    out = []
    for u in u_future:
        state = koopman.propagate(system, state, u)
        out.append(koopman.readout(system, state))
    return np.array(out)


def _reference_pieces(config, states, controls):
    """alpha, G, y per window and feature from hippo.project and the step API,
    and the windows' start rows: a window with an undefined system is left out."""
    basis = build_basis(config)
    L, h, m = config.seq_len, config.horizon, config.controls
    alpha, G, y, starts = [], [], [], []
    for start in range(0, states.shape[0] - L - h + 1, config.eff_stride):
        a_w = np.empty((states.shape[1], h))
        g_w = np.empty((states.shape[1], h, m))
        try:
            for f in range(states.shape[1]):
                c = project(basis, states[start:start + L, f]).c
                u = controls[start + L:start + L + h]
                a_w[f] = _reference_rollout(config, c, u, np.zeros(m))
                for j in range(m):
                    g_w[f, :, j] = _reference_rollout(config, c, u, np.eye(m)[j]) - a_w[f]
        except NumericalError:
            continue
        alpha.append(a_w)
        G.append(g_w)
        y.append(states[start + L:start + L + h].T)
        starts.append(start)
    return np.array(alpha), np.array(G), np.array(y), starts


def _rel(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def _match_step_api(config, controls):
    """A chunked rollout and predict against the step API on 70 smooth windows."""
    horizon, n_win = config.horizon, 70
    assert (n_win * 2) % CHUNK_ROWS != 0
    states, ctrl = _smooth_series(8 + horizon + 3 * (n_win - 1), 2, controls, seed=horizon)
    got_alpha, got_G, got_y, skipped = whole_regression(config, states, ctrl)
    alpha, G, y, starts = _reference_pieces(config, states, ctrl)
    assert skipped == n_win - len(starts) and len(starts) >= 20
    assert got_alpha.shape == (len(starts), 2, horizon)
    assert _rel(got_alpha, alpha) < 1e-12
    assert _rel(got_G, G) < 1e-12
    np.testing.assert_array_equal(got_y, y)

    b = np.array([[0.3, -0.2][:controls], [-0.4, 0.1][:controls]])
    model = FlightKoobaModel(config=config, b=b)
    basis = build_basis(config)
    for w in (0, len(starts) // 2, len(starts) - 1):
        s = starts[w]
        for f in range(2):
            state = project(basis, states[s:s + 8, f])
            u = ctrl[s + 8:s + 8 + horizon]
            got = predict(model, state, u, f)
            assert _rel(got, _reference_rollout(config, state.c, u, b[f])) < 1e-12
            assert _rel(got, alpha[w, f] + G[w, f] @ b[f]) < 1e-12
    return skipped


@pytest.mark.parametrize("method", ["legs", "legt"])
@pytest.mark.parametrize("horizon", [1, 2, 8])
@pytest.mark.parametrize("controls", [1, 2])
def test_chunked_rollout_and_predict_match_step_api(method, horizon, controls):
    # 70 windows x 2 features: the second chunk of rows is partial. One step
    # reads the readout row alone and two is the first horizon that builds Abar
    config = ModelConfig(method=method, order=5, horizon=horizon, stride=3,
                         controls=controls)
    assert _match_step_api(config, controls) == 0


@pytest.mark.parametrize("method", ["legs", "legt"])
@pytest.mark.parametrize("horizon", [1, 2])
@pytest.mark.parametrize("controls", [1, 2])
def test_order_12_rollout_matches_step_api(method, horizon, controls):
    # order 12 is where the readout row and the step API round furthest apart,
    # and where the pivot guard leaves out about half of these windows. Over
    # eight steps its systems, whose spectral radius is above 1, magnify the
    # rounding of either side to 1e-12 to 3e-12 of the largest entry (as they
    # did with the rollout that carried Abar at every horizon), so this stops
    # at two
    config = ModelConfig(method=method, order=12, horizon=horizon, stride=3,
                         controls=controls)
    assert _match_step_api(config, controls) > 0


def _reference_sgd(config, alpha, G, y):
    """Minibatch descent with one window_loss_grad call per window and feature."""
    n_win, n_feat = alpha.shape[:2]
    b = np.zeros((n_feat, config.controls))
    rng = np.random.default_rng(config.seed)
    history = []
    for _ in range(config.epochs):
        order = rng.permutation(n_win)
        epoch_loss = 0.0
        for lo in range(0, n_win, config.batch_size):
            batch = order[lo:lo + config.batch_size]
            grad = np.zeros_like(b)
            batch_loss = 0.0
            for w in batch:
                for f in range(n_feat):
                    loss_f, grad_f = window_loss_grad(alpha[w, f], G[w, f], y[w, f], b[f])
                    batch_loss += loss_f
                    grad[f] += grad_f
            grad /= len(batch)
            batch_loss /= len(batch) * n_feat
            b = b - config.learning_rate * grad
            epoch_loss += batch_loss * len(batch)
        history.append(epoch_loss / n_win)
    return b, np.array(history)


@pytest.fixture(scope="module", params=[1, 2])
def descent_series(request):
    """73 windows of a smooth series and their step-API pieces, per control count."""
    config = ModelConfig(order=4, horizon=2, stride=4, controls=request.param)
    states, ctrl = _smooth_series(300, 2, request.param, seed=3)
    return config, states, ctrl, _reference_pieces(config, states, ctrl)[:3]


@pytest.mark.parametrize("batch_size, epochs", [(7, 6), (100, 6), (1, 6), (2, None)],
                         ids=["ragged", "one-batch", "one-window", "blocks"])
def test_fit_matches_per_window_descent(batch_size, epochs, descent_series):
    # 73 windows: batches of 7 leave a last batch of 3, 100 makes one batch
    # (a scan with no levels), 1 makes 73 batches (seven levels); with two
    # controls the composed maps are 2x2 matrices, whose order matters.
    # Batches of 2 (a last batch of 1) run for two blocks of epochs and one
    # epoch more, so three blocks, the last one partial, whatever the
    # training budget makes a block.
    base, states, ctrl, (alpha, G, y) = descent_series
    config = dataclasses.replace(base, batch_size=batch_size, learning_rate=0.05, seed=5)
    assert alpha.shape[0] == 73
    if epochs is None:
        block = _epochs_per_block(config, 73, 2)[0]
        epochs = 2 * block + 1
        assert -(-epochs // block) >= 3 and epochs % block
    config = dataclasses.replace(config, epochs=epochs)
    b_ref, loss_ref = _reference_sgd(config, alpha, G, y)
    model = fit(config, states, ctrl)
    assert _rel(model.b, b_ref) < 1e-12
    assert _rel(np.array(model.loss_history), loss_ref) < 1e-12
    assert model.b.shape == (2, config.controls)


@pytest.mark.parametrize("row_bytes, index", [(0, np.int32), (30, np.int64)])
def test_an_epoch_gathered_in_slices_gives_the_same_bits(row_bytes, index, descent_series,
                                                         monkeypatch):
    # a training budget below one epoch's gather cuts each epoch's gather
    # into slices of whole batches: one batch each, of int32 indices, at a
    # budget of 0, and a partial last slice at 30 bytes a row. The
    # permutation and every batch's segment are those of one int64 gather,
    # so b and the loss history keep every bit
    base, states, ctrl, _ = descent_series
    config = dataclasses.replace(base, epochs=6, batch_size=7, learning_rate=0.05, seed=5)
    assert _epochs_per_block(config, 73, 2)[1:] == (11, np.int64)
    whole = fit(config, states, ctrl)
    monkeypatch.setattr(koopman, "rollout_bytes", lambda n, h, m: row_bytes)
    _, per, drawn = _epochs_per_block(config, 73, 2)
    assert per < 11 and drawn is index
    sliced = fit(config, states, ctrl)
    np.testing.assert_array_equal(sliced.b, whole.b)
    assert sliced.loss_history == whole.loss_history


def test_fit_loss_curve_meets_the_rounding_floor(realizable_fixture):
    # training works from per-window sums of squares, so near zero residual
    # the loss curve can only match the per-window one to within the rounding
    # of those sums, about 1e-16 of the first epoch's loss
    config, states, controls, _ = realizable_fixture
    kept = states.copy(), controls.copy()
    alpha, G, y, _ = whole_regression(config, states, controls)
    b_ref, loss_ref = _reference_sgd(config, alpha, G, y)
    model = fit(config, states, controls)
    assert _rel(model.b, b_ref) < 1e-12
    loss = np.array(model.loss_history)
    assert loss[-1] < 1e-12 * loss[0]
    assert np.max(np.abs(loss - loss_ref)) <= 1e-15 * loss[0]
    np.testing.assert_array_equal(states, kept[0])
    np.testing.assert_array_equal(controls, kept[1])


def test_batched_loss_is_the_mean_of_window_losses():
    rng = np.random.default_rng(8)
    alpha, y = rng.normal(size=(2, 5, 3, 4))
    G = rng.normal(size=(5, 3, 4, 2))
    b = rng.normal(size=(3, 2))
    loss, grad = window_loss_grad(alpha, G, y, b)
    pieces = [[window_loss_grad(alpha[w, f], G[w, f], y[w, f], b[f]) for f in range(3)]
              for w in range(5)]
    assert loss == pytest.approx(np.mean([[p[0] for p in row] for row in pieces]), rel=1e-14)
    np.testing.assert_allclose(grad, np.mean([[p[1] for p in row] for row in pieces], axis=0),
                               rtol=1e-13)


@pytest.fixture(scope="module")
def lorenz_ds():
    return normalize(["x", "y", "z"], gen_lorenz())


@pytest.fixture(scope="module")
def lorenz_train(lorenz_ds):
    states, controls = split_controls(lorenz_ds, 1)
    return states[:lorenz_ds.split_index], controls[:lorenz_ds.split_index]


def test_fewer_epochs_give_a_prefix_of_the_loss_history(lorenz_train):
    # fit runs its epochs in blocks; ending inside the first block, at its
    # end, one epoch after it or inside a later block changes no earlier epoch.
    # The later run's length follows the block, which the training budget sets
    states, controls = lorenz_train
    config = ModelConfig()
    block = _epochs_per_block(config, normal_equations(config, states, controls).table.shape[0],
                              states.shape[1])[0]
    later = 2 * block + 1
    assert 2 < block and later < config.epochs and later % block
    full = fit(config, states, controls).loss_history
    for k in (1, 2, block, block + 1, later):
        assert fit(dataclasses.replace(config, epochs=k), states, controls).loss_history == full[:k]


@pytest.mark.parametrize("controls, configs, series", [
    (1, [{"horizon": 1}, {"horizon": 8}], None),
    (2, [{"horizon": 1}, {"horizon": 8}], None),
    (1, [{"order": 2}], None),
    (1, [{"order": 3}], None),
    (1, [{"order": 4}], None),
    (1, [{}], 60_000),
    (1, [{"horizon": 4, "stride": 1}], None),
    (1, [{"method": "legt", "stride": 64, "epochs": 5}], "track"),
], ids=["1", "2", "order-2", "order-3", "order-4", "steps-60000", "h4-stride1",
        "track-legt-stride64"])
def test_fit_allocates_no_more_than_the_table_build(controls, configs, series, lorenz_ds):
    # the epochs must not set fit's high-water mark: a block of them takes at
    # most the bytes of the chunk temporaries that the table build frees.
    # Where one epoch's gather outgrows them (low orders, long series, many
    # windows), the gather is cut into slices of whole batches. At horizon 4,
    # stride 1 an int64 permutation of the 10,489 windows would fill them.
    # series is the Lorenz fixture (None), a Lorenz run of that many steps,
    # or a flight track in the shape kooba bench trains on: four targets,
    # one control, 219 windows
    if series == "track":
        ds = flight_track_dataset()
    else:
        ds = lorenz_ds if series is None else normalize(["x", "y", "z"],
                                                        gen_lorenz(LorenzParams(steps=series)))
    states, ctrl = split_controls(ds, controls)
    states, ctrl = states[:ds.split_index], ctrl[:ds.split_index]
    for fields in configs:
        config = ModelConfig(controls=controls, **fields)
        build = traced_peak(normal_equations, config, states, ctrl)
        assert traced_peak(fit, config, states, ctrl) <= 1.01 * build, fields


def test_fit_never_holds_the_whole_regression(lorenz_train):
    # fit reduces each chunk of windows into its table rows as the chunk is
    # rolled out, so at h = 8 its peak is below every window's alpha and G alone
    states, controls = lorenz_train
    config = ModelConfig(horizon=8)
    alpha, G, _, _ = whole_regression(config, states, controls)
    assert traced_peak(fit, config, states, controls) < alpha.nbytes + G.nbytes


def test_evaluate_never_holds_the_whole_regression(lorenz_train):
    # evaluate reduces each chunk's residual, formed in its own alpha, to
    # per-feature sums, so at h = 8 its peak is below every window's alpha
    # and G alone, and the caller's rows are left as they were
    states, controls = lorenz_train
    kept = states.copy(), controls.copy()
    config = ModelConfig(horizon=8)
    alpha, G, _, _ = whole_regression(config, states, controls)
    model = FlightKoobaModel(config=config, b=np.array([[0.02], [-0.01]]))
    assert traced_peak(evaluate, model, states, controls) < alpha.nbytes + G.nbytes
    np.testing.assert_array_equal(states, kept[0])
    np.testing.assert_array_equal(controls, kept[1])


@pytest.mark.parametrize("horizon", [1, 8])
def test_each_chunk_is_released_before_the_next(horizon):
    # the table build allocates its table up front and frees each chunk
    # before it rolls out the next, so a second chunk adds its table rows and
    # nothing else, and evaluate's peak does not grow with the chunks. Ten
    # controls make a chunk's table rows (64 windows x 221 columns, 113,152
    # bytes) large beside the few hundred bytes numpy caches between calls;
    # order 10 keeps the rollout, not G^T G, at the high-water mark
    config = ModelConfig(order=10, controls=10, horizon=horizon)
    t = np.arange(2400.0)
    states = np.column_stack([1.5 + np.sin(t / 5.3), 1.2 + np.cos(t / 7.9)])
    controls = np.column_stack([np.sin(t / (3.1 + j)) for j in range(10)])
    n = _chunk_windows(states.shape[1])

    def peak(fn, target, chunks):
        rows = (chunks * n - 1) * config.eff_stride + config.seq_len + horizon
        return traced_peak(fn, target, states[:rows], controls[:rows])

    chunk_rows = n * 8 * _table_columns(config, states.shape[1])
    grown = peak(normal_equations, config, 2) - peak(normal_equations, config, 1)
    assert grown == pytest.approx(chunk_rows, rel=0.01)
    model = FlightKoobaModel(config=config, b=np.full((2, 10), 0.01))
    one = peak(evaluate, model, 1)
    assert max(peak(evaluate, model, k) for k in (2, 4)) <= 1.01 * one


def test_table_build_peak_needs_a_usable_window(caplog):
    # with no window to trace, or when the first chunk holds every window and
    # all were skipped, the estimate raises what fit raises on the same rows
    config = ModelConfig()
    t = np.arange(5.0)
    with caplog.at_level(logging.WARNING):
        with pytest.raises(InputError, match=r"no usable training windows \(0 skipped\)$"):
            table_build_peak(config, np.column_stack([np.sin(t), np.cos(t)]), t)
    assert "series of 5 rows too short" in caplog.text
    assert "series of 1 rows" not in caplog.text
    # a flat history projects to zero coefficients: no window has a system
    with pytest.raises(InputError, match=r"no usable training windows \(4 skipped\)$"):
        table_build_peak(config, np.zeros((40, 2)), np.ones(40))
    with pytest.raises(InputError, match="state matrix has no feature columns"):
        table_build_peak(config, np.zeros((40, 0)), np.ones(40))


def test_table_build_peak_keeps_a_callers_trace(lorenz_train):
    # a caller that is tracing keeps its trace, and its own blocks (here a
    # 1 MB array) are left out of the estimate
    config = ModelConfig()
    table_build_peak(config, *lorenz_train)
    plain = table_build_peak(config, *lorenz_train)
    tracemalloc.start()
    try:
        held = np.ones(1 << 17)
        traced = table_build_peak(config, *lorenz_train)
        assert tracemalloc.is_tracing()
    finally:
        tracemalloc.stop()
    assert held.nbytes == 1 << 20
    assert abs(traced - plain) <= 0.01 * plain


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_table_build_peak_holds_the_collector_off_while_it_traces(lorenz_train, enabled):
    # a collection inside the trace empties the free lists, and the objects
    # allocated afresh then read high; at threshold 1 one would start at once
    started_while_tracing = []

    def watch(phase, info):
        if phase == "start" and tracemalloc.is_tracing():
            started_while_tracing.append(info["generation"])

    was_enabled, threshold = gc.isenabled(), gc.get_threshold()
    gc.callbacks.append(watch)
    gc.set_threshold(1)
    (gc.enable if enabled else gc.disable)()
    try:
        table_build_peak(ModelConfig(), *lorenz_train)
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
        gc.set_threshold(*threshold)
        gc.callbacks.remove(watch)
    assert started_while_tracing == []


def _descend_on_whole_regression(config, states, controls):
    """fit's result from a table of the whole regression, or its abort message."""
    alpha, G, y, skipped = whole_regression(config, states, controls)
    residual = alpha - y
    n_win = residual.shape[0]
    table = np.concatenate([(G.swapaxes(-1, -2) @ G).reshape(n_win, -1),
                            (residual[..., None, :] @ G).reshape(n_win, -1),
                            np.einsum("wfh,wfh->w", residual, residual)[:, None]], axis=1)
    try:
        b, history = _descend(config, table)
    except TrainingAbortedError as exc:
        return str(exc), skipped
    return (b.tobytes(), history), skipped


@pytest.mark.parametrize("config, aborts", [
    (ModelConfig(), False), (ModelConfig(horizon=8), False), (ModelConfig(controls=2), False),
    (ModelConfig(controls=2, horizon=8), False), (ModelConfig(order=12), False),
    (ModelConfig(horizon=8, learning_rate=1.0), True),
    (ModelConfig(controls=2, horizon=8, learning_rate=2.0), True),
], ids=["h1-m1", "h8-m1", "h1-m2", "h8-m2", "order-12", "h8-m1-abort", "h8-m2-abort"])
def test_streamed_fit_matches_descent_on_the_whole_regression(config, aborts, lorenz_ds):
    # at order 12 the 10 undefined window x feature rows fall into different
    # chunks; the abort cases compare the message
    states, ctrl = split_controls(lorenz_ds, config.controls)
    states, ctrl = states[:lorenz_ds.split_index], ctrl[:lorenz_ds.split_index]
    expected, skipped = _descend_on_whole_regression(config, states, ctrl)
    assert isinstance(expected, str) == aborts
    if aborts:
        with pytest.raises(TrainingAbortedError) as info:
            fit(config, states, ctrl)
        assert str(info.value) == expected
        return
    model = fit(config, states, ctrl)
    assert (model.b.tobytes(), model.loss_history) == expected
    assert model.skipped_windows == skipped


def test_singular_windows_are_skipped_like_the_pivoted_lu_check(lorenz_train):
    # per window and feature: the pivoted LU check of I - dt/2 A that a
    # single-window discretization used, with the same 1e-14 relative bound.
    # Each state comes from its own projection; the companions of every window
    # with a leading term are factored as one stack
    states, controls = lorenz_train
    config = ModelConfig(order=12, epochs=2)
    basis = build_basis(config)
    dt = config.eff_dt_basis
    coeffs = koopman.poly_ode_coeffs(np.array(
        [[project(basis, states[8 * w:8 * w + 8, f]).c for f in range(2)]
         for w in range(window_count(states.shape[0], 8, 1, 8))]))
    flagged = np.abs(coeffs[..., -1]) < koopman.DEGENERATE_TOL
    A, _ = koopman.build_companion(coeffs[~flagged])
    lu, _ = lu_factor(np.eye(12) - dt / 2.0 * A)
    pivots = np.abs(np.diagonal(lu, axis1=-2, axis2=-1))
    flagged[~flagged] = pivots.min(axis=-1) < 1e-14 * np.maximum(pivots.max(axis=-1), 1.0)
    assert flagged.size == 2624 and np.count_nonzero(flagged) == 10

    abar, w, ok = koopman.companion_discrete(coeffs, dt)
    np.testing.assert_array_equal(~ok, flagged)
    assert np.all(abar[flagged] == 0.0) and np.all(w[flagged] == 0.0)

    model = fit(config, states, controls)
    assert model.skipped_windows == np.count_nonzero(flagged.any(axis=1))
    assert np.all(np.isfinite(model.b))
    # the chunks keep the other windows, in order, across the chunks the
    # undefined ones fall into: one rollout of them all gives their pieces
    usable = ~flagged.any(axis=1)
    got_alpha, got_G, got_y, _ = whole_regression(config, states, controls)
    starts = 8 * np.arange(flagged.shape[0])[usable]
    np.testing.assert_array_equal(got_y, states[starts + 8][:, :, None])
    alpha, G, _ = koopman.rollout(coeffs[usable], controls[starts + 8][:, None, None, :], dt)
    assert _rel(got_alpha, alpha) < 1e-12 and _rel(got_G, G) < 1e-12
    w, f = np.argwhere(flagged)[0]
    with pytest.raises(NumericalError, match="singular"):
        predict(model, project(basis, states[8 * w:8 * w + 8, f]),
                controls[8 * w + 8:8 * w + 9], f)


@pytest.mark.parametrize("matrix, row, col, value", [
    ("controls", 16, 0, np.nan), ("states", 16, 1, np.inf), ("states", 3, 0, np.nan),
], ids=["future-control", "target", "history"])
def test_non_finite_input_is_rejected_naming_its_cell(matrix, row, col, value, lorenz_train):
    # row 16 is window 1's future control and target (and window 2's first
    # history row); row 3 is only history. Each is an input fault, not a
    # nan score or a diverged fit
    states, controls = (m.copy() for m in lorenz_train)
    {"states": states, "controls": controls}[matrix][row, col] = value
    kept = states.copy(), controls.copy()
    model = FlightKoobaModel(config=ModelConfig(), b=np.zeros((2, 1)))
    message = f"{matrix} column {col} holds the non-finite value {value} at row {row}"
    for call, args in ((fit, (ModelConfig(),)), (evaluate, (model,))):
        with pytest.raises(InputError) as info:
            call(*args, states, controls)
        assert str(info.value) == message
        np.testing.assert_array_equal(states, kept[0])
        np.testing.assert_array_equal(controls, kept[1])


def test_finiteness_check_masks_one_block_of_rows_at_a_time():
    # on a long series a whole-column mask would set the table build's peak,
    # which table_build_peak traces over one chunk of rows only; a bad cell past the
    # first block is still named by its column first, then its row
    states = np.ones((5 * MASK_ROWS, 3))[:, :2]
    assert traced_peak(_require_finite, states, "states") < 3 * MASK_ROWS
    states = states.copy()
    states[2 * MASK_ROWS + 5, 1] = np.nan
    states[3 * MASK_ROWS, 0] = np.inf
    with pytest.raises(InputError, match=f"column 0 holds the non-finite value inf at row "
                                         f"{3 * MASK_ROWS}$"):
        _require_finite(states, "states")


def test_fit_aborts_at_the_first_non_finite_batch_loss(lorenz_train):
    states, controls = lorenz_train
    kept = states.copy(), controls.copy()
    with pytest.raises(TrainingAbortedError) as info:
        fit(ModelConfig(horizon=8, learning_rate=1.0), states, controls)
    assert str(info.value) == "non-finite loss at epoch 9, window batch starting at index 960"
    np.testing.assert_array_equal(states, kept[0])
    np.testing.assert_array_equal(controls, kept[1])


def _first_abort(config, alpha, G, y):
    """fit's abort message from a plain loop, one window_loss_grad call per batch."""
    n_win = alpha.shape[0]
    b = np.zeros((alpha.shape[1], config.controls))
    rng = np.random.default_rng(config.seed)
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(n_win)
            for lo in range(0, n_win, config.batch_size):
                batch = order[lo:lo + config.batch_size]
                loss, grad = window_loss_grad(alpha[batch], G[batch], y[batch], b)
                if not np.isfinite(loss):
                    return f"non-finite loss at epoch {epoch}, window batch starting at index {lo}"
                b = b - config.learning_rate * grad
    return None


@pytest.mark.parametrize("config, later", [
    (ModelConfig(horizon=8, learning_rate=1e4), False),
    (ModelConfig(horizon=8, learning_rate=0.9, batch_size=1), False),
    (ModelConfig(horizon=8, learning_rate=0.8), False),
    (ModelConfig(horizon=8, learning_rate=0.7), False),
    (ModelConfig(learning_rate=80.0), True),
    (ModelConfig(horizon=8, learning_rate=0.7, batch_size=4), True),
], ids=["epoch-0", "one-window", "h8-lr0.8", "h8-lr0.7", "later-block", "later-block-batch-4"])
def test_fit_aborts_where_a_sequential_loop_does(config, later, lorenz_train):
    # the scan knows every batch's b at once; the first non-finite batch loss
    # it names must be the one a step-by-step loop meets first, also when
    # that is in a later block of epochs than the first
    states, controls = lorenz_train
    alpha, G, y, _ = whole_regression(config, states, controls)
    expected = _first_abort(config, alpha, G, y)
    assert expected is not None
    if later:
        epoch = int(expected.split(",")[0].rsplit(" ", 1)[1])
        assert epoch >= _epochs_per_block(config, *alpha.shape[:2])[0]
    with pytest.raises(TrainingAbortedError) as info:
        fit(config, states, controls)
    assert str(info.value) == expected
