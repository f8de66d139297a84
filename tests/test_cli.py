import argparse
import json
import logging
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import kooba
from kooba import (ConfigError, DegenerateCoefficientsError, InputError,
                   KoobaError, ModelConfig, NumericalError, TrainingAbortedError,
                   cli, fit, gen_lorenz, load_model, normalize, split_controls)
from kooba.data import save_csv
from kooba.model import _chunk_windows, normal_equations

from conftest import traced_peak


# a CSV whose last header cell is Latin-1, not UTF-8
LATIN1_CSV = b"a,b,caf\xe9\n0.1,0.2,0.3\n0.4,0.5,0.6\n0.7,0.8,0.9\n"


@pytest.fixture
def synthetic_csv(tmp_path):
    t = np.arange(300, dtype=float)
    table = np.column_stack([np.sin(2 * np.pi * t / 31),
                             np.cos(2 * np.pi * t / 17),
                             np.sin(2 * np.pi * t / 11 + 0.4)])
    path = tmp_path / "syn.csv"
    save_csv(path, ["a", "b", "u"], table)
    return path


def _train(tmp_path, synthetic_csv, out_name, extra=()):
    out = tmp_path / out_name
    rc = cli.main(["train", "--dataset", f"csv:{synthetic_csv}",
                   "--epochs", "5", "--out", str(out), *extra])
    return rc, out


def test_train_writes_artifacts(tmp_path, synthetic_csv):
    rc, out = _train(tmp_path, synthetic_csv, "out")
    assert rc == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert cli.validate_report(report) == []
    assert report["schema"] == 1
    assert report["command"] == "train"
    assert report["dataset"] == "syn"
    assert report["parameters"]["format"] == "1 / 2"
    assert report["train_time_ms"] > 0
    assert report["memory_bytes_estimate"] > 0
    assert len(report["loss_curve"]) == 5
    assert report["config"]["dt_basis_effective"] == pytest.approx(0.25)
    model = load_model(out / "model.json")
    assert model.parameter_count == 2
    lines = (out / "loss_curve.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,loss"
    assert len(lines) == 6


def test_train_is_deterministic(tmp_path, synthetic_csv):
    _, out1 = _train(tmp_path, synthetic_csv, "out1")
    _, out2 = _train(tmp_path, synthetic_csv, "out2")
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    assert json.dumps(r1["mse"]) == json.dumps(r2["mse"])
    assert json.dumps(r1["loss_curve"]) == json.dumps(r2["loss_curve"])


def test_eval_reproduces_training_score(tmp_path, synthetic_csv):
    _, out = _train(tmp_path, synthetic_csv, "out")
    report = json.loads((out / "report.json").read_text())
    rc = cli.main(["eval", "--model", str(out / "model.json"),
                   "--dataset", f"csv:{synthetic_csv}",
                   "--out", str(tmp_path / "ev")])
    assert rc == cli.EXIT_OK
    ev = json.loads((tmp_path / "ev" / "eval_report.json").read_text())
    assert cli.validate_report(ev) == []
    assert ev["command"] == "eval"
    assert ev["mse"] == report["mse"]
    assert "eval_time_ms" in ev


def test_eval_horizon_override(tmp_path, synthetic_csv):
    _, out = _train(tmp_path, synthetic_csv, "out")
    rc = cli.main(["eval", "--model", str(out / "model.json"),
                   "--dataset", f"csv:{synthetic_csv}", "--horizon", "3",
                   "--out", str(tmp_path / "ev3")])
    assert rc == cli.EXIT_OK
    ev = json.loads((tmp_path / "ev3" / "eval_report.json").read_text())
    assert ev["config"]["horizon"] == 3


def test_bench_over_several_datasets(tmp_path, synthetic_csv):
    other = tmp_path / "other" / "track.csv"
    other.parent.mkdir()
    other.write_bytes(synthetic_csv.read_bytes())
    out = tmp_path / "bench"
    rc = cli.main(["bench", "--dataset", f"csv:{synthetic_csv}",
                   "--dataset", f"csv:{other}",
                   "--epochs", "3", "--out", str(out)])
    assert rc == cli.EXIT_OK
    doc = json.loads((out / "bench_report.json").read_text())
    assert cli.validate_report(doc) == []
    assert [row["dataset"] for row in doc["rows"]] == ["syn", "track"]
    assert sorted(p.name for p in out.iterdir()) == ["bench_report.json", "syn_model.json",
                                                     "track_model.json"]


def test_bench_checks_every_spec_before_running(tmp_path, synthetic_csv, capsys):
    other = tmp_path / "other" / synthetic_csv.name
    other.parent.mkdir()
    other.write_bytes(synthetic_csv.read_bytes())
    out = tmp_path / "bench"
    for second in (f"csv:{other}", "granary"):
        rc = cli.main(["bench", "--dataset", f"csv:{synthetic_csv}", "--dataset", second,
                       "--epochs", "3", "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert not out.exists()
    assert "['syn'] repeat" in capsys.readouterr().err


def test_bench_keeps_going_after_a_bad_dataset(tmp_path, synthetic_csv):
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(LATIN1_CSV)
    out = tmp_path / "bench"
    rc = cli.main(["bench", "--dataset", "csv:does-not-exist.csv",
                   "--dataset", f"csv:{latin1}", "--dataset", f"csv:{synthetic_csv}",
                   "--epochs", "3", "--out", str(out)])
    assert rc == cli.EXIT_OK  # one dataset still succeeded
    doc = json.loads((out / "bench_report.json").read_text())
    assert cli.validate_report(doc) == []
    assert "error" in doc["rows"][0]
    assert "is not UTF-8 text" in doc["rows"][1]["error"]
    assert "error" not in doc["rows"][2]


def test_bench_all_failures_returns_error_code(tmp_path):
    rc = cli.main(["bench", "--dataset", "csv:nope.csv",
                   "--out", str(tmp_path / "b")])
    assert rc == cli.EXIT_IO


def test_exit_codes(tmp_path, synthetic_csv):
    assert cli.main(["train", "--dataset", "csv:missing.csv",
                     "--out", str(tmp_path / "a")]) == cli.EXIT_IO
    assert cli.main(["train", "--dataset", f"csv:{synthetic_csv}", "--order", "0",
                     "--out", str(tmp_path / "b")]) == cli.EXIT_CONFIG
    assert cli.main(["train", "--dataset", "granary",
                     "--out", str(tmp_path / "c")]) == cli.EXIT_CONFIG
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--dataset", f"csv:{synthetic_csv}", "--method", "dft"])
    assert exc.value.code == 2


@pytest.mark.parametrize("error, code", [
    (ConfigError, cli.EXIT_CONFIG),
    (InputError, cli.EXIT_CONFIG),
    (KoobaError, cli.EXIT_CONFIG),
    (TrainingAbortedError, cli.EXIT_TRAINING),
    (NumericalError, cli.EXIT_TRAINING),
    (DegenerateCoefficientsError, cli.EXIT_TRAINING),
    (FileNotFoundError, cli.EXIT_IO),
    (PermissionError, cli.EXIT_IO),
])
def test_exit_code_for_each_error_class(error, code):
    assert cli._exit_code_for(error("boom")) == code


def test_unexpected_errors_are_not_mapped():
    with pytest.raises(ValueError, match="boom"):
        cli._exit_code_for(ValueError("boom"))


def test_renamed_flags_reach_their_fields(tmp_path, synthetic_csv):
    out = tmp_path / "out"
    rc = cli.main(["train", "--dataset", f"csv:{synthetic_csv}", "--epochs", "2",
                   "--lr", "0.02", "--batch-size", "5",
                   "--seq-len", "10", "--stride", "3", "--out", str(out)])
    assert rc == cli.EXIT_OK
    config = json.loads((out / "report.json").read_text())["config"]
    assert config["learning_rate"] == 0.02
    assert config["batch_size"] == 5
    assert config["seq_len"] == 10
    assert config["stride"] == 3 and config["stride_effective"] == 3
    assert config["dt_basis_effective"] == pytest.approx(2.0 / 10)


def _subparsers() -> dict:
    parser = cli.build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_every_model_flag_names_a_config_field():
    # make_config reads ModelConfig's fields off the namespace, so a flag whose
    # dest is not a field would be parsed and then silently ignored
    harness = {"dataset", "out", "help"}
    for command in ("train", "bench"):
        dests = {a.dest for a in _subparsers()[command]._actions}
        assert dests == {f.name for f in fields(ModelConfig)} | harness, command


def test_readme_cli_section_names_every_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    flags = {opt for p in _subparsers().values() for a in p._actions
             for opt in a.option_strings if opt.startswith("--")}
    assert set(re.findall(r"--[a-z][a-z-]*", section)) == flags - {"--help"}


def test_failed_run_leaves_no_report(tmp_path, synthetic_csv):
    out = tmp_path / "nothing"
    rc = cli.main(["train", "--dataset", f"csv:{synthetic_csv}", "--order", "0",
                   "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    assert not out.exists()


def test_diverging_training_exits_3_with_the_abort_message(tmp_path, capsys):
    out = tmp_path / "diverged"
    rc = cli.main(["train", "--dataset", "lorenz", "--horizon", "8", "--lr", "1.0",
                   "--out", str(out)])
    assert rc == cli.EXIT_TRAINING
    assert capsys.readouterr().err == ("error: non-finite loss at epoch 9, window batch "
                                       "starting at index 960\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "bench"])
def test_config_file_flag_is_gone(tmp_path, synthetic_csv, command):
    # so are --omega and --dt: seq_len alone sets the projection's timescale
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"order": 5}', encoding="utf-8")
    for flag in (["--config", str(cfg)], ["--omega", "4"], ["--dt", "0.3"]):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--dataset", f"csv:{synthetic_csv}", *flag,
                      "--out", str(tmp_path / "o")])
        assert exc.value.code == cli.EXIT_CONFIG, flag
        assert not (tmp_path / "o").exists()


def test_corrupted_model_file(tmp_path, synthetic_csv):
    bad = tmp_path / "model.json"
    bad.write_text("{}", encoding="utf-8")
    rc = cli.main(["eval", "--model", str(bad),
                   "--dataset", f"csv:{synthetic_csv}",
                   "--out", str(tmp_path / "ev")])
    assert rc == cli.EXIT_CONFIG


@pytest.mark.parametrize("argv, code", [
    (["train", "--dataset", "csv:{dir}/latin1.csv"], cli.EXIT_CONFIG),
    (["eval", "--model", "{dir}/latin1.json", "--dataset", "lorenz"], cli.EXIT_CONFIG),
    (["train", "--dataset", "csv:{dir}/tracks"], cli.EXIT_IO),
    (["eval", "--model", "{dir}/format99.json", "--dataset", "lorenz"], cli.EXIT_CONFIG),
    (["train", "--dataset", "csv"], cli.EXIT_CONFIG),
    (["train", "--dataset", "lorenz", "--dataset", "lorenz"], cli.EXIT_CONFIG),
    (["eval", "--model", "{dir}/missing.json", "--dataset", "lorenz", "--dataset", "lorenz"],
     cli.EXIT_CONFIG),
], ids=["non-utf8-csv", "non-utf8-model", "directory-as-csv", "model-format-99",
        "bad-dataset-spec", "train-two-datasets", "eval-two-datasets"])
def test_bad_input_exits_with_its_code_and_no_traceback(tmp_path, capsys, argv, code):
    # the console entry point is sys.exit(main()), so main returning a code,
    # not raising, is what keeps a traceback off stderr
    (tmp_path / "latin1.csv").write_bytes(LATIN1_CSV)
    (tmp_path / "latin1.json").write_bytes(b'{"format": 1, "config": {"method": "l\xe9gs"}}')
    (tmp_path / "format99.json").write_text('{"format": 99, "config": {}, "b": []}',
                                            encoding="utf-8")
    (tmp_path / "tracks").mkdir()
    out = tmp_path / "o"
    rc = cli.main([arg.format(dir=tmp_path) for arg in argv] + ["--out", str(out)])
    assert rc == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flags, error", [
    (["--lr", "nan"], "learning_rate must be a positive finite number, got nan"),
    (["--seed", "-1"], "seed must be an integer from 0 to 9223372036854775807, got -1"),
    # an integer flag takes an integer from its least value up to 2**63 - 1,
    # and a window longer than the series is rejected before anything is
    # sized by it
    (["--seed", str(10**400)],
     f"seed must be an integer from 0 to 9223372036854775807, got {10**400}"),
    (["--batch-size", "9223372036854775808"],
     "batch_size must be an integer from 1 to 9223372036854775807, got 9223372036854775808"),
    (["--seq-len", "9223372036854775807"], "no usable training windows (0 skipped)"),
    (["--horizon", "9223372036854775807"], "no usable training windows (0 skipped)"),
], ids=["lr-nan", "seed-negative", "seed-10e400", "batch-size-2e63", "seq-len-max",
        "horizon-max"])
def test_invalid_model_flag_value_exits_2(tmp_path, synthetic_csv, capsys, flags, error):
    rc = cli.main(["train", "--dataset", f"csv:{synthetic_csv}", *flags,
                   "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (tmp_path / "o").exists()


def test_largest_seed_trains(tmp_path, synthetic_csv):
    rc, out = _train(tmp_path, synthetic_csv, "out", ["--seed", "9223372036854775807"])
    assert rc == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 2**63 - 1
    assert cli.validate_report(report) == []


def test_non_finite_csv_cell_exits_2(tmp_path, synthetic_csv, capsys):
    lines = synthetic_csv.read_text().splitlines()
    lines[41] = "0.5,inf,0.5"
    path = tmp_path / "inf.csv"
    path.write_text("\n".join(lines) + "\n")
    rc = cli.main(["train", "--dataset", f"csv:{path}", "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert capsys.readouterr().err == ("error: column 'b' holds the non-finite value inf "
                                       "at row 40\n")
    assert not (tmp_path / "o").exists()


def test_blank_csv_cell_exits_2(tmp_path, synthetic_csv, capsys):
    # a blank cell in a numeric column once dropped the column and trained on
    # the rest with exit 0
    lines = synthetic_csv.read_text().splitlines()
    lines[41] = lines[41].split(",")[0] + ",," + lines[41].split(",")[2]
    path = tmp_path / "blank.csv"
    path.write_text("\n".join(lines) + "\n")
    rc = cli.main(["train", "--dataset", f"csv:{path}", "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (f"error: numeric column 'b' of {path} holds the cell '' "
                                       f"on line 42, which is not a number\n")
    assert not (tmp_path / "o").exists()


def test_column_constant_over_the_train_split_exits_2(tmp_path, capsys):
    # b varies over the file, so load_csv keeps it, but not over the 7 train rows
    t = np.arange(10, dtype=float)
    path = tmp_path / "late.csv"
    save_csv(path, ["a", "b", "u"], np.column_stack([np.sin(t), np.where(t < 7, 0.0, t), np.cos(t)]))
    rc = cli.main(["train", "--dataset", f"csv:{path}", "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert capsys.readouterr().err == ("error: column 'b' is constant over the train split "
                                       "(the first 7 rows), so it cannot be scaled\n")
    assert not (tmp_path / "o").exists()


def test_train_without_a_usable_window_exits_2(tmp_path, capsys):
    # the state column is zero over every training history (rows 0-63 of the
    # 70-row train split), so every training window is skipped
    t = np.arange(100, dtype=float)
    state = np.where(t < 70, 0.0, 0.5 + 0.4 * np.sin(t))
    state[66] = 1.0
    path = tmp_path / "flat.csv"
    save_csv(path, ["a", "u"], np.column_stack([state, np.sin(t / 7)]))
    out = tmp_path / "o"
    rc = cli.main(["train", "--dataset", f"csv:{path}", "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "error: no usable training windows (8 skipped)\n"
    assert not out.exists()


def test_validate_report_catches_problems(tmp_path, synthetic_csv):
    _, out = _train(tmp_path, synthetic_csv, "out")
    report = json.loads((out / "report.json").read_text())
    report["mse"]["mean"] = "fast"
    report.pop("loss_curve")
    problems = cli.validate_report(report)
    assert any("mse.mean" in p for p in problems)
    assert any("loss_curve" in p for p in problems)
    for change, problem in [({"schema": 99}, f"schema version 99 != {cli.SCHEMA_VERSION}"),
                            ({"command": "bench", "rows": {}}, "rows: expected a list"),
                            ({"command": "bench", "rows": [3]}, "rows[0]: expected an object")]:
        assert problem in cli.validate_report({**report, **change}), change
    # one fault each, the whole problem list pinned: an absent top-level field,
    # a nested object that is not one, an absent nested field, a wrongly typed
    # list entry and an absent field of a bench row
    report = json.loads((out / "report.json").read_text())
    assert cli.main(["eval", "--model", str(out / "model.json"), "--dataset",
                     f"csv:{synthetic_csv}", "--out", str(tmp_path / "ev")]) == cli.EXIT_OK
    ev = json.loads((tmp_path / "ev" / "eval_report.json").read_text())
    row = {"dataset": "syn", "mse_mean": 0.5, "train_time_ms": 1.0,
           "memory_bytes_estimate": 10, "parameters": "1 / 2"}
    for doc, problems in [
            ({k: v for k, v in report.items() if k != "seed"}, ["missing field seed"]),
            ({**report, "mse": 3}, ["mse: expected dict, got 3"]),
            ({**report, "parameters": {"controls": 1, "format": "1 / 2"}},
             ["parameters.total: expected int, got None"]),
            ({**ev, "mse": {**ev["mse"], "per_feature": [1, "a"]}},
             ["mse.per_feature: expected list[number], got [1, 'a']"]),
            ({**report, "command": "bench", "rows": [row]},
             ["rows[0].seed: expected int, got None"]),
            # numbers follow the model-file rule: finite, and an integer within
            # the float range
            ({**report, "mse": {**report["mse"], "mean": float("nan")}},
             ["mse.mean: expected number, got nan"]),
            ({**report, "loss_curve": [0.5, float("inf")]},
             ["loss_curve: expected list[number], got [0.5, inf]"]),
            ({**report, "seed": 10**400}, [f"seed: expected int, got {10**400!r}"]),
            # a document that is not an object is one problem, not an AttributeError
            ([], ["report: expected an object, got []"]),
            ("report", ["report: expected an object, got 'report'"]),
            (None, ["report: expected an object, got None"]),
            (3, ["report: expected an object, got 3"])]:
        assert cli.validate_report(doc) == problems


@pytest.mark.parametrize("value, level", [
    ("info", logging.INFO), ("DEBUG", logging.DEBUG), ("basic_format", logging.WARNING),
    ("loud", logging.WARNING), ("20", logging.WARNING)])
def test_kooba_log_takes_level_names_only(value, level, monkeypatch, tmp_path):
    # BASIC_FORMAT is a logging attribute but no level: it reads as warning
    seen = []
    monkeypatch.setenv("KOOBA_LOG", value)
    monkeypatch.setattr(logging, "basicConfig", lambda **kw: seen.append(kw["level"]))
    assert cli.main(["train", "--dataset", "nope", "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert seen == [level]


def test_eval_rejects_model_flags(tmp_path, synthetic_csv, capsys):
    _, out = _train(tmp_path, synthetic_csv, "out")
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--model", str(out / "model.json"),
                  "--dataset", f"csv:{synthetic_csv}", "--order", "3",
                  "--method", "legt", "--epochs", "7", "--out", str(tmp_path / "ev")])
    assert exc.value.code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "--order" in err and "--method" in err and "--epochs" in err
    assert not (tmp_path / "ev").exists()


def test_train_time_is_measured_without_tracemalloc(tmp_path, synthetic_csv, monkeypatch):
    real_fit = cli.model_mod.fit
    calls = []

    def recording_fit(*args):
        calls.append(tracemalloc.is_tracing())
        return real_fit(*args)

    monkeypatch.setattr(cli.model_mod, "fit", recording_fit)
    rc, out = _train(tmp_path, synthetic_csv, "out")
    assert rc == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert calls == [False]
    assert report["memory_bytes_estimate"] > 0


def test_memory_estimate_matches_a_traced_fit(tmp_path):
    ds = normalize(["x", "y", "z"], gen_lorenz())
    states, controls = split_controls(ds, 1)
    split = ds.split_index
    for flags, config in [([], ModelConfig()),
                          (["--horizon", "8", "--stride", "4"], ModelConfig(horizon=8, stride=4))]:
        out = tmp_path / f"o{len(flags)}"
        assert cli.main(["train", "--dataset", "lorenz", *flags, "--out", str(out)]) == cli.EXIT_OK
        estimate = json.loads((out / "report.json").read_text())["memory_bytes_estimate"]
        peak = traced_peak(fit, config, states[:split], controls[:split])
        assert abs(estimate - peak) <= 0.02 * peak, flags


def flight_csv(path, controls, flat=0, rows=3000):
    """A flight-track CSV: east and north (km), altitude (m) and ground speed
    (m/s), then `controls` commanded rates. The first `flat` altitude samples
    sit on the ground, at the column's minimum, where every window projects
    to zero coefficients and has no companion system."""
    rng = np.random.default_rng(controls)
    t = np.arange(rows) * 0.25
    altitude = 5000.0 + 800.0 * np.sin(t / 90.0) + 3.0 * rng.normal(size=rows)
    altitude[:flat] = altitude.min() - 1.0
    table = np.column_stack(
        [np.cumsum(np.cos(t / 70.0)) * 0.05, np.cumsum(np.sin(t / 70.0)) * 0.05, altitude,
         200.0 + 20.0 * np.sin(t / 40.0) + 0.5 * rng.normal(size=rows)]
        + [10.0 * np.sign(np.sin(t / (30.0 + 7.0 * j))) for j in range(controls)])
    save_csv(path, ["x_km", "y_km", "alt_m", "gs_ms"] + [f"climb{j}" for j in range(controls)],
             table)
    return f"csv:{path}"


@pytest.mark.parametrize("dataset, flags", [
    ("lorenz", []),
    ("lorenz", ["--horizon", "8", "--stride", "4"]),
    ("lorenz", ["--order", "12"]),
    ("track", ["--method", "legt"]),
    ("track-2", ["--method", "legt", "--controls", "2"]),
    ("short", []),
    ("grounded", []),
], ids=["default", "h8-stride4", "order-12", "legt-track", "legt-track-2-controls",
        "shorter-than-a-chunk", "first-chunk-degenerate"])
def test_memory_estimate_matches_a_traced_table_build(dataset, flags, tmp_path, synthetic_csv):
    # table_build_peak traces the build over the first chunk's rows and adds the
    # other windows' table rows; the whole build, traced, must agree
    spec = {"lorenz": "lorenz", "short": f"csv:{synthetic_csv}"}.get(dataset) or flight_csv(
        tmp_path / "track.csv", 2 if dataset == "track-2" else 1,
        flat=300 if dataset == "grounded" else 0)
    out = tmp_path / "out"
    assert cli.main(["train", "--dataset", spec, *flags, "--epochs", "5",
                     "--out", str(out)]) == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert cli.validate_report(report) == []
    config = load_model(out / "model.json").config
    _, (states, ctrl), _ = cli.load_dataset(spec, config.controls)
    build = traced_peak(normal_equations, config, states, ctrl)
    assert abs(report["memory_bytes_estimate"] - build) <= 0.01 * build
    span = ((_chunk_windows(states.shape[1]) - 1) * config.eff_stride + config.seq_len
            + config.horizon)
    if dataset == "short":
        assert span > states.shape[0]
    if dataset == "grounded":
        # no window of the first chunk is usable, though fit found others
        with pytest.raises(InputError, match="no usable training windows"):
            normal_equations(config, states[:span], ctrl[:span])


def test_import_loads_no_scipy():
    code = ("import sys, kooba.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(kooba.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.strip() == "[]"


def test_singular_windows_do_not_abort_training(tmp_path):
    out = tmp_path / "o12"
    rc = cli.main(["train", "--dataset", "lorenz", "--order", "12", "--out", str(out)])
    assert rc == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert np.isfinite(report["mse"]["mean"])
    # the report counts the scored test split, as an eval report does; the
    # model file keeps the count of the train split
    assert report["skipped_windows"] == 10
    assert load_model(out / "model.json").skipped_windows == 8
