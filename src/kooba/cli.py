"""Benchmark harness: train, evaluate, and report over datasets.

Subcommands: train (fit + report), eval (rescore a saved model), bench
(train + eval per dataset, one consolidated table). Reports are versioned
JSON that open with schema, command, seed and config (_report); wall time
is measured around the fit call only, and the memory column
(memory_bytes_estimate) is model.table_build_peak on the train split after
fit, whose docstring states the rule it rests on. Rows reach the model
through its one gate, so every input check is the model's.

Exit codes: 0 success, 2 bad configuration or input, 3 training aborted on a
non-finite loss, a non-finite score or another numerical failure, 4 I/O
failure. KOOBA_LOG names the log level; any other value reads as warning.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

from . import hippo, model as model_mod
from .data import LorenzParams, gen_lorenz, load_csv, normalize, save_json, split_controls
from .errors import (ConfigError, KoobaError, NumericalError, TrainingAbortedError,
                     is_finite_number, is_integer)
from .model import ModelConfig

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1

# report shape, field -> kind: every document has the "report" fields and each
# command adds its own. A dict kind is the shape of a nested object ({} leaves
# its fields open); a tuple kind is a list of rows, each of the first shape, or
# of the second when the row holds an "error" (a dataset that failed)
_SCORED_FIELDS = {"dataset": "str", "config": {},
                  "mse": {"per_feature": "list[number]", "mean": "number"},
                  "parameters": {"controls": "int", "total": "int", "format": "str"},
                  "loss_curve": "list[number]", "skipped_windows": "int"}
REPORT_FIELDS = {
    "report": {"schema": "int", "command": "str", "seed": "int"},
    "train": {**_SCORED_FIELDS, "train_time_ms": "positive_number",
              "memory_bytes_estimate": "positive_int"},
    "eval": {**_SCORED_FIELDS, "eval_time_ms": "positive_number"},
    "bench": {"rows": ({"dataset": "str", "mse_mean": "number",
                        "train_time_ms": "positive_number", "memory_bytes_estimate": "positive_int",
                        "parameters": "str", "seed": "int"},
                       {"dataset": "str", "error": "str"})},
}


# numbers and integers follow the model-file rules (is_finite_number, is_integer)
_KINDS = {
    "int": is_integer,
    "str": lambda v: isinstance(v, str),
    "number": is_finite_number,
    "positive_number": lambda v: is_finite_number(v) and v > 0,
    "positive_int": lambda v: is_integer(v) and v > 0,
    "list[number]": lambda v: isinstance(v, list) and all(map(is_finite_number, v)),
}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRAINING = 3
EXIT_IO = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kooba",
                                     description="forecasting benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, multi_dataset: bool,
                   model_flags: bool = True) -> None:
        p.add_argument("--dataset", action="append", required=True,
                       metavar="lorenz|csv:PATH",
                       help="dataset spec" + ("; repeat for several" if multi_dataset else ""))
        p.add_argument("--horizon", type=int)
        p.add_argument("--out", default="kooba-out", help="output directory")
        if not model_flags:
            return
        # each model flag's dest is the ModelConfig field it sets (make_config)
        p.add_argument("--method", choices=hippo.METHODS)
        p.add_argument("--order", type=int)
        p.add_argument("--controls", type=int)
        p.add_argument("--seq-len", dest="seq_len", type=int)
        p.add_argument("--epochs", type=int)
        p.add_argument("--lr", dest="learning_rate", type=float)
        p.add_argument("--batch-size", dest="batch_size", type=int)
        p.add_argument("--stride", type=int)
        p.add_argument("--seed", type=int)

    p_train = sub.add_parser("train", help="fit a model and write report + model file")
    add_common(p_train, multi_dataset=False)

    # eval rescores the saved config: any model flag but --horizon is an error
    p_eval = sub.add_parser("eval", help="rescore a saved model on a dataset")
    add_common(p_eval, multi_dataset=False, model_flags=False)
    p_eval.add_argument("--model", required=True, help="saved model file")

    p_bench = sub.add_parser("bench", help="train + eval per dataset, one table")
    add_common(p_bench, multi_dataset=True)
    return parser


def make_config(ns: argparse.Namespace) -> ModelConfig:
    """ModelConfig defaults, overridden by the model flags that were given."""
    return ModelConfig(**{f.name: v for f in fields(ModelConfig)
                          if (v := getattr(ns, f.name, None)) is not None})


def dataset_tag(spec: str) -> str:
    """Name of a dataset spec in reports and bench model files: 'lorenz' or the CSV stem."""
    if spec == "lorenz":
        return spec
    if spec.startswith("csv:"):
        return Path(spec[4:]).stem
    raise ConfigError(f"unknown dataset spec {spec!r}; expected 'lorenz' or 'csv:PATH'")


def load_dataset(spec: str, controls: int) -> tuple[str, tuple, tuple]:
    """Tag and normalized train and test (states, controls) pairs of a dataset spec."""
    tag = dataset_tag(spec)
    if spec == "lorenz":
        names, table = ["x", "y", "z"], gen_lorenz(LorenzParams())
    else:
        names, table = load_csv(spec[4:])
    dataset = normalize(names, table)
    states, ctrl = split_controls(dataset, controls)
    k = dataset.split_index
    return tag, (states[:k], ctrl[:k]), (states[k:], ctrl[k:])


def run_dataset(config: ModelConfig, spec: str) -> tuple[dict, model_mod.FlightKoobaModel]:
    """Train once, evaluate on the test split, and shape the report."""
    tag, train, test = load_dataset(spec, config.controls)
    t0 = time.perf_counter()
    fitted = model_mod.fit(config, *train)
    train_ms = (time.perf_counter() - t0) * 1e3
    scores = model_mod.evaluate(fitted, *test)
    return _scored_report("train", tag, config, fitted, scores, train_time_ms=train_ms,
                          memory_bytes_estimate=model_mod.table_build_peak(config, *train)), fitted


def _report(command: str, config: ModelConfig, **fields) -> dict:
    """A report document: the schema, command, seed and config header, then fields."""
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "seed": config.seed,
        "config": {**asdict(config), "omega_effective": config.eff_omega,
                   "dt_basis_effective": config.eff_dt_basis,
                   "stride_effective": config.eff_stride},
        **fields,
    }


def _scored_report(command: str, tag: str, config: ModelConfig,
                   fitted: model_mod.FlightKoobaModel, scores: dict, **own) -> dict:
    """A train or eval report, own fields last; scores is evaluate() on the test split."""
    m = config.controls
    total = fitted.parameter_count
    return _report(command, config, dataset=tag,
                   mse={"per_feature": scores["per_feature"], "mean": scores["mean"]},
                   parameters={"controls": m, "total": total, "format": f"{m} / {total}"},
                   loss_curve=[float(v) for v in fitted.loss_history],
                   skipped_windows=scores["skipped_windows"], **own)


def _write_loss_csv(path: Path, losses: list[float]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss"])
        for i, v in enumerate(losses):
            writer.writerow([i, repr(float(v))])


def cmd_train(ns: argparse.Namespace) -> int:
    config = make_config(ns)
    if len(ns.dataset) != 1:
        raise ConfigError("train takes exactly one --dataset")
    report, fitted = run_dataset(config, ns.dataset[0])
    out = Path(ns.out)
    out.mkdir(parents=True, exist_ok=True)
    model_mod.save_model(fitted, out / "model.json")
    save_json(out / "report.json", report)
    _write_loss_csv(out / "loss_curve.csv", report["loss_curve"])
    print(f"train {report['dataset']}: mean test MSE {report['mse']['mean']:.6g}, "
          f"{report['train_time_ms']:.1f} ms, parameters {report['parameters']['format']}")
    return EXIT_OK


def cmd_eval(ns: argparse.Namespace) -> int:
    if len(ns.dataset) != 1:
        raise ConfigError("eval takes exactly one --dataset")
    loaded = model_mod.load_model(ns.model)
    config = loaded.config
    if ns.horizon is not None:
        config = replace(config, horizon=ns.horizon)
        loaded = replace(loaded, config=config)
    tag, _, test = load_dataset(ns.dataset[0], config.controls)
    t0 = time.perf_counter()
    scores = model_mod.evaluate(loaded, *test)
    eval_ms = (time.perf_counter() - t0) * 1e3
    report = _scored_report("eval", tag, config, loaded, scores, eval_time_ms=eval_ms)
    out = Path(ns.out)
    out.mkdir(parents=True, exist_ok=True)
    save_json(out / "eval_report.json", report)
    print(f"eval {tag}: mean test MSE {report['mse']['mean']:.6g}")
    return EXIT_OK


def cmd_bench(ns: argparse.Namespace) -> int:
    config = make_config(ns)
    # each tag names a report row and a model file, so two specs may not share one
    tags = [dataset_tag(spec) for spec in ns.dataset]
    repeated = sorted({tag for tag in tags if tags.count(tag) > 1})
    if repeated:
        raise ConfigError(f"--dataset specs must have distinct tags; {repeated} repeat")
    rows = []
    models = {}
    last_error_code = EXIT_CONFIG
    for spec in ns.dataset:
        try:
            report, fitted = run_dataset(config, spec)
            rows.append({
                "dataset": report["dataset"],
                "mse_mean": report["mse"]["mean"],
                "train_time_ms": report["train_time_ms"],
                "memory_bytes_estimate": report["memory_bytes_estimate"],
                "parameters": report["parameters"]["format"],
                "seed": report["seed"],
            })
            models[report["dataset"]] = fitted
        except (KoobaError, OSError) as exc:
            log.error("dataset %s failed: %s", spec, exc)
            rows.append({"dataset": spec, "error": str(exc)})
            last_error_code = _exit_code_for(exc)
    out = Path(ns.out)
    out.mkdir(parents=True, exist_ok=True)
    save_json(out / "bench_report.json", _report("bench", config, rows=rows))
    for tag, fitted in models.items():
        model_mod.save_model(fitted, out / f"{tag}_model.json")
    for row in rows:
        if "error" in row:
            print(f"bench {row['dataset']}: FAILED ({row['error']})")
        else:
            print(f"bench {row['dataset']}: mean test MSE {row['mse_mean']:.6g}, "
                  f"{row['train_time_ms']:.1f} ms, parameters {row['parameters']}")
    return EXIT_OK if models else last_error_code


def validate_report(doc) -> list[str]:
    """Check a report document against REPORT_FIELDS; returns problems.

    A document that is not an object is one problem.

    An absent key of the document is a missing field; an absent key of a
    nested object or a row reads as None.
    """
    if not isinstance(doc, dict):
        return [f"report: expected an object, got {doc!r}"]
    problems: list[str] = []

    def walk(obj: dict, shape: dict, prefix: str) -> None:
        for key, kind in shape.items():
            path, value = prefix + key, obj.get(key)
            if isinstance(kind, tuple):
                if not isinstance(value, list):
                    problems.append(f"{path}: expected a list")
                    continue
                for i, row in enumerate(value):
                    if isinstance(row, dict):
                        walk(row, kind[1] if "error" in row else kind[0], f"{path}[{i}].")
                    else:
                        problems.append(f"{path}[{i}]: expected an object")
            elif not prefix and key not in obj:
                problems.append(f"missing field {key}")
            elif isinstance(kind, dict):
                if isinstance(value, dict):
                    walk(value, kind, path + ".")
                else:
                    problems.append(f"{path}: expected dict, got {value!r}")
            elif not _KINDS[kind](value):
                problems.append(f"{path}: expected {kind}, got {value!r}")

    walk(doc, REPORT_FIELDS["report"], "")
    if doc.get("schema") != SCHEMA_VERSION:
        problems.append(f"schema version {doc.get('schema')!r} != {SCHEMA_VERSION}")
    command = doc.get("command")
    if command in ("train", "eval", "bench"):
        walk(doc, REPORT_FIELDS[command], "")
    return problems


def _exit_code_for(exc: Exception) -> int:
    if isinstance(exc, (TrainingAbortedError, NumericalError)):
        return EXIT_TRAINING
    if isinstance(exc, KoobaError):
        return EXIT_CONFIG
    if isinstance(exc, OSError):
        return EXIT_IO
    raise exc


def main(argv: list[str] | None = None) -> int:
    # a level name only: getLevelName gives an int for those and a string otherwise
    level = logging.getLevelName(os.environ.get("KOOBA_LOG", "warning").upper())
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    ns = parser.parse_args(argv)
    handlers = {"train": cmd_train, "eval": cmd_eval, "bench": cmd_bench}
    try:
        return handlers[ns.command](ns)
    except (KoobaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
