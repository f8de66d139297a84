"""The benchmark's workloads: inputs made from the seed, model config, command.

Each workload runs the same pipeline (see pipeline.py); what differs is where
the data comes from, the model configuration and the kooba command at the end.

- train-lorenz: default config on the built-in Lorenz trajectory, then
  `kooba train`. The epoch loop dominates fit, the CLI's tracemalloc pass
  dominates the command.
- score-lorenz-h8: horizon 8 over half-overlapping windows and two epochs, then
  `kooba eval --horizon 8` on the model fitted in the round. Featurization and
  the 8-step rollout dominate; the epoch loop does almost nothing.
- bench-csv-legt: the legt kernel over two synthetic flight-track CSV files,
  then `kooba bench`. The only workload that touches load_csv and save_csv.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kooba import cli, data, model

import checks

LORENZ_NAMES = ["x", "y", "z"]

# flight tracks: 20,000 samples at 4 Hz (1.4 h) per file
TRACK_ROWS = 20_000
TRACK_DT = 0.25
TRACK_NAMES = ["x_km", "y_km", "alt_m", "speed_mps", "climb_cmd_mps"]
# planted columns load_csv must drop: one text, one constant
TRACK_TEXT_COLUMN = "phase"
TRACK_CONSTANT_COLUMN = "squawk"
TRACK_CONSTANT_VALUE = "7000"


@dataclass
class Dataset:
    """One loaded, normalized dataset; tag is the name the CLI reports for it."""
    tag: str
    names: list[str]
    table: np.ndarray
    ds: data.TimeSeriesDataset

    def split(self, controls: int):
        states, ctrl = data.split_controls(self.ds, controls)
        k = self.ds.split_index
        return (states[:k], ctrl[:k]), (states[k:], ctrl[k:])


@dataclass
class Workload:
    name: str
    config: dict                  # ModelConfig fields besides seed
    needs_model = False           # the command reads the model fitted in the round
    files: dict = field(default_factory=dict)

    def prepare(self, seed: int, out: Path) -> None:
        """Input generation done once per set-up (nothing for Lorenz)."""

    def load(self) -> list[Dataset]:
        raise NotImplementedError

    def command(self, seed: int, out: Path, model_path: Path) -> list[str]:
        raise NotImplementedError

    def check_inputs(self, datasets: list[Dataset]) -> list[str]:
        raise NotImplementedError

    def check_command(self, out: Path, first, fits: list) -> list[str]:
        """Check the command's report against the round's direct results.

        Appends the command's own fit of dataset 0, if it saved one, to fits.
        """
        raise NotImplementedError


def _report(path: Path) -> tuple[dict, list[str]]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    return doc, [f"{path.name}: {p}" for p in cli.validate_report(doc)]


class LorenzWorkload(Workload):
    def load(self) -> list[Dataset]:
        table = data.gen_lorenz()
        return [Dataset("lorenz", list(LORENZ_NAMES), table,
                        data.normalize(LORENZ_NAMES, table))]

    def check_inputs(self, datasets):
        p = data.LorenzParams()
        return checks.check_lorenz(datasets[0].table, p.sigma, p.rho, p.beta, p.dt, p.x0)


class TrainLorenz(LorenzWorkload):
    def command(self, seed, out, model_path):
        return ["train", "--dataset", "lorenz", "--seed", str(seed), "--out", str(out)]

    def check_command(self, out, first, fits):
        doc, problems = _report(out / "report.json")
        problems += checks.check_report_mse(doc["mse"]["per_feature"], doc["mse"]["mean"],
                                            first.evals[0], "train report")
        saved = model.load_model(out / "model.json")
        fits.append((saved.b, saved.loss_history))
        with open(out / "loss_curve.csv", encoding="utf-8") as fh:
            curve = [float(line.split(",")[1]) for line in fh.readlines()[1:]]
        if curve != saved.loss_history:
            problems.append("loss_curve.csv differs from the saved model's loss history")
        return problems + checks.check_gate6(first.evals[0]["mean"])


class ScoreLorenzH8(LorenzWorkload):
    needs_model = True

    def command(self, seed, out, model_path):
        return ["eval", "--model", str(model_path), "--dataset", "lorenz",
                "--horizon", str(self.config["horizon"]), "--out", str(out)]

    def check_command(self, out, first, fits):
        doc, problems = _report(out / "eval_report.json")
        return problems + checks.check_report_mse(
            doc["mse"]["per_feature"], doc["mse"]["mean"], first.evals[0], "eval report")


class BenchCsvLegt(Workload):
    """Track A is written with planted columns by this file; track B by save_csv."""

    def prepare(self, seed, out):
        rng = np.random.default_rng([seed, 1])
        track_a, phase_a = flight_track(rng)
        track_b, _ = flight_track(rng)
        path_a, path_b = out / "track_a.csv", out / "track_b.csv"
        write_track_csv(path_a, track_a, phase_a)
        self.files = {"a": (path_a, track_a), "b": (path_b, track_b)}

    def load(self) -> list[Dataset]:
        path_b, track_b = self.files["b"]
        data.save_csv(path_b, TRACK_NAMES, track_b)
        out = []
        for path, _ in self.files.values():
            names, table = data.load_csv(path)
            out.append(Dataset(path.stem, names, table,
                               data.normalize(names, table)))
        return out

    def command(self, seed, out, model_path):
        argv = ["bench", "--method", self.config["method"],
                "--stride", str(self.config["stride"]),
                "--epochs", str(self.config["epochs"]),
                "--seed", str(seed), "--out", str(out)]
        for path, _ in self.files.values():
            argv += ["--dataset", f"csv:{path}"]
        return argv

    def check_inputs(self, datasets):
        problems = []
        for d, (path, track) in zip(datasets, self.files.values()):
            problems += [f"{path.name}: {p}" for p in checks.check_csv(
                d.names, d.table, TRACK_NAMES, track,
                [TRACK_TEXT_COLUMN, TRACK_CONSTANT_COLUMN])]
        return problems

    def check_command(self, out, first, fits):
        doc, problems = _report(out / "bench_report.json")
        if [row["dataset"] for row in doc["rows"]] != [d.tag for d in first.datasets]:
            return problems + [f"bench rows {doc['rows']} do not match the datasets"]
        for row, d, direct in zip(doc["rows"], first.datasets, first.evals):
            problems += checks.check_report_mse(None, row["mse_mean"], direct,
                                                f"bench row {d.tag}")
        saved = model.load_model(out / f"{first.datasets[0].tag}_model.json")
        fits.append((saved.b, saved.loss_history))
        return problems


WORKLOADS = {
    w.name: w for w in (
        TrainLorenz("train-lorenz", {}),
        ScoreLorenzH8("score-lorenz-h8", {"horizon": 8, "stride": 4, "epochs": 2}),
        BenchCsvLegt("bench-csv-legt", {"method": "legt", "stride": 64, "epochs": 5}),
    )
}


def _lagged(commands: np.ndarray, lengths: np.ndarray, start: float,
            tau: float) -> np.ndarray:
    """First-order lag of a piecewise-constant command, exact per segment."""
    out = np.empty(int(lengths.sum()))
    value, pos = start, 0
    for c, n in zip(commands, lengths):
        seg = c + (value - c) * np.exp(-np.arange(1, n + 1) / tau)
        out[pos:pos + n] = seg
        value, pos = seg[-1], pos + n
    return out


def flight_track(rng: np.random.Generator, rows: int = TRACK_ROWS):
    """Synthetic ADS-B-like track and its phase labels.

    Columns follow TRACK_NAMES: position east and north (km), altitude (m),
    ground speed (m/s) and the commanded climb rate (m/s), the exogenous
    control. Commands are piecewise constant over 50-150 s segments; the
    aircraft follows them through first-order lags, and every measured
    column carries sensor noise so no window is exactly flat.
    """
    lengths = rng.integers(200, 600, size=rows // 200 + 1)
    n_seg = lengths.size
    climb_cmd = np.empty(n_seg)
    alt0 = alt = rng.uniform(3000.0, 9000.0)
    for i, n in enumerate(lengths):
        choice = rng.choice([-10.0, 0.0, 0.0, 10.0])
        if alt + choice * n * TRACK_DT > 11500.0 or alt + choice * n * TRACK_DT < 1500.0:
            choice = -choice
        climb_cmd[i] = choice
        alt += choice * n * TRACK_DT
    turn = rng.choice([-1.5, 0.0, 0.0, 1.5], size=n_seg) * np.pi / 180.0
    speed_cmd = rng.uniform(180.0, 250.0, size=n_seg)

    climb = _lagged(climb_cmd, lengths, 0.0, tau=20.0)[:rows]
    speed = _lagged(speed_cmd, lengths, speed_cmd[0], tau=120.0)[:rows]
    heading = rng.uniform(0.0, 2 * np.pi) + np.cumsum(np.repeat(turn, lengths)[:rows]) * TRACK_DT
    altitude = alt0 + np.cumsum(climb) * TRACK_DT
    x = np.cumsum(speed * np.cos(heading)) * TRACK_DT / 1000.0
    y = np.cumsum(speed * np.sin(heading)) * TRACK_DT / 1000.0
    noise = rng.normal(size=(rows, 4)) * [0.005, 0.005, 3.0, 0.5]
    table = np.column_stack([x, y, altitude, speed]) + noise
    cmd = np.repeat(climb_cmd, lengths)[:rows]
    table = np.column_stack([table, cmd])
    phase = np.where(cmd > 0, "climb", np.where(cmd < 0, "descent", "cruise"))
    return table, phase


def write_track_csv(path: Path, table: np.ndarray, phase: np.ndarray) -> None:
    """Write a track with the planted text and constant columns around it."""
    header = ([TRACK_TEXT_COLUMN] + TRACK_NAMES[:4] + [TRACK_CONSTANT_COLUMN]
              + TRACK_NAMES[4:])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for label, row in zip(phase, table.tolist()):
            writer.writerow([label] + [repr(v) for v in row[:4]]
                            + [TRACK_CONSTANT_VALUE, repr(row[4])])
