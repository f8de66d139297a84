"""One round of the benchmark pipeline, and the checks on its outputs.

A round runs, for every dataset of the workload:

1. load the data (gen_lorenz, or save_csv + load_csv) and normalize it;

then GROUPS groups of

2. model.fit on the train split,
3. model.evaluate on the test split,
4. model.predict from hippo.project states, for the group's share of a seeded
   block of consecutive test windows (stride 1),
5. the workload's kooba command, in-process through cli.main.

Groups give every timed call at least GROUPS samples per round, spread across
the round: on this machine the speed drifts over tens of seconds, and only
samples spread in time give a quartile that repeats from run to run.

Every round attempts the same operations, so a run's share of failed
operations does not depend on how many rounds fit in its time.
"""

from __future__ import annotations

import math
import sys
import traceback
import tracemalloc
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from io import StringIO
from pathlib import Path
from time import perf_counter

import numpy as np

from kooba import cli, hippo, model
from kooba.errors import DegenerateCoefficientsError

import checks

GROUPS = 3                  # fit/evaluate/predict/command groups per round
FORECAST_WINDOWS = 1000     # test windows per round, all datasets together
WARMUP_ROWS = 400


@dataclass
class Forecasts:
    offset: int                 # first test row of the block; window w starts at offset + w
    coeffs: np.ndarray          # (windows, features, order + 1) from hippo.project
    preds: np.ndarray           # (windows, features, horizon) from model.predict


@dataclass
class RoundOutputs:
    datasets: list
    models: list
    evals: list
    forecasts: list


class Pipeline:
    def __init__(self, workload, seed: int, out: Path):
        self.wl = workload
        self.seed = seed
        self.out = out
        self.cmd_dir = out / "command"
        self.model_path = out / "model.json"
        self.config = model.ModelConfig(seed=seed, **workload.config)
        self.samples = {k: [] for k in ("fit_s", "score_s", "forecast_s", "command_s")}
        self.fits: list = []            # (b, loss history) of every fit on dataset 0
        self.first: RoundOutputs | None = None
        self.attempted = 0
        self.failed = 0

    def _windows(self, n_rows: int) -> int:
        c = self.config
        return (n_rows - c.seq_len - c.horizon) // c.eff_stride + 1

    def setup(self) -> None:
        """Input generation, the seeded forecast blocks, and a small warm-up."""
        self.wl.prepare(self.seed, self.out)
        datasets = self.wl.load()
        self.n_targets = [d.ds.features.shape[1] - self.config.controls for d in datasets]
        self.block_windows = math.ceil(FORECAST_WINDOWS / len(datasets))
        span = self.block_windows - 1 + self.config.seq_len + self.config.horizon
        self.offsets = []
        for i, d in enumerate(datasets):
            n_test = d.ds.features.shape[0] - d.ds.split_index
            rng = np.random.default_rng([self.seed, 2, i])
            self.offsets.append(int(rng.integers(0, n_test - span + 1)))
        per_group = 2 * len(datasets) + int(self.wl.needs_model) + 1
        self.round_ops = (len(datasets) + GROUPS * per_group
                          + self.block_windows * sum(self.n_targets))

        (tr_s, tr_u), (te_s, te_u) = datasets[0].split(self.config.controls)
        warm = model.fit(replace(self.config, epochs=1), tr_s[:WARMUP_ROWS], tr_u[:WARMUP_ROWS])
        model.evaluate(warm, te_s[:WARMUP_ROWS], te_u[:WARMUP_ROWS])
        L, h = self.config.seq_len, self.config.horizon
        c = hippo.project(model.build_basis(self.config), te_s[:L, 0])
        model.predict(warm, c, te_u[L:L + h])

    def round(self) -> None:
        """Run one round; a failure counts the rest of the round as failed."""
        self._done = 0
        try:
            self._round()
        except Exception:
            traceback.print_exc(file=sys.stderr)
        self.attempted += self.round_ops
        self.failed += self.round_ops - self._done

    def _timed(self, key: str, fn, *args):
        t0 = perf_counter()
        result = fn(*args)
        self.samples[key].append((t0, perf_counter() - t0))
        self._done += 1
        return result

    def _round(self) -> None:
        cfg = self.config
        datasets = self.wl.load()
        self._done += len(datasets)
        W = self.block_windows
        forecasts = [Forecasts(off, np.empty((W, n, cfg.order + 1)), np.empty((W, n, cfg.horizon)))
                     for off, n in zip(self.offsets, self.n_targets)]
        first = None
        for g in range(GROUPS):
            models = []
            for i, d in enumerate(datasets):
                (tr_s, tr_u), _ = d.split(cfg.controls)
                fitted = self._timed("fit_s", model.fit, cfg, tr_s, tr_u)
                if i == 0:
                    self.fits.append((fitted.b, fitted.loss_history))
                models.append(fitted)
            evals = self._evaluate(datasets, models)
            share = range(g * W // GROUPS, (g + 1) * W // GROUPS)
            self._forecast(datasets, models, forecasts, share)
            if first is None:
                first = RoundOutputs(datasets, models, evals, forecasts)
            self._command(first.models[0])
        if self.first is None:
            self.first = first

    def _command(self, fitted) -> None:
        if self.wl.needs_model:
            model.save_model(fitted, self.model_path)
            self._done += 1
        argv = self.wl.command(self.seed, self.cmd_dir, self.model_path)
        with redirect_stdout(StringIO()):
            rc = self._timed("command_s", cli.main, argv)
        if rc != cli.EXIT_OK:
            raise RuntimeError(f"kooba {' '.join(argv)} exited {rc}")

    def _evaluate(self, datasets, models) -> list[dict]:
        out = []
        for d, fitted in zip(datasets, models):
            _, (te_s, te_u) = d.split(self.config.controls)
            out.append(self._timed("score_s", model.evaluate, fitted, te_s, te_u))
        return out

    def _forecast(self, datasets, models, forecasts, windows: range) -> None:
        cfg = self.config
        L, h = cfg.seq_len, cfg.horizon
        basis = model.build_basis(cfg)
        for d, fitted, fc in zip(datasets, models, forecasts):
            _, (te_s, te_u) = d.split(cfg.controls)
            for w in windows:
                s = fc.offset + w
                u_future = te_u[s + L:s + L + h]
                for f in range(te_s.shape[1]):
                    state = hippo.project(basis, te_s[s:s + L, f])
                    fc.preds[w, f] = self._timed("forecast_s", model.predict,
                                                 fitted, state, u_future, f)
                    fc.coeffs[w, f] = state.c

    def fit_peak_bytes(self) -> int:
        """tracemalloc high-water mark of one fit on dataset 0, in an untimed pass."""
        (tr_s, tr_u), _ = self.first.datasets[0].split(self.config.controls)
        tracemalloc.start()
        try:
            fitted = model.fit(self.config, tr_s, tr_u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.fits.append((fitted.b, fitted.loss_history))
        return peak

    # ---- checks -------------------------------------------------------------
    def check(self) -> tuple[list[str], dict]:
        """Every output check; returns problems and the figures worth reporting."""
        if self.first is None:
            return ["no round completed"], {}
        first = self.first
        problems = list(self.wl.check_inputs(first.datasets))
        facts = {"test_mse": [e["mean"] for e in first.evals], "train_loss": []}
        for d, fitted, fc in zip(first.datasets, first.models, first.forecasts):
            problems += self._check_block(d, fitted, fc)
            losses, skipped = self._training_regression(d, fitted)
            if skipped != fitted.skipped_windows:
                problems.append(f"{d.tag}: predict found {skipped} degenerate training "
                                f"windows, fit skipped {fitted.skipped_windows}")
            problems += [f"{d.tag}: {p}" for p in checks.check_trained_b(losses)]
            facts["train_loss"].append(losses)
        problems += self.wl.check_command(self.cmd_dir, first, self.fits)
        problems += checks.check_same_fits(self.fits)
        return problems, facts

    def _check_block(self, d, fitted, fc: Forecasts) -> list[str]:
        cfg = self.config
        L, h, W = cfg.seq_len, cfg.horizon, self.block_windows
        _, (te_s, te_u) = d.split(cfg.controls)
        rows = slice(fc.offset, fc.offset + W - 1 + L + h)
        starts = fc.offset + np.arange(W)
        hist = np.stack([te_s[s:s + L] for s in starts])          # (W, L, F)
        targets = np.stack([te_s[s + L:s + L + h] for s in starts])
        problems = checks.check_projection(
            cfg.method, cfg.order, cfg.eff_dt_basis, cfg.eff_omega,
            hist.transpose(0, 2, 1).reshape(-1, L), fc.coeffs.reshape(-1, cfg.order + 1))
        # the block's windows are every start, so evaluate them at stride 1
        every_start = replace(fitted, config=replace(cfg, stride=1))
        scores = model.evaluate(every_start, te_s[rows], te_u[rows])
        if scores["windows"] != W:
            problems.append(f"evaluate scored {scores['windows']} block windows, expected {W}")
        problems += checks.check_evaluate(scores["per_feature"], fc.preds,
                                          targets.transpose(0, 2, 1))
        return [f"{d.tag}: {p}" for p in problems]

    def _training_regression(self, d, fitted):
        """Training loss pieces from predict at b = 0 and at unit b, every window."""
        cfg = self.config
        L, h, stride, m = cfg.seq_len, cfg.horizon, cfg.eff_stride, cfg.controls
        (tr_s, tr_u), _ = d.split(cfg.controls)
        n_feat = tr_s.shape[1]
        basis = model.build_basis(cfg)
        zero = replace(fitted, b=np.zeros_like(fitted.b))
        units = [replace(fitted, b=np.tile(np.eye(m)[j], (n_feat, 1))) for j in range(m)]
        alpha, G, y = [], [], []
        skipped = 0
        for w in range(self._windows(tr_s.shape[0])):
            s = w * stride
            u_future = tr_u[s + L:s + L + h]
            try:
                a_w, g_w = [], []
                for f in range(n_feat):
                    state = hippo.project(basis, tr_s[s:s + L, f])
                    base = model.predict(zero, state, u_future, f)
                    a_w.append(base)
                    g_w.append(np.stack([model.predict(u, state, u_future, f) - base
                                         for u in units], axis=-1))
            except DegenerateCoefficientsError:
                skipped += 1
                continue
            alpha.append(a_w)
            G.append(g_w)
            y.append(tr_s[s + L:s + L + h].T)
        return (checks.training_losses(np.array(alpha), np.array(G), np.array(y), fitted.b),
                skipped)
