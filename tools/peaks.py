"""Print fit's traced memory and its training budget for named configs.

For each config of a fixed list it builds the config's training rows and
prints, in bytes, the tracemalloc high-water marks of fit and of
normal_equations (the table build) and the bytes of the table itself, then
the training budget fit derives from the rollout (model._epochs_per_block):
epochs per block and batches per gather. Each peak is traced after one
untraced warm-up call, as the memory guards in tests/test_model.py trace
it. Run from the repository root:

    python tools/peaks.py [NAME ...]

With no NAME every config is measured. The configs are the memory guards'
(Lorenz train split, and a 60,000-step Lorenz run) and the shapes of the
benchmark's three workloads; bench-csv-legt trains on the synthetic flight
track of tests/conftest.py, which has the shape of one of its files. The
kooba package is imported from the src directory beside this file, and
traced_peak and the track from its tests directory.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from kooba import LorenzParams, gen_lorenz, model, normalize, split_controls  # noqa: E402
from conftest import flight_track_dataset, traced_peak  # noqa: E402

# name: (ModelConfig fields, series): series is "lorenz", "lorenz60000" or "track"
CONFIGS = {
    "default": ({}, "lorenz"),
    "h8": ({"horizon": 8}, "lorenz"),
    "controls2-h1": ({"controls": 2}, "lorenz"),
    "controls2-h8": ({"controls": 2, "horizon": 8}, "lorenz"),
    "order2": ({"order": 2}, "lorenz"),
    "order3": ({"order": 3}, "lorenz"),
    "order4": ({"order": 4}, "lorenz"),
    "steps60000": ({}, "lorenz60000"),
    "h4-stride1": ({"horizon": 4, "stride": 1}, "lorenz"),
    "train-lorenz": ({}, "lorenz"),
    "score-lorenz-h8": ({"horizon": 8, "stride": 4, "epochs": 2}, "lorenz"),
    "bench-csv-legt": ({"method": "legt", "stride": 64, "epochs": 5}, "track"),
}
COLUMNS = ("fit_B", "build_B", "table_B", "epochs/block", "batches/gather")


def _dataset(series: str):
    if series == "track":
        return flight_track_dataset()
    params = LorenzParams(steps=60_000) if series == "lorenz60000" else LorenzParams()
    return normalize(["x", "y", "z"], gen_lorenz(params))


def peaks(name: str) -> tuple[int, int, int, int, int]:
    """The row COLUMNS names for config name on its training rows."""
    fields, series = CONFIGS[name]
    config = model.ModelConfig(**fields)
    ds = _dataset(series)
    states, controls = split_controls(ds, config.controls)
    states, controls = states[:ds.split_index], controls[:ds.split_index]
    table = model.normal_equations(config, states, controls).table
    block, per, _ = model._epochs_per_block(config, table.shape[0], states.shape[1])
    return (traced_peak(model.fit, config, states, controls),
            traced_peak(model.normal_equations, config, states, controls),
            table.nbytes, block, per)


def main(argv: list[str]) -> int:
    names = argv or list(CONFIGS)
    unknown = [name for name in names if name not in CONFIGS]
    if unknown:
        print(f"unknown config(s) {unknown}; choose from {list(CONFIGS)}", file=sys.stderr)
        return 2
    # first-use caches would otherwise fall inside the first config's traces
    peaks(names[0])
    print(f"{'config':<17}" + "".join(f"{col:>15}" for col in COLUMNS))
    for name in names:
        print(f"{name:<17}" + "".join(f"{value:>15}" for value in peaks(name)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
