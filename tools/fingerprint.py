"""Print a SHA-256 of what the model computes on the Lorenz split.

For each config of a fixed list it fits on the Lorenz train split and hashes
the trained b, the loss history, evaluate's report on the test split, a
5-step predict of each feature from the first test window, and
closed_form_b's weights and rank flags. Two trees that print the same digest
computed the same bits. Run from the repository root:

    python tools/fingerprint.py [NAME ...]

With no NAME every config is hashed. Prints one digest per config, then
"all", the digest over the configs in the order given. The kooba package is
imported from the src directory beside this file, so a copy of this file
fingerprints the tree it is copied into.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from kooba import cli, model  # noqa: E402
from kooba.hippo import project  # noqa: E402

CONFIGS = {
    "default": {},
    "h8-stride4": {"horizon": 8, "stride": 4},
    "legt": {"method": "legt"},
    "order12": {"order": 12},
    "batch1": {"batch_size": 1},
    "h4-stride1": {"horizon": 4, "stride": 1},
    "order3": {"order": 3},
    "order2-h3": {"order": 2, "horizon": 3},
}


def fingerprint(config: model.ModelConfig) -> str:
    """SHA-256 over fit, evaluate, predict and closed_form_b of config on Lorenz."""
    _, train, (states, controls) = cli.load_dataset("lorenz", config.controls)
    fitted = model.fit(config, *train)
    digest = hashlib.sha256()
    digest.update(fitted.b.tobytes())
    digest.update(np.array(fitted.loss_history).tobytes())
    digest.update(json.dumps(model.evaluate(fitted, states, controls)).encode())
    basis = model.build_basis(config)
    u = controls[config.seq_len:config.seq_len + 5]
    for f in range(fitted.n_features):
        digest.update(model.predict(fitted, project(basis, states[:config.seq_len, f]), u, f)
                      .tobytes())
    oracle = model.closed_form_b(config, *train)
    digest.update(oracle.b.tobytes())
    digest.update(json.dumps([bool(v) for v in oracle.rank_deficient]).encode())
    return digest.hexdigest()


def main(argv: list[str]) -> int:
    names = argv or list(CONFIGS)
    unknown = [name for name in names if name not in CONFIGS]
    if unknown:
        print(f"unknown config(s) {unknown}; choose from {list(CONFIGS)}", file=sys.stderr)
        return 2
    total = hashlib.sha256()
    for name in names:
        digest = fingerprint(model.ModelConfig(**CONFIGS[name]))
        total.update(digest.encode())
        print(f"{name:<12}{digest}")
    print(f"{'all':<12}{total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
