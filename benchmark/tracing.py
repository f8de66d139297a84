"""Per-layer tracing from outside the program.

install() replaces each listed public function with a wrapper in every kooba
module that holds it, so calls between modules (model -> koopman, cli -> data,
koopman -> legendre) are seen too. A wrapper records one span (name, start,
end, parent, round) per call in flat arrays; nothing is written until the
run ends. A function's self time is its spans' duration minus the part its
traced children cover, so private helpers count toward their public caller.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter

import numpy as np

LAYERS = {
    "data": ["gen_lorenz", "load_csv", "normalize", "save_csv"],
    "legendre": ["legendre_values"],
    "hippo": ["build_basis", "build_kernel", "block_step", "project"],
    "koopman": ["poly_ode_coeffs", "companion_discrete", "lift_initial_state",
                "build_system", "propagate", "readout"],
    "model": ["fit", "evaluate", "predict", "window_loss_grad", "save_model",
              "load_model"],
    "cli": ["main", "run_dataset"],
}
NAMES = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
_MODULES = ["kooba"] + [f"kooba.{mod}" for mod in LAYERS]


class Tracer:
    def __init__(self):
        self.name_id = array("i")
        self.parent = array("i")
        self.round_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.round = -1
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, idx: int):
        name_id, parent, round_id = self.name_id, self.parent, self.round_id
        start, end, stack = self.start, self.end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(idx)
            parent.append(stack[-1])
            round_id.append(self.round)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                start[sid] = t0
                stack.pop()
        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in _MODULES]
        for idx, name in enumerate(NAMES):
            mod, fn = name.split(".")
            original = getattr(importlib.import_module(f"kooba.{mod}"), fn)
            wrapper = self._wrap(original, idx)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.array(self.name_id, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int32),
                "round": np.array(self.round_id, dtype=np.int32),
                "start": np.array(self.start, dtype=float),
                "end": np.array(self.end, dtype=float)}

    def summary(self, rounds: int) -> dict[str, float]:
        """calls, total_s and self_s per function, per traced round."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        covered = np.zeros_like(dur)
        child = a["parent"] >= 0
        np.add.at(covered, a["parent"][child], dur[child])
        own = dur - covered
        out = {}
        for idx, name in enumerate(NAMES):
            mine = a["name_id"] == idx
            calls = int(np.count_nonzero(mine)) / rounds
            out[f"{name}.calls"] = int(calls) if calls.is_integer() else calls
            out[f"{name}.total_s"] = float(dur[mine].sum()) / rounds
            out[f"{name}.self_s"] = float(own[mine].sum()) / rounds
        return out

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(NAMES), **self.arrays())

