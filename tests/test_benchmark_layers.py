"""Every function the benchmark's tracer wraps still exists in the package.

benchmark/tracing.py is loaded from its file and only read: nothing is
installed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.NAMES
    missing = []
    for name in tracing.NAMES:
        mod, fn = name.split(".")
        if not callable(getattr(importlib.import_module(f"kooba.{mod}"), fn, None)):
            missing.append(name)
    assert missing == []
