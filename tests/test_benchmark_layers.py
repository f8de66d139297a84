"""Every name the benchmark reads off the package still exists in it.

benchmark/tracing.py is loaded from its file and only read: nothing is
installed. The other benchmark files are parsed, never run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"
TRACING = BENCHMARK / "tracing.py"


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


def _names_read_off_kooba(tree):
    """(module, name) for each `from kooba[.mod] import name` and each
    attribute read off a module that `from kooba import mod` binds."""
    found, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module == "kooba" or node.module.startswith("kooba.")):
            for alias in node.names:
                found.add((node.module, alias.name))
                if node.module == "kooba":
                    modules[alias.asname or alias.name] = f"kooba.{alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and importlib.util.find_spec(modules[node.value.id]) is not None):
            found.add((modules[node.value.id], node.attr))
    return found


def _resolves(module, name):
    """What `from module import name` finds: an attribute or a submodule."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_every_name_the_benchmark_reads_resolves():
    found = set()
    for path in sorted(BENCHMARK.glob("*.py")):
        found |= _names_read_off_kooba(ast.parse(path.read_text(encoding="utf-8")))
    assert any(module != "kooba" for module, _ in found)
    missing = sorted(f"{module}.{name}" for module, name in found
                     if not _resolves(module, name))
    assert missing == []
