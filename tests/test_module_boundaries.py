"""No kooba module reads a private name of another: each reaches the others
through their public names only, and only model, which owns the chunk rule
that fit's memory estimate depends on, traces allocations. The sources are
parsed, not run."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "kooba"


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_reads(tree):
    """'module.name' for each private name the tree imports from, or reads
    off, another kooba module."""
    found, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "kooba"):
            sub = (node.module or "").removeprefix("kooba").lstrip(".")
            for alias in node.names:
                if not sub:                       # from . import mod
                    modules[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    found.append(f"{sub}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append(f"{modules[node.value.id]}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_another_modules_private_names(path):
    assert private_reads(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("source, expected", [
    ("from . import koopman\nkoopman._ode_scale(3)", ["koopman._ode_scale"]),
    ("from . import model as model_mod\nmodel_mod._chunks", ["model._chunks"]),
    ("from .koopman import _falling, rollout", ["koopman._falling"]),
    ("from kooba.hippo import _private_helper", ["hippo._private_helper"]),
    ("from . import koopman\nkoopman.rollout\n_local = 1\nkoopman.__doc__", []),
], ids=["attribute", "aliased-module", "relative-import", "absolute-import", "public"])
def test_private_reads_are_found(source, expected):
    assert private_reads(ast.parse(source)) == expected


def imported_modules(tree):
    """Top-level names of the absolute imports in the tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_model_imports_tracemalloc():
    # the table-build trace stays beside the chunk rule it depends on
    importers = [path.name for path in sorted(SRC.glob("*.py")) if "tracemalloc"
                 in imported_modules(ast.parse(path.read_text(encoding="utf-8")))]
    assert importers == ["model.py"]


@pytest.mark.parametrize("source, expected", [
    ("import tracemalloc", {"tracemalloc"}),
    ("from tracemalloc import start", {"tracemalloc"}),
    ("import os.path as p\nfrom . import model", {"os"}),
], ids=["import", "from-import", "dotted-and-relative"])
def test_imported_modules_are_found(source, expected):
    assert imported_modules(ast.parse(source)) == expected
