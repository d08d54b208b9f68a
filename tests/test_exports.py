"""Every name a module lists in `__all__` exists, so no export dangles, every
name the package re-exports is in its module's `__all__`, the package
imports no more of the standard library than it uses, and `units` imports
nothing from `bernoulli`."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import types

import pytest

import ellsoule

MODULES = sorted(m.name for m in pkgutil.iter_modules(ellsoule.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    mod = importlib.import_module(f"ellsoule.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []


def test_package_names_are_exported_by_their_modules():
    # the package namespace re-exports only what a module lists in __all__
    unlisted = [
        name
        for name, obj in vars(ellsoule).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
        and name not in importlib.import_module(obj.__module__).__all__
    ]
    assert unlisted == []


def test_import_pulls_in_neither_dataclasses_nor_inspect():
    # the value records are plain slotted classes; `dataclasses` (which
    # imports `inspect`) was most of the package's import time
    src = os.path.dirname(os.path.dirname(ellsoule.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, ellsoule, ellsoule.cli, ellsoule.verify\n"
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_units_imports_nothing_from_bernoulli():
    # the theta unit's leading exponent is the triple-product route; the
    # Bernoulli closed form is what `verify` checks it against
    with open(os.path.join(os.path.dirname(ellsoule.__file__), "units.py")) as f:
        tree = ast.parse(f.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in node.names for part in alias.name.split("."))
    assert "units" not in names and "cyclotomic" in names  # the walk sees the imports
    assert "bernoulli" not in names
