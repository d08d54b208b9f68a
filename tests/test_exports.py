"""Every name a module lists in `__all__` exists, so no export dangles."""

import importlib
import pkgutil

import pytest

import ellsoule

MODULES = sorted(m.name for m in pkgutil.iter_modules(ellsoule.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    mod = importlib.import_module(f"ellsoule.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []
