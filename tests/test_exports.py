"""Every exported name resolves, so a deleted symbol leaves no dangling export."""

import importlib
import pkgutil

import pytest

import gfdetect

MODULES = sorted(m.name for m in pkgutil.iter_modules(gfdetect.__path__) if m.name != "__main__")


@pytest.mark.parametrize("module", MODULES)
def test_every_all_entry_resolves(module):
    mod = importlib.import_module(f"gfdetect.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
