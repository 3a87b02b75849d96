"""Every exported name resolves, so a deleted symbol leaves no dangling export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gfdetect

MODULES = sorted(m.name for m in pkgutil.iter_modules(gfdetect.__path__) if m.name != "__main__")


def _reexports():
    """``(module, name)`` for each ``from .module import name`` in the package root."""
    tree = ast.parse(Path(gfdetect.__file__).read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("module", MODULES)
def test_every_all_entry_resolves(module):
    mod = importlib.import_module(f"gfdetect.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_every_reexport_is_public_in_its_module():
    reexports = _reexports()
    assert reexports
    for module, name in reexports:
        mod = importlib.import_module(f"gfdetect.{module}")
        assert name in getattr(mod, "__all__", dir(mod)), f"{module}.{name}"
        assert getattr(gfdetect, name) is getattr(mod, name)
