"""Every exported name resolves, so a deleted symbol leaves no dangling export,
and every exported name has a caller in the package, so none is dead code."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import gfdetect

MODULES = sorted(m.name for m in pkgutil.iter_modules(gfdetect.__path__) if m.name != "__main__")
PACKAGE_DIR = pathlib.Path(gfdetect.__file__).parent

# exports that no package code calls because they are acceptance oracles: the
# criteria check the solver and the bound against them from outside
ORACLES = {
    "kkt_residual",  # criterion 9: the LASSO's optimality residual
    "empirical_power_floor_check",  # criterion 7: the bound's power floor
}


@pytest.mark.parametrize("module", MODULES)
def test_every_all_entry_resolves(module):
    mod = importlib.import_module(f"gfdetect.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def _references(tree, skip):
    """Names read in ``tree`` (as a name or an attribute), outside the subtrees in ``skip``."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_export_has_a_caller_in_the_package():
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE_DIR.glob("*.py")}
    uncalled = []
    for module in MODULES:
        for name in getattr(importlib.import_module(f"gfdetect.{module}"), "__all__", ()):
            # a name's own definition does not count as a caller
            own = {
                node for node in trees[module].body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
            }
            if not any(name in _references(tree, own) for tree in trees.values()):
                uncalled.append(name)
    assert sorted(uncalled) == sorted(ORACLES)
