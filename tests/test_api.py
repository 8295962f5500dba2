"""The public names of the package resolve: every ``__all__`` entry of a
``polaron2d`` module and every name ``polaron2d/__init__.py`` re-exports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import polaron2d

# __main__ is left out: importing it runs the CLI
MODULES = sorted(m.name for m in pkgutil.iter_modules(polaron2d.__path__)
                 if m.name != "__main__")


def test_every_module_is_listed():
    assert {"_quad", "cconstant", "cli", "corefuncs", "solvers",
            "verify"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_are_attributes(name):
    module = importlib.import_module(f"polaron2d.{name}")
    missing = [entry for entry in getattr(module, "__all__", ())
               if not hasattr(module, entry)]
    assert missing == []


def test_reexports_resolve():
    tree = ast.parse(Path(polaron2d.__file__).read_text())
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"polaron2d.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), (node.module, alias.name)
            assert getattr(polaron2d, alias.asname or alias.name) \
                is getattr(module, alias.name)
