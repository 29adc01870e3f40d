import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import quantcurv

MODULES = sorted(m.name for m in pkgutil.iter_modules(quantcurv.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    mod = importlib.import_module(f"quantcurv.{name}")
    missing = [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)]
    assert not missing, f"quantcurv.{name}.__all__ names missing attributes: {missing}"


def test_package_imports_resolve():
    tree = ast.parse(Path(quantcurv.__file__).read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(f"quantcurv.{module}"), name), (module, name)
        assert hasattr(quantcurv, name), name
