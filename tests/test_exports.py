"""The public names of the package agree with what its modules define."""

import ast
import importlib
import pkgutil
from pathlib import Path

import homcx


def test_exports_resolve_and_the_package_imports_only_exports():
    """Every name in a module's __all__ exists, and every name the package
    imports from a module is in that module's __all__, so a deletion
    cannot leave a stale export behind."""
    for info in pkgutil.iter_modules(homcx.__path__):
        module = importlib.import_module(f"homcx.{info.name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, (info.name, missing)
    tree = ast.parse(Path(homcx.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported = importlib.import_module(f"homcx.{node.module}").__all__
            unlisted = [a.name for a in node.names if a.name not in exported]
            assert not unlisted, (node.module, unlisted)
