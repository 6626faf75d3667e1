"""Package exports: ``__all__`` names exactly what ``__init__`` imports publicly."""

import ast
from pathlib import Path

import oscim


def _imported_public_names():
    tree = ast.parse(Path(oscim.__file__).read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_every_export_resolves():
    missing = [name for name in oscim.__all__ if not hasattr(oscim, name)]
    assert not missing
    assert len(set(oscim.__all__)) == len(oscim.__all__)


def test_every_public_import_is_exported():
    assert _imported_public_names() - set(oscim.__all__) == set()


def test_star_import_binds_the_exports():
    namespace = {}
    exec("from oscim import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(oscim.__all__)
