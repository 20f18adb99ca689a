"""Source hygiene of the package, read with `ast`: every import in a module
is used there, and every private top-level function or class is called
from somewhere in the package, not only from itself.  A move between
modules leaves such remnants behind."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SOURCES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted((Path(__file__).parent.parent / "src" / "sasano").glob("*.py"))}


def _names(tree):
    """Each name read in tree: the bare ones and the attributes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _imports(tree):
    """The names each import in tree binds, `from __future__` left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


@pytest.mark.parametrize("module", [name for name in SOURCES if name != "__init__.py"])
def test_every_import_is_used_in_its_module(module):
    tree = SOURCES[module]
    used = set(_names(tree))
    assert [name for name in _imports(tree) if name not in used] == []


def test_every_private_function_and_class_has_a_caller():
    everywhere = Counter(name for tree in SOURCES.values() for name in _names(tree))
    uncalled = []
    for module, tree in SOURCES.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
                    and not node.name.startswith("__")
                    and everywhere[node.name] == list(_names(node)).count(node.name)):
                uncalled.append(f"{module}:{node.name}")
    assert uncalled == []
