"""Source hygiene of the package, read with `ast`: every import in a module
is used there, every private top-level function or class and every private
method of a top-level class is called from somewhere in the package, not
only from itself, every public top-level function or class is exported by
`sasano` or called in the package, and every private module-level constant
is read somewhere in it.  A move between modules leaves such remnants
behind."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import sasano

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
    # top-level functions and classes, and the methods of top-level classes
    everywhere = Counter(name for tree in SOURCES.values() for name in _names(tree))
    uncalled = []
    for module, tree in SOURCES.items():
        members = [node for cls in tree.body if isinstance(cls, ast.ClassDef) for node in cls.body]
        for node in tree.body + members:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
                    and not node.name.startswith("__")
                    and everywhere[node.name] == list(_names(node)).count(node.name)):
                uncalled.append(f"{module}:{node.name}")
    assert uncalled == []


def test_every_public_function_and_class_is_exported_or_called():
    # a public top-level name that neither `import sasano` offers nor the
    # package calls serves only the tests, which keep such references
    exported = set(sasano.__all__)
    everywhere = Counter(name for tree in SOURCES.values() for name in _names(tree))
    unused = [f"{module}:{node.name}" for module, tree in SOURCES.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in exported
              and everywhere[node.name] == list(_names(node)).count(node.name)]
    assert unused == []


def test_every_private_constant_is_read():
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in SOURCES.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = []
    for module, tree in SOURCES.items():
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                for name in ast.walk(target):
                    if (isinstance(name, ast.Name) and name.id.startswith("_")
                            and not name.id.startswith("__") and name.id not in read):
                        unread.append(f"{module}:{name.id}")
    assert unread == []


def test_only_exactmath_reads_its_private_slots():
    # a slot such as `Polynomial._ints` holds a format, which the other
    # modules read through exactmath's functions and accessors
    private = {const.value for node in ast.walk(SOURCES["exactmath.py"])
               if isinstance(node, ast.Assign)
               and any(isinstance(target, ast.Name) and target.id == "__slots__"
                       for target in node.targets)
               for const in ast.walk(node.value)
               if isinstance(const, ast.Constant) and str(const.value).startswith("_")}
    assert private >= {"_ints", "_n", "_coeffs"}
    reads = [f"{module}:{node.lineno}:{node.attr}" for module, tree in SOURCES.items()
             if module != "exactmath.py"
             for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr in private]
    assert reads == []


def test_only_systems_calls_the_residual_kernel():
    # the other modules decide through `is_solution`, which takes one path
    callers = [module for module, tree in SOURCES.items() if "_residuals_vanish" in set(_names(tree))]
    assert callers == ["systems.py"]


# The arithmetic under every Bäcklund letter works on a primitive integer
# image and a scale held as two coprime integers, so it builds no Fraction.
# `leading`, `evaluate` and `coeffs` return rationals, so they stay out.
INTEGER_ONLY = {
    "Polynomial": ("_from_ints", "_from_primitive", "__add__", "__neg__", "__sub__", "__mul__",
                   "scale", "__divmod__", "__floordiv__", "__mod__", "monic", "gcd", "derivative",
                   "compose_negate"),
    "RationalFunction": ("_set_canonical", "_coprime"),
}


def test_polynomial_arithmetic_names_no_fraction():
    methods = {(cls.name, node.name): node
               for cls in SOURCES["exactmath.py"].body if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, ast.FunctionDef)}
    listed = [(cls, name) for cls, names in INTEGER_ONLY.items() for name in names]
    assert [key for key in listed if key not in methods] == []
    assert [key for key in listed if "Fraction" in set(_names(methods[key]))] == []
