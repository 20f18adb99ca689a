"""Source hygiene of the package, read with `ast`: every import in a module
is used there, every private top-level function or class and every private
method of a top-level class is called from somewhere in the package, not
only from itself, every public top-level function or class is exported by
`sasano` or called in the package, and every private module-level constant
is read somewhere in it.  A move between modules leaves such remnants
behind."""

import ast
import importlib
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

import pytest

import sasano

ROOT = Path(__file__).parent.parent
TEXTS = {path.name: path.read_text(encoding="utf-8")
         for path in sorted((ROOT / "src" / "sasano").glob("*.py"))}
SOURCES = {name: ast.parse(text) for name, text in TEXTS.items()}


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


def test_no_function_outside_exactmath_branches_on_rational_function_type():
    # the other modules take rational functions as they come, so each step
    # has one path, not a second one for other values
    branches = [f"{module}:{node.lineno}" for module, tree in SOURCES.items()
                if module != "exactmath.py"
                for node in ast.walk(tree)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and {"RationalFunction", "RF"} & set(_names(node.args[1]))]
    assert branches == []


def _bound(tree):
    """The names tree binds: definitions, assignment targets (attributes
    too), arguments, imports and `__slots__` entries."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            yield node.attr
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.alias):
            yield node.asname or node.name.split(".")[-1]
        elif (isinstance(node, ast.Assign) and any(isinstance(target, ast.Name)
                                                   and target.id == "__slots__"
                                                   for target in node.targets)):
            yield from (c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))


def _prose(module):
    """The docstrings and comments of a module of the package."""
    for node in ast.walk(SOURCES[module]):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield ast.get_docstring(node) or ""
    for tok in tokenize.generate_tokens(io.StringIO(TEXTS[module]).readline):
        if tok.type == tokenize.COMMENT:
            yield tok.string


def test_every_backticked_private_name_is_defined():
    # a private name in backticks, such as `_fold` or `systems._integers`,
    # in README.md or in the package's docstrings and comments, names a
    # definition in the package or in tests/conftest.py; in `module._name`
    # it is one of that module's top-level names, so a rename or a removal
    # leaves no text behind that names the old definition
    conftest = ast.parse((ROOT / "tests" / "conftest.py").read_text(encoding="utf-8"))
    defined = {name for tree in (*SOURCES.values(), conftest) for name in _bound(tree)}
    modules = {module[:-3] for module in SOURCES}
    readme = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(encoding="utf-8"), flags=re.S)
    texts = [("README.md", readme)] + [(module, text) for module in SOURCES
                                      for text in _prose(module)]
    unresolved = []
    for where, text in texts:
        for span in re.findall(r"`([^`]+)`", text):
            for dotted in re.findall(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*", span):
                parts = dotted.split(".")
                for i, part in enumerate(parts):
                    if not re.match(r"_[^_]", part):
                        continue
                    scope = (vars(importlib.import_module(f"sasano.{parts[i - 1]}"))
                             if i and parts[i - 1] in modules else defined)
                    if part not in scope:
                        unresolved.append(f"{where}: {dotted}")
    assert unresolved == []
