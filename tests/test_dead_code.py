"""The package holds only what the CLI and the public API use.

A module-level function or class, or a method of such a class, must be
named somewhere in ``src/gtsg`` (by a Name or an Attribute node), be
exported in ``gtsg.__all__`` or be the ``[project.scripts]`` entry point.
Code that only the tests need lives in ``tests/spec_reference.py``.
Every name a module other than ``__init__`` imports must be used in it,
and no function of ``thabit`` calls itself.
"""

import ast
import re
from pathlib import Path

import gtsg

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gtsg"
PYPROJECT = ROOT / "pyproject.toml"


def definitions(tree):
    """The module-level functions and classes of a module, and the methods
    of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))


def test_every_definition_is_used():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    scripts = PYPROJECT.read_text().split("[project.scripts]", 1)[1]
    entry = re.search(r'"gtsg\.\w+:(\w+)"', scripts).group(1)
    kept = named | set(gtsg.__all__) | {entry}
    unused = [f"{module}:{node.lineno} {node.name}"
              for module, tree in trees.items()
              for node in definitions(tree) if node.name not in kept]
    assert not unused, f"defined but never used: {unused}"


def bound_names(node):
    """The names an import statement binds in its module."""
    for alias in node.names:
        if alias.asname:
            yield alias.asname
        elif isinstance(node, ast.Import):
            yield alias.name.split(".")[0]
        else:
            yield alias.name


def test_every_import_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue    # its imports are the package's re-exports
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{node.lineno} {name}"
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for name in bound_names(node) if name not in used]
    assert not unused, f"imported but never used: {unused}"


def test_no_assert_statement():
    # python -O strips assert statements, and with them a self-check; the
    # package raises AssertionError itself instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def test_no_recursion_in_the_closed_forms():
    # the closed forms' RecursionError faults came from functions that call
    # themselves; every closed form is a loop
    tree = ast.parse((SRC / "thabit.py").read_text())
    found = [f"thabit.py:{node.lineno} {node.name}"
             for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                     and call.func.id == node.name
                     for call in ast.walk(node))]
    assert not found, f"functions that call themselves: {found}"
