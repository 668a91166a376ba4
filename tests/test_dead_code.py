"""The package holds only what the CLI and the public API use.

A module-level function or class, or a method of such a class, must be
named somewhere in ``src/gtsg`` (by a Name or an Attribute node), be
exported in ``gtsg.__all__`` or be the ``[project.scripts]`` entry point.
Code that only the tests need lives in ``tests/spec_reference.py``.
Every name a module other than ``__init__`` imports must be used in it,
no function of ``thabit`` calls itself, and no module imports or reaches
another module's private name but those in ``PRIVATE_ALLOWED``.
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


# (module, private name of another module it uses): why it must reach it
PRIVATE_ALLOWED = {
    ("cli", "thabit._apery_decoded"):
        "perfbench's tracer swaps cli.thabit for a namespace of thabit's public "
        "functions only, so cmd_apery imports the decoder by name",
}


def private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reaches(path):
    """(module, "other._name") for each private name of another gtsg module
    that the module at ``path`` imports, or reaches as an attribute of a
    gtsg module it imported."""
    here, tree = path.stem, ast.parse(path.read_text())
    modules, found = {}, set()          # local name -> gtsg module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["gtsg" if node.level else "", node.module]))
            if base == "gtsg":
                modules.update((alias.asname or alias.name, alias.name) for alias in node.names)
            elif base.startswith("gtsg."):
                found |= {(here, f"{base[5:]}.{alias.name}")
                          for alias in node.names if private(alias.name)}
        elif isinstance(node, ast.Import):
            modules.update((alias.asname, alias.name[5:]) for alias in node.names
                           if alias.asname and alias.name.startswith("gtsg."))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and private(node.attr)):
            found.add((here, f"{modules[node.value.id]}.{node.attr}"))
    return {(module, name) for module, name in found if name.split(".")[0] != module}


def test_no_module_reaches_another_modules_private_names():
    found = set().union(*map(private_reaches, sorted(SRC.glob("*.py"))))
    allowed = set(PRIVATE_ALLOWED)
    assert not found - allowed, f"private names reached: {found - allowed}"
    assert allowed <= found, f"allowed but no longer reached: {allowed - found}"


def test_private_reaches_sees_imports_and_attributes(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from . import thabit as t\nfrom .oracle import _apery_w, make_semigroup\n"
                    "import gtsg.verify as v\nt._rule(1, 2)\nv._points\nt.__name__\n")
    assert private_reaches(path) == {("mod", "oracle._apery_w"), ("mod", "thabit._rule"),
                                     ("mod", "verify._points")}
