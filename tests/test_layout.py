"""The package's module boundaries, read from its source with ``ast``.

Two private modules hold the decisions that cut across the pipeline:
``_procs`` the forked processes and ``_text`` the text formats.  They are
the only modules whose private names other modules import.  ``_text``
depends on nothing of the package but its errors, and ``_procs`` on
nothing but ``_text``.  Neither defines a public function or class: the
benchmark's tracer (perfbench/tracing.py) wraps every public function of
the package, and a forked child must call none.  Every process is forked,
and placed on its CPU, by ``_procs._fork`` alone.  And no module imports a
name it does not use, as a move between modules easily leaves behind.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tradenet"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}
SHARED = {"_procs", "_text"}  # the modules whose private names others may import
DEPENDS_ON = {"_text": {"errors"}, "_procs": {"_text"}}  # all they import of the package


def private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def package_imports(tree: ast.Module):
    """(sibling module, name) for each name imported from the package: a
    module imported whole gives (module, None)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level == 1 or (
                node.module or "").split(".")[0] == "tradenet"):
            module = (node.module or "").removeprefix("tradenet").lstrip(".")
            for alias in node.names:
                if module:
                    yield module, alias.name
                elif alias.name in MODULES:
                    yield alias.name, None
                else:
                    yield "__init__", alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("tradenet."):
                    yield alias.name.split(".")[1], None


def uses(node: ast.AST, names: set[str], scope: str = ""):
    """(scope, name) for each use of one of ``names`` under ``node``, as a
    name or an attribute; the scope is the dotted path of the classes and
    functions that enclose it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from uses(child, names, f"{scope}.{child.name}".lstrip("."))
            continue
        name = getattr(child, "attr", None) or getattr(child, "id", None)
        if name in names:
            yield scope, name
        yield from uses(child, names, scope)


def test_only_fork_starts_and_places_a_process():
    """os.fork and os.sched_setaffinity are called in _procs only, by _fork
    and _place, and _place only by _fork: one start path, on which a
    process that cannot be placed counts as a refused fork."""
    found = {(module, scope, name) for module, tree in MODULES.items()
             for scope, name in uses(tree, {"fork", "sched_setaffinity", "_place"})}
    assert found == {("_procs", "_fork", "_place"), ("_procs", "_fork", "fork"),
                     ("_procs", "_place", "sched_setaffinity")}


def test_the_modules_are_found():
    assert {"__init__", "cli", "ingest", "graph", "_procs", "_text"} <= set(MODULES)


@pytest.mark.parametrize("name", sorted(MODULES))
def test_private_names_are_imported_only_from_the_shared_modules(name):
    crossing = [(module, imported) for module, imported in package_imports(MODULES[name])
                if imported and private(imported) and module not in SHARED]
    assert crossing == []


@pytest.mark.parametrize("name", sorted(DEPENDS_ON))
def test_the_shared_modules_depend_only_on_what_they_must(name):
    assert {module for module, _ in package_imports(MODULES[name])} <= DEPENDS_ON[name]


@pytest.mark.parametrize("name", sorted(SHARED))
def test_the_shared_modules_define_no_public_function_or_class(name):
    public = [node.name for node in MODULES[name].body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not private(node.name)]
    assert public == []


@pytest.mark.parametrize("name", sorted(set(MODULES) - {"__init__"}))
def test_every_imported_name_is_used(name):
    tree = MODULES[name]
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
