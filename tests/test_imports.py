"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import bsdecomp

PACKAGE = Path(bsdecomp.__file__).resolve().parent


def imported_modules(tree: ast.AST):
    """Top-level name of every module an import statement names; relative
    imports (``from .x import y``) name the package itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield "bsdecomp" if node.level else node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    foreign = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        if name != "bsdecomp" and name not in sys.stdlib_module_names
    ]
    assert foreign == []


def test_the_scan_sees_a_third_party_import():
    tree = ast.parse("import numpy\nfrom hypothesis import given\nfrom . import tables\nimport json")
    assert list(imported_modules(tree)) == ["numpy", "hypothesis", "bsdecomp", "json"]


def unused_imports(tree: ast.AST) -> list[str]:
    """Every name an import binds that no ``Name`` node reads. An attribute
    access such as ``json.dumps`` reads through the ``Name`` at its root, and
    annotations are parsed as expressions, so both count as uses;
    ``from __future__`` imports bind no name."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_package_modules_use_every_import():
    # __init__.py imports to re-export, so it is the one module left out
    unused = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for name in unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert unused == []


def test_the_scan_sees_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from dataclasses import dataclass, replace\n"
        "from typing import Mapping as M\n"
        "@dataclass\n"
        "class A:\n"
        "    x: M\n"
        "os.path.join('a')\n"
    )
    assert unused_imports(tree) == ["replace"]


def unread_private_names(trees) -> list[str]:
    """Every module-level function, class or assigned name that starts with
    one underscore and that no ``Name`` load, ``Attribute`` or import alias in
    any of ``trees`` reads; dunder names such as ``__version__`` are left out."""
    defined, read = [], set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [t.id for t in targets if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [
        name for name in defined if name.startswith("_") and not name.startswith("__") and name not in read
    ]


def test_package_reads_every_private_name():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]
    assert unread_private_names(trees) == []


def test_the_scan_sees_an_unread_private_name():
    first = ast.parse(
        "_LIMIT = 3\n"
        "_table: dict = {}\n"
        "__version__ = '1'\n"
        "def _orphan():\n"
        "    pass\n"
        "def _shared():\n"
        "    return _LIMIT\n"
        "class _Node:\n"
        "    pass\n"
        "def public(x):\n"
        "    x._table = 1\n"
    )
    second = ast.parse("from .first import _shared\n")
    assert unread_private_names([first, second]) == ["_orphan", "_Node"]
