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
