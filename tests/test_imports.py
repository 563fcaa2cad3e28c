"""Every module of the package, other than __init__.py, uses each name it
imports, and every underscore-named function or class is referenced
somewhere in the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "designforge"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.add(name)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def unreferenced_private(sources):
    """Underscore-named (not dunder) functions and classes, methods
    included, that no name, attribute or import in the sources refers to."""
    trees = [ast.parse(src) for src in sources]
    defined = set()
    referenced = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return sorted(defined - referenced)


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom a.b import c, d as e\nc()\n") == ["e", "os"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unreferenced_private_are_found():
    sources = [
        "def _a(): pass\ndef _b(): pass\nclass _C:\n    def _m(self): pass\n    def __init__(self): pass\n",
        "from m import _b\nx = _C()\n",
    ]
    assert unreferenced_private(sources) == ["_a", "_m"]


def test_no_unreferenced_private():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert unreferenced_private(sources) == []
