"""Every module of the package, other than __init__.py, and the test
oracles use each name they import; every underscore-named function or
class is referenced somewhere in the package, every public one and every
public method somewhere in the package or in perfbench/tracer.py, and
every oracle in some test module."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "designforge"
ORACLES = TESTS / "oracles.py"
TRACER = TESTS.parent / "perfbench" / "tracer.py"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py") + [ORACLES]


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


def referenced_names(trees):
    """Every name, attribute and imported name the trees refer to."""
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name)
    return out


def unreferenced_private(sources):
    """Underscore-named (not dunder) functions and classes, methods
    included, that no name, attribute or import in the sources refers to."""
    trees = [ast.parse(src) for src in sources]
    defined = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.add(node.name)
    return sorted(defined - referenced_names(trees))


def unreferenced_public(sources, others):
    """Public top-level functions and classes of the sources, and public
    methods of their top-level classes, that no name, attribute or import in
    the sources or the others refers to."""
    trees = [ast.parse(src) for src in sources]
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, defs):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined.update(item.name for item in node.body if isinstance(item, defs))
    public = {name for name in defined if not name.startswith("_")}
    return sorted(public - referenced_names(trees + [ast.parse(src) for src in others]))


def unreferenced_top_level(source, others):
    """Top-level functions of source that no name, attribute or import in
    the other sources refers to."""
    defined = {node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    return sorted(defined - referenced_names([ast.parse(src) for src in others]))


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


def test_unreferenced_public_are_found():
    sources = [
        "def a():\n    def inner(): pass\ndef b(): pass\ndef _c(): pass\n"
        "class D:\n    def m(self): pass\n    def n(self): pass\n    def _p(self): pass\n",
        "from x import a\nD().n()\n",
    ]
    assert unreferenced_public(sources, ["b()\n"]) == ["m"]


def test_no_unreferenced_public():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert unreferenced_public(sources, [TRACER.read_text()]) == []


def test_unreferenced_top_level_are_found():
    assert unreferenced_top_level("def a(): pass\ndef b(): pass\nx = 1\n", ["from m import a\n"]) == ["b"]


def test_every_oracle_is_used_by_a_test():
    tests = [p.read_text() for p in sorted(TESTS.glob("test_*.py"))]
    assert unreferenced_top_level(ORACLES.read_text(), tests) == []
