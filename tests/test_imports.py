"""Every top-level import of a module under src/ and tests/ is read somewhere
in that module; a package __init__.py imports to re-export, so it is exempt.
Every name in the __all__ of a module under src/ is bound at its top level."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that the module's top-level imports bind and that no
    expression of the module reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport numpy as np\nfrom a.b import c, d\nnp.x(c)\n") == \
        ["os", "d"]
    assert unused_imports("from __future__ import annotations\nimport a.b\na.b.c()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text()) == []


def unbound_exports(source: str) -> list[str]:
    """The names in the module's __all__ that no top-level def, class,
    assignment or import of the module binds."""
    tree = ast.parse(source)
    bound, exports = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.Assign):
            names = {n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            bound |= names
            if "__all__" in names:
                exports = ast.literal_eval(node.value)
    return [name for name in exports if name not in bound]


def test_the_scan_finds_an_unbound_export():
    source = ("import a.b\nfrom c import d as e\nX, (Y, Z) = 1, (2, 3)\n"
              "def f():\n    g = 1\nclass K:\n    h = 2\n"
              "__all__ = ['a', 'e', 'X', 'Z', 'f', 'K', 'g', 'h', 'd']\n")
    assert unbound_exports(source) == ["g", "h", "d"]
    assert unbound_exports("import os\n") == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.is_relative_to(ROOT / "src")],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_module_exports_only_bound_names(path):
    assert unbound_exports(path.read_text()) == []
