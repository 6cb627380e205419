"""Import hygiene of the package modules, checked from their source.

Every name a module imports must be used in it (the package's
__init__ imports only to re-export), and no module imports a private
name from another module of the package.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "disorient"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imports(tree):
    """(bound name, imported name, from the package) for each import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, alias.name, alias.name.startswith("disorient")
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            inside = node.level > 0 or (node.module or "").startswith("disorient")
            for alias in node.names:
                yield alias.asname or alias.name, alias.name, inside


def _used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "graphs.py", "verify.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    if path.name == "__init__.py":
        return
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = sorted(bound for bound, _, _ in _imports(tree) if bound not in used)
    assert not unused, f"{path.name} imports but never uses {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = sorted(name for _, name, inside in _imports(tree)
                     if inside and name.startswith("_"))
    assert not private, f"{path.name} imports private names {private}"
