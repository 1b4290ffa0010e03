"""No module-level import in the library or the tests goes unused.

A stand-in for pyflakes' F401, which is not a dependency: an import counts as
used when its bound name is read anywhere in the module, in code or in a
string annotation.  `__init__.py` files (whose imports are re-exports) and
lines marked `# noqa: F401` are exempt."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src/gtsreal", "tests") for p in (ROOT / d).glob("*.py")
                 if p.name != "__init__.py")


def _bound_imports(tree: ast.Module, lines: list[str]):
    """(name, line) for every name a module-level import binds."""
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            yield name, node.lineno


def _read_names(tree: ast.AST) -> set[str]:
    """Every name the tree reads, names in string type expressions included."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        for expr in _type_expressions(node):
            for c in ast.walk(expr):
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    try:
                        names |= _read_names(ast.parse(c.value, mode="eval"))
                    except SyntaxError:
                        pass
    return names


def _type_expressions(node: ast.AST) -> list:
    """The annotations and subscript slices of one node."""
    if isinstance(node, (ast.arg, ast.AnnAssign)):
        return [node.annotation] if node.annotation is not None else []
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns] if node.returns is not None else []
    if isinstance(node, ast.Subscript):
        return [node.slice]
    return []


def unused_imports(text: str) -> list[str]:
    """Each module-level import of `text` that is never read, as "line: name"."""
    tree = ast.parse(text)
    used = _read_names(tree)
    return [f"{line}: {name}" for name, line in _bound_imports(tree, text.splitlines())
            if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_gate_sees_an_unused_import():
    text = ("from __future__ import annotations\n"
            "import os\n"
            "import sys  # noqa: F401\n"
            "from typing import Optional, Tuple\n"
            "import os.path as osp\n"
            "x: 'Optional[int]' = osp.sep\n"
            "y = 'Tuple'\n")
    assert unused_imports(text) == ["2: os", "4: Tuple"]
