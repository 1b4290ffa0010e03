"""No module-level import in the library or the tests goes unused, and every
module still parses as Python 3.10, the oldest version pyproject.toml allows.

A stand-in for pyflakes' F401, which is not a dependency: an import counts as
used when its bound name is read anywhere in the module, in code or in a
string annotation.  `__init__.py` files (whose imports are re-exports) and
lines marked `# noqa: F401` are exempt."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src/gtsreal", "tests") for p in (ROOT / d).glob("*.py")
                 if p.name != "__init__.py")
MODULES = sorted(p for d in ("src/gtsreal", "tests", "perfbench")
                 for p in (ROOT / d).glob("*.py"))


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


# A quantifier followed by '+' (possessive) or an atomic group, which `re`
# accepts from Python 3.11 on; an escaped character and a character class
# are skipped first, so neither counts.
_NEWER_REGEX = re.compile(r"\\.|\[\^?\]?(?:\\.|[^\]\\])*\]|([*+?}]\+|\(\?>)", re.DOTALL)


def newer_regex_syntax(text: str) -> list[str]:
    """Each literal pattern of a `re.NAME(...)` call in `text` that uses
    regex syntax newer than Python 3.10, as "line: syntax"."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "re" \
                and node.args and isinstance(node.args[0], ast.Constant) \
                and isinstance(node.args[0].value, str):
            found += [f"{node.lineno}: {m[1]}" for m in _NEWER_REGEX.finditer(node.args[0].value)
                      if m[1]]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_module_parses_as_python_3_10(path):
    """`ast.parse` with `feature_version=(3, 10)` rejects the grammar that
    3.10 lacks, such as `except*`.  It is best-effort: the running parser
    does not reject every newer construct (nor any newer library call), so
    this gate narrows the gap and a 3.10 interpreter would close it."""
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", sorted((ROOT / "src/gtsreal").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_regex_syntax_newer_than_python_3_10(path):
    assert newer_regex_syntax(path.read_text(encoding="utf-8")) == []


def test_the_gate_sees_newer_syntax():
    text = ("import re\n"
            "A = re.compile(r'[a-z]*+[0-9]++x?+')\n"
            "B = re.match('(?>ab)c{2}+', s)\n"
            "C = re.compile(r'\\*+\\?+[*+][?+]a+b*(?:c|)')\n"
            "D = other.compile('a*+')\n")
    assert newer_regex_syntax(text) == ["2: *+", "2: ++", "2: ?+", "3: (?>", "3: }+"]
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
