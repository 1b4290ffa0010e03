"""Every `lru_cache` or `cache` decorator in the library sits on a
module-level function.

tests/conftest.py empties each module-level memo when a test module ends,
by clearing every callable with `cache_clear` among a module's names.  A memo
on a method or a nested function is no module name: conftest cannot reach
it, and its entries stay alive into the benchmark's traced tests, whose
runs start with a gc.collect() that walks every live object."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src/gtsreal").glob("*.py"))
MEMO_DECORATORS = {"lru_cache", "cache"}


def _is_memo(decorator: ast.expr) -> bool:
    """@lru_cache, @lru_cache(...), @functools.cache and the like."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = decorator.attr if isinstance(decorator, ast.Attribute) else \
        getattr(decorator, "id", None)
    return name in MEMO_DECORATORS


def misplaced_memos(text: str) -> list[str]:
    """Each memoized function of `text` that is not at module level, as
    "line: name"."""
    tree = ast.parse(text)
    top = set(map(id, tree.body))
    return [f"{node.lineno}: {node.name}" for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(map(_is_memo, node.decorator_list)) and id(node) not in top]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_memo_is_a_module_level_function(path):
    assert misplaced_memos(path.read_text()) == []


def test_the_gate_sees_a_memo_off_module_level():
    text = ("import functools\n"
            "from functools import cache, cached_property, lru_cache\n"
            "@functools.lru_cache(maxsize=8)\n"
            "def fine(x): return x\n"
            "class C:\n"
            "    @lru_cache(maxsize=8)\n"
            "    def method(self): return 1\n"
            "    @cached_property\n"
            "    def per_instance(self): return 2\n"
            "def outer():\n"
            "    @cache\n"
            "    def inner(): return 3\n"
            "    return inner\n")
    assert misplaced_memos(text) == ["7: method", "12: inner"]
