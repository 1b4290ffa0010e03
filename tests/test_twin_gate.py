"""The library writes each mirror-twin decision once.

The line's structure comes in mirror pairs (left and right tails, lower and
upper ends, the two Sorgenfrey orientations), and the kernel decides each
pair with one routine that takes the side as an argument.  Two functions of
one module, or two methods of one class, whose names differ only by a side
word fail this gate.  The one pair allowed is `RealSet.inf_value` /
`sup_value`: they are public, and other modules and the tests call them."""

import ast
from itertools import combinations
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src/gtsreal").glob("*.py"))
# each side word names its pair; "r" and "l" are side words only after "sorg"
SIDE_WORDS = {"left": "left|right", "right": "left|right", "lo": "lo|hi", "hi": "lo|hi",
              "inf": "inf|sup", "sup": "inf|sup", "upper": "upper|lower",
              "lower": "upper|lower", "below": "below|above", "above": "below|above"}
SORG_SIDES = {"r", "l"}
ALLOWED = {("realset", "RealSet", "inf_value", "sup_value")}


def _sideless(name: str) -> str:
    """The name with each side word replaced by the name of its pair."""
    words = name.split("_")
    out = []
    for i, w in enumerate(words):
        if w in SORG_SIDES and i and words[i - 1] == "sorg":
            out.append("r|l")
        else:
            out.append(SIDE_WORDS.get(w, w))
    return "_".join(out)


def _scopes(tree: ast.Module):
    """(scope name, function names) for the module and for each class."""
    yield "<module>", [n.name for n in tree.body
                       if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield node.name, [n.name for n in node.body
                              if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def twins(text: str, module: str) -> list[str]:
    """Each pair of same-scope functions of `text` whose names differ only
    by side words, outside the allowed pairs, as "scope: a / b"."""
    found = []
    for scope, names in _scopes(ast.parse(text)):
        for a, b in combinations(sorted(set(names)), 2):
            if _sideless(a) == _sideless(b) and (module, scope, a, b) not in ALLOWED:
                found.append(f"{scope}: {a} / {b}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_mirror_twins(path):
    assert twins(path.read_text(), path.stem) == []


def test_the_gate_sees_a_twin():
    text = ("def _left_germ(s): pass\n"
            "def _right_germ(s): pass\n"
            "def _sorg_r_close(iv): pass\n"
            "def _sorg_l_close(iv): pass\n"
            "def _nat_close(iv): pass\n"
            "def lo_key(v): pass\n"
            "def hi_key(v): pass\n"
            "def _closer(v): pass\n"
            "def _clr(v): pass\n"
            "class RealSet:\n"
            "    def inf_value(self): pass\n"
            "    def sup_value(self): pass\n"
            "    def above(self): pass\n"
            "    def below(self): pass\n"
            "    def _left_germ(self): pass\n"
            "class Other:\n"
            "    def _right_germ(self): pass\n")
    assert twins(text, "realset") == [
        "<module>: _left_germ / _right_germ",
        "<module>: _sorg_l_close / _sorg_r_close",
        "<module>: hi_key / lo_key",
        "RealSet: above / below",
    ]
    assert twins(text, "qmetric") == [
        "<module>: _left_germ / _right_germ",
        "<module>: _sorg_l_close / _sorg_r_close",
        "<module>: hi_key / lo_key",
        "RealSet: above / below",
        "RealSet: inf_value / sup_value",
    ]
