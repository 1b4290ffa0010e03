"""The library reads family shapes through one protocol.

`covers._pieces` is the only code that asks which shape a family has: an
`isinstance` test against FiniteFamily, Periodic, Fan, Split or Restricted
anywhere else in `src/gtsreal` fails this gate.  A fan's side and a
periodic family's seed kind are read only by their constructors, which
derive the rays-up shapes through the mirror x -> -x: any other comparison
with a `side` or `seed_kind` attribute, or with one of the side strings,
fails too."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src/gtsreal").glob("*.py"))
SHAPES = {"FiniteFamily", "Periodic", "Fan", "Split", "Restricted"}
SIDE_NAMES = {"side", "seed_kind"}
SIDE_WORDS = {"down", "up", "bounded", "nested_up", "nested_down"}
ALLOWED = {"isinstance": {("covers", "_pieces")},
           "side": {"__init__", "__post_init__"}}


def _names(node: ast.AST) -> set[str]:
    """The names and attribute names that an expression mentions."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _reads_a_side(node: ast.Compare) -> bool:
    """Does the comparison read a fan's side or a seed kind?  A local named
    `side` (a tail's direction, say) counts only through the side words."""
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and n.attr in SIDE_NAMES or \
                isinstance(n, ast.Name) and n.id == "seed_kind" or \
                isinstance(n, ast.Constant) and n.value in SIDE_WORDS:
            return True
    return False


def shape_dispatches(text: str, module: str) -> list[str]:
    """Each shape test of `text` outside the places allowed to make it, as
    "line: what"."""
    found = []

    def visit(node: ast.AST, func: str):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "isinstance" and len(node.args) == 2 \
                and _names(node.args[1]) & SHAPES \
                and (module, func) not in ALLOWED["isinstance"]:
            found.append(f"{node.lineno}: isinstance in {func}")
        if isinstance(node, ast.Compare) and _reads_a_side(node) \
                and func not in ALLOWED["side"]:
            found.append(f"{node.lineno}: side comparison in {func}")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(text), "<module>")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_shape_dispatch_outside_pieces(path):
    assert shape_dispatches(path.read_text(), path.stem) == []


def test_the_gate_sees_a_shape_dispatch():
    text = ("def _pieces(f):\n"
            "    return isinstance(f, (Split, Restricted))\n"
            "class Fan:\n"
            "    def __post_init__(self):\n"
            "        self.up = self.side == 'up'\n"
            "    def member(self, q):\n"
            "        if self.side == 'down':\n"
            "            return q\n"
            "def union_of(f):\n"
            "    if isinstance(f, covers.Fan) or kind != 'nested_up':\n"
            "        return f.seed_kind\n"
            "    return [isinstance(f, int), 'up' in f.sides]\n")
    assert shape_dispatches(text, "covers") == [
        "7: side comparison in member",
        "10: isinstance in union_of",
        "10: side comparison in union_of",
        "12: side comparison in union_of",
    ]
    assert shape_dispatches(text, "queries") == [
        "2: isinstance in _pieces",
        "7: side comparison in member",
        "10: isinstance in union_of",
        "10: side comparison in union_of",
        "12: side comparison in union_of",
    ]
