"""A query's answer is written once: by its result's own text.

Each `queries.QUERIES` row names the library call that answers the query,
and `report.run` renders every answer through its one renderer, `_text`.
So `src/gtsreal/queries.py` defines no answer formatter (`_fmt` or a
function whose name ends in `_text`), and the `QUERIES` dict literal holds
no f-string and no `str(...)` call that would write an answer's text a
second time."""

import ast
from fractions import Fraction as F
from pathlib import Path

from gtsreal.realset import EMPTY, point
from gtsreal.report import _text

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src/gtsreal/queries.py"


def _queries_literal(tree: ast.Module):
    """The dict literal assigned to QUERIES, or None."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Dict):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "QUERIES" for t in targets):
                return node.value
    return None


def answer_formatting(text: str) -> list[str]:
    """Each answer formatter and each piece of answer text in `text`, as
    "line: what"."""
    tree = ast.parse(text)
    found = [(node.lineno, f"def {node.name}") for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and (node.name == "_fmt" or node.name.endswith("_text"))]
    table = _queries_literal(tree)
    for node in ast.walk(table) if table is not None else ():
        if isinstance(node, ast.JoinedStr):
            found.append((node.lineno, "f-string"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "str":
            found.append((node.lineno, "str(...)"))
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_queries_has_a_table():
    assert _queries_literal(ast.parse(SOURCE.read_text())) is not None


def test_no_answer_formatting_in_queries():
    assert answer_formatting(SOURCE.read_text()) == []


def test_the_gate_sees_answer_formatting():
    text = ("def _fmt(v):\n"
            "    return str(v)\n"
            "def _chain_text(rep):\n"
            "    return f'{rep}'\n"
            "def text(v):\n"
            "    return v\n"
            "OTHER = {'a': lambda x: str(x)}\n"
            "QUERIES: dict = {\n"
            "    'normalize': Query('SET', str),\n"
            "    'subset': Query('SET SET', lambda a, b: str(a.is_subset(b))),\n"
            "    'eval': Query('METRIC RAT RAT', lambda d, x, y: f'{d.eval(x, y)}'),\n"
            "}\n")
    assert answer_formatting(text) == ["1: def _fmt", "3: def _chain_text", "10: str(...)",
                                       "11: f-string"]


def test_the_renderer_writes_bools_lists_and_own_texts():
    assert _text(True) == "true" and _text(False) == "false"
    assert _text([F(1, 2), point(3), EMPTY]) == "[1/2, {3}, {}]"
    assert _text([]) == "[]"
    assert _text(F(-7, 2)) == "-7/2"
