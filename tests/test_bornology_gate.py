"""The library reads a bornology through its normal form.

Which sides a bornology bounds comes from the `End`s of its base and its
isolated-points condition, and a metric's sides from `QuasiMetric.bounded_ends`,
the (below, above) pair of `End`s on its row.  So no library module compares
anything with a bornology name or a bounded kind, nothing compares
`bounded_kind`, and `qmetric.py` spells no bounded kind (nat, ub, lb, all) as
a string outside its docstrings: the `End` pairs are its one encoding.  The
query parser is out of scope: it compares with the keyword `all` of index
ranges, which names no bornology."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in (ROOT / "src/gtsreal").glob("*.py") if p.name != "queries.py")
KIND_WORDS = {"fb", "all", "nat_bounded", "ub", "lb", "metric", "uf_small", "custom", "nat"}
BOUNDED_WORDS = {"nat", "ub", "lb", "all"}


def kind_comparisons(text: str) -> list[str]:
    """Each comparison of `text` with a bornology name or a bounded kind,
    or of `bounded_kind`, as "line: what"."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.Compare):
            continue
        for n in ast.walk(node):
            if isinstance(n, ast.Constant) and n.value in KIND_WORDS:
                found.append(f"{node.lineno}: compares with {n.value!r}")
                break
            if isinstance(n, ast.Attribute) and n.attr == "bounded_kind":
                found.append(f"{node.lineno}: compares {n.attr}")
                break
    return sorted(found, key=lambda s: int(s.split(":")[0]))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_bornology_kind_comparison(path):
    assert kind_comparisons(path.read_text()) == []


def test_the_gate_sees_a_kind_comparison():
    text = ("def member(self, a):\n"
            "    if self.kind == 'fb':\n"
            "        return a.finite\n"
            "    if d.bounded_kind in ('ub', 'all'):\n"
            "        return True\n"
            "    k = d.bounded_kind\n"
            "    return k != 'nat' and self.kind is End.FREE and a.schema.kind == 'grid'\n")
    assert kind_comparisons(text) == [
        "2: compares with 'fb'",
        "4: compares bounded_kind",
        "7: compares with 'nat'",
    ]


def bounded_kind_strings(text: str) -> list[str]:
    """Each string constant of `text` outside docstrings that is a bounded
    kind, as "line: word"."""
    tree = ast.parse(text)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    found = sorted((n.lineno, n.col_offset, n.value) for n in ast.walk(tree)
                   if isinstance(n, ast.Constant) and n.value in BOUNDED_WORDS
                   and id(n) not in docstrings)
    return [f"{line}: {word!r}" for line, _, word in found]


def test_qmetric_spells_no_bounded_kind():
    assert bounded_kind_strings((ROOT / "src/gtsreal/qmetric.py").read_text()) == []


def test_the_gate_sees_a_bounded_kind_string():
    text = ('def f():\n'
            '    """all"""\n'
            '    return {"ub": "lb", "nat": 1}["all" if x else "ub"], "nat_bounded"\n')
    assert bounded_kind_strings(text) == [
        "3: 'ub'", "3: 'lb'", "3: 'nat'", "3: 'all'", "3: 'ub'"]
