"""The library reads a bornology through its normal form.

Which sides a bornology bounds comes from the `End`s of its base and its
isolated-points condition, and a metric's sides from the one table behind
`QuasiMetric.bounded_sides`.  So no library module compares anything with a
bornology name or a bounded kind, and nothing compares `bounded_kind`.  The
query parser is out of scope: it compares with the keyword `all` of index
ranges, which names no bornology."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in (ROOT / "src/gtsreal").glob("*.py") if p.name != "queries.py")
KIND_WORDS = {"fb", "all", "nat_bounded", "ub", "lb", "metric", "uf_small", "custom", "nat"}


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
