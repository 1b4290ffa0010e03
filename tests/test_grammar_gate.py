"""The parser reads expressions through the rows of its grammar tables.

`queries._Parser.expr` looks a name up in the rows of its expression kind,
so no code in `src/gtsreal/queries.py` tests a token or a word against a
row keyword of any table: constructor if-chains cannot come back.  A test
is a comparison (`==`, `!=`, `in`, `not in`, ...) with a keyword string or
with a tuple, list or set holding one, or a keyword string passed to the
parser's token tests `at`, `expect` and `one_of`."""

import ast
from pathlib import Path

from gtsreal.queries import EXPRESSIONS

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src/gtsreal/queries.py"
KEYWORDS = {keyword for kind in EXPRESSIONS.values() for keyword in kind.rows}
TOKEN_TESTS = {"at", "expect", "one_of"}


def _keywords(node: ast.AST) -> set[str]:
    """The row keywords that a comparison operand or an argument spells."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value} & KEYWORDS
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return {keyword for elt in node.elts for keyword in _keywords(elt)}
    return set()


def keyword_tests(text: str) -> list[str]:
    """Each test of `text` against a row keyword, as "line: keyword"."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in TOKEN_TESTS:
            operands = node.args
        else:
            continue
        found += [(node.lineno, keyword) for o in operands for keyword in _keywords(o)]
    return [f"{line}: {keyword}" for line, keyword in sorted(found)]


def test_the_tables_have_keywords():
    assert {"point", "tail", "union", "periodic", "span", "d_n", "conj", "fb",
            "schema", "affine", "pieces"} <= KEYWORDS


def test_no_keyword_test_in_queries():
    assert keyword_tests(SOURCE.read_text()) == []


def test_the_gate_sees_a_keyword_test():
    text = ("def set_expr(self, w, t, lc):\n"
            "    if w == 'point':\n"
            "        return self.rat()\n"
            "    if w in ('closure', 'interior', 'nat'):\n"
            "        return w\n"
            "    if self.at('tail') or 'fan' != t.text:\n"
            "        return self.one_of(['all', 'from'])\n"
            "    return lc == 'closed' and self.expect('(') and self.read('(SET, RAT)')\n")
    assert keyword_tests(text) == ["2: point", "4: closure", "4: interior", "6: fan",
                                   "6: tail", "7: all", "7: from"]
