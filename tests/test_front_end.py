"""The query front end against its references: the one-match-per-token
tokenizer against the tokenizer that matches blanks and comments on their
own, and union(...) declarations with raw tails against the parser that
canonicalizes every tail(...) alone."""

import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtsreal import realset
from gtsreal.queries import ParseError, _tokenize, parse

from helpers import ReferenceParser, reference_tokenize

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import evaldocs  # noqa: E402
from evaldocs import rat  # noqa: E402


def _outcome(f, text):
    try:
        return f(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


def _mutate(text: str, kind: str, rng: random.Random) -> str:
    i = rng.randrange(len(text) + 1)
    if kind == "tab":
        return text[:i] + "\t" + text[i:]
    if kind == "cr":
        return text[:i] + "\r" + text[i:]
    if kind == "bom":
        return "\ufeff" + text if rng.random() < 0.5 else text[:i] + "\ufeff" + text[i:]
    if kind == "comment":
        return text.rstrip("\n") + rng.choice((" # end", "#", "\t#; x("))
    if kind == "letter":
        return text[:i] + rng.choice("éλß") + text[i:]
    return text[:i]


MUTATIONS = ("tab", "cr", "bom", "comment", "letter", "truncate")


class TestTokenizer:
    def test_universe_documents_and_their_mutations(self):
        rng = random.Random(2026)
        for i in range(48):
            text, _ = evaldocs.document(i)
            assert _tokenize(text) == reference_tokenize(text)
            for kind in MUTATIONS:
                for _ in range(3):
                    mutated = _mutate(text, kind, rng)
                    assert _outcome(_tokenize, mutated) == _outcome(reference_tokenize, mutated)

    @settings(max_examples=600, deadline=None)
    @given(st.text(alphabet=" \t\n\r#;(),=-/_aZi9nf0é\ufeff", max_size=40))
    @example("")
    @example("# only a comment")
    @example("x -inf -infinity -3/4 a/b 7/ -")
    @example("set S = point 1\t# c\n\n;query normalize S #")
    def test_any_text(self, text):
        assert _outcome(_tokenize, text) == _outcome(reference_tokenize, text)

    def test_positions_and_errors(self):
        toks = _tokenize("set A =\tpoint 1 # c\n  query normalize A")
        assert [(t.kind, t.text, t.line, t.col) for t in toks] == [
            ("name", "set", 1, 1), ("name", "A", 1, 5), ("punct", "=", 1, 7),
            ("name", "point", 1, 9), ("rat", "1", 1, 15), ("sep", ";", 1, 20),
            ("name", "query", 2, 3), ("name", "normalize", 2, 9), ("name", "A", 2, 19),
            ("end", "", 2, 19)]
        with pytest.raises(ParseError, match=r"^2:3: unexpected character '\\r'$"):
            _tokenize("a\n  \rb")


PERIODS = st.sampled_from((F(1, 2), F(1), F(2)))


@st.composite
def plain_operand(draw):
    """A tail-free operand: a point, a bounded interval, a half-line or the
    whole line."""
    a, b = sorted(F(draw(st.integers(-12, 12)), 2) for _ in range(2))
    bound = st.sampled_from(("open", "closed"))
    shape = draw(st.sampled_from(("point", "bounded", "bounded", "down", "up", "reals")))
    if shape == "point" or (shape == "bounded" and a == b):
        return f"point {rat(a)}"
    if shape == "bounded":
        return f"interval({draw(bound)} {rat(a)}, {draw(bound)} {rat(b)})"
    if shape == "down":
        return f"interval(open -inf, {draw(bound)} {rat(b)})"
    if shape == "up":
        return f"interval({draw(bound)} {rat(a)}, open inf)"
    return "reals"


@st.composite
def pattern(draw, period):
    """A pattern inside [0, period): pieces on the period/4 grid, or one of
    two patterns the kernel misreads as full: two open halves, whose germ
    has period/2 and one open piece that long, and (0, period/2] u
    (period/2, period), stored as one open piece a period long."""
    shape = draw(st.sampled_from(("grid", "grid", "grid", "halves", "joined")))
    half = period / 2
    if shape == "halves":
        return f"union(interval(open 0, open {rat(half)}), " \
               f"interval(open {rat(half)}, open {rat(period)}))"
    if shape == "joined":
        return f"union(interval(open 0, closed {rat(half)}), " \
               f"interval(open {rat(half)}, open {rat(period)}))"
    pieces = []
    for _ in range(draw(st.integers(1, 2))):
        a = draw(st.integers(0, 3))
        b = draw(st.integers(a, 4))
        if a == b:
            pieces.append(f"point {rat(period * a / 4)}")
            continue
        lc = "closed" if draw(st.booleans()) else "open"
        hc = "closed" if draw(st.booleans()) and b < 4 else "open"
        pieces.append(f"interval({lc} {rat(period * a / 4)}, {hc} {rat(period * b / 4)})")
    return pieces[0] if len(pieces) == 1 else f"union({', '.join(pieces)})"


@st.composite
def raw_tail(draw):
    period = draw(PERIODS)
    side = draw(st.sampled_from(("left", "right")))
    cut = F(draw(st.integers(-8, 8)), 2)
    return f"tail({side}, {draw(pattern(period))}, {rat(period)}, {rat(cut)})"


@st.composite
def union_documents(draw):
    """`set S = union(...)` over plain operands and raw tails (none, one
    per side or two on one side), in any order, maybe with a named tailed
    operand declared before it."""
    operands = draw(st.lists(plain_operand(), max_size=3)) + \
        draw(st.lists(raw_tail(), max_size=3))
    head = ""
    if draw(st.booleans()):
        head = f"set N = {draw(raw_tail())}\n"
        operands.append("N")
    operands = draw(st.permutations(operands)) or ["empty"]
    return head + f"set S = union({', '.join(operands)})\n"


def _union_answer(parser, text):
    try:
        return str(parser(text).sets["S"])
    except ParseError as exc:
        return f"ParseError: {exc}"


# a union whose raw tail reduces to a germ the kernel misreads: its answer is
# the pairwise fold's, which ends in (11/2, +inf)
MISREAD_UNION = "set S = union(point 5, tail(right, union(interval(open 0, open 1/2), " \
                "interval(open 1/2, open 1)), 1, 0))\n"


class TestUnionDeclarations:
    @settings(max_examples=500, deadline=None)
    @given(union_documents())
    @example(MISREAD_UNION)
    @example("set S = union(tail(right, interval(closed 0, open 1), 1, 0), point -3)\n")
    @example("set S = union(tail(left, point 0, 1, 0), tail(left, point 1/2, 1, 0), "
             "tail(right, point 0, 1, 0))\n")
    @example("set N = tail(left, point 0, 1, 2)\nset S = union(tail(right, point 0, 1, 0), N)\n")
    @example("set S = union(reals, tail(right, interval(open 0, open 1/2), 1, 0))\n")
    @example("set S = union(point 1, tail(right, interval(closed 0, closed 1), 1, 0))\n")
    @example("set S = union(point 1, tail(right, interval(open -1, open 0), 1, 0), foo)\n")
    def test_matches_canonicalizing_each_tail_alone(self, text):
        assert _union_answer(parse, text) == \
            _union_answer(lambda t: ReferenceParser(t).parse(), text)

    def test_the_misread_germ_keeps_the_fold_answer(self):
        got = str(parse(MISREAD_UNION).sets["S"])
        assert got.endswith(" u (9/2, 11/2) u (11/2, +inf)")

    def test_a_tailed_union_is_canonicalized_once(self, monkeypatch):
        calls = []
        canonical = realset._canonical

        def counted(core, ltail, rtail):
            if ltail is not None or rtail is not None:
                calls.append(1)
            return canonical(core, ltail, rtail)
        monkeypatch.setattr(realset, "_canonical", counted)
        text = "set S = union(interval(closed 0, open 1), " \
               "tail(right, interval(closed 0, open 1/4), 1/2, 3))"
        assert str(parse(text).sets["S"]) == "[0, 1) u x>3|([0, 1/4) mod 1/2)~>"
        assert len(calls) == 1
        calls.clear()
        ReferenceParser(text).parse()
        assert len(calls) == 2
