"""The query front end against its references: the tokenizer against the
tokenizer that matches blanks and comments on their own, the parser with
compiled grammars against the word-by-word parser it replaced, and union(...)
declarations with raw tails against the parser that canonicalizes every
tail(...) alone.  Tokens are compared by their (kind, text, line, col)."""

import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtsreal import realset
from gtsreal.queries import ParseError, _tokenize, parse

from helpers import ReferenceParser, WordParser, positions, reference_tokenize

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import evaldocs  # noqa: E402
from evaldocs import rat  # noqa: E402


def _outcome(f, text):
    try:
        return f(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


def _tokens(tokenize):
    return lambda text: positions(tokenize(text))


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
    if kind == "digit":
        zero = rng.choice((0x660, 0x966, 0xFF10, 0x1D7CE))
        return text.translate({ord("0") + d: zero + d for d in range(10)})
    return text[:i]


MUTATIONS = ("tab", "cr", "bom", "comment", "letter", "digit", "truncate")
TEXTS = st.text(alphabet=" \t\n\r#;(),=-/_aZi9nf0é\ufeff\u0663", max_size=40)
# Every character that str.isnumeric() accepts: the decimal digits of every
# script, which `\d` reads as a rat's digits, and the other numerals, which
# start no token.
NUMERICS = [c for c in map(chr, range(0x110000)) if c.isnumeric()]


def _mutants(count: int, seed: int):
    """The first `count` universe documents, each with three mutants of
    every kind."""
    rng = random.Random(seed)
    for i in range(count):
        text, _ = evaldocs.document(i)
        yield text
        for kind in MUTATIONS:
            for _ in range(3):
                yield _mutate(text, kind, rng)


def long_document(lines: int = 2000) -> str:
    """A document of `lines` lines that parses: declarations and queries
    indented by tabs and blanks, ';' separators, blank lines, and comments
    holding a CR and non-ASCII letters."""
    rng = random.Random(lines)
    out = ["# héllo\r wörld λ"]
    while len(out) < lines - 1:
        n = len(out)
        a = F(rng.randint(-40, 40), rng.choice((1, 2, 3, 4)))
        out += [f"set S{n} =\tinterval(open {rat(a)},  closed {rat(a + 1)})  # ß\r é",
                f"\t query normalize S{n} ; query contains S{n} {rat(a)};",
                "", f"  family P{n} = periodic(point {rat(a)}, 1/2, span -2 {n % 7})\t#\r"]
    return "\n".join(out[:lines - 1]) + "\n"


class TestTokenizer:
    def test_universe_documents_and_their_mutations(self):
        for text in _mutants(48, 2026):
            assert _outcome(_tokens(_tokenize), text) == \
                _outcome(_tokens(reference_tokenize), text)

    @settings(max_examples=600, deadline=None)
    @given(TEXTS)
    @example("")
    @example("# only a comment")
    @example("x -inf -infinity -3/4 a/b 7/ -")
    @example("set S = point 1\t# c\n\n;query normalize S #")
    def test_any_text(self, text):
        assert _outcome(_tokens(_tokenize), text) == _outcome(_tokens(reference_tokenize), text)

    def test_every_numeric_character(self):
        assert "\u0663" in NUMERICS and "\u00b2" in NUMERICS
        for c in NUMERICS:
            text = f"point {c} -{c}/{c}{c}"
            assert _outcome(_tokens(_tokenize), text) == \
                _outcome(_tokens(reference_tokenize), text), c

    def test_positions_deep_in_a_long_document(self):
        text = long_document()
        assert text.count("\n") == 1999 and "\r" in text and "ö" in text
        toks = _tokenize(text)
        assert len(toks) > 15000
        assert positions(toks) == positions(reference_tokenize(text))
        last = "\tquery contains S1 1/0"
        with pytest.raises(ParseError) as e:
            parse(text + last)
        assert str(e.value) == f"2000:{len(last) - 2}: zero denominator in '1/0'"

    def test_positions_and_errors(self):
        toks = _tokenize("set A =\tpoint 1 # c\n  query normalize A")
        assert [(t.kind, t.text, t.line, t.col) for t in toks] == [
            ("name", "set", 1, 1), ("name", "A", 1, 5), ("punct", "=", 1, 7),
            ("name", "point", 1, 9), ("rat", "1", 1, 15), ("sep", ";", 1, 20),
            ("name", "query", 2, 3), ("name", "normalize", 2, 9), ("name", "A", 2, 19),
            ("end", "", 2, 19)]
        with pytest.raises(ParseError, match=r"^2:3: unexpected character '\\r'$"):
            _tokenize("a\n  \rb")


ENVIRONMENTS = ("sets", "families", "metrics", "bornologies", "maps", "collections")


def _parsed(parser, text):
    """What `parser` makes of `text`: the exact ParseError text, or the
    document with its queries and the values it declares."""
    try:
        doc = parser(text)
    except ParseError as exc:
        return f"ParseError: {exc}"
    return doc, doc.queries, [getattr(doc, env) for env in ENVIRONMENTS]


def _word_parse(text):
    return WordParser(text).parse()


class TestAgainstTheWordParser:
    """The compiled grammars read every document as the word-by-word
    parser did: the same documents accepted, equal QueryDocs, queries and
    declared values, and the same ParseError text."""

    def test_a_slice_of_the_universe(self):
        for i in random.Random(27).sample(range(evaldocs.UNIVERSE), 160):
            text, _ = evaldocs.document(i)
            assert _parsed(parse, text) == _parsed(_word_parse, text), i

    def test_mutated_documents(self):
        for text in _mutants(16, 27):
            assert _parsed(parse, text) == _parsed(_word_parse, text), text

    @settings(max_examples=600, deadline=None)
    @given(TEXTS)
    @example("set A = points(1, 2,")
    @example("query chain_check d_n fb delta 1/2 upto 1/2")
    @example("family F = finite()\nquery gen_topology()\nquery full_ring reals of ()")
    def test_any_text(self, text):
        assert _parsed(parse, text) == _parsed(_word_parse, text)

    def test_every_numeric_character(self):
        for c in NUMERICS:
            text = f"set A = point -{c}/{c}{c}\nquery contains A {c}"
            assert _parsed(parse, text) == _parsed(_word_parse, text), c

    def test_a_long_document(self):
        text = long_document()
        got = _parsed(parse, text)
        assert got == _parsed(_word_parse, text)
        assert len(got[0].statements) == 1999


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
