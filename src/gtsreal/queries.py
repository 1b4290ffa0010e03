"""Query documents: a small exact-rational language for declaring sets,
families, metrics, bornologies and maps, and running the library's decision
procedures over them.  `gtsreal print-grammar` documents the surface.

`QUERIES` is the one list of query kinds.  Each row holds the argument
grammar, which the parser reads and `print-grammar` prints, and the library
call that answers it, whose value `report.run` renders.  `EXPRESSIONS`
holds the same kind of rows for the constructors of sets, families, index
ranges, metrics, bornologies and maps: one reader, `_Parser.expr`, reads
them all.
"""

from __future__ import annotations

import re
import string
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from operator import eq, itemgetter
from typing import Callable, NamedTuple, Tuple

from gtsreal import lines, oracles, realset
from gtsreal.checkers import (
    PiecewiseAffineMap,
    axiom_probe,
    base_check,
    chain_check,
    chain_search,
    initial_bornology_member,
    metrizable_verdict,
    proper_check,
    strict_cont_refute,
    uniform_chain_check,
)
from gtsreal.covers import (
    ALL_INDICES,
    CovCollection,
    Fan,
    IndexRange,
    Periodic,
    PreconditionError,
    Restricted,
    Split,
    ef_member,
    ess_finite,
    ess_finite_on,
    finite_family,
    full_ring_closure,
    gen_topology,
    gen_topology_member,
    generation_levels,
    member_generated,
    members,
    union_of,
)
from gtsreal.lines import (
    BaseSchema,
    Bornology,
    LineId,
    acb_member,
    cb_member,
    cov_member,
    custom_bornology,
    locally_ess_finite,
    metric_bounded,
    op_member,
    pt_of,
    sm_member,
)
from gtsreal.qmetric import MetricName, PhiMode, QuasiMetric, metric
from gtsreal.realset import (
    EMPTY,
    NEG_INF,
    POS_INF,
    REALS,
    ConstructionError,
    Interval,
    PeriodicTail,
    RealSet,
    TopologyKind,
)

_DECLARATIONS = """\
gtsreal query documents (schema v1)
===================================

Statements are separated by ';' or newlines; '#' starts a comment.

  set NAME = SET              family NAME = FAMILY
  metric NAME = METRIC        bornology NAME = BORN
  map NAME = MAP              collection NAME = collection(FAMILY, ...) [in SET]
  query ...

A declared NAME may not be a built-in word of its kind, such as empty, point
or d_n.  RAT is an exact rational: 3, -7/2.  EXT is a RAT, inf or -inf.  INT
is an integer.  KIND is one of nat, upper, lower, sorg_r, sorg_l, discrete.
LINE is e.g. standard/lst or sorgenfrey/om.  COLLECTION is the NAME of a
collection declared above.  (X, ...) is a list of one or more X; ([X, ...])
may also be empty.  a|b is a choice of words.

tail(side, pattern, period, cut) repeats a tail-free pattern inside
[0, period) beyond the cut.  An OPERAND is a SET; union(...) canonicalizes
its tail(...) operands together with the others.  A MAP affine(slope,
intercept) is x -> slope * x + intercept.  A schema end AFF is
affine(RAT, RAT) | RAT | inf | -inf: affine(alpha, beta) is the end
alpha + beta * n of B_n, a RAT the constant end, and inf or -inf no end.
"""

# Parenthesis depth a document may nest to; deeper input is a parse error.
MAX_NESTING = 200


class ParseError(ValueError):
    def __init__(self, msg, line, col):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


# One match per token: the blanks and the comment before a token are part of
# its match, and the group is the token.  The last alternative takes the end
# of input or any other character, so the matches are contiguous and the
# first empty one is the end of input.  An optional part is written
# `(?:X|)`, which matches what `(?:X)?` matches in fewer steps of `re`.  A
# token's kind is read off its text by `_KIND_OF_FIRST` and `_KIND_OF_TEXT`
# below, which must change together with these alternatives.
_TOKEN = re.compile(r"""
    [ \t]*(?:\#[^\n]*|)
    (   -inf\b | [A-Za-z_][A-Za-z0-9_]*(?:/[A-Za-z_][A-Za-z0-9_]*|)
      | [(),=]
      | -?\d+(?:/\d+|)
      | [\n;]
      | .|\Z
    )
""", re.VERBOSE)


class _FirstKinds(dict):
    """A token's kind by its first character.  `\\d` in `_TOKEN` is any
    Unicode decimal digit, as `str.isdecimal` is, so a character missing
    from the table starts a rat if it is one and no token (None) if not."""

    def __missing__(self, first: str):
        return "rat" if first.isdecimal() else None


# A token's kind by its first character, unless its whole text says
# otherwise: '-' starts a rat, -inf is a name, and '-' alone and any other
# character (None) start no token.  These tables follow the alternatives of
# `_TOKEN` and must change with them.
_KIND_OF_FIRST = _FirstKinds({**dict.fromkeys(string.ascii_letters + "_", "name"),
                              **dict.fromkeys(string.digits + "-", "rat"),
                              **dict.fromkeys("(),=", "punct"), "\n": "sep", ";": "sep"})
_KIND_OF_TEXT = {"-inf": "name", "-": None}
_FIRST = itemgetter(0)
_NEWLINE = re.compile("\n")


class Token(NamedTuple):
    """One token: its kind, text and offset in the document, and the
    document's `Tokens`, which work out its line and column when read."""

    kind: str
    text: str
    offset: int
    tokens: "Tokens"

    @property
    def line(self) -> int:
        return self.tokens.position(self.offset)[0]

    @property
    def col(self) -> int:
        return self.tokens.position(self.offset)[1]


class Tokens:
    """A document's tokens as parallel lists of kinds and texts, ending with
    an "end" token at the last token's offset.  Newlines and ';' are "sep"
    tokens; a newline keeps its text "\n" in `texts`, where no reader
    compares it, and its `Token` has the text ';'.  Indexing gives a
    `Token`.

    Offsets, and lines and columns from them, are worked out only when an
    error or a caller asks for them: offsets by a second pass of `_TOKEN`,
    lines and columns by bisecting the document's newline offsets."""

    __slots__ = ("source", "kinds", "texts", "_offsets", "_newlines")

    def __init__(self, source: str, kinds: list, texts: list):
        self.source = source
        self.kinds = kinds
        self.texts = texts
        self._offsets = None
        self._newlines = None

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, i: int) -> Token:
        text = self.texts[i]
        return Token(self.kinds[i], ";" if text == "\n" else text, self.offset(i), self)

    def offset(self, i: int) -> int:
        """The offset of token i in the document."""
        if self._offsets is None:
            n = len(self.kinds) - 1
            starts = [m.start(1) for m in _TOKEN.finditer(self.source)][:n]
            self._offsets = starts + [starts[-1] if starts else 0]
        return self._offsets[i]

    def position(self, offset: int) -> Tuple[int, int]:
        """The line and column of an offset, both counted from 1."""
        if self._newlines is None:
            self._newlines = [m.start() for m in _NEWLINE.finditer(self.source)]
        line = bisect_left(self._newlines, offset)
        return line + 1, offset - (self._newlines[line - 1] if line else -1)


def _tokenize(text: str) -> Tokens:
    """The tokens of `text`: the texts from one `findall` pass of `_TOKEN`,
    their kinds looked up by `map`.  Whitespace and comments are dropped."""
    texts = _TOKEN.findall(text)
    del texts[texts.index(""):]
    firsts = map(_KIND_OF_FIRST.__getitem__, map(_FIRST, texts))
    kinds = list(map(_KIND_OF_TEXT.get, texts, firsts))
    kinds.append("end")
    texts.append("")
    toks = Tokens(text, kinds, texts)
    if None in kinds:
        t = toks[kinds.index(None)]
        raise ParseError(f"unexpected character {t.text!r}", t.line, t.col)
    return toks


_KINDS = {k.value: k for k in TopologyKind}

_NAMED_BORNS = {"fb": lines.FB, "all_sets": lines.ALL_SETS,
                "nat_bounded": lines.NAT_BOUNDED, "ub": lines.UB,
                "lb": lines.LB, "uf_small": lines.UF_SMALL}


@dataclass(frozen=True)
class Query:
    """One row of a grammar table: a query kind, `query NAME <grammar>`,
    whose answer is the value `run(*args)` returns (`report.run` renders
    it), or an expression constructor, `NAME<grammar>`, built by
    `run(*args)` right after its last token.

    In the grammar an upper-case word names a parser reader (see
    `_READERS`), `(X, ...)` is a parenthesised list of one or more X and
    `([X, ...])` one that may be empty, `X, ...)` ends an open list with one
    or more X, where X may also be a keyword with its grammar, `a|b` is a
    choice of keywords, and any other word is a keyword.  `run` gets one
    argument per reader, list or choice, in order."""

    grammar: str
    run: Callable


class Expr(NamedTuple):
    """An expression kind: its constructor rows by keyword, the QueryDoc
    environment of its declared names ("" for none) and its noun."""

    rows: dict
    env: str
    noun: str


_WORD = re.compile(r"(\((\[)?)?([A-Z]+|[a-z_]+\([^()]*\)), \.\.\.\]?\)|[(),]|[^\s(),]+")


@lru_cache(maxsize=256)
def _steps(grammar: str) -> tuple:
    """A grammar compiled into the steps of `_Parser.read`: for each word,
    the _Parser method that reads it, its one argument (None for a method
    that takes none) and whether its value is kept."""
    steps = []
    for m in _WORD.finditer(grammar):
        word, item = m.group(), m.group(3)
        if item is not None:
            read = _READERS.get(item) or (_Parser.read, item)
            steps.append((_Parser.list_of, (*read, bool(m.group(1)), bool(m.group(2))), True))
        elif word in _READERS:
            steps.append((*_READERS[word], True))
        elif "|" in word:
            steps.append((_Parser.one_of, tuple(word.split("|")), True))
        else:
            steps.append((*_PUNCT.get(word, (_Parser.expect, word)), False))
    return tuple(steps)


@dataclass
class QueryDoc:
    """Parsed document: declaration environments plus the query list.

    Equality and printing go through the normalized statement texts, so
    parse(print(doc)) == doc.  The texts are rendered from the document's
    token texts only when asked for."""

    queries: Tuple[Tuple[str, tuple], ...] = ()
    sets: dict = field(default_factory=dict)
    families: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    bornologies: dict = field(default_factory=dict)
    maps: dict = field(default_factory=dict)
    collections: dict = field(default_factory=dict)
    texts: list = field(default_factory=list, repr=False)
    spans: Tuple[Tuple[int, int], ...] = field(default=(), repr=False)

    @property
    def statements(self) -> Tuple[str, ...]:
        """Each statement's tokens, one space apart except around '(', ')'
        and before ','."""
        return tuple(_render(self.texts[a:b]) for a, b in self.spans)

    def print(self) -> str:
        statements = self.statements
        return "\n".join(statements) + ("\n" if statements else "")

    def __eq__(self, other):
        return isinstance(other, QueryDoc) and self.statements == other.statements


def _render(texts) -> str:
    s = " ".join(texts)
    return s.replace(" (", "(").replace("( ", "(").replace(" )", ")").replace(" ,", ",")


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.kinds = self.toks.kinds
        self.texts = self.toks.texts
        self.i = 0
        self.depth = 0
        self.doc = QueryDoc(texts=self.texts)

    # -- token plumbing ---------------------------------------------------
    # The token lists end with an "end" token, so reading one past the
    # current token never leaves them.  A reader that fails raises at the
    # token it was reading.

    def error(self, msg: str, i: int) -> ParseError:
        """A ParseError at token i."""
        t = self.toks[i]
        return ParseError(msg, t.line, t.col)

    def unexpected(self, expected: str) -> ParseError:
        """The error of a current token that is not the `expected` one."""
        t = self.toks[self.i]
        if t.kind == "end":
            return ParseError("unexpected end of input", t.line, t.col)
        return ParseError(f"expected {expected}, found {t.text!r}", t.line, t.col)

    def at(self, text: str) -> bool:
        return self.texts[self.i] == text

    def expect(self, text: str) -> None:
        if self.texts[self.i] != text:
            raise self.unexpected(repr(text))
        self.i += 1

    def open(self) -> None:
        self.expect("(")
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"nested deeper than {MAX_NESTING}", self.i - 1)

    def close(self) -> None:
        self.expect(")")
        self.depth -= 1

    def name(self) -> str:
        i = self.i
        if self.kinds[i] != "name":
            raise self.unexpected("a name")
        self.i = i + 1
        return self.texts[i]

    def one_of(self, choices) -> str:
        word = self.texts[self.i]
        if word not in choices:
            if self.kinds[self.i] != "name":
                raise self.unexpected("a name")
            raise self.error(f"expected {' or '.join(choices)}, found {word!r}", self.i)
        self.i += 1
        return word

    def rat(self) -> Fraction:
        i = self.i
        if self.kinds[i] == "rat":
            self.i = i + 1
            try:
                return _literal(self.texts[i])
            except ValueError as e:
                raise self.error(str(e), i) from None
        if self.texts[i] == "inf" or self.texts[i] == "-inf":
            raise self.error("infinite value not allowed here", i)
        raise self.unexpected("a rational")

    def ext(self):
        text = self.texts[self.i]
        if text == "inf" or text == "-inf":
            self.i += 1
            return POS_INF if text == "inf" else NEG_INF
        return self.rat()

    def int_(self) -> int:
        i = self.i
        if self.kinds[i] != "rat" or "/" in self.texts[i]:
            raise self.unexpected("an integer")
        return self.rat().numerator

    def list_of(self, spec: tuple) -> tuple:
        """A comma-separated list up to its ')', after a '(' when `opens`,
        of items each read by the step (read, arg): `spec` is (read, arg,
        opens, empty_ok)."""
        read, arg, opens, empty_ok = spec
        if opens:
            self.open()
        out = []
        if not (empty_ok and self.texts[self.i] == ")"):
            out.append(read(self) if arg is None else read(self, arg))
            while self.texts[self.i] == ",":
                self.i += 1
                out.append(read(self) if arg is None else read(self, arg))
        self.close()
        return tuple(out)

    def read(self, grammar: str) -> tuple:
        """Read the input `grammar` describes (see `Query`) by its compiled
        steps (see `_steps`); return the values of its readers, lists and
        keyword choices, in order."""
        out = []
        for read, arg, keep in _steps(grammar):
            value = read(self) if arg is None else read(self, arg)
            if keep:
                out.append(value)
        return tuple(out)

    # -- statement level ----------------------------------------------------

    def parse(self) -> QueryDoc:
        spans = []
        queries = []
        kinds = self.kinds
        while kinds[self.i] != "end":
            if kinds[self.i] == "sep":
                self.i += 1
                continue
            start = self.i
            word = self.name()
            try:
                if word == "query":
                    queries.append(self.query_expr())
                elif word in _DECLARATION_READERS:
                    kind = _DECLARATION_READERS[word]
                    env = getattr(self.doc, kind.env)
                    name = self._decl_name(env, kind)
                    self.expect("=")
                    env[name] = self.collection_expr() if kind is _COLLECTIONS \
                        else self.expr(kind)
                else:
                    raise self.error(f"unknown statement {word!r}", start)
            except (ConstructionError, PreconditionError) as e:
                raise self.error(str(e), self.i - 1) from None
            spans.append((start, self.i))
            if kinds[self.i] != "sep" and kinds[self.i] != "end":
                raise self.error(f"expected end of statement, found {self.texts[self.i]!r}",
                                 self.i)
        self.doc.spans = tuple(spans)
        self.doc.queries = tuple(queries)
        return self.doc

    def _decl_name(self, env: dict, kind: Expr) -> str:
        word = self.name()
        if word in kind.rows:
            raise self.error(f"cannot declare {word!r}: it is a built-in {kind.noun} word",
                             self.i - 1)
        if word in env:
            raise self.error(f"duplicate declaration of {word!r}", self.i - 1)
        return word

    def query_expr(self):
        word = self.name()
        q = QUERIES.get(word)
        if q is None:
            raise self.error(f"unknown query {word!r}", self.i - 1)
        return (word, self.read(q.grammar))

    # -- expressions ---------------------------------------------------------

    def expr(self, kind: Expr):
        """One expression of `kind`: a row keyword and what the row's grammar
        reads, built by the row, or a name declared in the kind's
        environment."""
        word = self.name()
        row = kind.rows.get(word)
        if row is not None:
            return row.run(*self.read(row.grammar)) if row.grammar else row.run()
        if not kind.env:
            raise self.error(f"expected {' or '.join(kind.rows)}, found {word!r}", self.i - 1)
        env = getattr(self.doc, kind.env)
        if word in env:
            return env[word]
        raise self.error(f"unknown identifier {word!r} (expected a {kind.noun})", self.i - 1)

    def kind(self) -> TopologyKind:
        return _KINDS[self.one_of(_KINDS)]

    def affine(self):
        """AFF: affine(RAT, RAT), a RAT, which is the pair (RAT, 0), or inf
        or -inf, which is None."""
        if self.kinds[self.i] == "rat":
            return (self.rat(), Fraction(0))
        if self.at("inf") or self.at("-inf"):
            self.i += 1
            return None
        return self.read("affine(RAT, RAT)")

    def line_id(self) -> LineId:
        word = self.name()
        if "/" not in word:
            raise self.error(f"expected LINE like standard/lst, found {word!r}", self.i - 1)
        try:
            return lines.line(word)
        except ConstructionError:
            raise self.error(f"unknown line {word!r}", self.i - 1) from None

    def collection_expr(self) -> CovCollection:
        fams, = self.read("collection(FAMILY, ...)")
        carrier = REALS
        if self.at("in"):
            self.i += 1
            carrier, = self.read("SET")
        return CovCollection.from_specs(fams, carrier)

    def collection_ref(self) -> CovCollection:
        word = self.name()
        if word not in self.doc.collections:
            raise self.error(f"unknown collection {word!r}", self.i - 1)
        return self.doc.collections[word]


def _int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:
        # only Python's int-string limit fails on a `rat` token's digits
        raise ValueError(f"literal longer than {sys.get_int_max_str_digits()} digits") \
            from None


@lru_cache(maxsize=1024)
def _literal(text: str) -> Fraction:
    """The value of a `rat` token's text; a ValueError carries the parse
    error of a zero denominator or a literal over the int-string limit.
    A document's literals repeat: memoized, each is built once."""
    num, slash, den = text.partition("/")
    if not slash:
        return Fraction(_int(num))
    d = _int(den)
    if d == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(_int(num), d)


def parse(text: str) -> QueryDoc:
    """Parse a query document; raises ParseError with line:column context."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# the expression tables
# ---------------------------------------------------------------------------

def _named(value) -> Query:
    """The row of a built-in constant: no grammar, always `value`."""
    return Query("", lambda: value)


def _interval(lc, lo, hc, hi) -> RealSet:
    """interval(...): a closed bracket on an infinite end reads as open."""
    return realset.interval(lo, hi, lc == "closed" and realset.is_finite(lo),
                            hc == "closed" and realset.is_finite(hi))


def _raw_tail(side, pattern, period, cut) -> PeriodicTail:
    """tail(...) as a raw tail: the pattern is the SET read, not yet
    reduced, and must have no tail of its own."""
    if pattern.left_tail is not None or pattern.right_tail is not None:
        raise ConstructionError("tail pattern must be tail-free")
    return PeriodicTail(pattern.core, period, side, cut)


def _tail_set(t: PeriodicTail) -> RealSet:
    """The canonical set of one raw tail."""
    return realset.normalize((), *((t, None) if t.direction == "left" else (None, t)))


def _union(operands) -> RealSet:
    """union(OPERAND, ...).  Its tail(...) operands come raw and are
    canonicalized once, with the other operands' pieces, unless an other
    operand has a tail, two raw tails share a side or `misread_tail` flags
    one.  Then each raw tail is canonicalized alone and `union_all` takes
    the operands, in order: for a flagged tail its pairwise fold answers
    differently (ROADMAP item 1)."""
    tails = [x for x in operands if isinstance(x, PeriodicTail)]
    if not tails:
        return realset.union_all(operands)
    sets = [x for x in operands if isinstance(x, RealSet)]
    sides = {t.direction: t for t in tails}
    if len(sides) == len(tails) and \
            all(s.left_tail is None and s.right_tail is None for s in sets) and \
            not any(realset.misread_tail(t) for t in tails):
        return realset.normalize([iv for s in sets for iv in s.core],
                                 sides.get("left"), sides.get("right"))
    return realset.union_all([_tail_set(x) if isinstance(x, PeriodicTail) else x
                              for x in operands])


def _schema(lc, lo, hc, hi) -> Bornology:
    return custom_bornology(BaseSchema(lo=lo, hi=hi, lo_closed=lc == "closed" and lo is not None,
                                       hi_closed=hc == "closed" and hi is not None))


_TAIL = "(left|right, SET, RAT, RAT)"

_SETS = {
    "empty": _named(EMPTY),
    "reals": _named(REALS),
    "point": Query("RAT", realset.point),
    "points": Query("(RAT, ...)", realset.points),
    "interval": Query("(open|closed EXT, open|closed EXT)", _interval),
    "union": Query("(OPERAND, ...)", _union),
    "intersect": Query("(SET, ...)", lambda sets: reduce(RealSet.intersect, sets)),
    "complement": Query("(SET)", RealSet.complement),
    "difference": Query("(SET, SET)", RealSet.difference),
    "closure": Query("(SET, KIND)", RealSet.closure),
    "interior": Query("(SET, KIND)", RealSet.interior),
    "tail": Query(_TAIL, lambda *parts: _tail_set(_raw_tail(*parts))),
}

# The grammar words whose expressions the parser reads through rows, and
# the order `print-grammar` prints their sections in.
EXPRESSIONS: dict[str, Expr] = {
    "SET": Expr(_SETS, "sets", "set"),
    "FAMILY": Expr({
        "finite": Query("([SET, ...])", finite_family),
        "periodic": Query("(SET, RAT, RANGE)", Periodic),
        "split": Query("(RAT, FAMILY, FAMILY)", Split),
        "restricted": Query("(FAMILY, SET)", Restricted),
        "fan": Query("(down|up, RAT, RAT)", lambda side, lo, hi: Fan(lo, hi, side)),
    }, "families", "family"),
    "RANGE": Expr({
        "all": _named(ALL_INDICES),
        "from": Query("INT", lambda lo: IndexRange(lo, None)),
        "upto": Query("INT", lambda hi: IndexRange(None, hi)),
        "span": Query("INT INT", IndexRange),
    }, "", "range"),
    "METRIC": Expr({
        **{m.value: _named(metric(m)) for m in MetricName},
        "conj": Query("(METRIC)", QuasiMetric.conjugate),
        "float_paper": Query("(METRIC)", lambda d: QuasiMetric(d.name, PhiMode.FLOAT_PAPER,
                                                               d.conjugated)),
    }, "metrics", "metric"),
    "BORN": Expr({
        **{name: _named(b) for name, b in _NAMED_BORNS.items()},
        "metric_bounded": Query("(METRIC)", metric_bounded),
        "schema": Query("(open|closed AFF, open|closed AFF)", _schema),
    }, "bornologies", "bornology"),
    "MAP": Expr({
        "affine": Query("(RAT, RAT)", PiecewiseAffineMap.affine),
        "pieces": Query("(breaks(RAT, ...), piece(RAT, RAT), piece(RAT, RAT), ...)",
                        lambda breaks, slope, intercept, rest:
                        PiecewiseAffineMap(breaks, ((slope, intercept), *rest))),
    }, "maps", "map"),
}
# A union's operand: a SET whose tail(...) stays raw for `_union`.
_OPERAND = Expr({**_SETS, "tail": Query(_TAIL, _raw_tail)}, "sets", "set")
_COLLECTIONS = Expr({}, "collections", "collection")

# Upper-case grammar words: the _Parser method that reads each and its
# arguments.
_READERS = {
    **{word: (_Parser.expr, kind) for word, kind in EXPRESSIONS.items()},
    "OPERAND": (_Parser.expr, _OPERAND),
    "LINE": (_Parser.line_id, None), "KIND": (_Parser.kind, None), "RAT": (_Parser.rat, None),
    "INT": (_Parser.int_, None), "COLLECTION": (_Parser.collection_ref, None),
    "EXT": (_Parser.ext, None), "AFF": (_Parser.affine, None),
}
# The parentheses of a grammar, which track the nesting depth.
_PUNCT = {"(": (_Parser.open, None), ")": (_Parser.close, None)}

# Declaration keyword -> the kind of its right-hand side.
_DECLARATION_READERS = {
    "set": EXPRESSIONS["SET"], "family": EXPRESSIONS["FAMILY"],
    "metric": EXPRESSIONS["METRIC"], "bornology": EXPRESSIONS["BORN"],
    "map": EXPRESSIONS["MAP"], "collection": _COLLECTIONS,
}


# ---------------------------------------------------------------------------
# the query table
# ---------------------------------------------------------------------------

def _schema_of(b: Bornology):
    sc = b.schema
    if sc is None:
        raise PreconditionError(f"{b} has no indexed base")
    return sc


def _bounded(schema, bound: int):
    """schema, once a query's index bound is checked against it: the
    checkers decide every index, so the bound must only not lie below the
    first one.  None passes, for the caller to refuse."""
    if schema is not None and bound < schema.n0:
        raise PreconditionError(
            f"index bound {bound} is below the first base index {schema.n0}")
    return schema


def _proper(b: Bornology, t1, t2, bound: int):
    # a bornology without a base is proper_check's error, raised first
    _bounded(b.schema, bound)
    return proper_check(b, t1, t2)


def _members(fam):
    ms = members(fam)
    return "not finitely enumerable" if ms is None else sorted(ms, key=str)


def _oracle(fam, k0, k1, k_set, cap) -> bool:
    trunc = fam.truncated(k0, k1)
    if trunc is None:
        raise oracles.OracleRefusal("family is not finitely enumerable")
    return oracles.oracle_ess_finite(trunc, k_set, cap, full_union=union_of(fam))


QUERIES: dict[str, Query] = {
    "normalize": Query("SET", str),
    "boundedness": Query("SET", RealSet.boundedness),
    "subset": Query("SET SET", RealSet.is_subset),
    "equal": Query("SET SET", eq),
    "contains": Query("SET RAT", RealSet.contains_point),
    "sample": Query("SET from RAT to RAT step RAT", lambda a, lo, hi, step:
                    a.sample_points(Interval(lo, hi, True, True), step)),
    "closure": Query("SET KIND", RealSet.closure),
    "interior": Query("SET KIND", RealSet.interior),
    "eval": Query("METRIC RAT RAT", QuasiMetric.eval),
    "ball": Query("METRIC at RAT radius RAT", QuasiMetric.ball),
    "nbhd": Query("METRIC SET delta RAT", QuasiMetric.nbhd),
    "bounded_set": Query("METRIC SET", QuasiMetric.is_bounded_set),
    "topology_of": Query("METRIC", lambda d: d.topology_of().value),
    "union_of": Query("FAMILY", union_of),
    "members": Query("FAMILY", _members),
    "ess_finite": Query("FAMILY", ess_finite),
    "ess_finite_on": Query("FAMILY SET", ess_finite_on),
    "locally_ess_finite": Query("FAMILY", locally_ess_finite),
    "full_ring": Query("SET of ([SET, ...])", lambda y, gens: full_ring_closure(gens, y)),
    "gen_topology": Query("([SET, ...])", gen_topology),
    "gen_topology_member": Query("([SET, ...]) SET", gen_topology_member),
    "ef_member": Query("FAMILY KIND BORN", ef_member),
    "member_generated": Query("FAMILY COLLECTION INT", lambda fam, coll, depth:
                              member_generated(fam, generation_levels(coll), depth)),
    "op_member": Query("LINE SET", op_member),
    "cov_member": Query("LINE FAMILY", cov_member),
    "sm_member": Query("LINE SET", sm_member),
    "cb_member": Query("LINE SET", cb_member),
    "acb_member": Query("LINE SET", acb_member),
    "pt_of": Query("LINE", pt_of),
    "bornology_member": Query("BORN SET", Bornology.member),
    "proper_check": Query("BORN KIND KIND INT", _proper),
    "base_check": Query("BORN KIND", base_check),
    "chain_check": Query("METRIC BORN delta RAT upto INT", lambda d, b, delta, n:
                         chain_check(d, _bounded(_schema_of(b), n), delta)),
    "chain_search": Query("METRIC BORN upto INT", lambda d, b, n:
                          chain_search(d, _bounded(_schema_of(b), n))),
    "uniform_chain": Query("METRIC BORN upto INT", lambda d, b, n:
                           uniform_chain_check(d, _bounded(_schema_of(b), n))),
    "metrizable": Query("LINE BORN METRIC", metrizable_verdict),
    "strict_cont_refute": Query("MAP LINE LINE (FAMILY, ...)", strict_cont_refute),
    "axiom_probe": Query("LINE", axiom_probe),
    "initial_member": Query("maps(MAP, ...) borns(BORN, ...) SET", initial_bornology_member),
    "oracle_ess_finite": Query("FAMILY window INT INT SET max INT", _oracle),
}


def _section(word: str, kind: Expr) -> str:
    """The `print-grammar` lines of one expression kind: a row per line."""
    rows = "".join(f"  {kw}{'' if row.grammar[:1] in ('', '(') else ' '}{row.grammar}\n"
                   for kw, row in kind.rows.items())
    return f"\n{word}:\n{rows}" + ("  NAME\n" if kind.env else "")


GRAMMAR = _DECLARATIONS + "".join(_section(w, k) for w, k in EXPRESSIONS.items()) + """
QUERIES (answers are printed one per line, in document order):
""" + "".join(f"  query {name} {q.grammar}\n" for name, q in QUERIES.items())
