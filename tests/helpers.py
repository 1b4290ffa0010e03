"""Shared randomized generators and sampling oracles for the test suite."""

from __future__ import annotations

import itertools
import random
import re
import sys
from fractions import Fraction
from math import comb
from typing import NamedTuple, Optional, Sequence

from gtsreal.covers import (
    ALL_INDICES,
    RULES,
    CovCollection,
    Fan,
    FamilySpec,
    IndexRange,
    Periodic,
    PreconditionError,
    Restricted,
    Split,
    finite_family,
    plus_step,
)
from gtsreal.lines import (
    ALL_SETS,
    FB,
    LB,
    NAT_BOUNDED,
    UB,
    BaseSchema,
    line,
    metric_bounded,
)
from gtsreal.lines import probe_corpus  # noqa: F401
from gtsreal.oracles import MAX_CHECKS, OracleRefusal
from gtsreal.qmetric import ALL_METRICS
from gtsreal.queries import (
    _COLLECTIONS,
    _DECLARATION_READERS,
    _OPERAND,
    EXPRESSIONS,
    MAX_NESTING,
    QUERIES,
    ParseError,
    QueryDoc,
)
from gtsreal.realset import (
    _EMPTY_GERM,
    EMPTY,
    NEG_INF,
    POS_INF,
    REALS,
    ConstructionError,
    Interval,
    RealSet,
    TopologyKind,
    _assemble,
    _pattern_reduce,
    _periodize,
    interval,
    normalize,
    open_iv,
    union_all,
    with_tails,
)

_TOPOLOGY_KINDS = {k.value: k for k in TopologyKind}

GRID_WINDOW = Interval(Fraction(-8), Fraction(8), True, True)
GRID_STEP = Fraction(1, 16)


# The translates (2k + 1, 2k + 2) restricted to a window that holds the
# (2k, 2k + 1): the window and the translates' union are unbounded both ways,
# the family's union is empty.
_ODD = (Interval(Fraction(0), Fraction(1), False, False),)
WINDOW_MISSES_UNION = Restricted(
    Periodic(open_iv(1, 2), Fraction(2)),
    with_tails(EMPTY, left=(_ODD, Fraction(2), Fraction(0)),
               right=(_ODD, Fraction(2), Fraction(0))))


def battery_candidates(l, num=Fraction):
    """The seven families `lines.admissible_battery` tries on line l, their
    endpoints and periods built by num."""
    sorg = l.spec.topology is TopologyKind.SORG_R

    def block(lo, hi):
        return interval(num(lo), num(hi), sorg, False)

    return [finite_family([REALS]),
            finite_family([block(k, k + 2) for k in (-3, -1, 0, 2)]),
            Periodic(block(0, 2), num(1)),
            Periodic(block(0, 2), num(1), IndexRange(0, None)),
            Periodic(block(0, 2), num(1), IndexRange(None, 0)),
            Periodic(interval(NEG_INF, num(0)), num(1)),
            Fan(num(0), num(1), "down")]


def plain_levels(psi, max_opens=48):
    """`generation_levels` without its skip: every rule on every level."""
    while True:
        yield psi
        for rule in RULES:
            psi = plus_step(psi, rule, max_opens)


def rand_fraction(rng: random.Random, lo=-6, hi=6, den=8) -> Fraction:
    return Fraction(rng.randint(lo * den, hi * den), den)


def rand_interval(rng: random.Random) -> Interval:
    kind = rng.randrange(6)
    if kind == 0:
        q = rand_fraction(rng)
        return Interval(q, q, True, True)
    a, b = sorted((rand_fraction(rng), rand_fraction(rng)))
    if a == b:
        return Interval(a, b, True, True)
    if kind == 1:
        return Interval(NEG_INF, b, False, rng.random() < 0.5)
    if kind == 2:
        return Interval(a, POS_INF, rng.random() < 0.5, False)
    return Interval(a, b, rng.random() < 0.5, rng.random() < 0.5)


def rand_realset(rng: random.Random, allow_tails=True) -> RealSet:
    n = rng.randrange(4)
    core = [rand_interval(rng) for _ in range(n)]
    if not allow_tails or rng.random() < 0.6:
        return normalize(core)
    # tailed variant: bounded core, simple patterns
    core = [iv for iv in core if iv.lo != NEG_INF and iv.hi != POS_INF]
    period = Fraction(rng.choice((1, 2)), rng.choice((1, 2)))
    lo_q = period * Fraction(rng.randrange(4), 4)
    hi_q = period * Fraction(rng.randrange(4), 4)
    lo_q, hi_q = sorted((lo_q, hi_q))
    if hi_q == lo_q or hi_q >= period:
        lo_q, hi_q = Fraction(0), period / 2
    pat = (Interval(lo_q, hi_q, rng.random() < 0.5, False),)
    cut = rand_fraction(rng, -3, 3, 2)
    side = rng.choice(("left", "right", "both"))
    left = (pat, period, cut) if side in ("left", "both") else None
    right = (pat, period, cut) if side in ("right", "both") else None
    return with_tails(normalize(core), left=left, right=right)


def rand_schema(rng: random.Random) -> BaseSchema:
    """A grid, named interval, custom interval (each end free, fixed or
    moving, n0 up to 3) or metric-ball base (every exact metric and its
    conjugate)."""
    kind = rng.randrange(4)
    if kind == 0:
        return FB.schema
    if kind == 1:
        return rng.choice((NAT_BOUNDED, ALL_SETS, UB, LB)).schema
    if kind == 2:
        def end(alpha, sign):
            r = rng.random()
            if r < 0.25:
                return None
            return alpha, Fraction(0) if r < 0.45 else Fraction(sign, rng.choice((1, 3, 4, 10)))

        a = rand_fraction(rng, -2, 2, 2)
        lo, hi = end(a, -1), end(a + Fraction(rng.randint(0, 4), 2), 1)
        return BaseSchema(lo=lo, hi=hi, lo_closed=rng.random() < 0.5,
                          hi_closed=rng.random() < 0.5, n0=rng.randint(0, 3))
    d = rng.choice(ALL_METRICS)
    return metric_bounded(d.conjugate() if rng.random() < 0.5 else d).schema


def rand_family(rng: random.Random) -> FamilySpec:
    """A finite family, a fan, or a periodic family with a bounded or
    half-line seed and any kind of index range."""
    kind = rng.randrange(4)
    a = rand_fraction(rng, -3, 3, 2)
    if kind == 0:
        return finite_family(rand_realset(rng, allow_tails=False)
                             for _ in range(rng.randint(1, 3)))
    if kind == 1:
        return Fan(a, a + Fraction(rng.randint(1, 4), 2), rng.choice(("down", "up")))
    if kind == 2:
        seed = interval(a, a + Fraction(rng.choice((1, 3, 5)), 2), rng.random() < 0.5,
                        rng.random() < 0.5)
    else:
        seed = rng.choice((interval(NEG_INF, a), interval(a, POS_INF)))
    k = rng.randint(-3, 3)
    index_range = rng.choice((ALL_INDICES, IndexRange(k, None), IndexRange(None, k),
                              IndexRange(k - 2, k + 2)))
    return Periodic(seed, Fraction(rng.choice((1, 2))), index_range)


def rand_fan_family(rng: random.Random) -> FamilySpec:
    """A fan, a fan restricted to a random window, or a split with a fan on
    one side and a random family on the other."""
    a = rand_fraction(rng, -3, 3, 2)
    f = Fan(a, a + Fraction(rng.randint(1, 4), 2), rng.choice(("down", "up")))
    kind = rng.randrange(3)
    if kind == 1:
        return Restricted(f, rand_realset(rng))
    if kind == 2:
        c, other = rand_fraction(rng, -3, 3, 2), rand_family(rng)
        return Split(c, f, other) if rng.random() < 0.5 else Split(c, other, f)
    return f


def rand_any_family(rng: random.Random, depth=0) -> FamilySpec:
    """Any family shape: finite, periodic (bounded or nested seed, every kind
    of index range), fan, or a split or restriction of such families."""
    kind = rng.randrange(5) if depth < 2 else 0
    if kind == 1:
        return rand_fan_family(rng)
    if kind == 2:
        return Split(rand_fraction(rng, -3, 3, 2), rand_any_family(rng, depth + 1),
                     rand_any_family(rng, depth + 1))
    if kind == 3:
        return Restricted(rand_any_family(rng, depth + 1), rand_realset(rng))
    return rand_family(rng)


def fan_edges(f: FamilySpec) -> list[Fraction]:
    """The accumulation bound of every fan in f."""
    if isinstance(f, Fan):
        return [f.hi if f.side == "down" else f.lo]
    if isinstance(f, Restricted):
        return fan_edges(f.base)
    if isinstance(f, Split):
        return fan_edges(f.left) + fan_edges(f.right)
    return []


def signature(a: RealSet, window=GRID_WINDOW, step=GRID_STEP):
    return tuple(a.sample_points(window, step))


def _basic_nbhd(x: Fraction, eps: Fraction, kind: TopologyKind) -> RealSet:
    from gtsreal.realset import closed_open, interval, open_closed, open_iv

    if kind is TopologyKind.NAT:
        return open_iv(x - eps, x + eps)
    if kind is TopologyKind.SORG_R:
        return closed_open(x, x + eps)
    if kind is TopologyKind.SORG_L:
        return open_closed(x - eps, x)
    if kind is TopologyKind.UPPER:
        return interval(NEG_INF, x + eps)
    return interval(x - eps, POS_INF)


def oracle_closure_member(a: RealSet, x: Fraction, kind: TopologyKind, depth=20) -> bool:
    """x in cl(a)?  Basic neighborhoods are nested, so only the smallest
    probe radius is decisive (sound for endpoints coarser than 2^-depth)."""
    if kind is TopologyKind.DISCRETE:
        return a.contains_point(x)
    nb = _basic_nbhd(x, Fraction(1, 2**depth), kind)
    return not a.intersect(nb).is_empty


def oracle_interior_member(a: RealSet, x: Fraction, kind: TopologyKind, depth=20) -> bool:
    """x in int(a)?  Dual probe: the smallest basic neighborhood must fit."""
    if kind is TopologyKind.DISCRETE:
        return a.contains_point(x)
    nb = _basic_nbhd(x, Fraction(1, 2**depth), kind)
    return nb.is_subset(a)


# ---------------------------------------------------------------------------
# references for the pruned and closed-form paths
# ---------------------------------------------------------------------------

def reference_oracle(truncated_members: Sequence[RealSet], k_set: RealSet,
                     max_subfamily: int = 8,
                     full_union: Optional[RealSet] = None) -> bool:
    """oracles.oracle_ess_finite as a plain enumeration: every subfamily of
    at most max_subfamily nonempty members, by size, is tried as a cover of
    the trace, with the same refusals."""
    mats = [m for m in truncated_members if not m.is_empty]
    avail = EMPTY
    for m in mats:
        avail = avail.union(m)
    trace = k_set.intersect(full_union if full_union is not None else avail)
    if not trace.is_subset(avail):
        raise OracleRefusal("window does not cover K n UF")
    total = sum(comb(len(mats), s) for s in range(0, max_subfamily + 1))
    if total > MAX_CHECKS:
        raise OracleRefusal(f"{total} candidate subfamilies exceed the budget")
    if trace.is_empty:
        return True
    if max_subfamily >= 1 and any(trace.is_subset(m) for m in mats):
        return True
    for size in range(2, max_subfamily + 1):
        for combo in itertools.combinations(mats, size):
            u = EMPTY
            for m in combo:
                u = u.union(m)
            if trace.is_subset(u):
                return True
    return False


def reference_union_of_translates(seed: RealSet, period: Fraction,
                                  k_min: Optional[int] = None,
                                  k_max: Optional[int] = None) -> RealSet:
    """realset.union_of_translates as the window trace for every index
    range: the translates laid out on a window that holds the translates
    k_min and k_max (for all indices, one two periods and the seed's span
    wider than the seed on each side), plus the seed's germ past it."""
    core = seed.core
    lo_v, hi_v = core[0].lo, core[-1].hi
    span = hi_v - lo_v
    if k_min is None and k_max is None:
        lo_w = lo_v - 2 * period - span - 2
        hi_w = hi_v + 2 * period + span + 2
    else:
        lo_w = lo_v + (k_min if k_min is not None else k_max - 4) * period - 1
        hi_w = hi_v + (k_max if k_max is not None else k_min + 4) * period + 1
    germ = _pattern_reduce(core, period)
    window = _periodize(core, period, lo_w, hi_w, k_min, k_max)
    return _assemble(window, germ if k_min is None else _EMPTY_GERM,
                     germ if k_max is None else _EMPTY_GERM, lo_w, hi_w)


# ---------------------------------------------------------------------------
# references for the query front end
# ---------------------------------------------------------------------------

class RefToken(NamedTuple):
    """A token with the line and column worked out as it is read."""

    kind: str
    text: str
    line: int
    col: int


def positions(tokens) -> list:
    """The (kind, text, line, col) of each token: the projection on which
    the tokenizers are compared."""
    return [(t.kind, t.text, t.line, t.col) for t in tokens]


_REFERENCE_TOKEN = re.compile(r"""
    (?P<ws>[ \t]+)
  | (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<ninf>-inf\b)
  | (?P<rat>-?\d+(?:/\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*(?:/[A-Za-z_][A-Za-z0-9_]*)?)
  | (?P<punct>[(),=;])
""", re.VERBOSE)


def reference_tokenize(text: str) -> list:
    """queries._tokenize with whitespace and comments as matches of their
    own: one pass of finditer that stops at the first gap between matches."""
    out = []
    line, line_start, pos = 1, 0, 0
    for m in _REFERENCE_TOKEN.finditer(text):
        start = m.start()
        if start != pos:
            break
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws" or kind == "comment":
            continue
        col = start - line_start + 1
        if kind == "newline":
            out.append(RefToken("sep", ";", line, col))
            line += 1
            line_start = pos
        elif kind == "punct" and text[start] == ";":
            out.append(RefToken("sep", ";", line, col))
        else:
            out.append(RefToken("name" if kind == "ninf" else kind, m.group(), line, col))
    if pos != len(text):
        raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
    last = out[-1] if out else RefToken("", "", 1, 1)
    out.append(RefToken("end", "", last.line, last.col))
    return out


# The front end as it read documents before its grammars were compiled:
# `counting_tokenize` counts lines as it makes tokens, and `WordParser`
# splits each grammar into words and looks each reader up by name on every
# statement, and builds each literal afresh.  Only the tables, `EXPRESSIONS`
# and `QUERIES`, are shared with the library.

_COUNTING_TOKEN = re.compile(r"""
    [ \t]*(?:\#[^\n]*)?
    (?:
        (?P<newline>\n)
      | (?P<ninf>-inf\b)
      | (?P<rat>-?\d+(?:/\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*(?:/[A-Za-z_][A-Za-z0-9_]*)?)
      | (?P<sep>;)
      | (?P<punct>[(),=])
      | (?P<bad>.)
      | (?P<end>\Z)
    )
""", re.VERBOSE)


def counting_tokenize(text: str) -> list:
    """The tokens of `text`, one `_COUNTING_TOKEN` match each, ending with
    an "end" token at the last token's position."""
    out = []
    new = tuple.__new__
    line, line_start = 1, 0
    for m in _COUNTING_TOKEN.finditer(text):
        kind = m.lastgroup
        start = m.start(kind)
        if kind == "name" or kind == "punct" or kind == "rat":
            out.append(new(RefToken, (kind, m.group(kind), line, start - line_start + 1)))
        elif kind == "newline" or kind == "sep":
            out.append(new(RefToken, ("sep", ";", line, start - line_start + 1)))
            if kind == "newline":
                line += 1
                line_start = start + 1
        elif kind == "ninf":
            out.append(new(RefToken, ("name", "-inf", line, start - line_start + 1)))
        elif kind == "end":
            break
        else:
            raise ParseError(f"unexpected character {text[start]!r}", line,
                             start - line_start + 1)
    last = out[-1] if out else RefToken("", "", 1, 1)
    out.append(RefToken("end", "", last.line, last.col))
    return out


_GRAMMAR_WORD = re.compile(r"(\((\[)?)?([A-Z]+|[a-z_]+\([^()]*\)), \.\.\.\]?\)|[(),]|[^\s(),]+")

# Upper-case grammar words: the WordParser method that reads each and its
# arguments.
_WORD_READERS = {
    **{word: ("expr", (kind,)) for word, kind in EXPRESSIONS.items()},
    "OPERAND": ("expr", (_OPERAND,)),
    "LINE": ("line_id", ()), "KIND": ("kind", ()), "RAT": ("rat", ()),
    "INT": ("int_", ()), "COLLECTION": ("collection_ref", ()), "EXT": ("ext", ()),
    "AFF": ("affine", ()),
}


def _grammar_words(grammar: str) -> tuple:
    """A grammar's words as (word, reader or None, list item or None, list
    opens with '(', list may be empty)."""
    return tuple((m.group(), _WORD_READERS.get(m.group()), m.group(3), bool(m.group(1)),
                  bool(m.group(2))) for m in _GRAMMAR_WORD.finditer(grammar))


def _ref_int(digits: str, t: RefToken) -> int:
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"literal longer than {sys.get_int_max_str_digits()} digits",
                         t.line, t.col) from None


def _ref_fraction(t: RefToken) -> Fraction:
    num, slash, den = t.text.partition("/")
    if not slash:
        return Fraction(_ref_int(num, t))
    d = _ref_int(den, t)
    if d == 0:
        raise ParseError(f"zero denominator in {t.text!r}", t.line, t.col)
    return Fraction(_ref_int(num, t), d)


class WordParser:
    def __init__(self, text: str):
        self.toks = counting_tokenize(text)
        self.i = 0
        self.depth = 0
        self.doc = QueryDoc(texts=[t.text for t in self.toks])

    def at(self, text: str) -> bool:
        return self.toks[self.i].text == text

    def next(self) -> RefToken:
        t = self.toks[self.i]
        if t.kind == "end":
            raise ParseError("unexpected end of input", t.line, t.col)
        self.i += 1
        return t

    def expect(self, text: str) -> RefToken:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        if text == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"nested deeper than {MAX_NESTING}", t.line, t.col)
        elif text == ")":
            self.depth -= 1
        return t

    def expect_name(self) -> RefToken:
        t = self.next()
        if t.kind != "name":
            raise ParseError(f"expected a name, found {t.text!r}", t.line, t.col)
        return t

    def one_of(self, choices) -> str:
        t = self.expect_name()
        if t.text not in choices:
            raise ParseError(f"expected {' or '.join(choices)}, found {t.text!r}",
                             t.line, t.col)
        return t.text

    def rat(self) -> Fraction:
        t = self.next()
        if t.kind == "rat":
            return _ref_fraction(t)
        if t.text == "inf" or t.text == "-inf":
            raise ParseError("infinite value not allowed here", t.line, t.col)
        raise ParseError(f"expected a rational, found {t.text!r}", t.line, t.col)

    def ext(self):
        if self.at("inf") or self.at("-inf"):
            return POS_INF if self.next().text == "inf" else NEG_INF
        return self.rat()

    def int_(self) -> int:
        t = self.next()
        if t.kind != "rat" or "/" in t.text:
            raise ParseError(f"expected an integer, found {t.text!r}", t.line, t.col)
        return _ref_int(t.text, t)

    def list_of(self, item: str, opens: bool, empty_ok: bool) -> tuple:
        if opens:
            self.expect("(")
        if item in _WORD_READERS:
            method, args = _WORD_READERS[item]
            read = getattr(self, method)
        else:
            read, args = self.read, (item,)
        out = []
        if not (empty_ok and self.at(")")):
            out.append(read(*args))
            while self.at(","):
                self.next()
                out.append(read(*args))
        self.expect(")")
        return tuple(out)

    def read(self, grammar: str) -> tuple:
        out = []
        for word, reader, item, opens, empty_ok in _grammar_words(grammar):
            if item is not None:
                out.append(self.list_of(item, opens, empty_ok))
            elif reader is not None:
                out.append(getattr(self, reader[0])(*reader[1]))
            elif "|" in word:
                out.append(self.one_of(word.split("|")))
            else:
                self.expect(word)
        return tuple(out)

    def parse(self) -> QueryDoc:
        spans = []
        queries_ = []
        toks = self.toks
        while toks[self.i].kind != "end":
            if toks[self.i].kind == "sep":
                self.i += 1
                continue
            start = self.i
            t = self.expect_name()
            try:
                if t.text == "query":
                    queries_.append(self.query_expr())
                elif t.text in _DECLARATION_READERS:
                    kind = _DECLARATION_READERS[t.text]
                    env = getattr(self.doc, kind.env)
                    name = self._decl_name(env, kind)
                    self.expect("=")
                    env[name] = self.collection_expr() if kind is _COLLECTIONS \
                        else self.expr(kind)
                else:
                    raise ParseError(f"unknown statement {t.text!r}", t.line, t.col)
            except (ConstructionError, PreconditionError) as e:
                last = toks[self.i - 1]
                raise ParseError(str(e), last.line, last.col) from None
            spans.append((start, self.i))
            nxt = toks[self.i]
            if nxt.kind != "sep" and nxt.kind != "end":
                raise ParseError(f"expected end of statement, found {nxt.text!r}",
                                 nxt.line, nxt.col)
        self.doc.spans = tuple(spans)
        self.doc.queries = tuple(queries_)
        return self.doc

    def _decl_name(self, env: dict, kind) -> str:
        t = self.expect_name()
        if t.text in kind.rows:
            raise ParseError(f"cannot declare {t.text!r}: it is a built-in {kind.noun} word",
                             t.line, t.col)
        if t.text in env:
            raise ParseError(f"duplicate declaration of {t.text!r}", t.line, t.col)
        return t.text

    def query_expr(self):
        t = self.expect_name()
        q = QUERIES.get(t.text)
        if q is None:
            raise ParseError(f"unknown query {t.text!r}", t.line, t.col)
        return (t.text, self.read(q.grammar))

    def expr(self, kind):
        t = self.expect_name()
        row = kind.rows.get(t.text)
        if row is not None:
            return row.run(*self.read(row.grammar)) if row.grammar else row.run()
        if not kind.env:
            raise ParseError(f"expected {' or '.join(kind.rows)}, found {t.text!r}",
                             t.line, t.col)
        env = getattr(self.doc, kind.env)
        if t.text in env:
            return env[t.text]
        raise ParseError(f"unknown identifier {t.text!r} (expected a {kind.noun})",
                         t.line, t.col)

    def kind(self) -> TopologyKind:
        return _TOPOLOGY_KINDS[self.one_of(_TOPOLOGY_KINDS)]

    def affine(self):
        t = self.toks[self.i]
        if t.kind == "rat":
            return (self.rat(), Fraction(0))
        if t.text == "inf" or t.text == "-inf":
            self.i += 1
            return None
        return self.read("affine(RAT, RAT)")

    def line_id(self):
        t = self.expect_name()
        if "/" not in t.text:
            raise ParseError(f"expected LINE like standard/lst, found {t.text!r}",
                             t.line, t.col)
        try:
            return line(t.text)
        except ConstructionError:
            raise ParseError(f"unknown line {t.text!r}", t.line, t.col) from None

    def collection_expr(self) -> CovCollection:
        fams, = self.read("collection(FAMILY, ...)")
        carrier = REALS
        if self.at("in"):
            self.next()
            carrier, = self.read("SET")
        return CovCollection.from_specs(fams, carrier)

    def collection_ref(self) -> CovCollection:
        t = self.expect_name()
        if t.text not in self.doc.collections:
            raise ParseError(f"unknown collection {t.text!r}", t.line, t.col)
        return self.doc.collections[t.text]


class ReferenceParser(WordParser):
    """The word-by-word parser with every tail(...) canonicalized alone, by
    `with_tails`, and union(...) as `union_all` of its canonical operands."""

    def expr(self, kind):
        if kind.env == "sets" and self.at("tail"):
            self.next()
            side, pattern, period, cut = self.read("(left|right, SET, RAT, RAT)")
            return with_tails(EMPTY, **{side: (tuple(pattern.core), period, cut)})
        if kind.env == "sets" and self.at("union"):
            self.next()
            return union_all(self.read("(SET, ...)")[0])
        return super().expr(kind)
