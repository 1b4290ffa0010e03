"""The corpus of named real-line generalized topological spaces.

Each line is one `LineSpec` row of `_LINES`: a topology kind, the shape of
its opens, its cover bornology B (the admissible families are the EF(B)
families of opens), closed forms for its small and admissibly-compact
bornologies, and its partial-topologization image.  The compact bornology
depends on the topology alone (`_CB`, read through `LineSpec.cb`), and
`axiom_verdict` decides the five gts axioms of a row from its columns.
Every Sm closed form is exercised against the definitional refuter battery
in the suite: for each non-member the suite exhibits an admissible family
with no finite subcover of the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Optional, Tuple

from gtsreal.covers import (
    End,
    FamilySpec,
    Fan,
    IndexRange,
    Periodic,
    PreconditionError,
    bounded_on,
    ess_finite_on_all_base,
    finite_family,
    is_open_in,
    violating_member,
)
from gtsreal.qmetric import QuasiMetric, UnsupportedCombinationError
from gtsreal.realset import (
    EMPTY,
    NEG_INF,
    POS_INF,
    REALS,
    ConstructionError,
    ExtRat,
    Interval,
    RealSet,
    TopologyKind,
    closed,
    closed_open,
    interval,
    is_finite,
    open_closed,
    open_iv,
    point,
    points,
    with_tails,
)


@dataclass(frozen=True)
class LineId:
    family: str   # "standard" | "sorgenfrey"
    variant: str

    def __post_init__(self):
        if (self.family, self.variant) not in _LINES:
            raise ConstructionError(f"unknown line {self.family}/{self.variant}")

    @property
    def spec(self) -> "LineSpec":
        return _LINES[self.family, self.variant]

    def __str__(self):
        return f"{self.family}/{self.variant}"


def line(name: str) -> LineId:
    fam, _, var = name.partition("/")
    return LineId(fam, var)


# ---------------------------------------------------------------------------
# bornologies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BaseSchema:
    """Monotone indexed base B_n.  Interval templates have affine endpoints
    alpha + beta * n (None encodes an infinite endpoint); the grid kind is
    the symmetric integer grid {-n..n}; the ball kind is B_d(0, n+1).  Only
    interval templates have `lo` and `hi`."""

    kind: str = "interval"            # "interval" | "grid" | "ball"
    lo: Optional[Tuple[Fraction, Fraction]] = None
    hi: Optional[Tuple[Fraction, Fraction]] = None
    lo_closed: bool = True
    hi_closed: bool = True
    n0: int = 0
    metric: Optional[QuasiMetric] = None

    def __post_init__(self):
        if self.lo is not None and self.lo[1] > 0:
            raise ConstructionError("schema not monotone: lower end grows")
        if self.hi is not None and self.hi[1] < 0:
            raise ConstructionError("schema not monotone: upper end shrinks")

    def element(self, n: int) -> RealSet:
        return _element(self, n)

    def first_nonempty(self) -> Optional[int]:
        """The first index with a nonempty element (None when there is none):
        B_n is nonempty iff width + slope * n > 0 (>= 0 when closed), and
        every later element is nonempty too."""
        if self.lo is None or self.hi is None:
            return self.n0
        closed = self.lo_closed and self.hi_closed
        width, slope = self.hi[0] - self.lo[0], self.hi[1] - self.lo[1]
        if slope == 0:
            return self.n0 if width > 0 or (width == 0 and closed) else None
        root = -width / slope
        return max(self.n0, math.ceil(root) if closed else math.floor(root) + 1)

    @property
    def ends(self) -> Tuple[End, End]:
        """How B_n ends below and above as n grows: the grid's ends move, a
        ball's move on the sides its metric bounds, and an interval end is
        free (infinite), moving (beta != 0) or fixed."""
        if self.kind == "grid":
            return End.MOVING, End.MOVING
        if self.metric is not None:
            return self.metric.bounded_ends
        return tuple(End.FREE if e is None else End.MOVING if e[1] else End.FIXED
                     for e in (self.lo, self.hi))

    def stable_index(self, a: Fraction, b: Fraction) -> int:
        """An index n* >= n0 with B_n n [a, b] = B_{n*} n [a, b] for every
        n >= n*."""
        if self.kind == "grid":
            n = math.ceil(max(abs(a), abs(b)))
        elif self.kind == "ball":
            # every ball around 0 is an interval, so on [a, b] the distance
            # d(0, .) peaks at an endpoint, and B_d(0, n+1) holds all of
            # [a, b] once n + 1 exceeds that peak
            if not self.metric.exact:
                raise UnsupportedCombinationError("balls require exact_surrogate mode")
            n = math.floor(max(self.metric.eval(0, a), self.metric.eval(0, b)))
        else:
            # a moving endpoint alpha + beta*n is strictly outside [a, b]
            # for every n > (e - alpha) / beta, e the end of [a, b] it passes
            n = self.n0
            for end, e in ((self.lo, a), (self.hi, b)):
                if end is not None and end[1] != 0:
                    n = max(n, math.floor((e - end[0]) / end[1]) + 1)
        return max(self.n0, n)

    def stable_trace(self, a: ExtRat, b: ExtRat) -> RealSet:
        """B_n n [a, b] for all n >= stable_index(a, b); builds no grid element."""
        if self.kind == "grid":
            return points(range(math.ceil(a), math.floor(b) + 1))
        return self.element(self.stable_index(a, b)).intersect(
            interval(a, b, is_finite(a), is_finite(b)))


@lru_cache(maxsize=1024)
def _element(schema: BaseSchema, n: int) -> RealSet:
    """B_n of the schema, memoized by value: the battery asks for the same
    few elements thousands of times (an exception is not cached)."""
    if n < schema.n0:
        raise ConstructionError(f"index below schema start {schema.n0}")
    if schema.kind == "grid":
        return points(range(-n, n + 1))
    if schema.kind == "ball":
        return schema.metric.ball(0, Fraction(n + 1))
    lo = NEG_INF if schema.lo is None else schema.lo[0] + schema.lo[1] * n
    hi = POS_INF if schema.hi is None else schema.hi[0] + schema.hi[1] * n
    lo_closed = schema.lo_closed and schema.lo is not None
    hi_closed = schema.hi_closed and schema.hi is not None
    if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
        return EMPTY
    return interval(lo, hi, lo_closed, hi_closed)


def _isolated_points(a: RealSet) -> bool:
    """Is every piece of a (core and tail patterns) a single point?"""
    return all(iv.is_point for iv in a.pieces())


@dataclass(frozen=True)
class Bornology:
    """An ideal of subsets in one normal form: per side (lower, upper) the
    `End` of its base, and whether a member must be made of isolated points.

    A member is bounded on each side whose end is not free; a fixed end also
    needs the subset test a <= B_n, read off the schema's stable trace.
    `name` is what the bornology prints as.  fb (the finite sets) has the
    grid's moving ends and isolated points; uf_small, the
    reverse-well-ordered sets, has a moving upper end and isolated points,
    and no countable base (`schema` None)."""

    name: str
    schema: Optional[BaseSchema] = None
    own_ends: Optional[Tuple[End, End]] = None   # None: the schema's ends
    pointwise: Optional[Callable[[RealSet], bool]] = None

    @cached_property
    def ends(self) -> Tuple[End, End]:
        """Read when first asked: a float_paper metric's balls have no ends
        to tell, and its bornology refuses there rather than when built."""
        return self.schema.ends if self.own_ends is None else self.own_ends

    def member(self, a: RealSet) -> bool:
        if self.pointwise is not None and not self.pointwise(a):
            return False
        if not bounded_on(self.ends, a.boundedness()):
            return False
        return End.FIXED not in self.ends or a.is_empty or \
            a.is_subset(self.schema.stable_trace(a.inf_value(), a.sup_value()))

    def __str__(self):
        return self.name


FB = Bornology("fb", BaseSchema(kind="grid"), pointwise=_isolated_points)
ALL_SETS = Bornology("all", BaseSchema(lo=None, hi=None, lo_closed=False, hi_closed=False))
NAT_BOUNDED = Bornology("nat_bounded", BaseSchema(lo=(Fraction(0), Fraction(-1)),
                                                  hi=(Fraction(0), Fraction(1))))
UB = Bornology("ub", BaseSchema(lo=None, hi=(Fraction(0), Fraction(1)), hi_closed=False))
LB = Bornology("lb", BaseSchema(lo=(Fraction(0), Fraction(-1)), hi=None, lo_closed=False))
UF_SMALL = Bornology(
    "uf_small[reverse-well-ordered (every nonempty subset has a largest element)]",
    own_ends=(End.FREE, End.MOVING), pointwise=_isolated_points)


def metric_bounded(d: QuasiMetric) -> Bornology:
    """The d-bounded sets, with the balls B_d(0, n + 1) as base.  A
    float_paper metric bounds no set exactly: its base's ends, and so its
    members and EF decisions, raise as `is_bounded_set` does."""
    return Bornology(f"B({d.label()})", BaseSchema(kind="ball", metric=d))


def custom_bornology(schema: BaseSchema) -> Bornology:
    """The sets inside some B_n of an interval or ball schema (the grid is
    only fb's stand-in base: its B_n hold integers alone)."""
    if schema.kind == "grid":
        raise ConstructionError("a custom bornology needs an interval or ball schema")
    return Bornology("custom", schema)


@lru_cache(maxsize=1)
def probe_corpus() -> Tuple[RealSet, ...]:
    """Fixed battery of 26 sets spanning the shapes the line bornologies
    discriminate: finite sets, bounded and unbounded intervals of all flag
    combinations, half-lines, unions, and periodic-tail sets."""
    half = (Interval(Fraction(0), Fraction(1, 2), True, False),)
    opat = (Interval(Fraction(0), Fraction(1, 2), False, False),)
    ppat = (Interval(Fraction(0), Fraction(0), True, True),)
    return (
        EMPTY, point(0), points([0, 1, 2]), points([Fraction(-5), 3, Fraction(7, 2)]),
        closed(0, 1), open_iv(0, 1), closed_open(0, 1), open_closed(0, 1),
        closed(-2, 5), interval(NEG_INF, 0), interval(NEG_INF, 0, False, True),
        interval(0, POS_INF), interval(0, POS_INF, True, False), REALS,
        interval(NEG_INF, -1).union(open_iv(1, POS_INF)),
        closed(0, 1).union(closed(2, 3)),
        closed_open(0, 1).union(closed_open(2, 3)),
        point(0).union(open_iv(1, 2)),
        interval(NEG_INF, 0).union(point(1)),
        with_tails(EMPTY, left=(ppat, Fraction(1), Fraction(0))),
        with_tails(EMPTY, right=(ppat, Fraction(1), Fraction(1, 2))),
        with_tails(EMPTY, left=(opat, Fraction(1), Fraction(0))),
        with_tails(EMPTY, right=(half, Fraction(1), Fraction(0))),
        with_tails(EMPTY, left=(half, Fraction(1), Fraction(0)),
                   right=(half, Fraction(1), Fraction(0))),
        with_tails(closed(-3, -2), right=(opat, Fraction(1), Fraction(0))),
        with_tails(point(-4), left=(ppat, Fraction(2), Fraction(-5))),
    )


# ---------------------------------------------------------------------------
# the line table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LineSpec:
    """One line of the corpus."""

    topology: TopologyKind
    half_open: bool     # opens are unions of [a, b) and (-inf, b) pieces only
    left_tail: bool     # an open may have a left periodic tail
    right_tail: bool    # an open may have a right periodic tail
    cover: Bornology    # admissible families: the EF(cover) families of opens
    sm: Bornology
    acb: Bornology
    pt: str             # variant of the pt image, in the same family

    @property
    def cb(self) -> Bornology:
        """The compact bornology, which depends on the topology alone."""
        return _CB[self.topology]


_NAT, _SORG, _UPPER = TopologyKind.NAT, TopologyKind.SORG_R, TopologyKind.UPPER

# One row per line, in corpus order.  Columns: topology, half_open, left_tail,
# right_tail, cover, Sm, ACB, pt.  Each comment gives the rationale for the
# Sm (and ACB) of the rows below it.
_LINES = {(family, variant): LineSpec(*row) for family, rows in (
    ("standard", {
        # a dense ray fan refutes every infinite set, so only finite sets are small
        "ut": (_NAT, False, True, True, FB, FB, NAT_BOUNDED, "ut"),
        # admissible families are globally essentially finite: every set is small
        "om": (_NAT, False, False, False, ALL_SETS, ALL_SETS, ALL_SETS, "st"),
        "st": (_NAT, False, True, True, ALL_SETS, ALL_SETS, ALL_SETS, "st"),
        # local essential finiteness caps traces at bounded sets
        "lom": (_NAT, False, True, True, NAT_BOUNDED, NAT_BOUNDED, NAT_BOUNDED, "lst"),
        "lst": (_NAT, False, True, True, NAT_BOUNDED, NAT_BOUNDED, NAT_BOUNDED, "lst"),
        # the smallified lines (slom, sl_plus_om, sl_minus_om, rom): as om
        "slom": (_NAT, False, True, True, ALL_SETS, ALL_SETS, ALL_SETS, "st"),
        # the l+ / l- cover conditions cap one direction only
        "l_plus_om": (_NAT, False, False, True, UB, UB, UB, "l_plus_st"),
        "l_minus_om": (_NAT, False, True, False, LB, LB, LB, "l_minus_st"),
        "l_plus_st": (_NAT, False, True, True, UB, UB, UB, "l_plus_st"),
        "l_minus_st": (_NAT, False, True, True, LB, LB, LB, "l_minus_st"),
        "sl_plus_om": (_NAT, False, False, True, ALL_SETS, ALL_SETS, ALL_SETS, "st"),
        "sl_minus_om": (_NAT, False, True, False, ALL_SETS, ALL_SETS, ALL_SETS, "st"),
        "rom": (_NAT, False, False, False, ALL_SETS, ALL_SETS, ALL_SETS, "st"),
        # the upper EF-lines inherit their bornology from the defining base
        "uu": (_UPPER, False, True, True, UB, UB, UB, "uu"),
        "ul": (_UPPER, False, True, True, LB, ALL_SETS, ALL_SETS, "ul"),
        "uf": (_UPPER, False, True, True, FB, UF_SMALL, UB, "uf"),
    }),
    # Sm and ACB follow the same per-variant rationale as the standard family
    ("sorgenfrey", {
        "ut": (_SORG, False, True, True, FB, FB, FB, "ut"),
        "om": (_SORG, True, False, False, ALL_SETS, ALL_SETS, ALL_SETS, "st"),
        "st": (_SORG, False, True, True, ALL_SETS, ALL_SETS, ALL_SETS, "st"),
        "lom": (_SORG, True, True, True, NAT_BOUNDED, NAT_BOUNDED, NAT_BOUNDED, "lst"),
        "lst": (_SORG, False, True, True, NAT_BOUNDED, NAT_BOUNDED, NAT_BOUNDED, "lst"),
        "slom": (_SORG, True, True, True, ALL_SETS, ALL_SETS, ALL_SETS, "st"),
        "l_plus_om": (_SORG, True, False, True, UB, UB, UB, "l_plus_st"),
        "l_minus_om": (_SORG, True, True, False, LB, LB, LB, "l_minus_st"),
        "l_plus_st": (_SORG, False, True, True, UB, UB, UB, "l_plus_st"),
        "l_minus_st": (_SORG, False, True, True, LB, LB, LB, "l_minus_st"),
        "sl_plus_om": (_SORG, True, False, True, ALL_SETS, ALL_SETS, ALL_SETS, "st"),
        "sl_minus_om": (_SORG, True, True, False, ALL_SETS, ALL_SETS, ALL_SETS, "st"),
        # pt: the image is recorded as st over the rationalized topology
        "rom": (_SORG, True, False, False, ALL_SETS, ALL_SETS, ALL_SETS, "st"),
    }),
) for variant, row in rows.items()}

# CB depends on the topology alone.  Heine-Borel on the natural line.  On the
# Sorgenfrey line relatively compact sets are countable, and the countable
# representable sets are the finite ones and arithmetic point tails (which are
# unbounded, hence not compact), so CB = FB.  On the upper line (-inf, b] is
# compact, so the sets inside a compact set are those bounded above.
_CB = {_NAT: NAT_BOUNDED, _SORG: FB, _UPPER: UB}

CORPUS: Tuple[LineId, ...] = tuple(LineId(family, variant) for family, variant in _LINES)


def _half_open_shaped(a: RealSet) -> bool:
    """Union of right half-open pieces: open right ends, closed finite left ends."""
    return all(not iv.hi_closed and (iv.lo_closed or iv.lo == NEG_INF)
               for iv in a.pieces())


def op_member(l: LineId, u: RealSet) -> bool:
    """Is u an open of the line (the member shape its covers require)?"""
    s = l.spec
    shaped = _half_open_shaped(u) if s.half_open else is_open_in(u, s.topology)
    return shaped and (s.left_tail or u.left_tail is None) and \
        (s.right_tail or u.right_tail is None)


def sm_member(l: LineId, a: RealSet) -> bool:
    return l.spec.sm.member(a)


def cb_member(l: LineId, a: RealSet) -> bool:
    return l.spec.cb.member(a)


def acb_member(l: LineId, a: RealSet) -> bool:
    return l.spec.acb.member(a)


def pt_of(l: LineId) -> LineId:
    """Partial-topologization image, a line of the same family."""
    return LineId(l.family, l.spec.pt)


@lru_cache(maxsize=256)
def cov_member(l: LineId, f: FamilySpec) -> bool:
    """Admissibility: every member has the line's open shape and the family
    is essentially finite on every member of the line's cover bornology.
    Memoized by value: one corpus battery asks 211 distinct (line, family)
    pairs 399 times, and each of its 188 repeats is a hit; eval documents
    40..1839 ask 904 distinct pairs 915 times."""
    if violating_member(f, lambda u: op_member(l, u)) is not None:
        return False
    return ess_finite_on_all_base(f, l.spec.cover.schema)


def locally_ess_finite(f: FamilySpec) -> bool:
    """Every point has a neighborhood on which f is essentially finite; by
    compactness of [-n, n], that is EF(nat_bounded)."""
    return ess_finite_on_all_base(f, NAT_BOUNDED.schema)


# ---------------------------------------------------------------------------
# the gts axioms, decided from the row
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxiomVerdict:
    """The five gts axioms on one row: `holds` with the lemma behind each
    axiom, or a failure at `axiom` with a witness pair, an admissible
    `family` U and a set `glued` V inside its union whose every trace V n U_k
    is open while V is not."""

    holds: bool
    lemmas: Tuple[str, ...] = ()
    axiom: Optional[str] = None
    family: Optional[FamilySpec] = None
    glued: Optional[RealSet] = None

    def __str__(self):
        if self.holds:
            return "holds: " + "; ".join(self.lemmas)
        return (f"fails ({self.axiom}): U={self.family} V={self.glued}: "
                f"each V n U_k is open, V is not")


_RAY_KINDS = (TopologyKind.UPPER, TopologyKind.LOWER)


def _tail_witness(spec: LineSpec, side: str) -> Tuple[Periodic, RealSet]:
    """A family of translates of the row's block [0, 2) or (0, 2) from 0 on
    toward `side`, and the periodic run of blocks [k, k + 1/2) or
    (k, k + 1/2) inside its union that reaches toward that side."""
    ho = spec.half_open
    block = interval(0, 2, ho, False)
    # cut at -1/2, in a gap of the run, so that block 0 is whole
    run = ((Interval(Fraction(0), Fraction(1, 2), ho, False),), Fraction(1), Fraction(-1, 2))
    if side == "above":
        return Periodic(block, Fraction(1), IndexRange(0, None)), with_tails(EMPTY, right=run)
    return Periodic(block, Fraction(1), IndexRange(None, 0)), with_tails(EMPTY, left=run)


def axiom_verdict(spec: LineSpec) -> AxiomVerdict:
    """The gts axioms of Delfs and Knebusch for the row's (Op, Cov), decided
    in closed form from its topology, open shape, tail flags and the normal
    form of its cover B (`ends` and `pointwise`).  Op is the sets open in
    the topology (or half-open shaped) with the tails the row allows; Cov is
    the families of opens essentially finite on every base element B_n.
    Families are those of `covers`: Finite, Periodic, Split, Restricted and
    Fan; the lemmas below hold for every family of opens, and a failure's
    witness is a Periodic.

    (i) The opens of a topology and the half-open shapes are closed under
        finite u and n, and so are the sets with no tail on a side (they are
        empty or full past some point).  The empty family and every finite
        family of opens are essentially finite on every set.
    (ii)-(iv) For every B, once Op is closed under finite n.  If U_1..U_m
        cover B_n n UU, then: the U_k n V cover B_n n UU n V (stability);
        finitely many members of each U_k's refining family cover B_n n U_k
        (transitivity); and coarser opens holding the U_k cover it too
        (saturation).
    (v) V is the union of its open traces V n U_k, so V is open in the
        topology.  On a half-open row a point x of V lies in a half-open
        trace, so V holds [x, x + e); and each bounded set lies in some B_n,
        so at a finite left end a of a piece of V finitely many traces
        cover V n [a, a + 1), and their union, half-open shaped, inside V
        and holding (a, a + e), holds a: V is half-open shaped.  On a side whose tails the row
        forbids, a free end of B gives a B_n holding a ray there, and V
        agrees on that ray with the union of finitely many tail-free traces,
        so V has no tail there.  If that end is moving or fixed, the
        translates of a block from 0 on toward that side are admissible
        (they meet each B_n in finitely many) and glue a periodic run of
        blocks, which is not open there.  The opens of a ray topology (upper,
        lower) are rays, which have no tail.

    A half-open row whose cover misses some bounded set, a cover with no
    indexed base, and an isolated-points cover that is free on a side whose
    tails the row forbids are outside these lemmas: they raise."""
    cover = spec.cover
    if cover.schema is None:
        raise PreconditionError(f"cover {cover} has no indexed base B_n")
    ends = cover.ends
    intervals = cover.pointwise is None   # each B_n an interval, not fb's grid
    glue = ["open union"]
    if spec.half_open:
        if not intervals or End.FIXED in ends:
            raise PreconditionError(
                f"half-open opens with cover {cover}: not every bounded set is in B")
        glue.append("half-open left ends (bounded sets in B)")
    if spec.topology in _RAY_KINDS and not spec.half_open:
        if not (spec.left_tail and spec.right_tail):
            glue.append("no tails (ray opens)")
    else:
        for side, allowed, end in (("below", spec.left_tail, ends[0]),
                                   ("above", spec.right_tail, ends[1])):
            if allowed:
                continue
            if end is not End.FREE:
                return AxiomVerdict(False, (), "v", *_tail_witness(spec, side))
            if not intervals:
                raise PreconditionError(
                    f"cover {cover} is free {side} with isolated points only")
            glue.append(f"no tail {side} (B free {side})")
    return AxiomVerdict(True, (
        "(i) finite lattice, finite families", "(ii) EF restricts",
        "(iii) EF composes", "(iv) EF coarsens", "(v) " + ", ".join(glue)))


# ---------------------------------------------------------------------------
# suite support: refuters, probe batteries, weak local smallness
# ---------------------------------------------------------------------------

def _seed_block(l: LineId, lo, hi) -> RealSet:
    """A line-appropriate open block: (lo, hi), or [lo, hi) on a Sorgenfrey line."""
    return interval(lo, hi, l.spec.topology is TopologyKind.SORG_R, False)


def _accumulation_sup(a: RealSet) -> Fraction:
    """A point that `a` approaches strictly from below (exists whenever a
    bounded-above RealSet has a piece that is not a single point)."""
    for iv in a.core:
        if not iv.is_point and is_finite(iv.hi):
            return iv.hi
    t = a.left_tail
    if t is not None:
        for iv in t.pattern:
            if not iv.is_point:
                occ = math.floor((t.cut - iv.hi) / t.period) - 1
                return iv.hi + occ * t.period
    raise ConstructionError(f"{a} has no interior accumulation point")


def smallness_refuter(l: LineId, a: RealSet) -> Optional[FamilySpec]:
    """An admissible family that is not essentially finite on `a`, for
    non-small `a`; None when `a` is small (nothing to refute)."""
    if sm_member(l, a):
        return None
    sm = l.spec.sm
    b = a.boundedness()
    if l.spec.topology is TopologyKind.UPPER and not b.bounded_above:
        # the upper line's opens are down-rays
        return Periodic(interval(NEG_INF, 0), Fraction(1))
    if bounded_on(sm.ends, b):
        # a is bounded where Sm bounds, so it fails Sm's isolated points
        # (fb, uf_small; any family of the line's opens is admissible there)
        t = _accumulation_sup(a)
        return Fan(t - 1, t, "down")
    # translates of a block, from 0 on toward each side that Sm leaves free
    lo, hi = (0 if e is End.FREE else None for e in sm.ends)
    return Periodic(_seed_block(l, 0, 2), Fraction(1), IndexRange(lo, hi))


def admissible_battery(l: LineId) -> list[FamilySpec]:
    """Line-admissible families used for the definitional smallness checks,
    as a fresh list.  Not memoized: one corpus battery builds it once per
    line, and eval documents 40..1839 never do."""
    block = _seed_block(l, 0, 2)
    return [f for f in (
        finite_family([REALS]),
        finite_family([_seed_block(l, k, k + 2) for k in (-3, -1, 0, 2)]),
        Periodic(block, Fraction(1)),
        Periodic(block, Fraction(1), IndexRange(0, None)),
        Periodic(block, Fraction(1), IndexRange(None, 0)),
        Periodic(interval(NEG_INF, 0), Fraction(1)),
        Fan(Fraction(0), Fraction(1), "down"),
    ) if cov_member(l, f)]


def weak_local_small_cover(l: LineId) -> Optional[FamilySpec]:
    """A representable collection of small opens covering the line, when one
    exists (definitional weak local smallness; no admissibility needed)."""
    sm = l.spec.sm
    if sm.pointwise is not None:
        return None  # fb / uf_small: small opens cannot cover the line
    free_below, free_above = (e is End.FREE for e in sm.ends)
    if free_below and free_above:
        return finite_family([REALS])
    if free_below:
        return Periodic(interval(NEG_INF, 0), Fraction(1))
    return Periodic(_seed_block(l, 0, POS_INF if free_above else 2), Fraction(1))
