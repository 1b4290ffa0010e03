"""The corpus of named real-line generalized topological spaces.

Each line binds a topology kind, an open-membership predicate, an
admissible-family predicate, closed forms for the small / compact /
admissibly-compact bornologies, and its partial-topologization image.
Every closed form in the tables below is exercised against the
definitional refuter battery in the suite: for each non-member the suite
exhibits an admissible family with no finite subcover of the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Tuple

from gtsreal.covers import (
    Directions,
    FamilySpec,
    Fan,
    IndexRange,
    Periodic,
    ef_member,
    ess_finite,
    ess_finite_on,
    finite_family,
    locally_ess_finite,
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

STANDARD_VARIANTS = (
    "ut", "om", "st", "lom", "lst", "slom",
    "l_plus_om", "l_minus_om", "l_plus_st", "l_minus_st",
    "sl_plus_om", "sl_minus_om", "rom", "uu", "ul", "uf",
)
SORGENFREY_VARIANTS = (
    "ut", "om", "st", "lom", "lst", "slom",
    "l_plus_om", "l_minus_om", "l_plus_st", "l_minus_st",
    "sl_plus_om", "sl_minus_om", "rom",
)


@dataclass(frozen=True)
class LineId:
    family: str   # "standard" | "sorgenfrey"
    variant: str

    def __post_init__(self):
        if self.family == "standard":
            ok = self.variant in STANDARD_VARIANTS
        elif self.family == "sorgenfrey":
            ok = self.variant in SORGENFREY_VARIANTS
        else:
            ok = False
        if not ok:
            raise ConstructionError(f"unknown line {self.family}/{self.variant}")

    def __str__(self):
        return f"{self.family}/{self.variant}"


def line(name: str) -> LineId:
    fam, _, var = name.partition("/")
    return LineId(fam, var)


CORPUS: Tuple[LineId, ...] = tuple(
    [LineId("standard", v) for v in STANDARD_VARIANTS]
    + [LineId("sorgenfrey", v) for v in SORGENFREY_VARIANTS])


# ---------------------------------------------------------------------------
# open-membership shapes
# ---------------------------------------------------------------------------

def _nat_open(a: RealSet) -> bool:
    return a.interior(TopologyKind.NAT) == a


def _sorg_open(a: RealSet) -> bool:
    return a.interior(TopologyKind.SORG_R) == a


def _upper_open(a: RealSet) -> bool:
    return a.interior(TopologyKind.UPPER) == a


def _half_open_shaped(a: RealSet) -> bool:
    """Union of right half-open pieces: open right ends, closed finite left ends."""
    return all(not iv.hi_closed and (iv.lo_closed or iv.lo == NEG_INF)
               for iv in a.pieces())


def _no_tails(a: RealSet) -> bool:
    return a.left_tail is None and a.right_tail is None


def _no_left_tail(a: RealSet) -> bool:
    return a.left_tail is None


def _no_right_tail(a: RealSet) -> bool:
    return a.right_tail is None


def op_member(l: LineId, u: RealSet) -> bool:
    """Is u an open of the line (the member shape its covers require)?"""
    if l.family == "standard":
        if l.variant in ("uu", "ul", "uf"):
            return _upper_open(u)
        if not _nat_open(u):
            return False
        if l.variant in ("om", "rom"):
            return _no_tails(u)
        if l.variant in ("l_plus_om", "sl_plus_om"):
            return _no_left_tail(u)
        if l.variant in ("l_minus_om", "sl_minus_om"):
            return _no_right_tail(u)
        return True
    # sorgenfrey
    if l.variant in ("ut", "st", "lst", "l_plus_st", "l_minus_st"):
        return _sorg_open(u)
    if not _half_open_shaped(u):
        return False
    if l.variant in ("om", "rom"):
        return _no_tails(u)
    if l.variant in ("l_plus_om", "sl_plus_om"):
        return _no_left_tail(u)
    if l.variant in ("l_minus_om", "sl_minus_om"):
        return _no_right_tail(u)
    return True  # lom, slom


# ---------------------------------------------------------------------------
# bornologies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BaseSchema:
    """Monotone indexed base B_n.  Interval templates have affine endpoints
    alpha + beta * n (None encodes an infinite endpoint); the grid kind is
    the symmetric integer grid {-n..n}; the ball kind is B_d(0, n+1)."""

    kind: str = "interval"            # "interval" | "grid" | "ball"
    lo: Optional[Tuple[Fraction, Fraction]] = None
    hi: Optional[Tuple[Fraction, Fraction]] = None
    lo_closed: bool = True
    hi_closed: bool = True
    n0: int = 0
    metric: Optional[QuasiMetric] = None

    def __post_init__(self):
        if self.kind == "interval":
            if self.lo is not None and self.lo[1] > 0:
                raise ConstructionError("schema not monotone: lower end grows")
            if self.hi is not None and self.hi[1] < 0:
                raise ConstructionError("schema not monotone: upper end shrinks")

    def element(self, n: int) -> RealSet:
        if n < self.n0:
            raise ConstructionError(f"index below schema start {self.n0}")
        if self.kind == "grid":
            return points(range(-n, n + 1))
        if self.kind == "ball":
            return self.metric.ball(0, Fraction(n + 1))
        lo = NEG_INF if self.lo is None else self.lo[0] + self.lo[1] * n
        hi = POS_INF if self.hi is None else self.hi[0] + self.hi[1] * n
        return interval(lo, hi,
                        self.lo_closed and self.lo is not None,
                        self.hi_closed and self.hi is not None)

    def directions(self) -> Directions:
        """Eventual unboundedness of the base elements (uniform for monotone
        bases: smaller elements inherit essential-finiteness witnesses)."""
        if self.kind == "grid":
            return Directions(False, False)
        if self.kind == "ball":
            k = self.metric.bounded_kind
            return Directions(k in ("ub", "all"), k in ("lb", "all"))
        return Directions(self.lo is None, self.hi is None)

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


_UF_DOC = "reverse-well-ordered (every nonempty subset has a largest element)"


def _is_reverse_well_ordered(a: RealSet) -> bool:
    """Exact on RealSets: only isolated points, never extending up forever."""
    if a.is_empty:
        return True
    if not a.boundedness().bounded_above:
        return False
    if any(not iv.is_point for iv in a.pieces()):
        return False
    return True


@dataclass(frozen=True)
class Bornology:
    """A named ideal of subsets with an indexed monotone base (when one
    exists; the reverse-well-ordered ideal of the uf line has none)."""

    kind: str                          # fb | all | nat_bounded | ub | lb |
                                       # metric | uf_small | custom
    metric: Optional[QuasiMetric] = None
    schema: Optional[BaseSchema] = None

    def member(self, a: RealSet) -> bool:
        b = a.boundedness()
        if self.kind == "fb":
            return b.finite
        if self.kind == "all":
            return True
        if self.kind == "nat_bounded":
            return b.bounded
        if self.kind == "ub":
            return b.bounded_above
        if self.kind == "lb":
            return b.bounded_below
        if self.kind == "metric":
            return self.metric.is_bounded_set(a)
        if self.kind == "uf_small":
            return _is_reverse_well_ordered(a)
        return self._custom_member(a)

    def _custom_member(self, a: RealSet) -> bool:
        if a.is_empty:
            return True
        sc = self.schema
        lo, hi = a.inf_value(), a.sup_value()
        if (sc.lo is not None and not is_finite(lo)) or (sc.hi is not None and not is_finite(hi)):
            return False
        return a.is_subset(sc.stable_trace(lo, hi))

    def base_schema(self) -> Optional[BaseSchema]:
        if self.schema is not None:
            return self.schema
        if self.kind == "fb":
            return BaseSchema(kind="grid")
        if self.kind == "all":
            return BaseSchema(lo=None, hi=None, lo_closed=False, hi_closed=False)
        if self.kind == "nat_bounded":
            return BaseSchema(lo=(Fraction(0), Fraction(-1)), hi=(Fraction(0), Fraction(1)))
        if self.kind == "ub":
            return BaseSchema(lo=None, hi=(Fraction(0), Fraction(1)), hi_closed=False)
        if self.kind == "lb":
            return BaseSchema(lo=(Fraction(0), Fraction(-1)), hi=None, lo_closed=False)
        if self.kind == "metric":
            return BaseSchema(kind="ball", metric=self.metric)
        return None  # uf_small: no countable base exists

    def __str__(self):
        if self.kind == "metric":
            return f"B({self.metric.label()})"
        if self.kind == "uf_small":
            return f"uf_small[{_UF_DOC}]"
        return self.kind


FB = Bornology("fb")
ALL_SETS = Bornology("all")
NAT_BOUNDED = Bornology("nat_bounded")
UB = Bornology("ub")
LB = Bornology("lb")
UF_SMALL = Bornology("uf_small")


def metric_bounded(d: QuasiMetric) -> Bornology:
    return Bornology("metric", metric=d)


def custom_bornology(schema: BaseSchema) -> Bornology:
    return Bornology("custom", schema=schema)


@lru_cache(maxsize=None)
def probe_corpus() -> Tuple[RealSet, ...]:
    """Fixed battery of 26 sets spanning the shapes the identity tables
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
# line tables
# ---------------------------------------------------------------------------

# Sm / CB / ACB per variant, resolved through _NAMED below.
# standard family rationale: on ut every infinite set is refuted by a dense
# ray fan, so only finite sets are small; on the smallified lines (om, st,
# slom, rom, sl+-) the admissible families are globally essentially finite,
# so every set is small; on lom/lst local essential finiteness caps traces
# at bounded sets; the l+/l- family conditions cap one direction only; the
# upper EF-lines inherit their bornology from the defining base.
_STANDARD_TABLE = {
    "ut": ("fb", "nat_bounded", "nat_bounded"),
    "om": ("all", "nat_bounded", "all"),
    "st": ("all", "nat_bounded", "all"),
    "lom": ("nat_bounded", "nat_bounded", "nat_bounded"),
    "lst": ("nat_bounded", "nat_bounded", "nat_bounded"),
    "slom": ("all", "nat_bounded", "all"),
    "l_plus_om": ("ub", "nat_bounded", "ub"),
    "l_plus_st": ("ub", "nat_bounded", "ub"),
    "l_minus_om": ("lb", "nat_bounded", "lb"),
    "l_minus_st": ("lb", "nat_bounded", "lb"),
    "sl_plus_om": ("all", "nat_bounded", "all"),
    "sl_minus_om": ("all", "nat_bounded", "all"),
    "rom": ("all", "nat_bounded", "all"),
    "uu": ("ub", "ub", "ub"),
    "ul": ("all", "ub", "all"),
    "uf": ("uf_small", "ub", "ub"),
}

# sorgenfrey family: relatively compact sets of the half-open topology are
# countable, and the countable representable sets are the finite ones and
# arithmetic point tails (which are unbounded, hence not compact), so
# CB = FB throughout; Sm/ACB follow the same per-variant rationale.
_SORGENFREY_TABLE = {
    "ut": ("fb", "fb", "fb"),
    "om": ("all", "fb", "all"),
    "st": ("all", "fb", "all"),
    "lom": ("nat_bounded", "fb", "nat_bounded"),
    "lst": ("nat_bounded", "fb", "nat_bounded"),
    "slom": ("all", "fb", "all"),
    "l_plus_om": ("ub", "fb", "ub"),
    "l_plus_st": ("ub", "fb", "ub"),
    "l_minus_om": ("lb", "fb", "lb"),
    "l_minus_st": ("lb", "fb", "lb"),
    "sl_plus_om": ("all", "fb", "all"),
    "sl_minus_om": ("all", "fb", "all"),
    "rom": ("all", "fb", "all"),
}

_NAMED = {"fb": FB, "all": ALL_SETS, "nat_bounded": NAT_BOUNDED,
          "ub": UB, "lb": LB, "uf_small": UF_SMALL}

_PT_TABLE = {
    "ut": "ut", "om": "st", "st": "st", "lom": "lst", "lst": "lst",
    "slom": "st", "sl_plus_om": "st", "sl_minus_om": "st",
    "l_plus_om": "l_plus_st", "l_plus_st": "l_plus_st",
    "l_minus_om": "l_minus_st", "l_minus_st": "l_minus_st",
    "rom": "st", "uu": "uu", "ul": "ul", "uf": "uf",
}

_EF_BORNOLOGY = {"uu": UB, "ul": LB, "uf": FB}


def topology_of_line(l: LineId) -> TopologyKind:
    if l.family == "sorgenfrey":
        return TopologyKind.SORG_R
    if l.variant in ("uu", "ul", "uf"):
        return TopologyKind.UPPER
    return TopologyKind.NAT


def _table(l: LineId):
    return (_STANDARD_TABLE if l.family == "standard" else _SORGENFREY_TABLE)[l.variant]


def sm_bornology(l: LineId) -> Bornology:
    return _NAMED[_table(l)[0]]


def cb_bornology(l: LineId) -> Bornology:
    return _NAMED[_table(l)[1]]


def acb_bornology(l: LineId) -> Bornology:
    return _NAMED[_table(l)[2]]


def sm_member(l: LineId, a: RealSet) -> bool:
    return sm_bornology(l).member(a)


def cb_member(l: LineId, a: RealSet) -> bool:
    return cb_bornology(l).member(a)


def acb_member(l: LineId, a: RealSet) -> bool:
    return acb_bornology(l).member(a)


def pt_of(l: LineId) -> LineId:
    """Partial-topologization image.  For sorgenfrey/rom the image is
    recorded as st over the rationalized topology; the generation-probe
    identity checks exclude it."""
    return LineId(l.family, _PT_TABLE[l.variant])


def cov_member(l: LineId, f: FamilySpec) -> bool:
    """Admissibility: every member has the line's open shape and the family
    satisfies the line's cover condition."""
    if violating_member(f, lambda u: op_member(l, u)) is not None:
        return False
    v = l.variant
    if v == "ut":
        return True
    if v in ("om", "st", "slom", "rom", "sl_plus_om", "sl_minus_om"):
        return bool(ess_finite(f))
    if v in ("lom", "lst"):
        return locally_ess_finite(f)
    if v in ("l_plus_om", "l_plus_st"):
        return locally_ess_finite(f) and \
            bool(ess_finite_on(f, interval(NEG_INF, 0)))
    if v in ("l_minus_om", "l_minus_st"):
        return locally_ess_finite(f) and \
            bool(ess_finite_on(f, interval(0, POS_INF)))
    # uu / ul / uf: EF(upper topology, B); shapes were already checked above
    return ef_member(f, TopologyKind.UPPER, _EF_BORNOLOGY[v])


# ---------------------------------------------------------------------------
# suite support: refuters, probe batteries, weak local smallness
# ---------------------------------------------------------------------------

def _seed_block(l: LineId, lo: int, hi: int) -> RealSet:
    """A line-appropriate open block: (lo, hi) or [lo, hi)."""
    if l.family == "sorgenfrey":
        return interval(Fraction(lo), Fraction(hi), True, False)
    return interval(Fraction(lo), Fraction(hi), False, False)


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
    kind = _table(l)[0]
    b = a.boundedness()
    if kind in ("fb", "uf_small"):
        # any family of the line's opens is admissible here
        if not b.bounded_above:
            if l.variant == "uf":
                return Periodic(interval(NEG_INF, 0), Fraction(1))
            return Periodic(_seed_block(l, 0, 2), Fraction(1))
        if not b.bounded_below and kind == "fb":
            return Periodic(_seed_block(l, 0, 2), Fraction(1))
        t = _accumulation_sup(a)
        return Fan(t - 1, t, "down")
    if kind == "nat_bounded":
        return Periodic(_seed_block(l, 0, 2), Fraction(1))
    if kind == "ub":
        if l.variant == "uu":
            return Periodic(interval(NEG_INF, 0), Fraction(1))
        return Periodic(_seed_block(l, 0, 2), Fraction(1), IndexRange(0, None))
    if kind == "lb":
        return Periodic(_seed_block(l, 0, 2), Fraction(1), IndexRange(None, 0))
    raise AssertionError(f"line {l} has only small sets")


def admissible_battery(l: LineId) -> list[FamilySpec]:
    """Line-admissible families used for the definitional smallness checks."""
    blocks = [_seed_block(l, k, k + 2) for k in (-3, -1, 0, 2)]
    candidates: list[FamilySpec] = [
        finite_family([REALS]),
        finite_family(blocks),
        Periodic(_seed_block(l, 0, 2), Fraction(1)),
        Periodic(_seed_block(l, 0, 2), Fraction(1), IndexRange(0, None)),
        Periodic(_seed_block(l, 0, 2), Fraction(1), IndexRange(None, 0)),
        Periodic(interval(NEG_INF, 0), Fraction(1)),
        Fan(Fraction(0), Fraction(1), "down"),
    ]
    out = []
    for f in candidates:
        try:
            if cov_member(l, f):
                out.append(f)
        except Exception:
            continue
    return out


def weak_local_small_cover(l: LineId) -> Optional[FamilySpec]:
    """A representable collection of small opens covering the line, when one
    exists (definitional weak local smallness; no admissibility needed)."""
    kind = _table(l)[0]
    if kind == "all":
        return finite_family([REALS])
    if kind == "nat_bounded":
        return Periodic(_seed_block(l, 0, 2), Fraction(1))
    if kind == "ub":
        return Periodic(interval(NEG_INF, 0), Fraction(1))
    if kind == "lb":
        if l.family == "sorgenfrey":
            return Periodic(interval(0, POS_INF, True, False), Fraction(1))
        return Periodic(interval(0, POS_INF), Fraction(1))
    return None  # fb / uf_small: small opens cannot cover the line


def weak_local_small_verdict(l: LineId) -> bool:
    """True when the line has a representable cover by small opens; the cover
    (or its impossibility on ut/uf lines) is re-verified by the test suite."""
    return weak_local_small_cover(l) is not None
