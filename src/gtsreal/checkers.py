"""Metrizability-facing criteria: properness, base condition, neighborhood
chain checks, metrizability verdicts, strict-continuity refutation, axiom
probes, and the initial-bornology membership test.

The chain inclusion [B_n]^delta_d subseteq B_{n+1} is decided in closed form
from the end-gap profile delta*(n): [B_n]^delta reaches only as far as the
delta-balls at B_n's ends, so the inclusion holds iff delta <= delta*(n),
the least gap between an end of B_{n+1} and the matching end of B_n.  The
gap at an end does not decrease until the end crosses 0, and from then on
it is constant or strictly decreasing to 0, so three landmark indices per
end, plus doubling and bisection on a falling gap, decide every index.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Tuple

from gtsreal.covers import (
    End,
    FamilySpec,
    PreconditionError,
    finite_family,
    members,
    restrict_family,
    union_of,
)
from gtsreal.lines import (
    BaseSchema,
    Bornology,
    LineId,
    admissible_battery,
    cov_member,
    op_member,
    probe_corpus,
)
from gtsreal.qmetric import QuasiMetric, UnsupportedCombinationError
from gtsreal.realset import (
    EMPTY,
    NEG_INF,
    POS_INF,
    REALS,
    ConstructionError,
    ExtRat,
    RealSet,
    TopologyKind,
    affine_image,
    interval,
    is_finite,
    point,
    rat,
    union_all,
)


class UnrepresentableError(ValueError):
    """A construction (e.g. a preimage family) escapes the representation."""


# ---------------------------------------------------------------------------
# piecewise affine maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PiecewiseAffineMap:
    """Total map on the line: piece i applies slope*x + intercept on
    [b_{i-1}, b_i) (first piece unbounded below, last unbounded above)."""

    breakpoints: Tuple[Fraction, ...]
    pieces: Tuple[Tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        if len(self.pieces) != len(self.breakpoints) + 1:
            raise ConstructionError("need exactly one piece per domain cell")
        if any(a >= b for a, b in zip(self.breakpoints, self.breakpoints[1:])):
            raise ConstructionError("breakpoints must be strictly ascending")

    @staticmethod
    def affine(slope, intercept) -> "PiecewiseAffineMap":
        return PiecewiseAffineMap((), ((rat(slope), rat(intercept)),))

    @staticmethod
    def identity() -> "PiecewiseAffineMap":
        return PiecewiseAffineMap.affine(1, 0)

    def windows(self) -> Tuple[RealSet, ...]:
        ends = (NEG_INF, *self.breakpoints, POS_INF)
        return tuple(interval(a, b, is_finite(a), False) for a, b in zip(ends, ends[1:]))

    def __call__(self, x) -> Fraction:
        q = rat(x)
        s, c = self.pieces[bisect_right(self.breakpoints, q)]
        return s * q + c

    def image(self, a: RealSet) -> RealSet:
        parts = (a.intersect(cell) for cell in self.windows())
        return union_all(affine_image(part, s, c)
                         for part, (s, c) in zip(parts, self.pieces) if not part.is_empty)

    def preimage(self, u: RealSet) -> RealSet:
        return union_all(
            (cell if u.contains_point(c) else EMPTY) if s == 0
            else affine_image(u, Fraction(1) / s, -c / s).intersect(cell)
            for cell, (s, c) in zip(self.windows(), self.pieces))

    @property
    def is_increasing_affine(self) -> bool:
        return not self.breakpoints and self.pieces[0][0] > 0


# ---------------------------------------------------------------------------
# properness and base condition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProperReport:
    proper: bool
    witness_index: Optional[int] = None
    witness_closure: Optional[RealSet] = None

    def __str__(self):
        if self.proper:
            return "PROPER"
        return f"IMPROPER at n={self.witness_index} closure={self.witness_closure}"


def _fit(schema: BaseSchema, t2: TopologyKind, n: int) -> Tuple[RealSet, int]:
    """cl_t2(B_n) and the m that decides whether it fits inside some
    int_t1(B_m): from m on, B_m is unchanged within 1 of the closure's finite
    ends, and a free end, which alone holds an unbounded closure, stays free."""
    c = schema.element(n).closure(t2)
    ends = [e for e in (c.inf_value(), c.sup_value()) if is_finite(e)] or [Fraction(0)]
    return c, max(n, schema.stable_index(min(ends) - 1, max(ends) + 1)) + 1


def _first_improper(schema: BaseSchema, t1: TopologyKind,
                    t2: TopologyKind) -> Optional[Tuple[int, RealSet]]:
    """The first n whose cl_t2(B_n) fits in no int_t1(B_m), with its closure.
    The n that fit are an initial segment, holding the empty B_n before the
    first nonempty index s.  From s + 1 on, B_n keeps one shape (an interval
    with the same ends and flags, the grid {-n..n}, a ball of radius >= 2),
    and whether its closure fits is decided end by end by that shape, so
    s + 1 decides every later n; s comes first to name the first failure."""
    s = schema.first_nonempty()
    for n in () if s is None else (s, s + 1):
        c, m = _fit(schema, t2, n)
        if not c.is_subset(schema.element(m).interior(t1)):
            return n, c
    return None


def proper_check(b: Bornology, t1: TopologyKind, t2: TopologyKind) -> ProperReport:
    """(t1, t2)-properness on base elements (`_first_improper`): the base
    suffices, as cl/int are monotone and every member sits inside a base
    element."""
    schema = b.schema
    if schema is None:
        raise PreconditionError(f"{b} has no indexed base to check properness on")
    bad = _first_improper(schema, t1, t2)
    return ProperReport(bad is None, *(bad or (None, None)))


def base_check(b: Bornology, t: TopologyKind) -> bool:
    """Is tau(t) n B a base for B, i.e. does every B_n fit inside the
    t-interior of a later one?  That is (t, discrete)-properness."""
    schema = b.schema
    if schema is None:
        raise PreconditionError(f"{b} has no indexed base")
    return _first_improper(schema, t, TopologyKind.DISCRETE) is None


# ---------------------------------------------------------------------------
# chain criteria
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainReport:
    verdict: str                      # "pass" | "fail_at"
    uniform: bool
    fail_index: Optional[int] = None
    missing: Optional[RealSet] = None
    delta_used: Optional[Fraction] = None

    def __str__(self):
        if self.verdict == "fail_at":
            extra = "" if self.delta_used is None else f" delta={self.delta_used}"
            return f"fail_at({self.fail_index}) missing={self.missing}{extra}"
        if self.uniform:
            return f"pass (uniform, delta={self.delta_used})"
        return "pass (per-index)"


#: where a chain that no single delta closes reports its failure
_PROBE_DELTA = Fraction(1, 2**12)


def _missing(d: QuasiMetric, schema: BaseSchema, delta: Fraction, n: int) -> RealSet:
    """[B_n]^delta_d minus B_{n+1}: empty exactly when the inclusion holds at n."""
    return d.nbhd(schema.element(n), delta).difference(schema.element(n + 1))


@lru_cache(maxsize=1024)
def _end_gaps(d: QuasiMetric, schema: BaseSchema, n: int) -> Tuple[ExtRat, ExtRat]:
    """(lower, upper): the largest delta for which [B_n]^delta_d stays inside
    B_{n+1} on that side, POS_INF where B_{n+1} is unbounded.  Memoized by
    value: the profile and the bisection of a falling gap ask for the same
    indices again.

    [B_n]^delta reaches as far as the delta-balls at B_n's ends (finite
    where B_{n+1}'s are, as B_n is inside B_{n+1}).  An end that moves from
    x to x' allows delta up to d(x, x').  A fixed end x allows every
    delta <= 1 if d.ball(x, 1) keeps to B_{n+1}'s side of x and none
    otherwise: a ball that keeps to one side of its centre does so for
    every radius up to 1 and no further."""
    a, b = schema.element(n), schema.element(n + 1)
    if a.is_empty:
        return POS_INF, POS_INF
    gaps = []
    for x, y, upper in ((a.inf_value(), b.inf_value(), False),
                        (a.sup_value(), b.sup_value(), True)):
        if not is_finite(y):
            gaps.append(POS_INF)
        elif x != y:
            gaps.append(d.eval(x, y))
        else:
            ball = d.ball(x, 1)
            kept = ball.sup_value() <= x if upper else ball.inf_value() >= x
            gaps.append(Fraction(int(kept)))
    return gaps[0], gaps[1]


def _delta_star(d: QuasiMetric, schema: BaseSchema, n: int) -> ExtRat:
    """delta*(n): [B_n]^delta_d lies inside B_{n+1} iff delta <= delta*(n).
    POS_INF when B_{n+1} is the line; 0 on a grid, which holds no ball."""
    if schema.kind == "grid":
        return Fraction(0)
    return min(_end_gaps(d, schema, n))


def _far_start(schema: BaseSchema, end) -> int:
    """c: the first index from which this end of B_n lies on its far side of
    0 (a lower end <= 0, an upper end >= 0), 0 being the only breakpoint of
    phi_q, d_u and the rho metrics.  A fixed end has no side.  Ball ends lie
    there from the start, as every ball holds its centre 0, and the balls
    B_d(0, r) with r >= 2, i.e. from n0 + 1 on, share one affine shape."""
    if schema.kind == "ball":
        return schema.n0 + 1
    if end is None or end[1] == 0:
        return schema.n0
    return max(schema.n0, math.ceil(-end[0] / end[1]))


def _profile(d: QuasiMetric, schema: BaseSchema):
    """Per end of B_n: its gap at the landmarks s, c - 1 and c as (n, gap)
    pairs, and whether the gap falls past c.  s is the first index with a
    nonempty B_n; every delta works on the empty ones before it.

    From s up to c - 2 the gap at an end does not decrease (the end moves
    on the near side of 0 there), c - 1 is the step across 0, and from c on
    the gap is constant (equal at c and c + 1) or strictly decreasing to 0
    (the Moebius ends of d_n_plus).  So an end's first gap below any delta
    and its smallest gap are read at its landmarks, unless the gap falls."""
    if not d.exact:
        raise UnsupportedCombinationError("nbhd requires exact_surrogate mode")
    if schema.kind == "grid":
        return [(((schema.n0, Fraction(0)),), False)]
    start = schema.first_nonempty()
    if start is None:
        return [(((schema.n0, POS_INF),), False)]
    laws = []
    for side, end in enumerate((schema.lo, schema.hi)):
        c = max(start, _far_start(schema, end))
        marks = sorted({start, max(start, c - 1), c})
        gap = {n: _end_gaps(d, schema, n)[side] for n in marks + [c + 1]}
        laws.append((tuple((n, gap[n]) for n in marks), gap[c] != gap[c + 1]))
    return laws


def _first_below(d: QuasiMetric, schema: BaseSchema, side: int, delta: Fraction,
                 n_ok: int) -> int:
    """The first n > n_ok with a gap below delta at this end, for a gap that
    is at least delta at n_ok and strictly decreasing to 0 from there:
    doubling, then bisection.  A gap that does not fall stops the doubling
    with an AssertionError rather than a loop without end."""
    def gap(n: int) -> ExtRat:
        return _end_gaps(d, schema, n)[side]

    step, last, g = 1, gap(n_ok), gap(n_ok + 1)
    while g >= delta:
        if g >= last:
            raise AssertionError(f"the end gap does not fall at n = {n_ok + step}")
        n_ok, step, last = n_ok + step, 2 * step, g
        g = gap(n_ok + step)
    n_bad = n_ok + step
    while n_bad - n_ok > 1:
        mid = (n_ok + n_bad) // 2
        if gap(mid) < delta:
            n_bad = mid
        else:
            n_ok = mid
    return n_bad


def chain_check(d: QuasiMetric, schema: BaseSchema, delta) -> ChainReport:
    """[B_n]^delta_d subseteq B_{n+1} for all n >= n0: the first failure is
    the first n with delta*(n) < delta, i.e. the first at either end."""
    dq = rat(delta)
    laws = _profile(d, schema)
    if dq <= 0:
        raise ConstructionError("delta must be positive")
    firsts = []
    for side, (marks, falls) in enumerate(laws):
        hit = next((n for n, g in marks if g < dq), None)
        if hit is None and falls:
            hit = _first_below(d, schema, side, dq, marks[-1][0])
        if hit is not None:
            firsts.append(hit)
    n_f = min(firsts, default=None)
    if n_f is None:
        return ChainReport("pass", True, None, None, dq)
    return ChainReport("fail_at", False, n_f, _missing(d, schema, dq, n_f), dq)


def _first_zero(laws) -> Optional[int]:
    """The first n with delta*(n) = 0: a falling gap stays positive, so it is a landmark."""
    return min((n for marks, _ in laws for n, g in marks if g == 0), default=None)


def chain_search(d: QuasiMetric, schema: BaseSchema) -> ChainReport:
    """Per-index condition: for each n some delta works (delta may vary
    with n), i.e. delta*(n) > 0 (`_first_zero`).  When inf delta*(n) > 0,
    the one delta min(1, inf) serves every index and the uniform report is
    returned."""
    laws = _profile(d, schema)
    zero = _first_zero(laws)
    if zero is None and not any(falls for _, falls in laws):
        low = min(g for marks, _ in laws for _, g in marks)
        return chain_check(d, schema, min(Fraction(1), low))
    if zero is None:
        return ChainReport("pass", False)
    return ChainReport("fail_at", False, zero, _missing(d, schema, _PROBE_DELTA, zero),
                       _PROBE_DELTA)


def uniform_chain_check(d: QuasiMetric, schema: BaseSchema) -> ChainReport:
    """Single-delta condition: passes iff inf delta*(n) > 0, with delta
    min(1, inf); otherwise the chain fails for every delta, and the report
    shows where it fails for delta = 2^-12."""
    rep = chain_search(d, schema)
    return rep if rep.uniform else chain_check(d, schema, _PROBE_DELTA)


# ---------------------------------------------------------------------------
# metrizability verdict
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetrizabilityReport:
    verdict: str                      # "CONSISTENT" | "INCONSISTENT"
    failing_part: Optional[str]       # "topology" | "bornology" | "base" | "chain"
    detail: str

    @property
    def consistent(self) -> bool:
        return self.verdict == "CONSISTENT"

    def __str__(self):
        if self.consistent:
            return "CONSISTENT"
        return f"INCONSISTENT part={self.failing_part}: {self.detail}"


def _separating_set(b: Bornology, d: QuasiMetric) -> Optional[Tuple[str, RealSet]]:
    """None when b is exactly the d-bounded sets, else ("probe" | "set", a)
    with a in one of them only: b is them iff it has d's ends (free or moving)
    and no isolated-points condition, which leaves out [0, 1].  a is the first
    probe that tells them apart, else built at the first end that differs: a
    point past b's fixed end, a ray on b's moving side (d's is free), or
    B_(s+1), unbounded on b's free side (a ball of radius 1 may not be)."""
    ends = d.bounded_ends
    if b.pointwise is None and b.ends == ends:
        return None
    a = next((a for a in probe_corpus() if b.member(a) != d.is_bounded_set(a)), None)
    if a is not None:
        return "probe", a
    side = next(i for i in (0, 1) if b.ends[i] != ends[i])
    schema = b.schema
    if b.ends[side] is End.FIXED:
        return "set", point((schema.lo, schema.hi)[side][0] + (1 if side else -1))
    if b.ends[side] is End.MOVING:
        return "set", interval(0, POS_INF) if side else interval(NEG_INF, 0)
    return "set", schema.element(schema.first_nonempty() + 1)


def metrizable_verdict(l: LineId, b: Bornology, d: QuasiMetric) -> MetrizabilityReport:
    """Three-part consistency check of "the line is quasi-metrizable with
    respect to b by d", each part in closed form: the topologies match, b is
    the d-bounded sets (`_separating_set`), and no B_n has delta*(n) = 0."""
    want = l.spec.topology
    got = d.topology_of()
    if got is not want:
        return MetrizabilityReport(
            "INCONSISTENT", "topology",
            f"tau(d)={got.value} but the line carries {want.value}")
    split = _separating_set(b, d)
    if split is not None:
        word, a = split
        side = "bornology-member but not d-bounded" if b.member(a) else \
            "d-bounded but outside the bornology"
        return MetrizabilityReport("INCONSISTENT", "bornology", f"{word} {a}: {side}")
    schema = b.schema
    if schema is None:
        return MetrizabilityReport(
            "INCONSISTENT", "base",
            f"{b} has no countable indexed base to satisfy the chain condition")
    zero = _first_zero(_profile(d, schema))
    if zero is not None:
        return MetrizabilityReport(
            "INCONSISTENT", "chain",
            f"no delta closes [B_n]^delta inside B_(n+1) at n={zero}")
    return MetrizabilityReport("CONSISTENT", None, "all parts agree")


# ---------------------------------------------------------------------------
# strict continuity refuter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StrictContReport:
    verdict: str                      # "REFUTED" | "UNREFUTED"
    witness: Optional[FamilySpec] = None
    preimage: Optional[FamilySpec] = None
    notes: Tuple[str, ...] = ()

    def __str__(self):
        if self.verdict == "REFUTED":
            return f"REFUTED witness={self.witness}"
        return "UNREFUTED" + (f" notes={'; '.join(self.notes)}" if self.notes else "")


def preimage_family(f: PiecewiseAffineMap, fam: FamilySpec) -> FamilySpec:
    """{f^-1(U) : U in fam}; exact for enumerable families and for
    increasing affine maps, otherwise the presentation escapes."""
    mats = members(fam)
    if mats is not None:
        return finite_family(f.preimage(u) for u in mats)
    if not f.is_increasing_affine:
        raise UnrepresentableError(
            "preimage of an infinite family under a non-monotone piecewise map")
    return fam.pullback(*f.pieces[0])


def strict_cont_refute(f: PiecewiseAffineMap, src: LineId, dst: LineId,
                       battery: Sequence[FamilySpec]) -> StrictContReport:
    """Refute strict continuity of f : src -> dst by finding an admissible
    family of dst whose preimage family is not admissible in src."""
    notes = []
    for fam in battery:
        if not cov_member(dst, fam):
            raise PreconditionError(f"battery family {fam} is not admissible in {dst}")
    for fam in battery:
        try:
            pre = preimage_family(f, fam)
        except UnrepresentableError as e:
            notes.append(f"{fam}: {e}")
            continue
        if not cov_member(src, pre):
            return StrictContReport("REFUTED", fam, pre, tuple(notes))
    return StrictContReport("UNREFUTED", None, None, tuple(notes))


# ---------------------------------------------------------------------------
# gts axiom probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxiomProbeReport:
    passed: bool
    checks: int
    failures: Tuple[str, ...] = ()

    def __str__(self):
        if self.passed:
            return f"all pass ({self.checks} checks)"
        return "violations: " + "; ".join(self.failures)


def _split_open(l: LineId, u: RealSet) -> Optional[Tuple[RealSet, RealSet]]:
    """Two opens of the line covering u (a refinement of {u}), when the
    first piece's shape permits."""
    if u.left_tail is not None or u.right_tail is not None or not u.core:
        return None
    iv = u.core[0]
    if iv.is_point or not (is_finite(iv.lo) and is_finite(iv.hi)):
        return None
    mid = (iv.lo + iv.hi) / 2
    rest = u.difference(interval(iv.lo, iv.hi, iv.lo_closed, iv.hi_closed))
    if l.spec.topology is TopologyKind.SORG_R:
        a = interval(iv.lo, mid, iv.lo_closed, False)
        b = interval(mid, iv.hi, True, iv.hi_closed)
    else:
        quarter = (iv.hi - iv.lo) / 4
        a = interval(iv.lo, mid + quarter, iv.lo_closed, False)
        b = interval(mid - quarter, iv.hi, False, iv.hi_closed)
    va, vb = a.union(rest), b.union(rest)
    if op_member(l, va) and op_member(l, vb) and va.union(vb) == u:
        return (va, vb)
    return None


def axiom_probe(l: LineId) -> AxiomProbeReport:
    """Instance-level verification of the five gts axioms on the line's
    `default_probe_battery`."""
    opens, families = default_probe_battery(l)
    failures = []
    checks = 0

    opens = [u for u in opens if op_member(l, u)]
    families = [fam for fam in families if cov_member(l, fam)]

    # (i) finite subfamilies of opens are admissible; finite unions and
    # intersections of opens are open; the empty family works and cap of
    # nothing is the whole line
    checks += 1
    if not cov_member(l, finite_family([])):
        failures.append("(i): empty family not admissible")
    checks += 1
    if not op_member(l, REALS):
        failures.append("(i): the carrier (empty intersection) is not open")
    for i, u in enumerate(opens):
        for v in opens[i:]:
            checks += 3
            if not op_member(l, u.union(v)):
                failures.append(f"(i): union {u} | {v} not open")
            if not op_member(l, u.intersect(v)):
                failures.append(f"(i): intersection {u} & {v} not open")
            if not cov_member(l, finite_family([u, v])):
                failures.append(f"(i): pair family {{{u}, {v}}} not admissible")

    # (ii) stability under intersection with an open
    for fam in families:
        for v in opens:
            checks += 1
            if not cov_member(l, restrict_family(fam, v)):
                failures.append(f"(ii): {fam} n {v} not admissible")

    enumerable = [(fam, mats) for fam in families if (mats := members(fam))]

    # (iii) transitivity: refine each member of a finite admissible family
    for fam, mats in enumerable:
        composed = []
        for u in mats:
            halves = _split_open(l, u)
            if halves is not None:
                checks += 1
                if not cov_member(l, finite_family(halves)):
                    failures.append(f"(iii): refinement of {u} not admissible")
                    break
            composed.extend(halves or [u])
        else:
            checks += 1
            if not cov_member(l, finite_family(composed)):
                failures.append(f"(iii): composed refinement of {fam} not admissible")

    # (iv) saturation: coarsen a finite admissible family to its union
    for fam, _ in enumerable:
        u = union_of(fam)
        if op_member(l, u):
            checks += 1
            if not cov_member(l, finite_family([u])):
                failures.append(f"(iv): coarsening {{{u}}} of {fam} not admissible")

    # (v) regularity: glue an open trace along an admissible family
    for fam, mats in enumerable:
        for w in opens:
            v = w.intersect(union_of(fam))
            checks += 1
            if all(op_member(l, v.intersect(u)) for u in mats) and not op_member(l, v):
                failures.append(f"(v): glued set {v} not open")
    return AxiomProbeReport(not failures, checks, tuple(failures))


def default_probe_battery(l: LineId):
    """Line-shaped opens plus the admissible families of the corpus battery."""
    t = l.spec.topology
    if t is TopologyKind.UPPER:
        opens = [EMPTY, REALS, interval(NEG_INF, 0), interval(NEG_INF, 3)]
    else:
        opens = [EMPTY, REALS] + [interval(lo, hi, t is TopologyKind.SORG_R, False)
                                  for lo, hi in ((0, 1), (1, 2), (0, 2), (-3, 7))] \
            + [interval(NEG_INF, 0)]
    return opens, admissible_battery(l)


# ---------------------------------------------------------------------------
# initial bornology
# ---------------------------------------------------------------------------

def initial_bornology_member(maps: Sequence[PiecewiseAffineMap],
                             borns: Sequence[Bornology], a: RealSet) -> bool:
    """Membership in the initial bornology of a structured source: the image
    under every map must be bounded in the corresponding bornology."""
    if len(maps) != len(borns):
        raise PreconditionError("maps and bornologies must align")
    return all(b.member(f.image(a)) for f, b in zip(maps, borns))
