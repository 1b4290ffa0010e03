"""Metrizability-facing criteria: properness, base condition, neighborhood
chain checks, metrizability verdicts, strict-continuity refutation, axiom
probes, and the initial-bornology membership test.

Chain inclusions [B_n]^delta_d subseteq B_{n+1} are checked explicitly for
n <= N and extended symbolically: beyond a stabilization index every ball
endpoint of the corpus metrics is an affine function of n (or constantly
infinite), so two exact probes decide the whole tail, and a failure onset
beyond N is located by binary search over exact checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from gtsreal.covers import (
    FamilySpec,
    Fan,
    Periodic,
    PreconditionError,
    Restricted,
    Split,
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
    topology_of_line,
)
from gtsreal.qmetric import QuasiMetric
from gtsreal.realset import (
    EMPTY,
    NEG_INF,
    POS_INF,
    REALS,
    ConstructionError,
    RealSet,
    TopologyKind,
    affine_image,
    interval,
    is_finite,
    rat,
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
        if any(self.breakpoints[i] >= self.breakpoints[i + 1]
               for i in range(len(self.breakpoints) - 1)):
            raise ConstructionError("breakpoints must be strictly ascending")

    @staticmethod
    def affine(slope, intercept) -> "PiecewiseAffineMap":
        return PiecewiseAffineMap((), ((rat(slope), rat(intercept)),))

    @staticmethod
    def identity() -> "PiecewiseAffineMap":
        return PiecewiseAffineMap.affine(1, 0)

    def windows(self) -> Tuple[RealSet, ...]:
        cells = []
        prev = NEG_INF
        for b in self.breakpoints:
            cells.append(interval(prev, b, is_finite(prev), False))
            prev = b
        cells.append(interval(prev, POS_INF, is_finite(prev), False))
        return tuple(cells)

    def __call__(self, x) -> Fraction:
        q = rat(x)
        idx = 0
        for b in self.breakpoints:
            if q < b:
                break
            idx += 1
        s, c = self.pieces[idx]
        return s * q + c

    def image(self, a: RealSet) -> RealSet:
        out = EMPTY
        for cell, (s, c) in zip(self.windows(), self.pieces):
            part = a.intersect(cell)
            if part.is_empty:
                continue
            out = out.union(affine_image(part, s, c))
        return out

    def preimage(self, u: RealSet) -> RealSet:
        out = EMPTY
        for cell, (s, c) in zip(self.windows(), self.pieces):
            if s == 0:
                got = cell if u.contains_point(c) else EMPTY
            else:
                got = affine_image(u, Fraction(1) / s, -c / s).intersect(cell)
            out = out.union(got)
        return out

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
    certificates: Tuple[Tuple[int, int], ...] = ()


def _check_index_bound(schema: BaseSchema, n_max: int) -> None:
    if n_max < schema.n0:
        raise PreconditionError(
            f"index bound {n_max} is below the first base index {schema.n0}")


def proper_check(b: Bornology, t1: TopologyKind, t2: TopologyKind,
                 n_max: int = 16, margin: int = 8) -> ProperReport:
    """(t1, t2)-properness on base elements: cl_t2(B_n) inside int_t1(B_m).

    Checking the base suffices: cl/int are monotone and every member sits
    inside a base element."""
    schema = b.base_schema()
    if schema is None:
        raise PreconditionError(f"{b} has no indexed base to check properness on")
    _check_index_bound(schema, n_max)
    certs = []
    for n in range(schema.n0, n_max + 1):
        c = schema.element(n).closure(t2)
        hit = None
        for m in range(n, n_max + margin + 1):
            if c.is_subset(schema.element(m).interior(t1)):
                hit = m
                break
        if hit is None:
            return ProperReport(False, n, c, tuple(certs))
        certs.append((n, hit))
    return ProperReport(True, None, None, tuple(certs))


def base_check(b: Bornology, t: TopologyKind, n_max: int = 16,
               margin: int = 8) -> bool:
    """Is tau(t) n B a base for B?  True iff every base element fits inside
    the t-interior of a later base element (interiors of members are t-open
    members, and any open member embeds in some base element)."""
    schema = b.base_schema()
    if schema is None:
        raise PreconditionError(f"{b} has no indexed base")
    for n in range(schema.n0, n_max + 1):
        e = schema.element(n)
        if not any(e.is_subset(schema.element(m).interior(t))
                   for m in range(n, n_max + margin + 1)):
            return False
    return True


# ---------------------------------------------------------------------------
# chain criteria
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainCertificate:
    index: int
    delta: Fraction
    holds: bool


@dataclass(frozen=True)
class ChainReport:
    verdict: str                      # "pass" | "truncated" | "fail_at"
    uniform: bool
    fail_index: Optional[int] = None
    missing: Optional[RealSet] = None
    delta_used: Optional[Fraction] = None
    checked_upto: int = 0
    certificates: Tuple[ChainCertificate, ...] = ()

    @property
    def holds_everywhere(self) -> bool:
        return self.verdict == "pass"

    def summary(self) -> str:
        if self.verdict == "pass":
            return f"pass (uniform, delta={self.delta_used})"
        if self.verdict == "truncated":
            return f"truncated({self.checked_upto})"
        return f"fail_at({self.fail_index})"


def _missing(d: QuasiMetric, schema: BaseSchema, delta: Fraction, n: int) -> RealSet:
    """[B_n]^delta_d minus B_{n+1}: empty exactly when the inclusion holds at n."""
    return d.nbhd(schema.element(n), delta).difference(schema.element(n + 1))


def _inclusion_holds(d: QuasiMetric, schema: BaseSchema, delta: Fraction,
                     n: int) -> bool:
    return _missing(d, schema, delta, n).is_empty


def _stabilization_index(d: QuasiMetric, schema: BaseSchema,
                         delta: Fraction) -> int:
    """Index past which every endpoint sequence of [B_n]^delta and B_n is
    affine in n or constantly infinite.  Thresholds: the metric's branch
    points in the center variable; generous supersets are harmless."""
    if schema.kind == "grid":
        return schema.n0 + 1
    one = Fraction(1)
    thresholds = {Fraction(0), one, -one, Fraction(2), Fraction(-2),
                  delta, -delta, delta - 1, 1 - delta}
    if delta != 0:
        thresholds.update({1 - 1 / delta, 1 / delta - 1})
    if delta < 1:
        thresholds.update({1 - 1 / (1 - delta), 1 / (1 - delta) - 1})
    ends = []
    if schema.kind == "interval":
        if schema.lo is not None:
            ends.append(schema.lo)
        if schema.hi is not None:
            ends.append(schema.hi)
    else:  # ball schema: endpoints of B_d(0, n+1) are affine beyond small n
        return schema.n0 + 4 + math.ceil(1 / delta if delta < 1 else 1)
    n_stab = schema.n0 + 1
    for alpha, beta in ends:
        if beta == 0:
            continue
        for t in thresholds:
            cross = (t - alpha) / beta
            n_stab = max(n_stab, math.ceil(cross) + 2)
    return n_stab


def _endpoints(a: RealSet) -> Tuple[Tuple, Tuple]:
    if a.is_empty:
        return ((None, None), (None, None))
    iv0, iv1 = a.core[0], a.core[-1]
    return ((iv0.lo, iv0.lo_closed), (iv1.hi, iv1.hi_closed))


def _tail_analysis(d: QuasiMetric, schema: BaseSchema, delta: Fraction,
                   n1: int):
    """Decide the inclusion chain for all n >= n1 from two exact probes.

    Returns ("uniform", None) when it holds from n1 on, ("onset", n_f) for
    the first failing index >= n1, or ("unknown", None) when the affine
    structure assumption is violated."""
    ok1 = _inclusion_holds(d, schema, delta, n1)
    ok2 = _inclusion_holds(d, schema, delta, n1 + 1)

    def margins(n: int):
        nb = d.nbhd(schema.element(n), delta)
        tgt = schema.element(n + 1)
        (nlo, _), (nhi, _) = _endpoints(nb)
        (tlo, _), (thi, _) = _endpoints(tgt)
        lo_m = None
        if is_finite(nlo) and is_finite(tlo):
            lo_m = nlo - tlo        # >= 0 needed (up to flags)
        elif nlo == NEG_INF and tlo != NEG_INF:
            lo_m = NEG_INF
        hi_m = None
        if is_finite(nhi) and is_finite(thi):
            hi_m = thi - nhi
        elif nhi == POS_INF and thi != POS_INF:
            hi_m = NEG_INF
        return lo_m, hi_m

    if ok1 and ok2:
        m1, m2 = margins(n1), margins(n1 + 1)
        slopes_ok = True
        for a, b in zip(m1, m2):
            if a is None or b is None:
                continue
            if a == NEG_INF or b == NEG_INF:
                slopes_ok = False
                break
            if b < a:
                # margin shrinks affinely: compute the onset
                step = a - b
                k = math.floor(a / step) + 1
                for cand in range(n1 + k - 1, n1 + k + 3):
                    if cand > n1 and not _inclusion_holds(d, schema, delta, cand):
                        return ("onset", _first_failure(d, schema, delta, n1, cand))
                slopes_ok = False
                break
        if slopes_ok:
            return ("uniform", None)
        return ("unknown", None)
    bad = n1 if not ok1 else n1 + 1
    return ("onset", bad)


def _first_failure(d: QuasiMetric, schema: BaseSchema, delta: Fraction,
                   lo_ok: int, hi_bad: int) -> int:
    """Binary search for the first failing index in (lo_ok, hi_bad]; the
    failure predicate is monotone beyond stabilization."""
    while hi_bad - lo_ok > 1:
        mid = (lo_ok + hi_bad) // 2
        if _inclusion_holds(d, schema, delta, mid):
            lo_ok = mid
        else:
            hi_bad = mid
    return hi_bad


def chain_check(d: QuasiMetric, schema: BaseSchema, delta, n_max: int = 64) -> ChainReport:
    """[B_n]^delta_d subseteq B_{n+1} for all n: explicit to n_max, then the
    symbolic tail; failures beyond n_max are still located exactly."""
    dq = rat(delta)
    certs = []
    for n in range(schema.n0, n_max + 1):
        missing = _missing(d, schema, dq, n)
        certs.append(ChainCertificate(n, dq, missing.is_empty))
        if not missing.is_empty:
            return ChainReport("fail_at", False, n, missing, dq, n, tuple(certs))
    n_stab = _stabilization_index(d, schema, dq)
    n1 = max(n_stab, n_max + 1)
    kind, onset = _tail_analysis(d, schema, dq, n1)
    if kind == "uniform":
        # the head was checked explicitly, the tail symbolically; require the
        # gap [n_max+1, n1+1] explicitly when the stabilization point is high
        for n in range(n_max + 1, min(n1 + 2, n_max + 66)):
            missing = _missing(d, schema, dq, n)
            if not missing.is_empty:
                return ChainReport("fail_at", False, n, missing, dq, n_max, tuple(certs))
        return ChainReport("pass", True, None, None, dq, n_max, tuple(certs))
    if kind == "onset":
        n_f = _first_failure(d, schema, dq, n_max, onset) if onset > n_max + 1 else onset
        return ChainReport("fail_at", False, n_f, _missing(d, schema, dq, n_f), dq, n_max,
                           tuple(certs))
    return ChainReport("truncated", False, None, None, dq, n_max, tuple(certs))


DYADIC_DELTAS = tuple(Fraction(1, 2**k) for k in range(0, 13))
_SEARCH_DELTAS = tuple(Fraction(1, 2**k) for k in range(0, 25))


def chain_search(d: QuasiMetric, schema: BaseSchema, n_max: int = 64) -> ChainReport:
    """Per-index condition: for each n some delta works (delta may vary
    with n).  The search descends dyadically to 2^-24, deep enough for bases
    whose required delta shrinks quadratically."""
    _check_index_bound(schema, n_max)
    certs = []
    last_delta = None
    for n in range(schema.n0, n_max + 1):
        hit = next((dq for dq in _SEARCH_DELTAS if _inclusion_holds(d, schema, dq, n)), None)
        if hit is None:
            missing = _missing(d, schema, _SEARCH_DELTAS[-1], n)
            return ChainReport("fail_at", False, n, missing, None, n, tuple(certs))
        certs.append(ChainCertificate(n, hit, True))
        last_delta = hit
    # try to close the tail with the delta that worked at the far end
    tail = chain_check(d, schema, last_delta, n_max)
    if tail.verdict == "pass":
        return ChainReport("pass", True, None, None, last_delta, n_max, tuple(certs))
    # per-index deltas exist up to n_max but no single-delta tail proof
    return ChainReport("truncated", False, None, None, last_delta, n_max, tuple(certs))


def uniform_chain_check(d: QuasiMetric, schema: BaseSchema, n_max: int = 64) -> ChainReport:
    """Single-delta condition: one delta must serve every index (dyadic search)."""
    best_trunc = None
    last = None
    for dq in DYADIC_DELTAS:
        rep = chain_check(d, schema, dq, n_max)
        if rep.verdict == "pass":
            return rep
        if rep.verdict == "truncated" and best_trunc is None:
            best_trunc = rep
        last = rep
    return best_trunc if best_trunc is not None else last


# ---------------------------------------------------------------------------
# metrizability verdict
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetrizabilityReport:
    verdict: str                      # "CONSISTENT" | "INCONSISTENT"
    failing_part: Optional[str]       # "topology" | "bornology" | "base" | "chain"
    detail: str
    chain: Optional[ChainReport] = None

    @property
    def consistent(self) -> bool:
        return self.verdict == "CONSISTENT"


def metrizable_verdict(l: LineId, b: Bornology, d: QuasiMetric,
                       probes: Sequence[RealSet], n_max: int = 16) -> MetrizabilityReport:
    """Three-part consistency check of "the line is quasi-metrizable with
    respect to b by d": topology match, bornology match (probes plus two-way
    base inclusion), and the per-index chain condition on b's base."""
    want = topology_of_line(l)
    got = d.topology_of()
    if got is not want:
        return MetrizabilityReport(
            "INCONSISTENT", "topology",
            f"tau(d)={got.value} but the line carries {want.value}")
    for a in probes:
        bm = b.member(a)
        dm = d.is_bounded_set(a)
        if bm != dm:
            side = "bornology-member but not d-bounded" if bm else \
                "d-bounded but outside the bornology"
            return MetrizabilityReport(
                "INCONSISTENT", "bornology", f"probe {a}: {side}")
    schema = b.base_schema()
    if schema is None:
        return MetrizabilityReport(
            "INCONSISTENT", "base",
            f"{b} has no countable indexed base to satisfy the chain condition")
    for n in range(schema.n0, n_max + 1):
        if not d.is_bounded_set(schema.element(n)):
            return MetrizabilityReport(
                "INCONSISTENT", "bornology",
                f"base element B_{n} is not d-bounded")
    for k in range(0, 9):
        ball = d.ball(0, Fraction(2) ** k)
        if not b.member(ball):
            return MetrizabilityReport(
                "INCONSISTENT", "bornology",
                f"ball B_d(0, 2^{k}) escapes the bornology")
    chain = chain_search(d, schema, n_max)
    if chain.verdict == "fail_at":
        return MetrizabilityReport(
            "INCONSISTENT", "chain",
            f"no delta closes [B_n]^delta inside B_(n+1) at n={chain.fail_index}",
            chain)
    return MetrizabilityReport("CONSISTENT", None, "all parts agree", chain)


# ---------------------------------------------------------------------------
# strict continuity refuter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StrictContReport:
    verdict: str                      # "REFUTED" | "UNREFUTED"
    witness: Optional[FamilySpec] = None
    preimage: Optional[FamilySpec] = None
    notes: Tuple[str, ...] = ()


def preimage_family(f: PiecewiseAffineMap, fam: FamilySpec) -> FamilySpec:
    """{f^-1(U) : U in fam}; exact for enumerable families and for
    increasing affine maps, otherwise the presentation escapes."""
    mats = members(fam)
    if mats is not None:
        return finite_family(f.preimage(u) for u in mats)
    if not f.is_increasing_affine:
        raise UnrepresentableError(
            "preimage of an infinite family under a non-monotone piecewise map")
    s, c = f.pieces[0]

    def back(x: Fraction) -> Fraction:
        return (x - c) / s

    if isinstance(fam, Periodic):
        return Periodic(f.preimage(fam.seed), fam.period / s, fam.index_range)
    if isinstance(fam, Fan):
        return Fan(back(fam.lo), back(fam.hi), fam.side)
    if isinstance(fam, Split):
        return Split(back(fam.cut), preimage_family(f, fam.left),
                     preimage_family(f, fam.right))
    if isinstance(fam, Restricted):
        return Restricted(preimage_family(f, fam.base), f.preimage(fam.window))
    raise UnrepresentableError(f"cannot pull back {fam}")


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
    if topology_of_line(l) is TopologyKind.SORG_R:
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


def axiom_probe(l: LineId, opens: Optional[Sequence[RealSet]] = None,
                families: Optional[Sequence[FamilySpec]] = None,
                depth: int = 1) -> AxiomProbeReport:
    """Instance-level verification of the five gts axioms on sampled data."""
    if opens is None or families is None:
        default_opens, default_fams = default_probe_battery(l)
        opens = opens if opens is not None else default_opens
        families = families if families is not None else default_fams
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

    # (iii) transitivity: refine each member of a finite admissible family
    for fam in families:
        mats = members(fam)
        if mats is None or not mats:
            continue
        composed = []
        refinable = True
        for u in mats:
            halves = _split_open(l, u)
            if halves is None:
                composed.append(u)
            else:
                va, vb = halves
                checks += 1
                if not cov_member(l, finite_family([va, vb])):
                    failures.append(f"(iii): refinement of {u} not admissible")
                    refinable = False
                    break
                composed.extend([va, vb])
        if refinable:
            checks += 1
            if not cov_member(l, finite_family(composed)):
                failures.append(f"(iii): composed refinement of {fam} not admissible")

    # (iv) saturation: coarsen a finite admissible family to its union
    for fam in families:
        mats = members(fam)
        if mats is None or not mats:
            continue
        u = union_of(fam)
        if op_member(l, u):
            checks += 1
            if not cov_member(l, finite_family([u])):
                failures.append(f"(iv): coarsening {{{u}}} of {fam} not admissible")

    # (v) regularity: glue an open trace along an admissible family
    for fam in families:
        mats = members(fam)
        if mats is None or not mats:
            continue
        for w in opens:
            v = w.intersect(union_of(fam))
            checks += 1
            if all(op_member(l, v.intersect(u)) for u in mats):
                if not op_member(l, v):
                    failures.append(f"(v): glued set {v} not open")
    return AxiomProbeReport(not failures, checks, tuple(failures))


def default_probe_battery(l: LineId):
    """Line-shaped opens plus the admissible families of the corpus battery."""
    if topology_of_line(l) is TopologyKind.UPPER:
        opens = [EMPTY, REALS, interval(NEG_INF, 0), interval(NEG_INF, 3)]
    elif l.family == "sorgenfrey":
        opens = [EMPTY, REALS, interval(0, 1, True, False),
                 interval(1, 2, True, False), interval(0, 2, True, False),
                 interval(-3, 7, True, False), interval(NEG_INF, 0)]
    else:
        opens = [EMPTY, REALS, interval(0, 1), interval(1, 2),
                 interval(0, 2), interval(-3, 7), interval(NEG_INF, 0)]
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
