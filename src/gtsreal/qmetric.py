"""The named quasi-(pseudo)metrics on the real line.

Each metric carries exact closed forms for evaluation, balls, and
delta-neighborhoods.  The exponential damping map Phi of the d_n^+ family
is replaced by the rational surrogate Phi_q(x) = 1/(1-x) for x < 0,
1 + x for x >= 0: a strictly increasing bijection R -> (0, +inf) sending
(-inf, 0) onto (0, 1), which preserves every property the constructions
rely on while keeping endpoints rational.  The float_paper mode evaluates
with the genuine e^x for numeric cross-checks only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple

from gtsreal.realset import (
    EMPTY,
    NEG_INF,
    POS_INF,
    REALS,
    ConstructionError,
    Interval,
    RealSet,
    TopologyKind,
    interval,
    merge_intervals,
    normalize,
    rat,
)
from gtsreal.realset import _assemble, _clip, _pattern_reduce, _periodize  # noqa: F401


class UnsupportedCombinationError(ValueError):
    """Operation not defined for this metric/argument combination."""


class MetricName(Enum):
    D_N = "d_n"
    D_N1 = "d_n1"
    D_N_PLUS = "d_n_plus"
    D_N_PLUS_1 = "d_n_plus_1"
    D_U = "d_u"
    RHO_U = "rho_u"
    RHO_U1 = "rho_u1"
    RHO_S = "rho_S"
    RHO_S1 = "rho_S1"
    RHO_L = "rho_L"
    RHO_0 = "rho_0"
    RHO_0_1 = "rho_0_1"
    RHO_S_MINUS = "rho_S_minus"


class PhiMode(Enum):
    EXACT_SURROGATE = "exact_surrogate"
    FLOAT_PAPER = "float_paper"


_PHI_BASED = {MetricName.D_N_PLUS, MetricName.D_N_PLUS_1, MetricName.RHO_S_MINUS}

_TRANSLATION_INVARIANT = {
    MetricName.D_N, MetricName.D_N1, MetricName.RHO_U, MetricName.RHO_U1,
    MetricName.RHO_S, MetricName.RHO_S1, MetricName.RHO_L, MetricName.RHO_0,
    MetricName.RHO_0_1,
}

_PSEUDO = {MetricName.RHO_U, MetricName.RHO_U1}

_BASE_TOPOLOGY = {
    MetricName.D_N: TopologyKind.NAT,
    MetricName.D_N1: TopologyKind.NAT,
    MetricName.D_N_PLUS: TopologyKind.NAT,
    MetricName.D_N_PLUS_1: TopologyKind.NAT,
    MetricName.D_U: TopologyKind.NAT,
    MetricName.RHO_U: TopologyKind.UPPER,
    MetricName.RHO_U1: TopologyKind.UPPER,
    MetricName.RHO_S: TopologyKind.SORG_R,
    MetricName.RHO_S1: TopologyKind.SORG_R,
    MetricName.RHO_L: TopologyKind.SORG_R,
    MetricName.RHO_0: TopologyKind.SORG_R,
    MetricName.RHO_0_1: TopologyKind.SORG_R,
    # rho_S^- also induces the right half-open topology: its balls are
    # [x, h) by direct computation (the double orientation flip of
    # rho_S(Phi(-y), Phi(-x)) cancels)
    MetricName.RHO_S_MINUS: TopologyKind.SORG_R,
}

_CONJ_TOPOLOGY = {
    TopologyKind.NAT: TopologyKind.NAT,
    TopologyKind.UPPER: TopologyKind.LOWER,
    TopologyKind.LOWER: TopologyKind.UPPER,
    TopologyKind.SORG_R: TopologyKind.SORG_L,
    TopologyKind.SORG_L: TopologyKind.SORG_R,
}

# d-bounded sets, classified by which boundedness flags they require
# ("nat" both, "ub" above, "lb" below, "all" none); verified by the
# ball-subset property tests.
_BOUNDED_KIND = {
    MetricName.D_N: "nat",
    MetricName.D_N1: "all",
    MetricName.D_N_PLUS: "ub",
    MetricName.D_N_PLUS_1: "all",
    MetricName.D_U: "ub",
    MetricName.RHO_U: "ub",
    MetricName.RHO_U1: "all",
    MetricName.RHO_S: "ub",
    MetricName.RHO_S1: "all",
    MetricName.RHO_L: "lb",
    MetricName.RHO_0: "nat",
    MetricName.RHO_0_1: "all",
    MetricName.RHO_S_MINUS: "all",
}

_BOUNDED_KIND_CONJ = dict(_BOUNDED_KIND)
_BOUNDED_KIND_CONJ.update({
    MetricName.RHO_U: "lb",
    MetricName.RHO_S: "lb",
    MetricName.RHO_L: "ub",
    MetricName.RHO_S_MINUS: "lb",
})


def phi_q(x: Fraction) -> Fraction:
    """Rational surrogate for the damping map: increasing bijection onto (0, inf)."""
    if x < 0:
        return Fraction(1) / (1 - x)
    return 1 + x


def phi_q_inv(t: Fraction) -> Fraction:
    if t <= 0:
        raise ConstructionError("phi_q_inv domain is (0, +inf)")
    if t < 1:
        return 1 - Fraction(1) / t
    return t - 1


def _phi_float(x: float) -> float:
    return math.exp(x) if x < 0 else 1.0 + x


@dataclass(frozen=True)
class QuasiMetric:
    name: MetricName
    phi_mode: PhiMode = PhiMode.EXACT_SURROGATE
    conjugated: bool = False

    def __post_init__(self):
        if self.phi_mode is PhiMode.FLOAT_PAPER and self.name not in _PHI_BASED:
            raise ConstructionError("float_paper mode only applies to Phi-based metrics")

    # -- basic structure ----------------------------------------------------

    @property
    def exact(self) -> bool:
        return self.phi_mode is PhiMode.EXACT_SURROGATE

    @property
    def translation_invariant(self) -> bool:
        return self.name in _TRANSLATION_INVARIANT

    @property
    def is_pseudo(self) -> bool:
        """True when distinct points can be at distance 0."""
        return self.name in _PSEUDO

    @property
    def bounded_kind(self) -> str:
        """Which boundedness flags the d-bounded sets need: "nat" both, "ub"
        above, "lb" below, "all" none."""
        return (_BOUNDED_KIND_CONJ if self.conjugated else _BOUNDED_KIND)[self.name]

    def conjugate(self) -> "QuasiMetric":
        return QuasiMetric(self.name, self.phi_mode, not self.conjugated)

    def label(self) -> str:
        s = self.name.value
        if self.phi_mode is PhiMode.FLOAT_PAPER:
            s += "[float]"
        if self.conjugated:
            s = f"conj({s})"
        return s

    # -- evaluation -----------------------------------------------------------

    def eval(self, x, y):
        """Exact distance (Fraction) in surrogate mode, float otherwise."""
        if self.conjugated:
            x, y = y, x
        if self.phi_mode is PhiMode.FLOAT_PAPER:
            return self._eval_float(float(x), float(y))
        return self._eval_exact(rat(x), rat(y))

    def _eval_exact(self, x: Fraction, y: Fraction) -> Fraction:
        n = self.name
        if n is MetricName.D_N:
            return abs(x - y)
        if n is MetricName.D_N1:
            return min(Fraction(1), abs(x - y))
        if n is MetricName.D_N_PLUS:
            return abs(phi_q(x) - phi_q(y))
        if n is MetricName.D_N_PLUS_1:
            return min(Fraction(1), abs(phi_q(x) - phi_q(y)))
        if n is MetricName.D_U:
            return min(Fraction(1), abs(x - y)) + abs(max(y, Fraction(0)) - max(x, Fraction(0)))
        if n is MetricName.RHO_U:
            return max(Fraction(0), y - x)
        if n is MetricName.RHO_U1:
            return min(Fraction(1), max(Fraction(0), y - x))
        if n is MetricName.RHO_S:
            return y - x if x <= y else Fraction(1)
        if n is MetricName.RHO_S1:
            return min(Fraction(1), y - x if x <= y else Fraction(1))
        if n is MetricName.RHO_L:
            return min(y - x, Fraction(1)) if x <= y else 1 + x - y
        if n is MetricName.RHO_0:
            return y - x if x <= y else 1 + x - y
        if n is MetricName.RHO_0_1:
            return min(Fraction(1), y - x if x <= y else 1 + x - y)
        if n is MetricName.RHO_S_MINUS:
            u, v = phi_q(-y), phi_q(-x)
            return v - u if u <= v else Fraction(1)
        raise AssertionError(n)

    def _eval_float(self, x: float, y: float) -> float:
        n = self.name
        if n is MetricName.D_N_PLUS:
            return abs(_phi_float(x) - _phi_float(y))
        if n is MetricName.D_N_PLUS_1:
            return min(1.0, abs(_phi_float(x) - _phi_float(y)))
        if n is MetricName.RHO_S_MINUS:
            u, v = _phi_float(-y), _phi_float(-x)
            return v - u if u <= v else 1.0
        raise AssertionError(n)

    # -- balls ------------------------------------------------------------------

    def ball(self, x, r) -> RealSet:
        """B_d(x, r) = {y : d(x, y) < r} as a RealSet (always one interval)."""
        if not self.exact:
            raise UnsupportedCombinationError("balls require exact_surrogate mode")
        xq, rq = rat(x), rat(r)
        if rq <= 0:
            raise ConstructionError("radius must be positive")
        if self.conjugated:
            iv = _coball_interval(self.name, xq, rq)
        else:
            iv = _ball_interval(self.name, xq, rq)
        return normalize([iv]) if iv is not None else REALS

    # -- neighborhoods -----------------------------------------------------------

    def nbhd(self, a: RealSet, delta) -> RealSet:
        """[A]^delta_d: union of delta-balls centered in A."""
        if not self.exact:
            raise UnsupportedCombinationError("nbhd requires exact_surrogate mode")
        d = rat(delta)
        if d <= 0:
            raise ConstructionError("delta must be positive")
        if a.is_empty:
            return EMPTY
        if a.left_tail is None and a.right_tail is None:
            out = EMPTY
            for piece in a.core:
                out = out.union(self._expand_piece(piece, d))
            return out
        if not self.translation_invariant:
            raise UnsupportedCombinationError(
                f"nbhd of a periodic-tail set under non-translation-invariant "
                f"metric {self.label()}")
        return self._nbhd_invariant(a, d)

    def _expand_piece(self, piece: Interval, d: Fraction) -> RealSet:
        if piece.is_point:
            return self.ball(piece.lo, d)
        if piece.lo == NEG_INF:
            left = (NEG_INF, False)
        else:
            b = self.ball(piece.lo, d)
            if b.is_reals:
                return REALS
            iv = b.core[0]
            left = (iv.lo, piece.lo_closed and iv.lo_closed)
        if piece.hi == POS_INF:
            right = (POS_INF, False)
        else:
            b = self.ball(piece.hi, d)
            if b.is_reals:
                return REALS
            iv = b.core[0]
            right = (iv.hi, piece.hi_closed and iv.hi_closed)
        return interval(left[0], right[0], left[1], right[1])

    def _nbhd_invariant(self, a: RealSet, d: Fraction) -> RealSet:
        shape = self.ball(Fraction(0), d)
        if shape.is_reals:
            return REALS
        s = shape.core[0]
        if s.lo == NEG_INF:
            m = a.sup_value()
            if m == POS_INF:
                return REALS
            attained = s.hi_closed and a.contains_point(m)
            return interval(NEG_INF, m + s.hi, False, attained)
        if s.hi == POS_INF:
            m = a.inf_value()
            if m == NEG_INF:
                return REALS
            attained = s.lo_closed and a.contains_point(m)
            return interval(m + s.lo, POS_INF, attained, False)
        # bounded shape: germ/window assembly via Minkowski expansion
        reach = max(abs(s.lo), abs(s.hi))

        def expand_list(items: Sequence[Interval]) -> Tuple[Interval, ...]:
            out = []
            for piece in items:
                got = self._expand_piece(piece, d)
                out.extend(got.core)
            return merge_intervals(out)

        def germ_expand(germ):
            if germ[0] != "per":
                return germ
            pat, p = germ[1], germ[2]
            span = reach + 2 * p + 1
            occ = _periodize(pat, p, -span, p + span)
            got = expand_list(occ)
            got = _clip(got, Fraction(0), p, True, False)
            return _pattern_reduce(got, p)

        lg = germ_expand(a._left_germ())
        rg = germ_expand(a._right_germ())
        pts = a._finite_endpoints()
        inner_lo = min(pts) - reach - 1
        inner_hi = max(pts) + reach + 1
        outer = a.materialize(inner_lo - reach - 1, inner_hi + reach + 1)
        window = _clip(expand_list(outer), inner_lo, inner_hi)
        return _assemble(window, lg, rg, inner_lo, inner_hi)

    # -- boundedness ---------------------------------------------------------------

    def is_bounded_set(self, a: RealSet) -> bool:
        """A subset of some ball?  Decided by the metric's ball family shape."""
        if not self.exact:
            raise UnsupportedCombinationError("is_bounded_set requires exact mode")
        if a.is_empty:
            return True
        kind = self.bounded_kind
        b = a.boundedness()
        if kind == "all":
            return True
        if kind == "ub":
            return b.bounded_above
        if kind == "lb":
            return b.bounded_below
        return b.bounded

    def topology_of(self) -> TopologyKind:
        base = _BASE_TOPOLOGY[self.name]
        return _CONJ_TOPOLOGY[base] if self.conjugated else base


# ---------------------------------------------------------------------------
# ball closed forms (None encodes the whole line)
# ---------------------------------------------------------------------------

def _ball_interval(n: MetricName, x: Fraction, r: Fraction) -> Optional[Interval]:
    one = Fraction(1)
    if n is MetricName.D_N:
        return Interval(x - r, x + r, False, False)
    if n is MetricName.D_N1:
        return None if r > 1 else Interval(x - r, x + r, False, False)
    if n is MetricName.D_N_PLUS:
        v = phi_q(x)
        hi = phi_q_inv(v + r)
        t = v - r
        lo = phi_q_inv(t) if t > 0 else NEG_INF
        return Interval(lo, hi, False, False)
    if n is MetricName.D_N_PLUS_1:
        return None if r > 1 else _ball_interval(MetricName.D_N_PLUS, x, r)
    if n is MetricName.D_U:
        return _ball_d_u(x, r)
    if n is MetricName.RHO_U:
        return Interval(NEG_INF, x + r, False, False)
    if n is MetricName.RHO_U1:
        return None if r > 1 else Interval(NEG_INF, x + r, False, False)
    if n is MetricName.RHO_S:
        if r <= 1:
            return Interval(x, x + r, True, False)
        return Interval(NEG_INF, x + r, False, False)
    if n is MetricName.RHO_S1:
        return None if r > 1 else Interval(x, x + r, True, False)
    if n is MetricName.RHO_L:
        if r <= 1:
            return Interval(x, x + r, True, False)
        return Interval(x - r + 1, POS_INF, False, False)
    if n is MetricName.RHO_0:
        if r <= 1:
            return Interval(x, x + r, True, False)
        return Interval(x + 1 - r, x + r, False, False)
    if n is MetricName.RHO_0_1:
        return None if r > 1 else Interval(x, x + r, True, False)
    if n is MetricName.RHO_S_MINUS:
        v = phi_q(-x)
        t = v - r
        hi = -phi_q_inv(t) if t > 0 else POS_INF
        if r <= 1:
            return Interval(x, hi, True, False)
        if t > 0:
            return Interval(NEG_INF, hi, False, False)
        return None
    raise AssertionError(n)


def _coball_interval(n: MetricName, x: Fraction, r: Fraction) -> Optional[Interval]:
    """{y : d(y, x) < r} for the conjugated metric."""
    sym = {MetricName.D_N, MetricName.D_N1, MetricName.D_N_PLUS,
           MetricName.D_N_PLUS_1, MetricName.D_U}
    if n in sym:
        return _ball_interval(n, x, r)
    if n is MetricName.RHO_U:
        return Interval(x - r, POS_INF, False, False)
    if n is MetricName.RHO_U1:
        return None if r > 1 else Interval(x - r, POS_INF, False, False)
    if n is MetricName.RHO_S:
        if r <= 1:
            return Interval(x - r, x, False, True)
        return Interval(x - r, POS_INF, False, False)
    if n is MetricName.RHO_S1:
        return None if r > 1 else Interval(x - r, x, False, True)
    if n is MetricName.RHO_L:
        if r <= 1:
            return Interval(x - r, x, False, True)
        return Interval(NEG_INF, x + r - 1, False, False)
    if n is MetricName.RHO_0:
        if r <= 1:
            return Interval(x - r, x, False, True)
        return Interval(x - r, x + r - 1, False, False)
    if n is MetricName.RHO_0_1:
        return None if r > 1 else Interval(x - r, x, False, True)
    if n is MetricName.RHO_S_MINUS:
        u = phi_q(-x)
        lo = -phi_q_inv(u + r)
        if r <= 1:
            return Interval(lo, x, False, True)
        return Interval(lo, POS_INF, False, False)
    raise AssertionError(n)


def _ball_d_u(x: Fraction, r: Fraction) -> Optional[Interval]:
    """Sublevel set of f(y) = min(|y-x|,1) + |max(y,0)-max(x,0)|.

    f is continuous, 0 at x, nonincreasing left of x and nondecreasing right
    of x, and piecewise affine with breakpoints in {x-1, x, x+1, 0}; walk the
    segments to locate the strict-sublevel crossing on each side.
    """
    d = QuasiMetric(MetricName.D_U)

    def f(y: Fraction) -> Fraction:
        return d._eval_exact(x, y)

    # right side: beyond max(x+1, 0) the slope is exactly 1 and f -> +inf
    breaks_r = sorted({b for b in (x + 1, Fraction(0)) if b > x})
    prev, fprev = x, Fraction(0)
    hi: Optional[Fraction] = None
    for b in breaks_r:
        fb = f(b)
        if fb >= r:
            hi = prev + (r - fprev) * (b - prev) / (fb - fprev)
            break
        prev, fprev = b, fb
    if hi is None:
        hi = prev + (r - fprev)  # slope 1 tail
    # left side: beyond min(x-1, 0) f is the constant 1 + max(x, 0)
    breaks_l = sorted({b for b in (x - 1, Fraction(0)) if b < x}, reverse=True)
    prev, fprev = x, Fraction(0)
    lo: Optional[Fraction] = None
    for b in breaks_l:
        fb = f(b)
        if fb >= r:
            lo = prev - (r - fprev) * (prev - b) / (fb - fprev)
            break
        prev, fprev = b, fb
    if lo is None:
        # walk exhausted without reaching r, so the plateau value 1+max(x,0)
        # (attained at the last breakpoint) is below r
        return Interval(NEG_INF, hi, False, False)
    return Interval(lo, hi, False, False)


# ---------------------------------------------------------------------------
# metric table and refuter
# ---------------------------------------------------------------------------

def metric(name, phi_mode: PhiMode = PhiMode.EXACT_SURROGATE,
           conjugated: bool = False) -> QuasiMetric:
    if isinstance(name, str):
        name = MetricName(name)
    if name in _PHI_BASED:
        return QuasiMetric(name, phi_mode, conjugated)
    return QuasiMetric(name, PhiMode.EXACT_SURROGATE, conjugated)


ALL_METRICS = tuple(metric(n) for n in MetricName)


class EquivVerdict(Enum):
    REFUTED = "REFUTED"
    INCONCLUSIVE = "INCONCLUSIVE"


def uniform_equiv_refute(d1: QuasiMetric, d2: QuasiMetric, eps,
                         witness_pairs: Iterable[Tuple[Fraction, Fraction]],
                         max_k: int = 20) -> EquivVerdict:
    """Refute uniform equivalence: for every dyadic delta find a pair
    with d1 < delta while d2 >= eps.  REFUTED is conclusive; INCONCLUSIVE is not."""
    e = rat(eps)
    pairs = [(rat(a), rat(b)) for a, b in witness_pairs]
    for k in range(max_k + 1):
        delta = Fraction(1, 2**k)
        if not any(d1.eval(a, b) < delta and d2.eval(a, b) >= e for a, b in pairs):
            return EquivVerdict.INCONCLUSIVE
    return EquivVerdict.REFUTED
