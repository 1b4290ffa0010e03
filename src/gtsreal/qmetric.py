"""The named quasi-(pseudo)metrics on the real line.

Each metric is one `MetricSpec` row of `_ROWS`: its distance formula, the
closed form of its balls, the topology its balls generate, which sets it
bounds, and whether it is symmetric, translation-invariant, pseudo or built
on the damping map Phi.  `MetricName` is built from the rows, and a
`QuasiMetric` finds its row once, when it is made.  The capped metrics
min(1, d) are derived from the row of d: their balls are d's for radii up
to 1 and the whole line beyond, and they bound every set.

The conjugate d^-1(x, y) = d(y, x) is derived, not tabled.  A symmetric
metric is its own conjugate.  A translation-invariant d(x, y) = f(y - x)
has coballs {y : f(x - y) < r} = -B(-x, r): the mirror image of a ball, so
the bounded ends swap sides and the topology is mirrored.  rho_S^-(x, y) =
rho_S(Phi(-y), Phi(-x)) is neither: it reads rho_S through the decreasing
map x -> Phi(-x), which no reflection of the line undoes, so its row alone
carries its own coball and its conjugate's bounded ends.

Phi is replaced by the rational surrogate Phi_q(x) = 1/(1-x) for x < 0,
1 + x for x >= 0: a strictly increasing bijection R -> (0, +inf) sending
(-inf, 0) onto (0, 1), which preserves every property the constructions
rely on while keeping endpoints rational.  The float_paper mode evaluates
the same formulas with the genuine e^x, for numeric cross-checks only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Optional, Tuple

from gtsreal.covers import End, bounded_on
from gtsreal.realset import (
    EMPTY,
    NEG_INF,
    POS_INF,
    REALS,
    ConstructionError,
    Interval,
    RealSet,
    TopologyKind,
    apply_local,
    interval,
    is_finite,
    normalize,
    rat,
    union_all,
)


class UnsupportedCombinationError(ValueError):
    """Operation not defined for this metric/argument combination."""


class PhiMode(Enum):
    EXACT_SURROGATE = "exact_surrogate"
    FLOAT_PAPER = "float_paper"


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


_ZERO, _ONE = Fraction(0), Fraction(1)

_CONJ_TOPOLOGY = {
    TopologyKind.NAT: TopologyKind.NAT,
    TopologyKind.UPPER: TopologyKind.LOWER,
    TopologyKind.LOWER: TopologyKind.UPPER,
    TopologyKind.SORG_R: TopologyKind.SORG_L,
    TopologyKind.SORG_L: TopologyKind.SORG_R,
}

# the ends (below, above) of the balls B_d(0, n + 1) as n grows: MOVING on a
# side on which every d-bounded set is bounded, FREE on the other
_BOTH, _ABOVE, _BELOW, _NEITHER = ((End.MOVING, End.MOVING), (End.FREE, End.MOVING),
                                   (End.MOVING, End.FREE), (End.FREE, End.FREE))


@dataclass(frozen=True)
class MetricSpec:
    """One named metric.

    `eval(x, y, phi, one)` is the distance formula, with the damping map and
    the unit of the number type passed in so that exact and float_paper
    evaluation share it; `ball(x, r)` is the ball B(x, r) = {y : d(x, y) < r}
    as one Interval, None for the whole line.  `bounded` is the (below,
    above) pair of `End`s of the d-bounded sets: MOVING on a side they are
    all bounded on, FREE on the other.  `coball` and `bounded_conj` are
    derived for symmetric and translation-invariant rows and must be given
    otherwise."""

    name: str
    eval: Callable
    ball: Callable[[Fraction, Fraction], Optional[Interval]]
    topology: TopologyKind
    bounded: Tuple[End, End]
    symmetric: bool = False
    invariant: bool = False
    pseudo: bool = False
    phi_based: bool = False
    coball: Optional[Callable[[Fraction, Fraction], Optional[Interval]]] = None
    bounded_conj: Optional[Tuple[End, End]] = None

    def __post_init__(self):
        if self.symmetric:
            coball, bounded_conj = self.ball, self.bounded
        elif self.invariant:
            ball = self.ball
            # the reflection y -> -y of a ball; None, the whole line, mirrors to itself
            coball = (lambda x, r: (iv := ball(-x, r)) and iv.scale(-1))
            bounded_conj = self.bounded[::-1]
        else:
            if self.coball is None or self.bounded_conj is None:
                raise ConstructionError(f"{self.name}: an asymmetric, non-invariant "
                                        f"metric needs its own coball and bounded_conj")
            return
        if self.coball is not None or self.bounded_conj is not None:
            raise ConstructionError(f"{self.name}: the conjugate of a symmetric or "
                                    f"translation-invariant metric is derived")
        object.__setattr__(self, "coball", coball)
        object.__setattr__(self, "bounded_conj", bounded_conj)


def _with_capped(row: MetricSpec, capped_name: str) -> Tuple[MetricSpec, MetricSpec]:
    """The row and the row of min(1, d): the same balls for radii up to 1,
    the whole line beyond, so every set is bounded."""
    base_eval, base_ball = row.eval, row.ball
    return row, MetricSpec(
        capped_name,
        lambda x, y, phi, one: min(one, base_eval(x, y, phi, one)),
        lambda x, r: None if r > 1 else base_ball(x, r),
        row.topology, _NEITHER, symmetric=row.symmetric, invariant=row.invariant,
        pseudo=row.pseudo, phi_based=row.phi_based)


def _phi_ball(x: Fraction, r: Fraction) -> Interval:
    """Ball of |Phi(x) - Phi(y)|: Phi_q^-1 of (Phi_q(x) - r, Phi_q(x) + r)."""
    v = phi_q(x)
    lo = phi_q_inv(v - r) if v - r > 0 else NEG_INF
    return Interval(lo, phi_q_inv(v + r), False, False)


def _d_u(x, y, phi, one):
    return min(one, abs(x - y)) + abs(max(y, _ZERO) - max(x, _ZERO))


def _ball_d_u(x: Fraction, r: Fraction) -> Optional[Interval]:
    """Sublevel set of f(y) = min(|y-x|,1) + |max(y,0)-max(x,0)|.

    f is continuous, 0 at x, nonincreasing left of x and nondecreasing right
    of x, and piecewise affine with breakpoints in {x-1, x, x+1, 0}; walk the
    segments away from x to locate the strict-sublevel crossing on each side.
    Past the last breakpoint the right side has slope exactly 1, so f -> +inf
    and the crossing lies on that last segment; the left side is the plateau
    1 + max(x, 0), so a walk that never reaches r leaves every y below x in
    the ball.
    """
    def walk(step: int) -> Optional[Fraction]:
        """The crossing on the side of x + step (step = +-1); None when the
        left walk ends on the plateau below r."""
        prev, fprev = x, _ZERO
        breaks = sorted({b for b in (x + step, _ZERO) if (b - x) * step > 0}, reverse=step < 0)
        for b in breaks:
            fb = _d_u(x, b, phi_q, _ONE)
            if fb >= r:
                return prev + (r - fprev) * (b - prev) / (fb - fprev)
            prev, fprev = b, fb
        return prev + (r - fprev) if step > 0 else None

    lo = walk(-1)
    return Interval(NEG_INF if lo is None else lo, walk(1), False, False)


def _rho_s_minus(x, y, phi, one):
    u, v = phi(-y), phi(-x)
    return v - u if u <= v else one


def _ball_rho_s_minus(x: Fraction, r: Fraction) -> Optional[Interval]:
    t = phi_q(-x) - r
    hi = -phi_q_inv(t) if t > 0 else POS_INF
    if r <= 1:
        return Interval(x, hi, True, False)
    if t > 0:
        return Interval(NEG_INF, hi, False, False)
    return None


def _coball_rho_s_minus(x: Fraction, r: Fraction) -> Interval:
    lo = -phi_q_inv(phi_q(-x) + r)
    if r <= 1:
        return Interval(lo, x, False, True)
    return Interval(lo, POS_INF, False, False)


_NAT, _UPPER, _SORG_R = TopologyKind.NAT, TopologyKind.UPPER, TopologyKind.SORG_R

_ROWS = (
    *_with_capped(MetricSpec(
        "d_n", lambda x, y, phi, one: abs(x - y),
        lambda x, r: Interval(x - r, x + r, False, False),
        _NAT, _BOTH, symmetric=True, invariant=True), "d_n1"),
    *_with_capped(MetricSpec(
        "d_n_plus", lambda x, y, phi, one: abs(phi(x) - phi(y)), _phi_ball,
        _NAT, _ABOVE, symmetric=True, phi_based=True), "d_n_plus_1"),
    MetricSpec("d_u", _d_u, _ball_d_u, _NAT, _ABOVE, symmetric=True),
    *_with_capped(MetricSpec(
        "rho_u", lambda x, y, phi, one: max(_ZERO, y - x),
        lambda x, r: Interval(NEG_INF, x + r, False, False),
        _UPPER, _ABOVE, invariant=True, pseudo=True), "rho_u1"),
    *_with_capped(MetricSpec(
        "rho_S", lambda x, y, phi, one: y - x if x <= y else one,
        lambda x, r: Interval(x, x + r, True, False) if r <= 1
        else Interval(NEG_INF, x + r, False, False),
        _SORG_R, _ABOVE, invariant=True), "rho_S1"),
    MetricSpec(
        "rho_L", lambda x, y, phi, one: min(y - x, one) if x <= y else 1 + x - y,
        lambda x, r: Interval(x, x + r, True, False) if r <= 1
        else Interval(x - r + 1, POS_INF, False, False),
        _SORG_R, _BELOW, invariant=True),
    *_with_capped(MetricSpec(
        "rho_0", lambda x, y, phi, one: y - x if x <= y else 1 + x - y,
        lambda x, r: Interval(x, x + r, True, False) if r <= 1
        else Interval(x + 1 - r, x + r, False, False),
        _SORG_R, _BOTH, invariant=True), "rho_0_1"),
    # its balls are [x, h) too: the two orientation flips of
    # rho_S(Phi(-y), Phi(-x)) cancel
    MetricSpec("rho_S_minus", _rho_s_minus, _ball_rho_s_minus, _SORG_R, _NEITHER,
               phi_based=True, coball=_coball_rho_s_minus, bounded_conj=_BELOW),
)

MetricName = Enum("MetricName", [(row.name.upper(), row.name) for row in _ROWS],
                  module=__name__)
MetricName.__doc__ = "The named metrics, one member per row of `_ROWS`."

_ROW_OF = {MetricName(row.name): row for row in _ROWS}


@dataclass(frozen=True)
class QuasiMetric:
    name: MetricName
    phi_mode: PhiMode = PhiMode.EXACT_SURROGATE
    conjugated: bool = False
    _row: MetricSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        row = _ROW_OF[self.name]
        if self.phi_mode is PhiMode.FLOAT_PAPER and not row.phi_based:
            raise ConstructionError("float_paper mode only applies to Phi-based metrics")
        object.__setattr__(self, "_row", row)

    # -- basic structure ----------------------------------------------------

    @property
    def exact(self) -> bool:
        return self.phi_mode is PhiMode.EXACT_SURROGATE

    @property
    def translation_invariant(self) -> bool:
        return self._row.invariant

    @property
    def is_pseudo(self) -> bool:
        """True when distinct points can be at distance 0."""
        return self._row.pseudo

    @property
    def bounded_ends(self) -> Tuple[End, End]:
        """(below, above): MOVING on each side on which every d-bounded set
        is bounded, FREE on the other.  A float_paper metric bounds no set
        exactly, so it refuses, and so does everything read off its balls:
        membership and the EF decisions."""
        if not self.exact:
            raise UnsupportedCombinationError("d-boundedness requires exact mode")
        return self._row.bounded_conj if self.conjugated else self._row.bounded

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
            return self._row.eval(float(x), float(y), _phi_float, 1.0)
        return self._row.eval(rat(x), rat(y), phi_q, _ONE)

    # -- balls ------------------------------------------------------------------

    def ball(self, x, r) -> RealSet:
        """B_d(x, r) = {y : d(x, y) < r} as a RealSet (always one interval)."""
        if not self.exact:
            raise UnsupportedCombinationError("balls require exact_surrogate mode")
        xq, rq = rat(x), rat(r)
        if rq <= 0:
            raise ConstructionError("radius must be positive")
        iv = (self._row.coball if self.conjugated else self._row.ball)(xq, rq)
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
            return union_all(self._expand_piece(piece, d) for piece in a.core)
        if not self.translation_invariant:
            raise UnsupportedCombinationError(
                f"nbhd of a periodic-tail set under non-translation-invariant "
                f"metric {self.label()}")
        return self._nbhd_invariant(a, d)

    def _expand_piece(self, piece: Interval, d: Fraction) -> RealSet:
        """The union of the d-balls centred in one piece: from the lower end's
        ball to the upper end's; an infinite end stands for its own ball."""
        if piece.is_point:
            return self.ball(piece.lo, d)
        lo, hi = (self.ball(v, d) if is_finite(v) else RealSet((piece,))
                  for v in (piece.lo, piece.hi))
        if lo.is_reals or hi.is_reals:
            return REALS
        lo, hi = lo.core[0], hi.core[0]
        return interval(lo.lo, hi.hi, piece.lo_closed and lo.lo_closed,
                        piece.hi_closed and hi.hi_closed)

    def _nbhd_invariant(self, a: RealSet, d: Fraction) -> RealSet:
        """[A]^d of a tailed set: A plus the ball shape B(0, d)."""
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

        def expand(piece: Interval) -> Interval:
            return Interval(piece.lo + s.lo, piece.hi + s.hi,
                            piece.lo_closed and s.lo_closed, piece.hi_closed and s.hi_closed)

        return apply_local(a, expand, max(abs(s.lo), abs(s.hi)))

    # -- boundedness ---------------------------------------------------------------

    def is_bounded_set(self, a: RealSet) -> bool:
        """A subset of some ball?  Decided by the metric's bounded ends."""
        return bounded_on(self.bounded_ends, a.boundedness())

    def topology_of(self) -> TopologyKind:
        base = self._row.topology
        return _CONJ_TOPOLOGY[base] if self.conjugated else base


def metric(name, phi_mode: PhiMode = PhiMode.EXACT_SURROGATE,
           conjugated: bool = False) -> QuasiMetric:
    """The named metric; float_paper mode on a metric not built on Phi
    raises ConstructionError, as the constructor does."""
    return QuasiMetric(MetricName(name), phi_mode, conjugated)


ALL_METRICS = tuple(metric(n) for n in MetricName)


class EquivVerdict(Enum):
    REFUTED = "REFUTED"
    INCONCLUSIVE = "INCONCLUSIVE"


EQUIV_MAX_K = 20   # uniform_equiv_refute checks delta = 2^-k for k <= this


def uniform_equiv_refute(d1: QuasiMetric, d2: QuasiMetric, eps,
                         witness_pairs: Iterable[Tuple[Fraction, Fraction]]) -> EquivVerdict:
    """Search for a witness that d2 is not uniformly continuous w.r.t. d1.

    REFUTED means: for each delta = 2^-k with 0 <= k <= EQUIV_MAX_K, some given
    pair has d1 < delta while d2 >= eps.  That is evidence, not a proof: a
    refutation needs such a pair for every delta > 0, and deltas below
    2^-EQUIV_MAX_K and pairs outside `witness_pairs` are never looked at.
    INCONCLUSIVE means some checked delta has no witness among the pairs."""
    e = rat(eps)
    pairs = [(rat(a), rat(b)) for a, b in witness_pairs]
    for k in range(EQUIV_MAX_K + 1):
        delta = Fraction(1, 2**k)
        if not any(d1.eval(a, b) < delta and d2.eval(a, b) >= e for a, b in pairs):
            return EquivVerdict.INCONCLUSIVE
    return EquivVerdict.REFUTED
