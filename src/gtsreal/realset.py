"""Exact subsets of the real line.

A RealSet is a finite union of intervals with rational or infinite
endpoints, optionally extended by an eventually-periodic tail on either
side.  Values are canonical: two RealSets denote the same set of points
if and only if they compare equal.  All operations are pure and exact
(endpoints are `fractions.Fraction`; infinities are float sentinels used
only for ordering).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

NEG_INF = float("-inf")
POS_INF = float("inf")

#: Exact extended rational: a Fraction, or one of the two infinity sentinels.
ExtRat = Union[Fraction, float]

RatLike = Union[Fraction, int, str]


MAX_SAMPLE_POINTS = 100_000   # sample_points refuses a window with more grid points


class ConstructionError(ValueError):
    """Raised for malformed intervals, patterns or tails."""


def rat(x: RatLike) -> Fraction:
    """Coerce ints/strings like '3/4' to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise ConstructionError(f"refusing inexact float {x!r}; pass a Fraction")
    return Fraction(x)


def ext(x) -> ExtRat:
    """Coerce to an extended rational (allows the infinity sentinels)."""
    if isinstance(x, float):
        if math.isinf(x):
            return x
        raise ConstructionError(f"refusing inexact float {x!r}")
    return rat(x)


def is_finite(x: ExtRat) -> bool:
    return not (isinstance(x, float) and math.isinf(x))


def _lcm_frac(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(math.lcm(a.numerator, b.numerator), math.gcd(a.denominator, b.denominator))


class TopologyKind(Enum):
    """The closed-form topologies used on the line corpus."""

    NAT = "nat"
    UPPER = "upper"
    LOWER = "lower"
    SORG_R = "sorg_r"
    SORG_L = "sorg_l"
    DISCRETE = "discrete"


_ZERO = Fraction(0)


def _key(v: ExtRat, eps: int) -> Tuple[int, Fraction, int]:
    """Order key: (rank, value, eps) with rank -1/0/1 for -inf/finite/+inf.

    eps 0 is the point itself, +1 just after, -1 just before; comparing the
    int rank first keeps Fraction/float comparisons out of the hot loops."""
    if isinstance(v, float):
        return (-1 if v < 0 else 1, _ZERO, eps)
    return (0, v, eps)


def _key_value(k) -> ExtRat:
    if k[0] < 0:
        return NEG_INF
    if k[0] > 0:
        return POS_INF
    return k[1]


@dataclass(frozen=True)
class Interval:
    """One nonempty interval.  Degenerate points are closed-closed."""

    lo: ExtRat
    hi: ExtRat
    lo_closed: bool
    hi_closed: bool

    def __post_init__(self):
        if isinstance(self.lo, float) and not math.isinf(self.lo):
            raise ConstructionError("inexact lower endpoint")
        if isinstance(self.hi, float) and not math.isinf(self.hi):
            raise ConstructionError("inexact upper endpoint")
        if not is_finite(self.lo) and self.lo_closed:
            raise ConstructionError("infinite endpoint cannot be closed")
        if not is_finite(self.hi) and self.hi_closed:
            raise ConstructionError("infinite endpoint cannot be closed")
        if self.lo > self.hi:
            raise ConstructionError(f"empty interval: lo={self.lo} > hi={self.hi}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise ConstructionError("degenerate interval must be closed on both sides")
        _cache_keys(self)

    @property
    def start_key(self):
        return self._sk

    @property
    def end_key(self):
        return self._ek

    @property
    def gap_key(self):
        """Start key of the first point to the right not covered."""
        return self._gk

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: ExtRat) -> bool:
        return self._sk <= _key(x, 0) <= self._ek

    def shift(self, d: Fraction) -> "Interval":
        lo = self.lo + d if is_finite(self.lo) else self.lo
        hi = self.hi + d if is_finite(self.hi) else self.hi
        return _mk(lo, hi, self.lo_closed, self.hi_closed)

    def scale(self, s: Fraction) -> "Interval":
        """Image under x -> s*x (s != 0)."""
        if s == 0:
            raise ConstructionError("scale factor must be nonzero")

        def mul(v: ExtRat) -> ExtRat:
            if is_finite(v):
                return v * s
            return v if s > 0 else (NEG_INF if v == POS_INF else POS_INF)

        if s > 0:
            return Interval(mul(self.lo), mul(self.hi), self.lo_closed, self.hi_closed)
        return Interval(mul(self.hi), mul(self.lo), self.hi_closed, self.lo_closed)

    def __str__(self):
        if self.is_point:
            return "{%s}" % self.lo
        l = "[" if self.lo_closed else "("
        r = "]" if self.hi_closed else ")"
        lo = "-inf" if self.lo == NEG_INF else str(self.lo)
        hi = "+inf" if self.hi == POS_INF else str(self.hi)
        return f"{l}{lo}, {hi}{r}"


def _cache_keys(iv: Interval) -> None:
    object.__setattr__(iv, "_sk", _key(iv.lo, 0 if iv.lo_closed else 1))
    object.__setattr__(iv, "_ek", _key(iv.hi, 0 if iv.hi_closed else -1))
    object.__setattr__(iv, "_gk", _key(iv.hi, 1 if iv.hi_closed else 0))


def _mk(lo: ExtRat, hi: ExtRat, lo_closed: bool, hi_closed: bool) -> Interval:
    """Internal constructor for values already known valid (hot path)."""
    iv = object.__new__(Interval)
    object.__setattr__(iv, "lo", lo)
    object.__setattr__(iv, "hi", hi)
    object.__setattr__(iv, "lo_closed", lo_closed)
    object.__setattr__(iv, "hi_closed", hi_closed)
    _cache_keys(iv)
    return iv


def _from_keys(start, end) -> Optional[Interval]:
    """Interval from a (start, end) key pair; None when empty."""
    if start > end:
        return None
    return _mk(_key_value(start), _key_value(end), start[2] == 0, end[2] == 0)


def interval(lo, hi, lo_closed: bool = False, hi_closed: bool = False) -> "RealSet":
    """RealSet consisting of one interval (default: open)."""
    return RealSet._make((Interval(ext(lo), ext(hi), lo_closed, hi_closed),), None, None)


def closed(lo, hi) -> "RealSet":
    return interval(lo, hi, True, True)


def open_iv(lo, hi) -> "RealSet":
    return interval(lo, hi, False, False)


def closed_open(lo, hi) -> "RealSet":
    return interval(lo, hi, True, False)


def open_closed(lo, hi) -> "RealSet":
    return interval(lo, hi, False, True)


def point(x) -> "RealSet":
    q = rat(x)
    return RealSet._make((Interval(q, q, True, True),), None, None)


def points(xs: Iterable[RatLike]) -> "RealSet":
    return RealSet._make(tuple(Interval(rat(x), rat(x), True, True) for x in xs), None, None)


# ---------------------------------------------------------------------------
# finite interval-list algebra (disjoint, sorted, non-mergeable tuples)
# ---------------------------------------------------------------------------

def merge_intervals(items: Iterable[Interval]) -> Tuple[Interval, ...]:
    ivs = sorted(items, key=lambda i: i.start_key)
    out: list[Interval] = []
    for iv in ivs:
        if out and iv.start_key <= out[-1].gap_key:
            prev = out[-1]
            if iv.end_key > prev.end_key:
                out[-1] = _from_keys(prev.start_key, iv.end_key)  # type: ignore[assignment]
        else:
            out.append(iv)
    return tuple(out)


def _intersect_lists(a: Sequence[Interval], b: Sequence[Interval]) -> Tuple[Interval, ...]:
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        s = max(a[i].start_key, b[j].start_key)
        e = min(a[i].end_key, b[j].end_key)
        piece = _from_keys(s, e)
        if piece is not None:
            out.append(piece)
        if a[i].end_key < b[j].end_key:
            i += 1
        else:
            j += 1
    return tuple(out)


def _complement_list(a: Sequence[Interval]) -> Tuple[Interval, ...]:
    out = []
    prev_gap = _key(NEG_INF, 1)  # start of the uncovered region
    for iv in a:
        # region [prev_gap, just-before iv.start)
        end = _key(iv.lo, -1 if iv.lo_closed else 0)
        piece = _from_keys(prev_gap, end)
        if piece is not None:
            out.append(piece)
        prev_gap = iv.gap_key
    piece = _from_keys(prev_gap, _key(POS_INF, -1))
    if piece is not None:
        out.append(piece)
    return tuple(out)


def _union_lists(a: Sequence[Interval], b: Sequence[Interval]) -> Tuple[Interval, ...]:
    return merge_intervals(tuple(a) + tuple(b))


def _difference_lists(a: Sequence[Interval], b: Sequence[Interval]) -> Tuple[Interval, ...]:
    return _intersect_lists(a, _complement_list(b))


def _symdiff_lists(a: Sequence[Interval], b: Sequence[Interval]) -> Tuple[Interval, ...]:
    return _union_lists(_difference_lists(a, b), _difference_lists(b, a))


_START_KEY = attrgetter("_sk")
_END_KEY = attrgetter("_ek")


def _clip(items: Sequence[Interval], lo: ExtRat, hi: ExtRat,
          lo_closed: bool = True, hi_closed: bool = True) -> Tuple[Interval, ...]:
    """Trace of `items` on the window from lo to hi; an end is closed when its
    flag says so and it is finite.

    `items` must be sorted and disjoint (a `merge_intervals` output, a
    canonical core or a tail pattern): the pieces that meet the window are
    then one run, found by bisection, and only its first and last piece are
    rebuilt."""
    start = _key(lo, 0 if (lo_closed and is_finite(lo)) else 1)
    end = _key(hi, 0 if (hi_closed and is_finite(hi)) else -1)
    if start > end:
        return ()
    i = bisect_left(items, start, key=_END_KEY)
    j = bisect_right(items, end, i, key=_START_KEY)
    if i >= j:
        return ()
    run = list(items[i:j])
    if run[0].start_key < start:
        run[0] = _from_keys(start, run[0].end_key)  # type: ignore[assignment]
    if run[-1].end_key > end:
        run[-1] = _from_keys(run[-1].start_key, end)  # type: ignore[assignment]
    return tuple(run)


# ---------------------------------------------------------------------------
# periodic tails
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeriodicTail:
    """Half-infinite periodic part: union of pattern translates beyond a cut.

    Denotes  U_{k in Z} (pattern + k*period)  restricted to x < cut for a
    left tail, x > cut for a right tail.  The stored pattern is the trace of
    the periodized set on [0, period) with the minimal period.
    """

    pattern: Tuple[Interval, ...]
    period: Fraction
    direction: str  # "left" | "right"
    cut: Fraction

    def __post_init__(self):
        if self.direction not in ("left", "right"):
            raise ConstructionError("tail direction must be 'left' or 'right'")
        if not isinstance(self.period, Fraction) or self.period <= 0:
            raise ConstructionError("tail period must be a positive Fraction")
        if not isinstance(self.cut, Fraction):
            raise ConstructionError("tail cut must be a finite Fraction")
        if not self.pattern:
            raise ConstructionError("tail pattern must be nonempty")
        for iv in self.pattern:
            if not (is_finite(iv.lo) and is_finite(iv.hi)):
                raise ConstructionError("pattern pieces must be bounded")
            if iv.start_key < _key(Fraction(0), 0) or iv.end_key > _key(self.period, -1):
                raise ConstructionError("pattern pieces must lie inside [0, period)")

    def occurrences(self, lo: Fraction, hi: Fraction) -> Tuple[Interval, ...]:
        """Pattern translates intersected with [lo, hi] and the cut region."""
        occ = _periodize(self.pattern, self.period, lo, hi)
        if self.direction == "left":
            return _clip(occ, NEG_INF, self.cut, False, False)
        return _clip(occ, self.cut, POS_INF, False, False)

    def contains(self, x: Fraction) -> bool:
        if self.direction == "left" and not x < self.cut:
            return False
        if self.direction == "right" and not x > self.cut:
            return False
        r = x - self.period * math.floor(x / self.period)
        return any(iv.contains(r) for iv in self.pattern)


# germ encodings for the eventually-periodic behaviour at +-infinity
_EMPTY_GERM = ("empty",)
_FULL_GERM = ("full",)


def _pattern_reduce(pieces: Sequence[Interval], period: Fraction):
    return _pattern_reduce_cached(tuple(pieces), period)


@lru_cache(maxsize=16384)
def _pattern_reduce_cached(pieces: Tuple[Interval, ...], period: Fraction):
    """Anchor a pattern: trace of its periodization on [0, period), with the
    minimal period.  Returns a germ tuple ('empty'|'full'|'per', pat, p)."""
    if period <= 0:
        raise ConstructionError("period must be positive")
    occ = []
    for iv in pieces:
        if not (is_finite(iv.lo) and is_finite(iv.hi)):
            raise ConstructionError("pattern pieces must be bounded")
        if iv.hi - iv.lo >= period:
            return _FULL_GERM
        k_lo = math.floor(-iv.hi / period) - 1
        k_hi = math.ceil((period - iv.lo) / period) + 1
        for k in range(k_lo, k_hi + 1):
            occ.append(iv.shift(k * period))
    pat = _clip(merge_intervals(occ), Fraction(0), period, True, False)
    if not pat:
        return _EMPTY_GERM
    if pat == (Interval(Fraction(0), period, True, False),):
        return _FULL_GERM
    # minimal period: largest m such that shifting by period/m is invariant
    for m in range(len(pat), 1, -1):
        sub = period / m
        shifted = []
        for iv in pat:
            shifted.append(iv.shift(sub))
            shifted.append(iv.shift(sub - period))
        cand = _clip(merge_intervals(shifted), Fraction(0), period, True, False)
        if cand == pat:
            return ("per", _clip(pat, Fraction(0), sub, True, False), sub)
    return ("per", pat, period)


def _translate_range(pattern: Sequence[Interval], period: Fraction,
                     lo: Fraction, hi: Fraction) -> Tuple[int, int]:
    """(k_lo, k_hi) such that every translate pattern + k*period that meets
    [lo, hi] has k_lo <= k <= k_hi; pattern pieces must be bounded."""
    lo_v = min(iv.lo for iv in pattern)
    hi_v = max(iv.hi for iv in pattern)
    return math.floor((lo - hi_v) / period) - 1, math.ceil((hi - lo_v) / period) + 1


def _periodize(pattern: Sequence[Interval], period: Fraction,
               lo: Fraction, hi: Fraction,
               k_min: Optional[int] = None, k_max: Optional[int] = None) -> Tuple[Interval, ...]:
    """Trace on [lo, hi] of the union of the translates pattern + k*period,
    over all k or over k_min <= k <= k_max when those bounds are given."""
    k_lo, k_hi = _translate_range(pattern, period, lo, hi)
    if k_min is not None:
        k_lo = max(k_lo, k_min)
    if k_max is not None:
        k_hi = min(k_hi, k_max)
    out = []
    for k in range(k_lo, k_hi + 1):
        d = k * period
        for iv in pattern:
            out.append(iv.shift(d))
    return _clip(merge_intervals(out), lo, hi)


# A set operation is the set of (in a, in b) cases that belong to its result.
_OP_UNION = frozenset({(True, True), (True, False), (False, True)})
_OP_INTER = frozenset({(True, True)})
_OP_DIFF = frozenset({(True, False)})


def _select_regions(a: Sequence[Interval], b: Sequence[Interval], table) -> Tuple[Interval, ...]:
    """The points of a u b whose (in a, in b) case the table keeps (no
    operation keeps the points outside both)."""
    pieces: list[Interval] = []
    if (True, False) in table:
        pieces += _difference_lists(a, b)
    if (False, True) in table:
        pieces += _difference_lists(b, a)
    if (True, True) in table:
        pieces += _intersect_lists(a, b)
    return merge_intervals(pieces)


@lru_cache(maxsize=16384)
def _germ_op_cached(ga, gb, table) -> tuple:
    """Pointwise set operation `table` on two germs."""
    if ga[0] != "per" and gb[0] != "per":
        return _FULL_GERM if (ga == _FULL_GERM, gb == _FULL_GERM) in table else _EMPTY_GERM
    if ga[0] == "per" and gb[0] == "per":
        period = _lcm_frac(ga[2], gb[2])
    else:
        period = ga[2] if ga[0] == "per" else gb[2]
    zero = Fraction(0)
    full = (Interval(zero, period, True, False),)

    def mat(g):
        if g == _EMPTY_GERM:
            return ()
        if g == _FULL_GERM:
            return full
        return _clip(_periodize(g[1], g[2], zero, period), zero, period, True, False)

    return _pattern_reduce(_select_regions(mat(ga), mat(gb), table), period)


# ---------------------------------------------------------------------------
# RealSet
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RealSet:
    """Canonical exact subset of the real line.

    Do not call the constructor with non-canonical parts; use the module
    factories (interval, point, normalize, with_tails) or set operations.
    """

    core: Tuple[Interval, ...] = ()
    left_tail: Optional[PeriodicTail] = None
    right_tail: Optional[PeriodicTail] = None

    @staticmethod
    def _make(core: Sequence[Interval], ltail, rtail) -> "RealSet":
        return _canonical(tuple(core), ltail, rtail)

    # -- membership and sampling ------------------------------------------

    def contains_point(self, x: RatLike) -> bool:
        q = rat(x)
        k = _key(q, 0)
        i = bisect_right(self.core, k, key=_START_KEY)
        if i and self.core[i - 1].end_key >= k:
            return True
        if self.left_tail is not None and self.left_tail.contains(q):
            return True
        if self.right_tail is not None and self.right_tail.contains(q):
            return True
        return False

    def sample_points(self, window: Interval, step: RatLike) -> list[Fraction]:
        """The grid points k*step in `window` that lie in the set, ascending.

        Reads the set's trace on the window and emits each piece's grid
        points in closed form, so a call costs the trace's pieces plus the
        points emitted; when the trace would have more pieces than the window
        has grid points, it tests the grid points one by one instead.  Raises
        ConstructionError when the window holds more than MAX_SAMPLE_POINTS
        grid points."""
        s = rat(step)
        if s <= 0:
            raise ConstructionError("step must be positive")
        if not (is_finite(window.lo) and is_finite(window.hi)):
            raise ConstructionError("sampling window must be bounded")
        k_lo, k_hi = math.ceil(window.lo / s), math.floor(window.hi / s)
        n_grid = k_hi - k_lo + 1
        if n_grid > MAX_SAMPLE_POINTS:
            raise ConstructionError(
                f"sampling window holds {n_grid} grid points, more than {MAX_SAMPLE_POINTS}")
        width = window.hi - window.lo
        translates = sum(len(t.pattern) * (width / t.period + 2)
                         for t in (self.left_tail, self.right_tail) if t is not None)
        if translates > n_grid:
            grid = (k * s for k in range(k_lo, k_hi + 1))
            return [x for x in grid if window.contains(x) and self.contains_point(x)]
        out = []
        for iv in _clip(self.materialize(window.lo, window.hi),
                        window.lo, window.hi, window.lo_closed, window.hi_closed):
            lo, hi = math.ceil(iv.lo / s), math.floor(iv.hi / s)
            if not iv.lo_closed and lo * s == iv.lo:
                lo += 1
            if not iv.hi_closed and hi * s == iv.hi:
                hi -= 1
            out.extend(k * s for k in range(lo, hi + 1))
        return out

    # -- structure predicates ----------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.core and self.left_tail is None and self.right_tail is None

    @property
    def is_reals(self) -> bool:
        return self.core == (Interval(NEG_INF, POS_INF, False, False),)

    def pieces(self) -> Tuple[Interval, ...]:
        """Core pieces plus one pattern copy per tail (shape inspection)."""
        out = list(self.core)
        for tail in (self.left_tail, self.right_tail):
            if tail is not None:
                out.extend(tail.pattern)
        return tuple(out)

    def boundedness(self) -> "Bounds":
        bounded_below = self.left_tail is None and (not self.core or self.core[0].lo != NEG_INF)
        bounded_above = self.right_tail is None and (not self.core or self.core[-1].hi != POS_INF)
        finite = (self.left_tail is None and self.right_tail is None
                  and all(iv.is_point for iv in self.core))
        return Bounds(bounded_below and bounded_above, bounded_above, bounded_below, finite)

    def inf_value(self) -> ExtRat:
        """Infimum (NEG_INF when unbounded below, POS_INF for the empty set)."""
        if self.is_empty:
            return POS_INF
        if self.left_tail is not None:
            return NEG_INF
        if self.core:
            return self.core[0].lo
        t = self.right_tail
        occ = t.occurrences(t.cut - t.period, t.cut + 2 * t.period)
        return occ[0].lo

    def sup_value(self) -> ExtRat:
        if self.is_empty:
            return NEG_INF
        if self.right_tail is not None:
            return POS_INF
        if self.core:
            return self.core[-1].hi
        t = self.left_tail
        occ = t.occurrences(t.cut - 2 * t.period, t.cut + t.period)
        return occ[-1].hi

    # -- materialization ----------------------------------------------------

    def materialize(self, lo: RatLike, hi: RatLike) -> Tuple[Interval, ...]:
        """Exact trace on the closed window [lo, hi]."""
        l, h = rat(lo), rat(hi)
        if l > h:
            return ()
        if self.left_tail is None and self.right_tail is None:
            return _clip(self.core, l, h)
        return _materialize_cached(self, l, h)

    def _materialize_ray_left(self, hi: Fraction) -> Tuple[Interval, ...]:
        """Exact trace on (-inf, hi]; requires no left tail in play below core."""
        out = list(_clip(self.core, NEG_INF, hi))
        lowest = hi
        for iv in out:
            if is_finite(iv.lo):
                lowest = min(lowest, iv.lo)
        if self.left_tail is not None:
            out.extend(self.left_tail.occurrences(min(lowest, self.left_tail.cut) - 2 * self.left_tail.period, hi))
        if self.right_tail is not None:
            out.extend(self.right_tail.occurrences(min(lowest, self.right_tail.cut) - 2 * self.right_tail.period, hi))
        return merge_intervals(out)

    def _materialize_ray_right(self, lo: Fraction) -> Tuple[Interval, ...]:
        out = list(_clip(self.core, lo, POS_INF))
        highest = lo
        for iv in out:
            if is_finite(iv.hi):
                highest = max(highest, iv.hi)
        if self.right_tail is not None:
            out.extend(self.right_tail.occurrences(lo, max(highest, self.right_tail.cut) + 2 * self.right_tail.period))
        if self.left_tail is not None:
            out.extend(self.left_tail.occurrences(lo, max(highest, self.left_tail.cut) + 2 * self.left_tail.period))
        return merge_intervals(out)

    # -- germs ---------------------------------------------------------------

    def _left_germ(self) -> tuple:
        if self.core and self.core[0].lo == NEG_INF:
            return _FULL_GERM
        if self.left_tail is not None:
            return ("per", self.left_tail.pattern, self.left_tail.period)
        return _EMPTY_GERM

    def _right_germ(self) -> tuple:
        if self.core and self.core[-1].hi == POS_INF:
            return _FULL_GERM
        if self.right_tail is not None:
            return ("per", self.right_tail.pattern, self.right_tail.period)
        return _EMPTY_GERM

    def _finite_endpoints(self) -> list[Fraction]:
        out = []
        for iv in self.core:
            if is_finite(iv.lo):
                out.append(iv.lo)
            if is_finite(iv.hi):
                out.append(iv.hi)
        for tail in (self.left_tail, self.right_tail):
            if tail is not None:
                out.append(tail.cut)
        return out

    # -- set operations ------------------------------------------------------

    def union(self, other: "RealSet") -> "RealSet":
        return _binary(self, other, _OP_UNION)

    def intersect(self, other: "RealSet") -> "RealSet":
        return _binary(self, other, _OP_INTER)

    def difference(self, other: "RealSet") -> "RealSet":
        return _binary(self, other, _OP_DIFF)

    def complement(self) -> "RealSet":
        return REALS.difference(self)

    def symmetric_difference(self, other: "RealSet") -> "RealSet":
        return self.difference(other).union(other.difference(self))

    def is_subset(self, other: "RealSet") -> bool:
        return self.difference(other).is_empty

    def shift(self, d: RatLike) -> "RealSet":
        return affine_image(self, Fraction(1), rat(d))

    __or__ = union
    __and__ = intersect
    __sub__ = difference
    __xor__ = symmetric_difference
    __invert__ = complement

    # -- topology -------------------------------------------------------------

    def closure(self, kind: TopologyKind) -> "RealSet":
        return _closure(self, kind)

    def interior(self, kind: TopologyKind) -> "RealSet":
        return _interior(self, kind)

    def __str__(self):
        if self.is_empty:
            return "{}"
        parts = []
        if self.left_tail is not None:
            t = self.left_tail
            pat = " u ".join(str(i) for i in t.pattern)
            parts.append(f"<~({pat} mod {t.period})|x<{t.cut}")
        parts.extend(str(iv) for iv in self.core)
        if self.right_tail is not None:
            t = self.right_tail
            pat = " u ".join(str(i) for i in t.pattern)
            parts.append(f"x>{t.cut}|({pat} mod {t.period})~>")
        return " u ".join(parts)


@lru_cache(maxsize=16384)
def _materialize_cached(rs: "RealSet", l: Fraction, h: Fraction) -> Tuple[Interval, ...]:
    out = list(_clip(rs.core, l, h))
    if rs.left_tail is not None:
        out.extend(rs.left_tail.occurrences(l, h))
    if rs.right_tail is not None:
        out.extend(rs.right_tail.occurrences(l, h))
    return merge_intervals(out)


@dataclass(frozen=True)
class Bounds:
    bounded: bool
    bounded_above: bool
    bounded_below: bool
    finite: bool


EMPTY = RealSet()
REALS = RealSet((Interval(NEG_INF, POS_INF, False, False),))


# ---------------------------------------------------------------------------
# canonicalization
# ---------------------------------------------------------------------------

def _canonical(core: Tuple[Interval, ...], ltail: Optional[PeriodicTail],
               rtail: Optional[PeriodicTail]) -> RealSet:
    core = merge_intervals(core)

    # reduce raw tails; full patterns become half-line core pieces
    extra: list[Interval] = []
    lgerm = _EMPTY_GERM
    if ltail is not None:
        g = _pattern_reduce(ltail.pattern, ltail.period)
        if g == _FULL_GERM:
            extra.append(Interval(NEG_INF, ltail.cut, False, False))
            ltail = None
        elif g == _EMPTY_GERM:
            ltail = None
        else:
            ltail = PeriodicTail(g[1], g[2], "left", ltail.cut)
            lgerm = g
    rgerm = _EMPTY_GERM
    if rtail is not None:
        g = _pattern_reduce(rtail.pattern, rtail.period)
        if g == _FULL_GERM:
            extra.append(Interval(rtail.cut, POS_INF, False, False))
            rtail = None
        elif g == _EMPTY_GERM:
            rtail = None
        else:
            rtail = PeriodicTail(g[1], g[2], "right", rtail.cut)
            rgerm = g
    if extra:
        core = merge_intervals(list(core) + extra)

    if ltail is None and rtail is None:
        return RealSet(core, None, None)

    raw = RealSet.__new__(RealSet)
    object.__setattr__(raw, "core", core)
    object.__setattr__(raw, "left_tail", ltail)
    object.__setattr__(raw, "right_tail", rtail)

    if core and core[0].lo == NEG_INF:
        lgerm = _FULL_GERM
    if core and core[-1].hi == POS_INF:
        rgerm = _FULL_GERM

    pts = raw._finite_endpoints()
    base_lo = min(pts)
    base_hi = max(pts)
    # the set agrees with its left germ strictly below the left cut and with
    # its right germ strictly above the right cut, and cuts are endpoints, so
    # every discrepancy with a germ lies inside [base_lo, base_hi]
    w_lo = base_lo - 1
    w_hi = base_hi + 1
    inner_lo = w_lo
    inner_hi = w_hi

    d_w = raw.materialize(w_lo, w_hi)
    # each periodic germ's trace on the window, built once when the germs match
    p_lw = _periodize(lgerm[1], lgerm[2], w_lo, w_hi) if lgerm[0] == "per" else None
    if lgerm[0] == "per" and lgerm == rgerm:
        p_rw = p_lw
        # fully periodic?
        if d_w == p_lw:
            zero = Fraction(0)
            near0 = _periodize(lgerm[1], lgerm[2], -lgerm[2], lgerm[2])
            core0 = _clip(near0, zero, zero)
            return RealSet(core0,
                           PeriodicTail(lgerm[1], lgerm[2], "left", zero),
                           PeriodicTail(lgerm[1], lgerm[2], "right", zero))
    else:
        p_rw = _periodize(rgerm[1], rgerm[2], w_lo, w_hi) if rgerm[0] == "per" else None

    def germ_window(germ, lo, hi):
        if germ == _EMPTY_GERM:
            return ()
        if germ == _FULL_GERM:
            return (Interval(lo, hi, True, True),)
        return _periodize(germ[1], germ[2], lo, hi)

    cut_l: Optional[Fraction] = None
    if p_lw is not None:
        s = _clip(_symdiff_lists(d_w, p_lw), inner_lo, inner_hi)
        if s:
            v = s[0].lo
            assert is_finite(v)
            cut_l = v  # first discrepancy
        else:
            span = _lcm_frac(lgerm[2], rgerm[2]) if rgerm[0] == "per" else lgerm[2]
            a = germ_window(lgerm, inner_hi, inner_hi + 4 * span)
            b = germ_window(rgerm, inner_hi, inner_hi + 4 * span)
            q = _symdiff_lists(a, b)
            assert q, "left germ must differ somewhere if not fully periodic"
            cut_l = q[0].lo  # type: ignore[assignment]

    cut_r: Optional[Fraction] = None
    if p_rw is not None:
        s = _clip(_symdiff_lists(d_w, p_rw), inner_lo, inner_hi)
        if s:
            v = s[-1].hi
            assert is_finite(v)
            cut_r = v
        else:
            span = _lcm_frac(rgerm[2], lgerm[2]) if lgerm[0] == "per" else rgerm[2]
            a = germ_window(rgerm, inner_lo - 4 * span, inner_lo)
            b = germ_window(lgerm, inner_lo - 4 * span, inner_lo)
            q = _symdiff_lists(a, b)
            assert q, "right germ must differ somewhere if not fully periodic"
            cut_r = q[-1].hi  # type: ignore[assignment]

    # core region
    if cut_l is not None and cut_r is not None:
        new_core = raw.materialize(cut_l, cut_r)
    elif cut_l is not None:
        new_core = raw._materialize_ray_right(cut_l)
    elif cut_r is not None:
        new_core = raw._materialize_ray_left(cut_r)
    else:  # pragma: no cover - both germs degenerate means no tails survive
        new_core = core

    new_l = PeriodicTail(lgerm[1], lgerm[2], "left", cut_l) if cut_l is not None else None
    new_r = PeriodicTail(rgerm[1], rgerm[2], "right", cut_r) if cut_r is not None else None
    return RealSet(new_core, new_l, new_r)


def normalize(intervals: Iterable[Interval],
              left_tail: Optional[PeriodicTail] = None,
              right_tail: Optional[PeriodicTail] = None) -> RealSet:
    """Canonical RealSet from an interval soup and optional raw tails."""
    return _canonical(tuple(intervals), left_tail, right_tail)


def with_tails(core: RealSet,
               left: Optional[Tuple[Sequence[Interval], Fraction, Fraction]] = None,
               right: Optional[Tuple[Sequence[Interval], Fraction, Fraction]] = None) -> RealSet:
    """Attach raw (pattern, period, cut) tails to a finite set and canonicalize."""
    lt = PeriodicTail(tuple(left[0]), left[1], "left", left[2]) if left else None
    rt = PeriodicTail(tuple(right[0]), right[1], "right", right[2]) if right else None
    if (lt is not None and core.left_tail is not None) or \
       (rt is not None and core.right_tail is not None):
        raise ConstructionError("core already has a tail on that side")
    return _canonical(core.core, lt or core.left_tail, rt or core.right_tail)


# ---------------------------------------------------------------------------
# binary operations via germ + window assembly
# ---------------------------------------------------------------------------

def _bounded_span(a: RealSet):
    """(lo, hi) Fractions when the set is bounded and tail-free, else None."""
    if a.left_tail is not None or a.right_tail is not None or not a.core:
        return None
    lo, hi = a.core[0].lo, a.core[-1].hi
    if is_finite(lo) and is_finite(hi):
        return (lo, hi)
    return None


def _binary(a: RealSet, b: RealSet, table) -> RealSet:
    if a.left_tail is None and a.right_tail is None and \
       b.left_tail is None and b.right_tail is None:
        if table is _OP_UNION:
            return RealSet(_union_lists(a.core, b.core))
        if table is _OP_INTER:
            return RealSet(_intersect_lists(a.core, b.core))
        return RealSet(_difference_lists(a.core, b.core))

    # bounded fast paths: the result fits in a finite window
    if table is _OP_INTER:
        span = _bounded_span(a) or _bounded_span(b)
        if span is not None:
            return RealSet(_intersect_lists(a.materialize(*span), b.materialize(*span)))
    if table is _OP_DIFF:
        span = _bounded_span(a)
        if span is not None:
            return RealSet(_difference_lists(a.core, b.materialize(*span)))
    if a.is_empty:
        return EMPTY if table in (_OP_INTER, _OP_DIFF) else b
    if b.is_empty:
        return EMPTY if table is _OP_INTER else a

    lg = _germ_op_cached(a._left_germ(), b._left_germ(), table)
    rg = _germ_op_cached(a._right_germ(), b._right_germ(), table)

    pts = a._finite_endpoints() + b._finite_endpoints() or [Fraction(0)]
    inner_lo = min(pts) - 1
    inner_hi = max(pts) + 1

    window = _select_regions(a.materialize(inner_lo, inner_hi),
                             b.materialize(inner_lo, inner_hi), table)
    return _assemble(window, lg, rg, inner_lo, inner_hi)


def _assemble(window_pieces: Tuple[Interval, ...], lgerm, rgerm,
              lo: Fraction, hi: Fraction) -> RealSet:
    """Combine a window trace with germ behaviour outside [lo, hi]."""
    core = list(window_pieces)
    ltail = rtail = None
    if lgerm == _FULL_GERM:
        core.append(Interval(NEG_INF, lo, False, True))
    elif lgerm[0] == "per":
        ltail = PeriodicTail(lgerm[1], lgerm[2], "left", lo)
    if rgerm == _FULL_GERM:
        core.append(Interval(hi, POS_INF, True, False))
    elif rgerm[0] == "per":
        rtail = PeriodicTail(rgerm[1], rgerm[2], "right", hi)
    return _canonical(tuple(core), ltail, rtail)


def affine_image(a: RealSet, slope: Fraction, intercept: Fraction) -> RealSet:
    """Image of the set under x -> slope*x + intercept (slope may be 0)."""
    if slope == 0:
        return EMPTY if a.is_empty else point(intercept)
    core = tuple(iv.scale(slope).shift(intercept) for iv in a.core)
    ltail = a.left_tail
    rtail = a.right_tail
    new_l = new_r = None
    for tail, side in ((ltail, "left"), (rtail, "right")):
        if tail is None:
            continue
        new_period = abs(slope) * tail.period
        pieces = tuple(iv.scale(slope).shift(intercept) for iv in tail.pattern)
        new_cut = slope * tail.cut + intercept
        flips = (slope < 0)
        new_side = side if not flips else ("right" if side == "left" else "left")
        g = _pattern_reduce(pieces, new_period)
        if g[0] != "per":  # pragma: no cover - scaling keeps proper patterns proper
            raise ConstructionError("pattern degenerated under affine map")
        t = PeriodicTail(g[1], g[2], new_side, new_cut)
        if new_side == "left":
            new_l = t
        else:
            new_r = t
    return _canonical(core, new_l, new_r)


# ---------------------------------------------------------------------------
# closure / interior per TopologyKind
# ---------------------------------------------------------------------------

def _nat_close(iv: Interval) -> Interval:
    return Interval(iv.lo, iv.hi, is_finite(iv.lo), is_finite(iv.hi))


def _nat_open(iv: Interval) -> Optional[Interval]:
    if iv.is_point:
        return None
    return Interval(iv.lo, iv.hi, False, False)


def _sorg_r_close(iv: Interval) -> Interval:
    return Interval(iv.lo, iv.hi, is_finite(iv.lo), iv.hi_closed)


def _sorg_r_open(iv: Interval) -> Optional[Interval]:
    if iv.is_point:
        return None
    return Interval(iv.lo, iv.hi, iv.lo_closed, False)


def _sorg_l_close(iv: Interval) -> Interval:
    return Interval(iv.lo, iv.hi, iv.lo_closed, is_finite(iv.hi))


def _sorg_l_open(iv: Interval) -> Optional[Interval]:
    if iv.is_point:
        return None
    return Interval(iv.lo, iv.hi, False, iv.hi_closed)


_LOCAL_RULES = {
    (TopologyKind.NAT, "close"): _nat_close,
    (TopologyKind.NAT, "open"): _nat_open,
    (TopologyKind.SORG_R, "close"): _sorg_r_close,
    (TopologyKind.SORG_R, "open"): _sorg_r_open,
    (TopologyKind.SORG_L, "close"): _sorg_l_close,
    (TopologyKind.SORG_L, "open"): _sorg_l_open,
}


def apply_local(a: RealSet, rule: Callable[[Interval], Optional[Interval]],
                reach: Fraction = Fraction(0)) -> RealSet:
    """The union of rule(iv) over the pieces iv of `a`; None drops a piece.

    The rule must commute with translation and keep rule(iv) within `reach`
    of iv, so a tail's image is again periodic with the tail's period: each
    germ is mapped on its periodization over [-p - reach, 2p + reach] and a
    window of the finite part widened by reach + 1 on each side; a piece cut
    at a window edge maps wrongly only within reach of that edge."""
    if a.left_tail is None and a.right_tail is None:
        out = [r for r in map(rule, a.core) if r is not None]
        return RealSet(merge_intervals(out))

    def germ_rule(germ):
        if germ[0] != "per":
            return germ
        pat, p = germ[1], germ[2]
        occ = _periodize(pat, p, -p - reach, 2 * p + reach)
        out = [r for r in map(rule, occ) if r is not None]
        return _pattern_reduce(_clip(merge_intervals(out), Fraction(0), p, True, False), p)

    lg = germ_rule(a._left_germ())
    rg = germ_rule(a._right_germ())

    pts = a._finite_endpoints()
    margin = reach + 1
    inner_lo = min(pts) - margin
    inner_hi = max(pts) + margin
    outer = a.materialize(inner_lo - margin, inner_hi + margin)
    out = [r for r in map(rule, outer) if r is not None]
    window = _clip(merge_intervals(out), inner_lo, inner_hi)
    return _assemble(window, lg, rg, inner_lo, inner_hi)


def _closure(a: RealSet, kind: TopologyKind) -> RealSet:
    if kind is TopologyKind.DISCRETE:
        return a
    if kind is TopologyKind.UPPER:
        if a.is_empty:
            return EMPTY
        m = a.inf_value()
        if m == NEG_INF:
            return REALS
        return interval(m, POS_INF, True, False)
    if kind is TopologyKind.LOWER:
        if a.is_empty:
            return EMPTY
        m = a.sup_value()
        if m == POS_INF:
            return REALS
        return interval(NEG_INF, m, False, True)
    return apply_local(a, _LOCAL_RULES[(kind, "close")])


def _interior(a: RealSet, kind: TopologyKind) -> RealSet:
    if kind is TopologyKind.DISCRETE:
        return a
    if kind is TopologyKind.UPPER:
        c = a.complement()
        if c.is_empty:
            return REALS
        m = c.inf_value()
        return EMPTY if m == NEG_INF else interval(NEG_INF, m, False, False)
    if kind is TopologyKind.LOWER:
        c = a.complement()
        if c.is_empty:
            return REALS
        m = c.sup_value()
        return EMPTY if m == POS_INF else interval(m, POS_INF, False, False)
    return apply_local(a, _LOCAL_RULES[(kind, "open")])
