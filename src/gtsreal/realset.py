"""Exact subsets of the real line.

A RealSet is a finite union of intervals with rational or infinite
endpoints, optionally extended by an eventually-periodic tail on either
side.  Values are canonical: two RealSets denote the same set of points
if and only if they compare equal.  All operations are pure and exact
(endpoints are `fractions.Fraction`; infinities are the float sentinels
NEG_INF and POS_INF).

The interval-list kernels never compare endpoints as Fractions.  Each
Interval carries order keys (see `_key`): a float that is the endpoint
rounded to nearest, the exact remainder, and an int for the side.  On the
dyadic grid the remainder is the int 0, so a comparison of two keys is a
comparison of floats and small ints.  The keys only order; a kernel builds
each output piece from the endpoints and flags of the input intervals whose
keys won, and returns an input interval unchanged when the piece is that
interval.

Each set operation is one interval-list kernel (`_union_lists`,
`_intersect_lists` or `_difference_lists`), applied to tail-free cores, to
the window of tailed operands and to their germs read on one period.  The
interior of a ray kind (upper, lower) is the complement of the closure of
the complement.

Every tail, germ and periodic family is a pattern's translates laid over a
window, and `_periodize` is the one place that lays them out.  The germs
(the behaviour toward -inf or +inf: `_EMPTY_GERM`, `_FULL_GERM` or
("per", pattern, period)) never leave this module; callers read a set's
tails, `union_of_translates` builds the union of a seed's translates, and
`union_all` the union of n sets.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
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


_FLOAT_MAX = sys.float_info.max


def _lead(v: ExtRat) -> Tuple[float, Union[int, Fraction]]:
    """(f, r): f the float nearest to v and r = v - f exactly, the int 0
    when f is v (every 1/2^k-grid value of at most 53 significant bits).  A
    sentinel is its own f.  Past the float range f is clamped to +-max."""
    if isinstance(v, float):
        return v, 0
    nd = v.as_integer_ratio()
    try:
        f = nd[0] / nd[1]
    except OverflowError:
        f = _FLOAT_MAX if nd[0] > 0 else -_FLOAT_MAX
    if f.as_integer_ratio() == nd:
        return f, 0
    return f, v - Fraction(f)


def _key(v: ExtRat, eps: int) -> tuple:
    """Order key (f, r, eps) of the point v (eps 0), of the point just after
    it (eps +1) or of the point just before it (eps -1).

    f is v = n/d rounded to the nearest float (Python's int / int is
    correctly rounded, as IEEE 754 division is) and r = v - f is exact.
    Rounding to nearest is monotone: v < w gives f(v) <= f(w), and when
    f(v) == f(w) the remainders order v and w.  So the tuples compare exactly as (rank, v, eps) would, and two
    keys are equal exactly when the points are.  The sentinels are +-inf
    with r = 0, beyond every finite f; a value past the float range gets
    f = +-sys.float_info.max and r = v -+ max, so it still sorts by r among
    the other clamped values and below POS_INF."""
    f, r = _lead(v)
    return (f, r, eps)


@dataclass(frozen=True, slots=True)
class Interval:
    """One nonempty interval.  Degenerate points are closed-closed.

    _sk is the start key, _ek the end key and _gk the gap key (the start key
    of the first point to the right not covered); _ek and _gk share their
    float and remainder."""

    lo: ExtRat
    hi: ExtRat
    lo_closed: bool
    hi_closed: bool
    _sk: tuple = field(init=False, repr=False, compare=False)
    _ek: tuple = field(init=False, repr=False, compare=False)
    _gk: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.lo, float) and not math.isinf(self.lo):
            raise ConstructionError("inexact lower endpoint")
        if isinstance(self.hi, float) and not math.isinf(self.hi):
            raise ConstructionError("inexact upper endpoint")
        if not is_finite(self.lo) and self.lo_closed:
            raise ConstructionError("infinite endpoint cannot be closed")
        if not is_finite(self.hi) and self.hi_closed:
            raise ConstructionError("infinite endpoint cannot be closed")
        _cache_keys(self)
        sk, ek = self._sk, self._ek
        if sk > ek:
            if sk[:2] > ek[:2]:
                raise ConstructionError(f"empty interval: lo={self.lo} > hi={self.hi}")
            raise ConstructionError("degenerate interval must be closed on both sides")

    def __eq__(self, other):
        if other.__class__ is not Interval:
            return NotImplemented
        return self._sk == other._sk and self._ek == other._ek

    def __hash__(self):
        # the keys __eq__ compares; a grid value's remainder is the int 0,
        # so no Fraction is hashed
        return hash((self._sk, self._ek))

    @property
    def is_point(self) -> bool:
        return self._sk == self._ek

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
        lo = "-inf" if self._sk[0] == NEG_INF else str(self.lo)
        hi = "+inf" if self._ek[0] == POS_INF else str(self.hi)
        return f"{l}{lo}, {hi}{r}"


_set = object.__setattr__


def _cache_keys(iv: Interval) -> None:
    lo, hi = iv.lo, iv.hi
    f, r = _lead(lo)
    _set(iv, "_sk", (f, r, 0 if iv.lo_closed else 1))
    if hi is not lo:
        f, r = _lead(hi)
    if iv.hi_closed:
        _set(iv, "_ek", (f, r, 0))
        _set(iv, "_gk", (f, r, 1))
    else:
        _set(iv, "_ek", (f, r, -1))
        _set(iv, "_gk", (f, r, 0))


def _mk(lo: ExtRat, hi: ExtRat, lo_closed: bool, hi_closed: bool) -> Interval:
    """Internal constructor for values already known valid (hot path)."""
    iv = object.__new__(Interval)
    _set(iv, "lo", lo)
    _set(iv, "hi", hi)
    _set(iv, "lo_closed", lo_closed)
    _set(iv, "hi_closed", hi_closed)
    _cache_keys(iv)
    return iv


_new = object.__new__
# the slot setters of Interval, which `_raw` calls without a lookup by name
_SET_LO, _SET_HI, _SET_LC, _SET_HC, _SET_SK, _SET_EK, _SET_GK = (
    Interval.__dict__[name].__set__
    for name in ("lo", "hi", "lo_closed", "hi_closed", "_sk", "_ek", "_gk"))


def _raw(lo: ExtRat, hi: ExtRat, lo_closed: bool, hi_closed: bool,
         sk: tuple, ek: tuple, gk: tuple) -> Interval:
    """Internal constructor from endpoints, flags and their keys."""
    iv = _new(Interval)
    _SET_LO(iv, lo)
    _SET_HI(iv, hi)
    _SET_LC(iv, lo_closed)
    _SET_HC(iv, hi_closed)
    _SET_SK(iv, sk)
    _SET_EK(iv, ek)
    _SET_GK(iv, gk)
    return iv


def _reflag(iv: Interval, lo_closed: bool, hi_closed: bool) -> Interval:
    """iv with its ends closed or open as the flags say; iv itself when they
    are its own.  Only the sides of the keys change, so no end is re-read."""
    if lo_closed == iv.lo_closed and hi_closed == iv.hi_closed:
        return iv
    f, r, _ = iv._sk
    g, s, _ = iv._ek
    ek, gk = ((g, s, 0), (g, s, 1)) if hi_closed else ((g, s, -1), (g, s, 0))
    return _raw(iv.lo, iv.hi, lo_closed, hi_closed, (f, r, 0 if lo_closed else 1), ek, gk)


def _join(a: Interval, b: Interval) -> Interval:
    """The interval from a's start to b's end, which must not be empty; a
    or b itself when it is that interval."""
    if a._sk == b._sk:
        return b
    if a._ek == b._ek:
        return a
    return _raw(a.lo, b.hi, a.lo_closed, b.hi_closed, a._sk, b._ek, b._gk)


_START_KEY = attrgetter("_sk")
_END_KEY = attrgetter("_ek")


def interval(lo, hi, lo_closed: bool = False, hi_closed: bool = False) -> "RealSet":
    """RealSet consisting of one interval (default: open)."""
    return _flat((Interval(ext(lo), ext(hi), lo_closed, hi_closed),))


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
    return _flat((Interval(q, q, True, True),))


def points(xs: Iterable[RatLike]) -> "RealSet":
    return _flat(merge_intervals(Interval(rat(x), rat(x), True, True) for x in xs))


# ---------------------------------------------------------------------------
# finite interval-list algebra (disjoint, sorted, non-mergeable tuples)
# ---------------------------------------------------------------------------

def merge_intervals(items: Iterable[Interval]) -> Tuple[Interval, ...]:
    out: list[Interval] = []
    for iv in sorted(items, key=_START_KEY):
        if out and iv._sk <= out[-1]._gk:
            prev = out[-1]
            if iv._ek > prev._ek:
                out[-1] = _join(prev, iv)
        else:
            out.append(iv)
    return tuple(out)


def _intersect_lists(a: Sequence[Interval], b: Sequence[Interval]) -> Tuple[Interval, ...]:
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        # y is the interval whose end comes first, x the other one
        x, y = a[i], b[j]
        if x._ek < y._ek:
            x, y = y, x
            i += 1
        else:
            j += 1
        if y._sk >= x._sk:
            out.append(y)
        elif x._sk <= y._ek:
            out.append(_join(x, y))
    return tuple(out)


_NEG_GAP = _key(NEG_INF, 1)    # start key of the line's first point
_POS_END = _key(POS_INF, -1)   # end key of the line's last point
_POS_GAP = _key(POS_INF, 0)


def _complement_list(a: Sequence[Interval]) -> Tuple[Interval, ...]:
    out = []
    # the uncovered region starts at (lo, lo_closed), start key sk
    lo, lo_closed, sk = NEG_INF, False, _NEG_GAP
    for iv in a:
        # region [sk, just before iv's start]
        f, r, eps = iv._sk
        ek = (f, r, eps - 1)
        if sk <= ek:
            out.append(_raw(lo, iv.lo, lo_closed, not iv.lo_closed, sk, ek, iv._sk))
        lo, lo_closed, sk = iv.hi, not iv.hi_closed, iv._gk
    if sk <= _POS_END:
        out.append(_raw(lo, POS_INF, lo_closed, False, sk, _POS_END, _POS_GAP))
    return tuple(out)


def _union_lists(a: Sequence[Interval], b: Sequence[Interval]) -> Tuple[Interval, ...]:
    return merge_intervals(tuple(a) + tuple(b))


def _difference_lists(a: Sequence[Interval], b: Sequence[Interval]) -> Tuple[Interval, ...]:
    if len(a) == 1 and a[0]._sk == _NEG_GAP and a[0]._ek == _POS_END:
        # the whole line minus b is b's gaps
        return _complement_list(b)
    return _intersect_lists(a, _complement_list(b))


def _symdiff_lists(a: Sequence[Interval], b: Sequence[Interval]) -> Tuple[Interval, ...]:
    return _union_lists(_difference_lists(a, b), _difference_lists(b, a))


def _clip(items: Sequence[Interval], lo: ExtRat, hi: ExtRat,
          lo_closed: bool = True, hi_closed: bool = True) -> Tuple[Interval, ...]:
    """Trace of `items` on the window from lo to hi; an end is closed when its
    flag says so and it is finite.

    `items` must be sorted and disjoint (a `merge_intervals` output, a
    canonical core or a tail pattern): the pieces that meet the window are
    then one run, found by bisection, and only its first and last piece are
    rebuilt."""
    lo_closed = lo_closed and is_finite(lo)
    hi_closed = hi_closed and is_finite(hi)
    start = _key(lo, 0 if lo_closed else 1)
    end = _key(hi, 0 if hi_closed else -1)
    if start > end:
        return ()
    i = bisect_left(items, start, key=_END_KEY)
    j = bisect_right(items, end, i, key=_START_KEY)
    if i >= j:
        return ()
    run = list(items[i:j])
    first = run[0]
    if first._sk < start:
        run[0] = _raw(lo, first.hi, lo_closed, first.hi_closed, start, first._ek, first._gk)
    last = run[-1]
    if last._ek > end:
        gap = (end[0], end[1], end[2] + 1)
        run[-1] = _raw(last.lo, hi, last.lo_closed, hi_closed, last._sk, end, gap)
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
            if iv._sk < _key(Fraction(0), 0) or iv._ek > _key(self.period, -1):
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
_SIDES = ("left", "right")   # the sides toward -inf and +inf, in that order


def _pattern_reduce(pieces: Sequence[Interval], period: Fraction):
    return _pattern_reduce_cached(tuple(pieces), period)


@lru_cache(maxsize=16384)
def _pattern_reduce_cached(pieces: Tuple[Interval, ...], period: Fraction):
    """Anchor a pattern: trace of its periodization on [0, period), with the
    minimal period.  Returns a germ tuple ('empty'|'full'|'per', pat, p)."""
    if period <= 0:
        raise ConstructionError("period must be positive")
    for iv in pieces:
        if not (is_finite(iv.lo) and is_finite(iv.hi)):
            raise ConstructionError("pattern pieces must be bounded")
        if iv.hi - iv.lo >= period:
            return _FULL_GERM
    zero = Fraction(0)
    pat = _clip(_periodize(pieces, period, zero, period), zero, period, True, False)
    if not pat:
        return _EMPTY_GERM
    if pat == (Interval(zero, period, True, False),):
        return _FULL_GERM
    # minimal period: the largest m such that the trace on [0, period/m),
    # periodized with period period/m, gives back the pattern
    for m in range(len(pat), 1, -1):
        sub = period / m
        sub_pat = _clip(pat, zero, sub, True, False)
        if _clip(_periodize(sub_pat, sub, zero, period), zero, period, True, False) == pat:
            return ("per", sub_pat, sub)
    return ("per", pat, period)


def _translate_range(pattern: Sequence[Interval], period: Fraction,
                     lo: Fraction, hi: Fraction) -> Tuple[int, int]:
    """(k_lo, k_hi) such that every translate pattern + k*period that meets
    [lo, hi] has k_lo <= k <= k_hi; pattern pieces must be bounded."""
    lo_v = min(pattern, key=_START_KEY).lo
    hi_v = max(pattern, key=_END_KEY).hi
    return math.floor((lo - hi_v) / period) - 1, math.ceil((hi - lo_v) / period) + 1


def _periodize(pattern: Sequence[Interval], period: Fraction,
               lo: Fraction, hi: Fraction,
               k_min: Optional[int] = None, k_max: Optional[int] = None) -> Tuple[Interval, ...]:
    """Trace on [lo, hi] of the union of the translates pattern + k*period,
    over all k or over k_min <= k <= k_max when those bounds are given; ()
    for an empty pattern."""
    if not pattern:
        return ()
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


def _germ_trace(germ, lo: Fraction, hi: Fraction) -> Tuple[Interval, ...]:
    """Trace on [lo, hi] of the set that the germ repeats."""
    if germ == _FULL_GERM:
        return (Interval(lo, hi, True, True),)
    return _periodize(germ[1], germ[2], lo, hi) if germ[0] == "per" else ()


@lru_cache(maxsize=16384)
def _germ_op_cached(ga, gb, op) -> tuple:
    """The germ of the set operation `op` (an interval-list kernel) on two
    germs, read on one period: the lcm of the periodic germs' periods, or 1
    when neither germ is periodic."""
    pa, pb = (g[2] if g[0] == "per" else None for g in (ga, gb))
    period = _lcm_frac(pa, pb) if pa and pb else pa or pb or Fraction(1)
    zero = Fraction(0)
    a, b = (_clip(_germ_trace(g, zero, period), zero, period, True, False) for g in (ga, gb))
    return _pattern_reduce(op(a, b), period)


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

    # -- membership and sampling ------------------------------------------

    def contains_point(self, x: RatLike) -> bool:
        q = rat(x)
        k = _key(q, 0)
        i = bisect_right(self.core, k, key=_START_KEY)
        if i and self.core[i - 1]._ek >= k:
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
        core = self.core
        return len(core) == 1 and core[0]._sk[0] == NEG_INF and core[0]._ek[0] == POS_INF

    def pieces(self) -> Tuple[Interval, ...]:
        """Core pieces plus one pattern copy per tail (shape inspection)."""
        out = list(self.core)
        for tail in (self.left_tail, self.right_tail):
            if tail is not None:
                out.extend(tail.pattern)
        return tuple(out)

    def boundedness(self) -> "Bounds":
        bounded_below = self.left_tail is None and (not self.core or self.core[0]._sk[0] != NEG_INF)
        bounded_above = self.right_tail is None and (not self.core or self.core[-1]._ek[0] != POS_INF)
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

    # -- germs ---------------------------------------------------------------

    def _germ(self, side: str) -> tuple:
        """The set's germ toward -inf (side "left") or +inf ("right")."""
        left = side == "left"
        if self.core and not is_finite(self.core[0].lo if left else self.core[-1].hi):
            return _FULL_GERM
        tail = self.left_tail if left else self.right_tail
        return _EMPTY_GERM if tail is None else ("per", tail.pattern, tail.period)

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
        return _binary(self, other, _union_lists)

    def intersect(self, other: "RealSet") -> "RealSet":
        return _binary(self, other, _intersect_lists)

    def difference(self, other: "RealSet") -> "RealSet":
        return _binary(self, other, _difference_lists)

    def complement(self) -> "RealSet":
        return REALS.difference(self)

    def symmetric_difference(self, other: "RealSet") -> "RealSet":
        return self.difference(other).union(other.difference(self))

    def is_subset(self, other: "RealSet") -> bool:
        if self.left_tail is None and self.right_tail is None and \
           other.left_tail is None and other.right_tail is None:
            # each piece lies in the one piece of other that starts last at
            # or before it, or in none: other's pieces have gaps between them
            core = other.core
            for iv in self.core:
                i = bisect_right(core, iv._sk, key=_START_KEY)
                if not i or core[i - 1]._ek < iv._ek:
                    return False
            return True
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


def _flat(core: Tuple[Interval, ...]) -> RealSet:
    """The tail-free RealSet of a canonical core, filled in without the
    frozen dataclass's __init__.  The fields are set one by one: reading
    `__dict__` would give each set a dict of its own, whose attribute reads
    are several times slower."""
    rs = _new(RealSet)
    _set(rs, "core", core)
    _set(rs, "left_tail", None)
    _set(rs, "right_tail", None)
    return rs


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

    def __str__(self):
        return (f"bounded={self.bounded} above={self.bounded_above} "
                f"below={self.bounded_below} finite={self.finite}").lower()


EMPTY = RealSet()
REALS = RealSet((Interval(NEG_INF, POS_INF, False, False),))


# ---------------------------------------------------------------------------
# canonicalization
# ---------------------------------------------------------------------------

def _canonical(core: Tuple[Interval, ...], ltail: Optional[PeriodicTail],
               rtail: Optional[PeriodicTail]) -> RealSet:
    core = merge_intervals(core)
    if ltail is None and rtail is None:
        return _flat(core)

    # reduce raw tails; full patterns become half-line core pieces, open at
    # the cut
    raw_tails = (ltail, rtail)
    germs = [_EMPTY_GERM if t is None else _pattern_reduce(t.pattern, t.period)
             for t in raw_tails]
    extra: list[Interval] = []
    ltail, rtail = _place_germs(extra, germs, [t and t.cut for t in raw_tails], False)
    if extra:
        core = merge_intervals(list(core) + extra)

    if ltail is None and rtail is None:
        return _flat(core)

    raw = RealSet(core, ltail, rtail)

    lgerm, rgerm = raw._germ("left"), raw._germ("right")

    pts = raw._finite_endpoints()
    base_lo = min(pts)
    base_hi = max(pts)
    # the set agrees with its left germ strictly below the left cut and with
    # its right germ strictly above the right cut, and cuts are endpoints, so
    # every discrepancy with a germ lies inside [base_lo, base_hi]
    w_lo = base_lo - 1
    w_hi = base_hi + 1

    d_w = raw.materialize(w_lo, w_hi)
    # each periodic germ's trace on the window, built once when the germs match
    p_lw = _periodize(lgerm[1], lgerm[2], w_lo, w_hi) if lgerm[0] == "per" else None
    if lgerm[0] == "per" and lgerm == rgerm:
        p_rw = p_lw
        # fully periodic?
        if d_w == p_lw:
            return _fully_periodic(lgerm)
    else:
        p_rw = _periodize(rgerm[1], rgerm[2], w_lo, w_hi) if rgerm[0] == "per" else None

    cut_l = None if p_lw is None else _cut("left", d_w, p_lw, lgerm, rgerm, w_lo, w_hi)
    cut_r = None if p_rw is None else _cut("right", d_w, p_rw, rgerm, lgerm, w_lo, w_hi)

    # core region: the raw set's trace from lo to hi.  A side without a cut
    # has an empty or full germ, and beyond the window the raw set is that
    # germ; so on such a side the trace runs to the window edge, or on to the
    # other side's cut where that lies beyond the edge (between the edge and
    # that cut the two germs agree), and a full germ adds the half-line past it
    lo = cut_l if cut_l is not None else w_lo if cut_r is None else min(w_lo, cut_r)
    hi = cut_r if cut_r is not None else w_hi if cut_l is None else max(w_hi, cut_l)
    new_core = list(raw.materialize(lo, hi))
    tails = _place_germs(new_core, (lgerm, rgerm), (lo, hi), False)
    return RealSet(merge_intervals(new_core), *tails)


def _cut(side: str, d_w: Tuple[Interval, ...], p_w: Tuple[Interval, ...],
         germ: tuple, other: tuple, w_lo: Fraction, w_hi: Fraction) -> Fraction:
    """The canonical cut of the periodic germ on `side` ("left" or "right"):
    the end toward that side of where the raw set's trace d_w on the window
    [w_lo, w_hi] differs from the germ's trace p_w.  Where they agree on the
    whole window, the cut is where the germ first differs from the `other`
    side's germ, looked for over four common periods past the far edge."""
    left = side == "left"
    s = _clip(_symdiff_lists(d_w, p_w), w_lo, w_hi)
    if s:
        v = s[0].lo if left else s[-1].hi
        assert is_finite(v)
        return v
    span = _lcm_frac(germ[2], other[2]) if other[0] == "per" else germ[2]
    lo, hi = (w_hi, w_hi + 4 * span) if left else (w_lo - 4 * span, w_lo)
    q = _symdiff_lists(_germ_trace(germ, lo, hi), _germ_trace(other, lo, hi))
    assert q, f"{side} germ must differ somewhere if not fully periodic"
    return q[0].lo if left else q[-1].hi


def _place_germs(core: list, germs: Sequence[tuple], edges: Sequence[Fraction],
                 closed: bool) -> list:
    """Lay the left and the right germ past their edges: a full germ appends
    its half-line to `core`, closed at the edge when `closed` says so, and a
    periodic germ becomes a tail cut at the edge.  Returns the two tails,
    None for a side whose germ is not periodic."""
    tails = []
    for side, germ, edge in zip(_SIDES, germs, edges):
        if germ == _FULL_GERM:
            core.append(Interval(NEG_INF, edge, False, closed) if side == "left"
                        else Interval(edge, POS_INF, closed, False))
        tails.append(PeriodicTail(germ[1], germ[2], side, edge) if germ[0] == "per" else None)
    return tails


def _fully_periodic(germ: tuple) -> RealSet:
    """The set that repeats a periodic germ over the whole line: its trace at
    0 and the tail pair cut at 0."""
    zero = Fraction(0)
    core0 = _clip(_periodize(germ[1], germ[2], -germ[2], germ[2]), zero, zero)
    return RealSet(core0, *(PeriodicTail(germ[1], germ[2], side, zero) for side in _SIDES))


def normalize(intervals: Iterable[Interval],
              left_tail: Optional[PeriodicTail] = None,
              right_tail: Optional[PeriodicTail] = None) -> RealSet:
    """Canonical RealSet from an interval soup and optional raw tails."""
    return _canonical(tuple(intervals), left_tail, right_tail)


def with_tails(core: RealSet,
               left: Optional[Tuple[Sequence[Interval], Fraction, Fraction]] = None,
               right: Optional[Tuple[Sequence[Interval], Fraction, Fraction]] = None) -> RealSet:
    """Attach raw (pattern, period, cut) tails to a tail-free set and
    canonicalize.  The set may reach +-inf, also on a side that gets a tail:
    the result is the union of the set and the tails' occurrences."""
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


def _binary(a: RealSet, b: RealSet, op) -> RealSet:
    """The set operation whose interval-list kernel is `op` (`_union_lists`,
    `_intersect_lists` or `_difference_lists`): on the cores of tail-free
    operands, else on the operands' window and on their germs."""
    if a.left_tail is None and a.right_tail is None and \
       b.left_tail is None and b.right_tail is None:
        return _flat(op(a.core, b.core))

    # bounded fast paths: the result fits in a finite window
    if op is _intersect_lists:
        span = _bounded_span(a) or _bounded_span(b)
        if span is not None:
            return _flat(_intersect_lists(a.materialize(*span), b.materialize(*span)))
    if op is _difference_lists:
        span = _bounded_span(a)
        if span is not None:
            return _flat(_difference_lists(a.core, b.materialize(*span)))
    if a.is_empty:
        return b if op is _union_lists else EMPTY
    if b.is_empty:
        return EMPTY if op is _intersect_lists else a

    lg, rg = (_germ_op_cached(a._germ(side), b._germ(side), op) for side in _SIDES)

    pts = a._finite_endpoints() + b._finite_endpoints() or [Fraction(0)]
    inner_lo = min(pts) - 1
    inner_hi = max(pts) + 1

    window = op(a.materialize(inner_lo, inner_hi), b.materialize(inner_lo, inner_hi))
    return _assemble(window, lg, rg, inner_lo, inner_hi)


def _assemble(window_pieces: Tuple[Interval, ...], lgerm, rgerm,
              lo: Fraction, hi: Fraction) -> RealSet:
    """Combine a window trace with germ behaviour outside [lo, hi]; a full
    germ's half-line is closed at the window edge."""
    core = list(window_pieces)
    tails = _place_germs(core, (lgerm, rgerm), (lo, hi), True)
    return _canonical(tuple(core), *tails)


def _misread(pattern: Sequence[Interval], period: Fraction) -> bool:
    """True when `_pattern_reduce_cached`'s `>=` test reads the pattern as
    the full germ without computing its trace (ROADMAP item 1)."""
    return any(iv.hi - iv.lo >= period for iv in pattern)


def misread_tail(tail: PeriodicTail) -> bool:
    """True when `_misread` flags the germ that a raw tail's pattern reduces
    to; `union_all` folds a union with that tail pairwise."""
    germ = _pattern_reduce(tail.pattern, tail.period)
    return germ[0] == "per" and _misread(germ[1], germ[2])


def union_all(sets: Iterable[RealSet]) -> RealSet:
    """The union of the sets: the RealSet that folding RealSet.union over
    them gives.  Tail-free operands take one merge of all their pieces, and
    operands with at most one tail on each side one canonicalization of all
    their cores and those tails.  Two tails on one side, or a tail whose
    pattern `_misread` flags, take the pairwise fold: its answer combines
    the germs, and for a flagged pattern it differs from the one-pass
    answer."""
    sets = [s for s in sets if not s.is_empty]
    if len(sets) == 1:
        return sets[0]
    ltails = [s.left_tail for s in sets if s.left_tail is not None]
    rtails = [s.right_tail for s in sets if s.right_tail is not None]
    cores = tuple(iv for s in sets for iv in s.core)
    if not ltails and not rtails:
        return _flat(merge_intervals(cores))
    if len(ltails) > 1 or len(rtails) > 1 or \
            any(_misread(t.pattern, t.period) for t in ltails + rtails):
        out = EMPTY
        for s in sets:
            out = out.union(s)
        return out
    return _canonical(cores, ltails[0] if ltails else None, rtails[0] if rtails else None)


def union_of_translates(seed: RealSet, period: Fraction,
                        k_min: Optional[int] = None, k_max: Optional[int] = None) -> RealSet:
    """The union of the translates seed + k*period over k_min <= k <= k_max,
    where a bound of None is unbounded; the seed must be nonempty, bounded
    and tail-free.  Every range has a closed form:

    - a finite range is the merge of its translates;
    - over all indices the union is periodic: `REALS` when the seed's
      translates fill [0, period), else the one tail pair cut at 0 that
      `_canonical` gives a fully periodic set;
    - over k >= k_min the union U agrees with the seed's germ G past
      hi + (k_min - 1)*period, where hi is the seed's sup, and G - U meets
      [a - period, a) for a = lo + k_min*period; so the canonical cut is the
      end of the last piece of G - U on [a - 2*period, hi + k_min*period],
      and U is its trace below the cut plus G laid past it by `_place_germs`
      (a tail or, for a full germ, a half-line).  k <= k_max is the mirror image.

    For a range with an unbounded side, the patterns that `_misread` flags
    are laid out on a window instead: their answers hold the window's
    edges, the defect of ROADMAP item 1.  That window is to be deleted when
    item 1 is mended."""
    core = seed.core
    lo_v, hi_v = core[0].lo, core[-1].hi
    if k_min is not None and k_max is not None:
        return _flat(merge_intervals(iv.shift(k * period)
                                     for k in range(k_min, k_max + 1) for iv in core))
    germ = _pattern_reduce(core, period)
    zero = Fraction(0)
    if germ[0] == "per":
        closed_form = not _misread(germ[1], germ[2])
    else:
        trace = _clip(_periodize(core, period, zero, period), zero, period, True, False)
        closed_form = trace == (Interval(zero, period, True, False),)
    if closed_form:
        if k_min is None and k_max is None:
            return REALS if germ == _FULL_GERM else _fully_periodic(germ)
        if k_max is None:
            w_lo, w_hi = lo_v + (k_min - 2) * period, hi_v + k_min * period
        else:
            w_lo, w_hi = lo_v + k_max * period, hi_v + (k_max + 2) * period
        window = _periodize(core, period, w_lo, w_hi, k_min, k_max)
        diff = _symdiff_lists(_germ_trace(germ, w_lo, w_hi), window)
        if k_max is None:
            cut = diff[-1].hi
            part, germs = list(_clip(window, w_lo, cut)), (_EMPTY_GERM, germ)
        else:
            cut = diff[0].lo
            part, germs = list(_clip(window, cut, w_hi)), (germ, _EMPTY_GERM)
        tails = _place_germs(part, germs, (cut, cut), False)
        return RealSet(merge_intervals(part), *tails)
    span = hi_v - lo_v
    # a full germ's half-line starts at the window edge, so these edges are
    # part of the answers for the patterns that _pattern_reduce_cached's
    # `>=` test misreads as full
    if k_min is None and k_max is None:
        lo_w = lo_v - 2 * period - span - 2
        hi_w = hi_v + 2 * period + span + 2
    else:
        lo_w = lo_v + (k_min if k_min is not None else k_max - 4) * period - 1
        hi_w = hi_v + (k_max if k_max is not None else k_min + 4) * period + 1
    window = _periodize(core, period, lo_w, hi_w, k_min, k_max)
    return _assemble(window, germ if k_min is None else _EMPTY_GERM,
                     germ if k_max is None else _EMPTY_GERM, lo_w, hi_w)


def affine_image(a: RealSet, slope: Fraction, intercept: Fraction) -> RealSet:
    """Image of the set under x -> slope*x + intercept (slope may be 0)."""
    if slope == 0:
        return EMPTY if a.is_empty else point(intercept)
    if a.left_tail is None and a.right_tail is None:
        return a if slope == 1 and intercept == 0 else \
            _flat(_affine_core(a.core, slope, intercept))
    core = _affine_core(a.core, slope, intercept)
    ltail = a.left_tail
    rtail = a.right_tail
    new_l = new_r = None
    for tail, side in ((ltail, "left"), (rtail, "right")):
        if tail is None:
            continue
        new_period = abs(slope) * tail.period
        pieces = _affine_core(tail.pattern, slope, intercept)
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


def _affine_core(pieces: Tuple[Interval, ...], slope: Fraction,
                 intercept: Fraction) -> Tuple[Interval, ...]:
    """The image of disjoint, ordered pieces under x -> slope*x + intercept
    (slope != 0), piece by piece.  A bijection keeps the pieces apart and
    their flags, so a canonical core maps to a canonical core: in order for
    slope > 0, in reverse order with each piece's ends swapped for slope < 0.
    An infinite end stays infinite (its sign flips with the slope) and is
    never mixed with a Fraction, which would go through float()."""
    up, unit = slope > 0, slope == 1

    def f(v):
        if not is_finite(v):
            return v if up else -v
        return v + intercept if unit else v * slope + intercept
    if up:
        return tuple(_mk(f(iv.lo), f(iv.hi), iv.lo_closed, iv.hi_closed) for iv in pieces)
    return tuple(_mk(f(iv.hi), f(iv.lo), iv.hi_closed, iv.lo_closed)
                 for iv in reversed(pieces))


# ---------------------------------------------------------------------------
# closure / interior per TopologyKind
# ---------------------------------------------------------------------------

def _close_rule(lo: bool, hi: bool) -> Callable[[Interval], Interval]:
    """The closure of one piece that closes its lower end when `lo` says so
    and its upper end when `hi` does, each only where it is finite."""
    return lambda iv: _reflag(iv, iv.lo_closed or lo and iv._sk[0] != NEG_INF,
                              iv.hi_closed or hi and iv._ek[0] != POS_INF)


def _open_rule(lo: bool, hi: bool) -> Callable[[Interval], Optional[Interval]]:
    """The interior of one piece that opens its lower end when `lo` says so
    and its upper end when `hi` does; a point has none."""
    return lambda iv: None if iv._sk == iv._ek else \
        _reflag(iv, iv.lo_closed and not lo, iv.hi_closed and not hi)


# (lower, upper): the ends of a piece that each piecewise kind's closure
# closes; its interior opens the reversed pair
_CLOSES = {TopologyKind.NAT: (True, True), TopologyKind.SORG_R: (True, False),
           TopologyKind.SORG_L: (False, True)}
_LOCAL_RULES = {**{(k, "close"): _close_rule(lo, hi) for k, (lo, hi) in _CLOSES.items()},
                **{(k, "open"): _open_rule(hi, lo) for k, (lo, hi) in _CLOSES.items()}}


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
        return _flat(merge_intervals(out))

    def germ_rule(germ):
        if germ[0] != "per":
            return germ
        pat, p = germ[1], germ[2]
        occ = _periodize(pat, p, -p - reach, 2 * p + reach)
        out = [r for r in map(rule, occ) if r is not None]
        return _pattern_reduce(_clip(merge_intervals(out), Fraction(0), p, True, False), p)

    lg, rg = (germ_rule(a._germ(side)) for side in _SIDES)

    pts = a._finite_endpoints()
    margin = reach + 1
    inner_lo = min(pts) - margin
    inner_hi = max(pts) + margin
    outer = a.materialize(inner_lo - margin, inner_hi + margin)
    out = [r for r in map(rule, outer) if r is not None]
    window = _clip(merge_intervals(out), inner_lo, inner_hi)
    return _assemble(window, lg, rg, inner_lo, inner_hi)


def _ray(edge: Fraction, up: bool, closed: bool) -> RealSet:
    """The half-line from the finite `edge` up to +inf when `up` says so,
    else down to -inf, closed at the edge when `closed` says so."""
    f, r = _lead(edge)
    if up:
        iv = _raw(edge, POS_INF, closed, False, (f, r, 0 if closed else 1), _POS_END, _POS_GAP)
    else:
        ek, gk = ((f, r, 0), (f, r, 1)) if closed else ((f, r, -1), (f, r, 0))
        iv = _raw(NEG_INF, edge, False, closed, _NEG_GAP, ek, gk)
    return _flat((iv,))


def _closure(a: RealSet, kind: TopologyKind) -> RealSet:
    if kind is TopologyKind.DISCRETE:
        return a
    if kind is TopologyKind.UPPER or kind is TopologyKind.LOWER:
        # the ray from the set's inf up, or from its sup down
        if a.is_empty:
            return EMPTY
        up = kind is TopologyKind.UPPER
        m = a.inf_value() if up else a.sup_value()
        return _ray(m, up, True) if is_finite(m) else REALS
    return apply_local(a, _LOCAL_RULES[(kind, "close")])


def _interior(a: RealSet, kind: TopologyKind) -> RealSet:
    if kind is TopologyKind.DISCRETE:
        return a
    if kind is TopologyKind.UPPER or kind is TopologyKind.LOWER:
        # int A is the complement of the closure of the complement
        return _closure(a.complement(), kind).complement()
    rule = _LOCAL_RULES[(kind, "open")]
    if a.left_tail is None and a.right_tail is None:
        # the pieces only shrink, so they stay sorted and apart
        return _flat(tuple(r for r in map(rule, a.core) if r is not None))
    return apply_local(a, rule)
