"""Finitely presented families of RealSets and essential-finiteness decisions.

A family is Finite, Periodic (translates of a seed), a Split along a cut
point, a Restricted view of another family, or a dense Fan of rays.
Every decision is a loop over one normal form, a tuple of (base, window)
pieces whose union is the family: the base is a FiniteFamily, Periodic or
Fan, and every member of the base is clipped to the window (None for an
unrestricted piece).  A Split gives one piece per side of its cut and nested
Restricted windows intersect; `_pieces` is the only code that tells the
shapes apart.  Each base shape answers one protocol on a piece's window w:
`union()`, `members_on(w)`, `probes(w)`, `essfin(k)` and
`fails_on_base(schema, ends, w)`; every shape has `pullback(s, c)`.

Periodic seeds are either bounded (all members are translates of one bounded
set) or a single half-line (the members are nested rays); these shapes give
exact closed forms for every essential-finiteness question the corpus asks.
The union and essential finiteness of nested rays and fans are written for
rays down: a shape with rays up is decided through its mirror image under
x -> -x (member k of a periodic family becomes member -k), which its
constructor builds.  EF(B), essential finiteness on every element of a
bornology's base (`ess_finite_on_all_base`, behind `ef_member` and every
line's cover condition), is one closed form for every family shape, fans
included: no base element is swept.

Essential countability needs no operator here: every representable family
is countable (finitely many members, integer-indexed translates, or
rational-indexed rays), so membership in the essentially countable
families is uniformly true and is recorded rather than implemented.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Tuple, Union

from gtsreal.realset import (
    EMPTY,
    NEG_INF,
    POS_INF,
    REALS,
    Bounds,
    ConstructionError,
    RealSet,
    TopologyKind,
    _lcm_frac,
    _translate_range,
    affine_image,
    interval,
    rat,
    union_all,
    union_of_translates,
)


class PreconditionError(ValueError):
    """A stated precondition was violated; carries the witness."""


def _mirror(a: RealSet) -> RealSet:
    """The image of a under the mirror x -> -x."""
    return affine_image(a, -1, 0)


def _pull(a: RealSet, s: Fraction, c: Fraction) -> RealSet:
    """The preimage of a under x -> s*x + c (s > 0)."""
    return affine_image(a, 1 / s, -c / s)


# ---------------------------------------------------------------------------
# family specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndexRange:
    lo: Optional[int] = None   # None = -infinity
    hi: Optional[int] = None   # None = +infinity

    def __post_init__(self):
        if any(k is not None and type(k) is not int for k in (self.lo, self.hi)):
            raise ConstructionError(f"index bounds must be ints, not {self.lo!r}, {self.hi!r}")
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ConstructionError("empty index range")

    @property
    def is_finite(self) -> bool:
        return self.lo is not None and self.hi is not None

    def indices(self):
        if not self.is_finite:
            raise ConstructionError("cannot enumerate an infinite index range")
        return range(self.lo, self.hi + 1)

    def clamp(self, k_lo: int, k_hi: int) -> range:
        """The indices of this range between k_lo and k_hi inclusive."""
        if self.lo is not None:
            k_lo = max(k_lo, self.lo)
        if self.hi is not None:
            k_hi = min(k_hi, self.hi)
        return range(k_lo, k_hi + 1)

    def mirrored(self) -> "IndexRange":
        """The indices -k for k in this range."""
        return IndexRange(None if self.hi is None else -self.hi,
                          None if self.lo is None else -self.lo)

    def __str__(self):
        if self.lo is None and self.hi is None:
            return "all"
        if self.hi is None:
            return f"from({self.lo})"
        if self.lo is None:
            return f"upto({self.hi})"
        return f"span({self.lo},{self.hi})"


ALL_INDICES = IndexRange()


class _Family:
    """What a family of any shape answers by itself.  Each shape also has
    pullback(s, c), the family of preimages under x -> s*x + c (s > 0)."""

    def restrict(self, y: RealSet) -> "FamilySpec":
        return Restricted(self, y)

    def truncated(self, k0: int, k1: int) -> Optional[list[RealSet]]:
        """Members k0..k1 of each periodic piece and every member of the
        other pieces, or None when one of those is not enumerable."""
        return members(self, (k0, k1))


class _Sided(_Family):
    """A periodic family or a fan.  Its union and essential finiteness are
    written for rays down (or a bounded seed) as `_union_down` and
    `_essfin_down`; a shape with rays up reads both off `_image`, its mirror
    image, mirrored back (an obstruction still names the shape's own side).
    Its members, probes and base test need no side."""

    _image = None

    def union(self) -> RealSet:
        if self._image is None:
            return self._union_down()
        return _mirror(self._image._union_down())

    def essfin(self, k: RealSet) -> EssFinVerdict:
        if self._image is None:
            return self._essfin_down(k)
        v = self._image._essfin_down(_mirror(k))
        if not v:
            return EssFinVerdict(False, None, self.obstruction)
        return EssFinVerdict(True, tuple(map(_mirror, reversed(v.witness))))


@dataclass(frozen=True)
class FiniteFamily(_Family):
    members_tuple: Tuple[RealSet, ...]

    def union(self) -> RealSet:
        return union_all(self.members_tuple)

    def members_on(self, w: Optional[RealSet], span=None) -> list[RealSet]:
        return _clip_all(self.members_tuple, w)

    probes = members_on   # every member is listed, so every member is probed

    def essfin(self, k: RealSet) -> EssFinVerdict:
        return EssFinVerdict(True, self.members_tuple)

    def fails_on_base(self, schema, ends, w: Optional[RealSet]) -> bool:
        return False

    def restrict(self, y: RealSet) -> "FiniteFamily":
        return finite_family(m.intersect(y) for m in self.members_tuple)

    def pullback(self, s: Fraction, c: Fraction) -> "FiniteFamily":
        return finite_family(_pull(m, s, c) for m in self.members_tuple)

    def __str__(self):
        return "finite{%s}" % ", ".join(sorted(str(m) for m in self.members_tuple))


@dataclass(frozen=True)
class Periodic(_Sided):
    seed: RealSet
    period: Fraction
    index_range: IndexRange = ALL_INDICES

    def __post_init__(self):
        object.__setattr__(self, "period", rat(self.period))
        if self.period <= 0:
            raise ConstructionError("period must be positive")
        if self.seed.is_empty:
            raise ConstructionError("seed must be nonempty")
        if self.seed.left_tail is not None or self.seed.right_tail is not None:
            raise ConstructionError("seed must be tail-free")
        b = self.seed.boundedness()
        if not b.bounded and (len(self.seed.core) != 1
                              or not (b.bounded_below or b.bounded_above)):
            raise ConstructionError(
                "seed must be bounded or a single half-line (nested family)")
        if not b.bounded_above:
            object.__setattr__(self, "_image", Periodic(
                _mirror(self.seed), self.period, self.index_range.mirrored()))

    def member(self, k: int) -> RealSet:
        return self.seed.shift(k * self.period)

    def _union_down(self) -> RealSet:
        rng = self.index_range
        if self.seed.boundedness().bounded:
            return union_of_translates(self.seed, self.period, rng.lo, rng.hi)
        return REALS if rng.hi is None else self.member(rng.hi)

    def _span(self, lo: Fraction, hi: Fraction) -> Tuple[int, int]:
        """(k_lo, k_hi), before clamping to the index range, such that every
        member k outside it meets [lo, hi] trivially: not at all for a bounded
        seed, in the whole of [lo, hi] or not at all for nested rays."""
        if self.seed.boundedness().bounded:
            return _translate_range(self.seed.core, self.period, lo, hi)
        edge, = self.seed._finite_endpoints()
        return (math.floor((lo - edge) / self.period) - 2,
                math.ceil((hi - edge) / self.period) + 2)

    def members_on(self, w: Optional[RealSet],
                   span: Optional[Tuple[int, int]] = None) -> Optional[list[RealSet]]:
        """The members on w, or only members k0..k1 for span (k0, k1)."""
        rng = self.index_range
        if span is not None:
            ks = rng.clamp(*span)
        elif rng.is_finite:
            ks = rng.indices()
        elif w is None or not w.boundedness().bounded:
            return None
        else:
            ks = rng.clamp(*self._span(w.inf_value(), w.sup_value()))
        return _clip_all(map(self.member, ks), w)

    def probes(self, w: Optional[RealSet]) -> list[RealSet]:
        """Members on w that decide a shape predicate for all of them.

        An enumerable piece lists every member.  Without a window all members
        are translates of each other, so one decides.  Between two
        consecutive finite endpoints of w (core endpoints and tail cuts) a
        member that meets neither is a whole translate or empty (bounded
        seed) or has one shape (nested rays), so the members that meet an
        endpoint, plus the first in each gap, decide that part.  Past the last
        endpoint on either side w is empty, full or periodic, and member k + r
        repeats the shapes of member k, where r * period is a common period of
        the family and that side of w; two such runs are probed."""
        got = self.members_on(w)
        if got is not None:
            return got
        rng = self.index_range
        if w is None:
            k = rng.hi if rng.lo is None else rng.lo
            return [self.member(0 if k is None else k)]
        pts = w._finite_endpoints() or [Fraction(0)]
        ks = {k for k in (rng.lo, rng.hi) if k is not None}
        for e in pts:
            ks.update(rng.clamp(*self._span(e, e)))

        def reps(tail) -> int:
            if tail is None:
                return 2
            return 2 * int(_lcm_frac(self.period, tail.period) / self.period)

        k_lo = self._span(min(pts), min(pts))[0]
        k_hi = self._span(max(pts), max(pts))[1]
        last = k_lo - 1 if rng.hi is None else min(k_lo - 1, rng.hi)
        first = k_hi + 1 if rng.lo is None else max(k_hi + 1, rng.lo)
        ks.update(rng.clamp(last - reps(w.left_tail) + 1, last))
        ks.update(rng.clamp(first, first + reps(w.right_tail) - 1))
        return _clip_all(map(self.member, sorted(ks)), w)

    def _essfin_down(self, k_set: RealSet) -> EssFinVerdict:
        rng = self.index_range
        trace = k_set.intersect(union_of(self))
        if trace.is_empty:
            return EssFinVerdict(True, ())
        if rng.is_finite:
            return EssFinVerdict(True, tuple(map(self.member, rng.indices())))
        b = trace.boundedness()
        if self.seed.boundedness().bounded:
            if not b.bounded:
                return EssFinVerdict(False, None, self.obstruction)
            ks = rng.clamp(*self._span(trace.inf_value(), trace.sup_value()))
            return EssFinVerdict(True, tuple(map(self.member, ks)))
        if rng.hi is None and not b.bounded_above:
            return EssFinVerdict(False, None, self.obstruction)
        # the last member, or else a ray that ends a period past sup(trace)
        k = rng.hi if rng.hi is not None else \
            math.ceil((trace.sup_value() - self.seed.core[0].hi) / self.period) + 1
        return EssFinVerdict(True, (self.member(k),))

    @property
    def obstruction(self) -> str:
        """Why a trace defeats essential finiteness."""
        b = self.seed.boundedness()
        if b.bounded:
            return "trace K n UF is unbounded while every member is bounded"
        side = "above" if b.bounded_above else "below"
        return f"trace unbounded {side} while the nested members are all bounded {side}"

    def fails_on_base(self, schema, ends, w: Optional[RealSet]) -> bool:
        """A periodic piece fails only on a side on which the base is free
        (the B_n are unbounded there) and its window n union, but no member,
        is unbounded."""
        free_below, free_above = (e is End.FREE for e in ends)
        if not (free_below or free_above):
            return False
        u = union_of(self if w is None else Restricted(self, w)).boundedness()
        s = self.seed.boundedness()
        return (free_below and s.bounded_below and not u.bounded_below) or \
            (free_above and s.bounded_above and not u.bounded_above)

    def pullback(self, s: Fraction, c: Fraction) -> "Periodic":
        return Periodic(_pull(self.seed, s, c), self.period / s, self.index_range)

    def __str__(self):
        return f"periodic(seed={self.seed}, p={self.period}, {self.index_range})"


@dataclass(frozen=True)
class Split(_Family):
    """Members of `left` clipped to (-inf, cut), of `right` to [cut, +inf)."""

    cut: Fraction
    left: "FamilySpec"
    right: "FamilySpec"

    def __post_init__(self):
        object.__setattr__(self, "cut", rat(self.cut))

    def pullback(self, s: Fraction, c: Fraction) -> "Split":
        return Split((self.cut - c) / s, self.left.pullback(s, c), self.right.pullback(s, c))

    def __str__(self):
        return f"split({self.cut}; {self.left}; {self.right})"


@dataclass(frozen=True)
class Restricted(_Family):
    base: "FamilySpec"
    window: RealSet

    def pullback(self, s: Fraction, c: Fraction) -> "Restricted":
        return Restricted(self.base.pullback(s, c), _pull(self.window, s, c))

    def __str__(self):
        return f"restricted({self.base}; {self.window})"


@dataclass(frozen=True)
class Fan(_Sided):
    """Dense nested fan of rays: {(-inf, q) : q rational, lo < q < hi} when
    side is "down", {(q, +inf) : ...} when side is "up".

    No finite subfamily reaches the accumulation bound, so the fan is the
    canonical witness against smallness of bounded sets that cluster at hi
    (resp. lo); it is not locally essentially finite there.
    """

    lo: Fraction
    hi: Fraction
    side: str = "down"

    def __post_init__(self):
        object.__setattr__(self, "lo", rat(self.lo))
        object.__setattr__(self, "hi", rat(self.hi))
        if self.side not in ("down", "up"):
            raise ConstructionError("fan side must be 'down' or 'up'")
        if not self.lo < self.hi:
            raise ConstructionError("fan needs lo < hi")
        if self.side == "up":
            object.__setattr__(self, "_image", Fan(-self.hi, -self.lo))

    def member(self, q: Fraction) -> RealSet:
        """The ray ending (side "down") or starting (side "up") at q: the
        union of the rays, moved from the edge to q."""
        return self.union().shift(q - self.edge)

    @property
    def edge(self) -> Fraction:
        """The accumulation bound, where the union of the rays ends."""
        return union_of(self)._finite_endpoints()[0]

    def _union_down(self) -> RealSet:
        return interval(NEG_INF, self.hi)

    def members_on(self, w: Optional[RealSet], span=None) -> None:
        return None

    def probes(self, w: Optional[RealSet]) -> list[RealSet]:
        """Members on w that decide a shape predicate for all of them.  The
        member for q changes shape only where q crosses an endpoint of w, so
        every endpoint of w inside (lo, hi) is probed, and one q strictly
        between each two consecutive ones; the middle of (lo, hi) goes first."""
        mid = (self.lo + self.hi) / 2
        if w is None:
            return [self.member(mid)]
        cuts = sorted({x for iv in w.materialize(self.lo, self.hi) for x in (iv.lo, iv.hi)
                       if self.lo < x < self.hi})
        bounds = [self.lo] + cuts + [self.hi]
        qs = [mid] + cuts + [(a + b) / 2 for a, b in zip(bounds, bounds[1:])]
        return _clip_all(map(self.member, qs), w)

    def _essfin_down(self, k_set: RealSet) -> EssFinVerdict:
        trace = k_set.intersect(union_of(self))
        if trace.is_empty:
            return EssFinVerdict(True, ())
        s = trace.sup_value()
        if s >= self.hi:
            return EssFinVerdict(False, None, self.obstruction)
        return EssFinVerdict(True, (self.member((max(self.lo, s) + self.hi) / 2),))

    @property
    def obstruction(self) -> str:
        return f"trace accumulates at {self.edge} but every ray stops short of it"

    def fails_on_base(self, schema, ends, w: Optional[RealSet]) -> bool:
        """A fan piece fails only when its trace accumulates at the edge; the
        traces grow with n, so the stable trace B_n n [edge - 1, edge + 1] of
        large n decides."""
        e = self.edge
        return not self.essfin(_meet(w, schema.stable_trace(e - 1, e + 1)))

    def pullback(self, s: Fraction, c: Fraction) -> "Fan":
        return Fan((self.lo - c) / s, (self.hi - c) / s, self.side)

    def __str__(self):
        return f"fan({self.side}; {self.lo}, {self.hi})"


FamilySpec = Union[FiniteFamily, Periodic, Split, Restricted, Fan]


def finite_family(members: Iterable[RealSet]) -> FiniteFamily:
    return FiniteFamily(tuple(_dedupe(members)))


@dataclass(frozen=True)
class EssFinVerdict:
    essentially_finite: bool
    witness: Optional[Tuple[RealSet, ...]] = None
    obstruction: Optional[str] = None

    def __bool__(self):
        return self.essentially_finite

    def __str__(self):
        if self.essentially_finite:
            return f"essentially_finite witness_size={len(self.witness or ())}"
        return f"not essentially finite: {self.obstruction}"


# ---------------------------------------------------------------------------
# the normal form: (base, window) pieces
# ---------------------------------------------------------------------------

Piece = Tuple[Union[FiniteFamily, Periodic, Fan], Optional[RealSet]]


def _pieces(f: FamilySpec, window: Optional[RealSet] = None) -> Tuple[Piece, ...]:
    """The normal form of f: (base, window) pieces whose union is f.

    A Split gives one piece per side of its cut, nested Restricted windows
    intersect, window None leaves a piece unrestricted, and an empty window
    leaves it out (it holds nothing)."""
    if isinstance(f, Split):
        lw, rw = interval(NEG_INF, f.cut), interval(f.cut, POS_INF, True, False)
        return _pieces(f.left, _meet(window, lw)) + _pieces(f.right, _meet(window, rw))
    if isinstance(f, Restricted):
        return _pieces(f.base, _meet(window, f.window))
    if isinstance(f, (FiniteFamily, Periodic, Fan)):
        return () if window is not None and window.is_empty else ((f, window),)
    raise TypeError(f)


def _meet(window: Optional[RealSet], w: RealSet) -> RealSet:
    return w if window is None else window.intersect(w)


def _clip_all(sets: Iterable[RealSet], w: Optional[RealSet]) -> list[RealSet]:
    """The nonempty traces of sets on the window w (None: no window)."""
    if w is not None:
        sets = (m.intersect(w) for m in sets)
    return [m for m in sets if not m.is_empty]


def _dedupe(items: Iterable[RealSet]) -> list[RealSet]:
    """The items without repeats, each at its first occurrence.  A RealSet
    hashes through its order keys, so this is linear in the items: 20,001
    members take 0.02 s, where an equality scan is quadratic.  On short
    lists the scan is a little faster: over the corpus battery's 2403 calls
    (at most 8 items each) it takes 2.5 ms and this 3.0 ms (best of 15,
    Python 3.11, 2-core host)."""
    return list(dict.fromkeys(items))


# ---------------------------------------------------------------------------
# decisions: loops over the pieces
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1024)
def union_of(f: FamilySpec) -> RealSet:
    """Exact union of all members, memoized by value."""
    return union_all(_meet(w, base.union()) for base, w in _pieces(f))


def members(f: FamilySpec, span: Optional[Tuple[int, int]] = None) -> Optional[list[RealSet]]:
    """Distinct nonempty members, or None when not finitely enumerable; with
    span (k0, k1) a periodic piece gives only its members k0..k1."""
    out = []
    for base, w in _pieces(f):
        got = base.members_on(w, span)
        if got is None:
            return None
        out += got
    return _dedupe(out)


@functools.lru_cache(maxsize=1024)
def ess_finite_on(f: FamilySpec, k_set: RealSet) -> EssFinVerdict:
    """Exact essential-finiteness decision on k_set, with a verified witness,
    memoized by value (families and sets are frozen, so equal keys give equal
    answers; an exception is not cached)."""
    verdict = _essfin(f, k_set)
    if verdict.essentially_finite:
        trace = k_set.intersect(union_of(f))
        if not trace.is_subset(union_all(verdict.witness or ())):
            raise AssertionError("internal: witness fails to cover the trace")
    return verdict


def _essfin(f: FamilySpec, k_set: RealSet) -> EssFinVerdict:
    """f is essentially finite on k_set iff every piece is essentially finite
    on k_set n window; the witness is the union of the clipped witnesses."""
    witness = []
    for base, w in _pieces(f):
        v = base.essfin(_meet(w, k_set))
        if not v:
            return v
        witness += v.witness if w is None else _clip_all(v.witness, w)
    return EssFinVerdict(True, tuple(witness))


def ess_finite(f: FamilySpec) -> EssFinVerdict:
    return ess_finite_on(f, union_of(f))


def restrict_family(f: FamilySpec, y: RealSet) -> FamilySpec:
    """The family {U n Y : U in f}."""
    return f if y.is_reals else f.restrict(y)




# ---------------------------------------------------------------------------
# full rings and generated topologies
# ---------------------------------------------------------------------------

def sort_key(rs: RealSet) -> str:
    return str(rs)


class _Atoms:
    """The atoms of finitely many sets: their nonempty Venn regions.

    Every union and intersection of the sets is a union of atoms, so it is
    an int bitmask with bit t for atom t: a union is |, an intersection &,
    v.is_subset(u) is v & ~u == 0 and the empty set is 0 (Birkhoff, "Rings
    of sets", 1937).  `set` turns a mask back into a RealSet, `key` gives its
    sort_key and `family` a family of masks as RealSets, each memoized; an
    algebra serves one ring or one generation chain and goes with it."""

    def __init__(self, sets: Iterable[RealSet]):
        gens = list(dict.fromkeys(sets))
        atoms, sigs = [], []   # sigs[t]: bit j set iff atom t lies in gens[j]
        covered = EMPTY
        for j, g in enumerate(gens):
            split = []
            for t, a in enumerate(atoms):
                inside = a.intersect(g)
                if not inside.is_empty:
                    if inside != a:
                        atoms[t] = inside
                        split.append((a.difference(g), sigs[t]))
                    sigs[t] |= 1 << j
            for a, sig in split + [(g.difference(covered), 1 << j)]:
                if not a.is_empty:
                    atoms.append(a)
                    sigs.append(sig)
            covered = covered.union(g)
        self.atoms = atoms
        gen_masks = [sum(1 << t for t, sig in enumerate(sigs) if sig >> j & 1)
                     for j in range(len(gens))]
        # meets[t]: the smallest intersection of the sets that holds atom t
        self.meets = [functools.reduce(operator.and_, (g for j, g in enumerate(gen_masks)
                                                       if sig >> j & 1)) for sig in sigs]
        self.mask = dict(zip(gens, gen_masks))
        known = {m: g for g, m in self.mask.items()}
        to_set = self.set = functools.cache(lambda m: known[m] if m in known else union_all(
            a for t, a in enumerate(atoms) if m >> t & 1))
        self.key = functools.cache(lambda m: sort_key(to_set(m)))
        self.family = functools.cache(lambda fam: frozenset(map(to_set, fam)))


def full_ring_closure(generators: Sequence[RealSet], y: RealSet) -> list[RealSet]:
    """L_Y[A]: least collection containing A, empty, Y closed under finite
    unions and intersections, sorted by sort_key.  The atoms of Y and A
    partition Y, and an intersection of members of A and Y is the union of
    the meets of its atoms, so the ring is listed as the OR-closure of the
    meets, at one RealSet union per ring member."""
    for g in generators:
        if not g.is_subset(y):
            raise PreconditionError(f"generator {g} is not a subset of Y={y}")
    alg = _Atoms([y, *generators])
    ring = {0: EMPTY}
    for m in set(alg.meets):
        s = alg.set(m)
        for x, xs in list(ring.items()):
            if x | m not in ring:
                ring[x | m] = xs.union(s)
    return sorted(ring.values(), key=sort_key)


def gen_topology(generators: Sequence[RealSet]) -> list[RealSet]:
    """tau(A) for finitely many generators: all unions of finite
    intersections, i.e. the full ring over the whole line."""
    return full_ring_closure(generators, REALS)


def gen_topology_member(generators: Sequence[RealSet], u: RealSet) -> bool:
    """u in tau(A) without listing it: u is a union of atoms of A and the
    line, and the meet of every atom inside u lies inside u."""
    alg = _Atoms([REALS, *generators])
    inside = [a.intersect(u) for a in alg.atoms]
    if any(i != a and not i.is_empty for i, a in zip(inside, alg.atoms)):
        return False
    m = sum(1 << t for t, i in enumerate(inside) if not i.is_empty)
    return all(meet & ~m == 0 for t, meet in enumerate(alg.meets) if m >> t & 1)


# ---------------------------------------------------------------------------
# EF(L, B) membership
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1024)
def is_open_in(a: RealSet, kind: TopologyKind) -> bool:
    """Is a open in kind?  Memoized by value: the battery asks the same
    (set, topology) pair for every line of that topology, 64 distinct pairs
    287 times, and eval documents 40..1839 ask 1653 distinct pairs 3016
    times (1280 hits in 1024 entries)."""
    return a.interior(kind) == a


def violating_member(f: FamilySpec, pred) -> Optional[RealSet]:
    """None when every member of f satisfies pred; otherwise the first of
    each piece's `probes` that does not.  Unless f is finitely enumerable,
    pred must be translation-stable and see only the shape of a set, as the
    open tests of every line are."""
    for base, w in _pieces(f):
        for m in _probes(base, w):
            if not pred(m):
                return m
    return None


@functools.lru_cache(maxsize=1024)
def _probes(base, w: Optional[RealSet]) -> Tuple[RealSet, ...]:
    """The probes of one piece, memoized by value like `union_of`: the
    battery tests the same families against many lines, 15 distinct pieces
    211 times, and eval documents 40..1839 ask 974 distinct pieces 1786
    times."""
    return tuple(base.probes(w))


class End(Enum):
    """How one side of a monotone base B_n ends as n grows; a schema's
    `ends` give it for the lower and the upper side."""

    FREE = "free"      # B_n is unbounded on that side
    MOVING = "moving"  # the end moves out without bound (alpha + beta * n with
                       # beta != 0, or a metric ball's end): a member is
                       # bounded on that side
    FIXED = "fixed"    # a constant c with its closed flag: a member lies
                       # inside B_n, read off its stable trace


def bounded_on(ends: Tuple[End, End], b: Bounds) -> bool:
    """Do the boundedness flags b bound each side whose end is not free?"""
    lo, hi = ends
    return (lo is End.FREE or b.bounded_below) and (hi is End.FREE or b.bounded_above)


def ess_finite_on_all_base(f: FamilySpec, schema) -> bool:
    """Is f essentially finite on every element B_n of the monotone base
    `schema` (a `lines.BaseSchema`: its `ends` and `stable_trace`)?  Exactly
    when no piece `fails_on_base`.  The ends are read once, before any piece,
    and handed to every piece: a base that cannot tell them (the balls of a
    float_paper metric) raises here for every family, as its members do."""
    ends = schema.ends
    return not any(base.fails_on_base(schema, ends, w) for base, w in _pieces(f))


def ef_member(f: FamilySpec, l_kind: TopologyKind, bornology) -> bool:
    """Membership in EF(L, B): every member is open in the topology l_kind
    and the family is essentially finite on every base element of the
    bornology."""
    if not isinstance(l_kind, TopologyKind):
        raise TypeError(f"L must be a TopologyKind, not {type(l_kind).__name__}")
    bad = violating_member(f, lambda a: is_open_in(a, l_kind))
    if bad is not None:
        raise PreconditionError(f"family member {bad} is outside L")
    schema = bornology.schema
    if schema is None:
        raise PreconditionError(f"bornology {bornology} supplies no indexed base")
    return ess_finite_on_all_base(f, schema)


# ---------------------------------------------------------------------------
# bounded generation engine for <Psi>
# ---------------------------------------------------------------------------

MAX_FAMILY_SIZE = 3   # a rule combines at most this many opens into a family
MAX_FAMILIES = 6000   # a collection with more families is marked truncated


@dataclass(frozen=True)
class GenerationResult:
    found: bool
    truncated: bool
    depth_used: int

    def __str__(self):
        extra = " truncated" if self.truncated else ""
        return f"found={str(self.found).lower()} depth={self.depth_used}{extra}"


@dataclass(frozen=True)
class CovCollection:
    """Materialized finite collection of finite families over a carrier."""

    carrier: RealSet
    families: frozenset
    opens: frozenset
    truncated: bool = False
    # (atoms, families, opens) as masks over the atoms of the chain that
    # made this collection; not part of its value
    _masks: Optional[tuple] = field(default=None, compare=False, repr=False)

    @staticmethod
    def from_specs(specs: Sequence[FamilySpec], carrier: RealSet = REALS) -> "CovCollection":
        fams = set()
        ops = set()
        for s in specs:
            mats = members(s)
            if mats is None:
                raise PreconditionError(
                    f"family {s} is not finitely enumerable; the generation "
                    f"engine works on materialized finite families")
            fam = frozenset(mats)
            fams.add(fam)
            ops.update(mats)
        return CovCollection(carrier, frozenset(fams), frozenset(ops))


def _masked(psi: CovCollection) -> tuple:
    """(atoms, families, opens) of psi as masks.  The rules make every set
    from the carrier, opens and members of psi by unions and intersections,
    so their atoms serve every later level."""
    if psi._masks is not None:
        return psi._masks
    alg = _Atoms([psi.carrier, *psi.opens, *itertools.chain(*psi.families)])
    return (alg, frozenset(frozenset(map(alg.mask.get, f)) for f in psi.families),
            frozenset(map(alg.mask.get, psi.opens)))


def _by_union(fams: Iterable[frozenset]) -> dict:
    """The families grouped by their union, each group in the given order."""
    out: dict = {}
    for fam in fams:
        out.setdefault(functools.reduce(operator.or_, fam, 0), []).append(fam)
    return out


def _open_combos(opens: Iterable[int]):
    """Every combo of 1 to MAX_FAMILY_SIZE opens, with its union."""
    for size in range(1, MAX_FAMILY_SIZE + 1):
        for combo in itertools.combinations(opens, size):
            yield combo, functools.reduce(operator.or_, combo)


def plus_step(psi: CovCollection, rule: str, max_opens: int = 48) -> CovCollection:
    """One bounded application of a single gts-axiom closure rule, decided
    on the atom masks of psi (see `_Atoms`).  When the rule adds no family
    and no open and leaves `truncated` as it was, the answer is psi itself,
    provided psi carries its masks; otherwise it is a new collection."""
    alg, old_fams, old_ops = _masked(psi)
    fams, ops = set(old_fams), set(old_ops)
    truncated = psi.truncated

    if rule == "finiteness":
        # axiom (i): finite unions/intersections of opens are open and every
        # finite family of opens is admissible
        ops.update((alg.mask[psi.carrier], 0))
        for combo, u in _open_combos(old_ops):
            ops.update((u, functools.reduce(operator.and_, combo)))
            fams.add(frozenset(m for m in combo if m))
        fams.add(frozenset())
    elif rule == "stability":
        # axiom (ii): intersect an admissible family with an open
        for fam in old_fams:
            for v in old_ops:
                fams.add(frozenset(x for x in (m & v for m in fam) if x))
    elif rule == "transitivity":
        # axiom (iii): replace each member by an admissible family unioning
        # to it; past 64 combos only the first candidate of each member is
        # taken, so the candidates keep a fixed (sorted) order
        by_union = _by_union(sorted(
            old_fams, key=lambda f: tuple(sorted(map(alg.key, f)))))
        for fam in old_fams:
            if not fam or any(m not in by_union for m in fam):
                continue
            choices = [by_union[m] for m in fam]
            if math.prod(len(c) for c in choices) > 64:
                choices = [c[:1] for c in choices]
                truncated = True
            # the union of each pick, one member's choices at a time
            merged = {frozenset()}
            for c in choices:
                merged = {p | g for p in merged for g in c}
            fams.update(frozenset(m for m in u if m) for u in merged)
    elif rule == "saturation":
        # axiom (iv): coarsen a family keeping the union and the refinement
        by_union = _by_union(old_fams)
        for combo, cu in _open_combos(old_ops):
            if any(all(any(v & ~u == 0 for u in combo) for v in fam)
                   for fam in by_union.get(cu, ())):
                fams.add(frozenset(m for m in combo if m))
    elif rule == "regularity":
        # axiom (v): glue a set along an admissible family
        by_union = _by_union(old_fams)
        for _, v in _open_combos(old_ops):
            if v in ops:
                continue
            covering = (fam for fu, group in by_union.items() if v & ~fu == 0
                        for fam in group)
            if any(all((v & u) in old_ops for u in fam) for fam in covering):
                ops.add(v)
    else:
        raise ValueError(f"unknown plus rule {rule!r}")

    if len(ops) > max_opens or len(fams) > MAX_FAMILIES:
        truncated = True
    # the rules only add, so equal sizes mean nothing was added
    if psi._masks is not None and truncated == psi.truncated and \
            len(fams) == len(old_fams) and len(ops) == len(old_ops):
        return psi
    fams, ops = frozenset(fams), frozenset(ops)
    return CovCollection(psi.carrier, frozenset(map(alg.family, fams)),
                         frozenset(map(alg.set, ops)), truncated, (alg, fams, ops))


RULES = ("finiteness", "stability", "transitivity", "saturation", "regularity")


def generation_levels(psi: CovCollection, max_opens: int = 48) -> Iterator[CovCollection]:
    """Psi, then Psi after each further round of RULES, without end: level k
    is the depth-k approximation of <Psi>.  Collections with more than
    max_opens opens are marked truncated, and the mark carries forward.

    A rule that returned its input unchanged is skipped while the chain
    stays at that same object: levels only grow and `plus_step` is a pure
    function of the collection and the atoms it carries, so the rule would
    leave it unchanged again.  Once every rule has settled, each further
    level is the same object as the one before it."""
    settled = {}   # rule -> the collection it last returned unchanged
    while True:
        yield psi
        for rule in RULES:
            if settled.get(rule) is not psi:
                step = plus_step(psi, rule, max_opens)
                if step is psi:
                    settled[rule] = psi
                psi = step


def member_generated(f: FamilySpec, levels: Iterable[CovCollection],
                     k: int) -> GenerationResult:
    """Semi-decision over the first k + 1 of `levels` (a `generation_levels`
    chain): found=True proves f in <Psi>; found=False only means "not found
    within depth k" (with truncated flagging cap pressure).  The search
    stops at the first level that is the same object as the one before it:
    the chain has reached its fixpoint, so no deeper level differs."""
    if k < 0:
        raise PreconditionError(f"generation depth {k} is negative")
    mats = members(f)
    if mats is None:
        return GenerationResult(False, True, 0)
    target = frozenset(m for m in mats if not m.is_empty)
    level = None
    for depth, nxt in enumerate(itertools.islice(levels, k + 1)):
        if nxt is level:
            break
        level = nxt
        if target in level.families:
            return GenerationResult(True, level.truncated, depth)
    return GenerationResult(False, level.truncated, k)
