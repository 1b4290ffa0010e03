"""Finitely presented families of RealSets and essential-finiteness decisions.

A family is Finite, Periodic (translates of a seed), a Split along a cut
point, a Restricted view of another family, or a dense Fan of rays.
Every decision reads a family in one normal form, a tuple of (base, window)
pieces whose union is the family: the base is a FiniteFamily, Periodic or
Fan, and every member of the base is clipped to the window (None for an
unrestricted piece).  A Split gives one piece per side of its cut and nested
Restricted windows intersect, so each decision handles the three base
shapes once.  Periodic seeds are either bounded (all members are translates
of one bounded set) or a single half-line (the members are nested rays);
these shapes give exact closed forms for every essential-finiteness
question the corpus asks.  EF(B), essential finiteness on every element of
a bornology's base (`ess_finite_on_all_base`, behind `ef_member` and every
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
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Tuple, Union

from gtsreal.realset import (
    EMPTY,
    NEG_INF,
    POS_INF,
    REALS,
    ConstructionError,
    RealSet,
    TopologyKind,
    _lcm_frac,
    _translate_range,
    interval,
    rat,
    union_of_translates,
)


class PreconditionError(ValueError):
    """A stated precondition was violated; carries the witness."""


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

    def __str__(self):
        if self.lo is None and self.hi is None:
            return "all"
        if self.hi is None:
            return f"from({self.lo})"
        if self.lo is None:
            return f"upto({self.hi})"
        return f"span({self.lo},{self.hi})"


ALL_INDICES = IndexRange()


@dataclass(frozen=True)
class FiniteFamily:
    members_tuple: Tuple[RealSet, ...]

    def __str__(self):
        return "finite{%s}" % ", ".join(sorted(str(m) for m in self.members_tuple))


@dataclass(frozen=True)
class Periodic:
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
        if self.seed_kind is None:
            raise ConstructionError(
                "seed must be bounded or a single half-line (nested family)")

    @property
    def seed_kind(self) -> Optional[str]:
        b = self.seed.boundedness()
        if b.bounded:
            return "bounded"
        core = self.seed.core
        if len(core) == 1 and core[0].lo == NEG_INF and core[0].hi != POS_INF:
            return "nested_up"
        if len(core) == 1 and core[0].hi == POS_INF and core[0].lo != NEG_INF:
            return "nested_down"
        return None

    def member(self, k: int) -> RealSet:
        return self.seed.shift(k * self.period)

    def __str__(self):
        return f"periodic(seed={self.seed}, p={self.period}, {self.index_range})"


@dataclass(frozen=True)
class Split:
    """Members of `left` clipped to (-inf, cut), of `right` to [cut, +inf)."""

    cut: Fraction
    left: "FamilySpec"
    right: "FamilySpec"

    def __post_init__(self):
        object.__setattr__(self, "cut", rat(self.cut))

    def windows(self) -> Tuple[RealSet, RealSet]:
        return (interval(NEG_INF, self.cut), interval(self.cut, POS_INF, True, False))

    def __str__(self):
        return f"split({self.cut}; {self.left}; {self.right})"


@dataclass(frozen=True)
class Restricted:
    base: "FamilySpec"
    window: RealSet

    def __str__(self):
        return f"restricted({self.base}; {self.window})"


@dataclass(frozen=True)
class Fan:
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

    def member(self, q: Fraction) -> RealSet:
        """The ray ending (side "down") or starting (side "up") at q."""
        if self.side == "down":
            return interval(NEG_INF, q)
        return interval(q, POS_INF)

    def __str__(self):
        return f"fan({self.side}; {self.lo}, {self.hi})"


FamilySpec = Union[FiniteFamily, Periodic, Split, Restricted, Fan]


def finite_family(members: Iterable[RealSet]) -> FiniteFamily:
    seen = []
    for m in members:
        if m not in seen:
            seen.append(m)
    return FiniteFamily(tuple(seen))


@dataclass(frozen=True)
class EssFinVerdict:
    essentially_finite: bool
    witness: Optional[Tuple[RealSet, ...]] = None
    obstruction: Optional[str] = None

    def __bool__(self):
        return self.essentially_finite


# ---------------------------------------------------------------------------
# the normal form: (base, window) pieces
# ---------------------------------------------------------------------------

Piece = Tuple[Union[FiniteFamily, Periodic, Fan], Optional[RealSet]]


def _pieces(f: FamilySpec, window: Optional[RealSet] = None) -> Tuple[Piece, ...]:
    """The normal form of f: (base, window) pieces whose union is f.

    A Split gives one piece per side of its cut, nested Restricted windows
    intersect, and a piece with window None is unrestricted."""
    if isinstance(f, Split):
        lw, rw = f.windows()
        return _pieces(f.left, _meet(window, lw)) + _pieces(f.right, _meet(window, rw))
    if isinstance(f, Restricted):
        return _pieces(f.base, _meet(window, f.window))
    if isinstance(f, (FiniteFamily, Periodic, Fan)):
        return ((f, window),)
    raise TypeError(f)


def _meet(window: Optional[RealSet], w: RealSet) -> RealSet:
    return w if window is None else window.intersect(w)


def _clip_all(sets: Iterable[RealSet], w: Optional[RealSet]) -> list[RealSet]:
    """The nonempty traces of sets on the window w (None: no window)."""
    if w is not None:
        sets = (m.intersect(w) for m in sets)
    return [m for m in sets if not m.is_empty]


# ---------------------------------------------------------------------------
# unions and enumeration
# ---------------------------------------------------------------------------

def _union(sets: Iterable[RealSet]) -> RealSet:
    u = EMPTY
    for m in sets:
        u = u.union(m)
    return u


@functools.lru_cache(maxsize=1024)
def union_of(f: FamilySpec) -> RealSet:
    """Exact union of all members, memoized by value."""
    out = None
    for base, w in _pieces(f):
        if isinstance(base, FiniteFamily):
            u = _union(base.members_tuple)
        elif isinstance(base, Periodic):
            u = _periodic_union(base)
        elif base.side == "down":
            u = interval(NEG_INF, base.hi)
        else:
            u = interval(base.lo, POS_INF)
        if w is not None:
            u = u.intersect(w)
        out = u if out is None else out.union(u)
    return out


def _periodic_union(f: Periodic) -> RealSet:
    rng, p = f.index_range, f.period
    kind = f.seed_kind
    if kind == "nested_up":
        if rng.hi is not None:
            return f.member(rng.hi)
        return REALS
    if kind == "nested_down":
        if rng.lo is not None:
            return f.member(rng.lo)
        return REALS
    return union_of_translates(f.seed, p, rng.lo, rng.hi)


def _translate_span(f: Periodic, lo: Fraction, hi: Fraction) -> Tuple[int, int]:
    """(k_lo, k_hi), before clamping to the index range, such that every
    member k outside it meets [lo, hi] trivially: not at all for a bounded
    seed, in the whole of [lo, hi] or not at all for nested rays."""
    if f.seed_kind == "bounded":
        return _translate_range(f.seed.core, f.period, lo, hi)
    edge = f.seed.core[0].hi if f.seed_kind == "nested_up" else f.seed.core[0].lo
    return (math.floor((lo - edge) / f.period) - 2,
            math.ceil((hi - edge) / f.period) + 2)


def members(f: FamilySpec) -> Optional[list[RealSet]]:
    """Distinct nonempty members, or None when not finitely enumerable."""
    out = []
    for base, w in _pieces(f):
        got = _piece_members(base, w)
        if got is None:
            return None
        out += got
    return _dedupe(out)


def _piece_members(base, w: Optional[RealSet]) -> Optional[list[RealSet]]:
    """Nonempty members of one piece, or None when not finitely enumerable."""
    if w is not None and w.is_empty:
        return []
    if isinstance(base, FiniteFamily):
        return _clip_all(base.members_tuple, w)
    if isinstance(base, Fan):
        return None
    rng = base.index_range
    if rng.is_finite:
        ks = rng.indices()
    elif w is None or not w.boundedness().bounded:
        return None
    else:
        ks = rng.clamp(*_translate_span(base, w.inf_value(), w.sup_value()))
    return _clip_all((base.member(k) for k in ks), w)


def _dedupe(items) -> list[RealSet]:
    out = []
    for m in items:
        if m not in out:
            out.append(m)
    return out


# ---------------------------------------------------------------------------
# essential finiteness
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1024)
def ess_finite_on(f: FamilySpec, k_set: RealSet) -> EssFinVerdict:
    """Exact essential-finiteness decision on k_set, with a verified witness,
    memoized by value (families and sets are frozen, so equal keys give equal
    answers; an exception is not cached)."""
    verdict = _essfin(f, k_set)
    if verdict.essentially_finite:
        trace = k_set.intersect(union_of(f))
        if not trace.is_subset(_union(verdict.witness or ())):
            raise AssertionError("internal: witness fails to cover the trace")
    return verdict


def _essfin(f: FamilySpec, k_set: RealSet) -> EssFinVerdict:
    """f is essentially finite on k_set iff every piece is essentially finite
    on k_set n window; the witness is the union of the clipped witnesses."""
    witness = []
    for base, w in _pieces(f):
        if isinstance(base, FiniteFamily):
            v = EssFinVerdict(True, base.members_tuple)
        else:
            k = k_set if w is None else k_set.intersect(w)
            v = _essfin_periodic(base, k) if isinstance(base, Periodic) else _essfin_fan(base, k)
            if not v:
                return v
        witness += v.witness if w is None else _clip_all(v.witness, w)
    return EssFinVerdict(True, tuple(witness))


def _essfin_periodic(f: Periodic, k_set: RealSet) -> EssFinVerdict:
    rng = f.index_range
    kind = f.seed_kind
    u = union_of(f)
    trace = k_set.intersect(u)
    if trace.is_empty:
        return EssFinVerdict(True, ())
    if rng.is_finite:
        return EssFinVerdict(True, tuple(f.member(k) for k in rng.indices()))
    b = trace.boundedness()
    if kind == "bounded":
        if not b.bounded:
            return EssFinVerdict(
                False, None,
                "trace K n UF is unbounded while every member is bounded")
        ks = rng.clamp(*_translate_span(f, trace.inf_value(), trace.sup_value()))
        return EssFinVerdict(True, tuple(f.member(k) for k in ks))
    if kind == "nested_up":
        if rng.hi is not None:
            return EssFinVerdict(True, (f.member(rng.hi),))
        if not b.bounded_above:
            return EssFinVerdict(
                False, None,
                "trace unbounded above while the nested members are all bounded above")
        return EssFinVerdict(True, (_nested_cover(f, trace, up=True),))
    # nested_down
    if rng.lo is not None:
        return EssFinVerdict(True, (f.member(rng.lo),))
    if not b.bounded_below:
        return EssFinVerdict(
            False, None,
            "trace unbounded below while the nested members are all bounded below")
    return EssFinVerdict(True, (_nested_cover(f, trace, up=False),))


def _nested_cover(f: Periodic, trace: RealSet, up: bool) -> RealSet:
    p = f.period
    if up:
        edge = f.seed.core[0].hi
        k = math.ceil((trace.sup_value() - edge) / p) + 1
    else:
        edge = f.seed.core[0].lo
        k = math.floor((trace.inf_value() - edge) / p) - 1
    for _ in range(4):
        m = f.member(k)
        if trace.is_subset(m):
            return m
        k = k + 1 if up else k - 1
    raise AssertionError("internal: nested cover search failed")


def _essfin_fan(f: Fan, k_set: RealSet) -> EssFinVerdict:
    trace = k_set.intersect(union_of(f))
    if trace.is_empty:
        return EssFinVerdict(True, ())
    if f.side == "down":
        s = trace.sup_value()
        if s >= f.hi:
            return EssFinVerdict(
                False, None,
                f"trace accumulates at {f.hi} but every ray stops short of it")
        return EssFinVerdict(True, (f.member((max(f.lo, s) + f.hi) / 2),))
    s = trace.inf_value()
    if s <= f.lo:
        return EssFinVerdict(
            False, None,
            f"trace accumulates at {f.lo} but every ray stops short of it")
    return EssFinVerdict(True, (f.member((f.lo + min(f.hi, s)) / 2),))


def ess_finite(f: FamilySpec) -> EssFinVerdict:
    return ess_finite_on(f, union_of(f))


def restrict_family(f: FamilySpec, y: RealSet) -> FamilySpec:
    """The family {U n Y : U in f}."""
    if y.is_reals:
        return f
    if isinstance(f, FiniteFamily):
        return finite_family(m.intersect(y) for m in f.members_tuple)
    return Restricted(f, y)


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
        to_set = self.set = functools.cache(lambda m: known[m] if m in known else _union(
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

def is_open_in(a: RealSet, kind: TopologyKind) -> bool:
    return a.interior(kind) == a


def violating_member(f: FamilySpec, pred) -> Optional[RealSet]:
    """None when every member of f satisfies pred; otherwise a member that
    does not.

    Finitely enumerable pieces are checked member by member.  Otherwise pred
    must be translation-stable and see only the shape of a set, as the open
    tests of every line are: then one member decides an unrestricted
    periodic or fan piece, and a windowed piece is decided by the members
    listed in `_periodic_probes` and `_fan_probes`."""
    for base, w in _pieces(f):
        got = _piece_members(base, w)
        if got is None:
            got = _fan_probes(base, w) if isinstance(base, Fan) else _periodic_probes(base, w)
        for m in got:
            if not pred(m):
                return m
    return None


def _periodic_probes(f: Periodic, w: Optional[RealSet]) -> list[RealSet]:
    """Members of f n w that decide a shape predicate for all of them.

    Without a window all members are translates of each other, so one
    decides.  Between two consecutive finite endpoints of w (core endpoints
    and tail cuts) a member that meets neither is a whole translate or empty
    (bounded seed) or has one shape (nested rays), so the members that meet
    an endpoint, plus the first in each gap, decide that part.  Past the
    last endpoint on either side w is empty, full or periodic, and member
    k + r repeats the shapes of member k, where r * f.period is a common
    period of f and that side of w; two such runs are probed."""
    rng = f.index_range
    if w is None:
        return [f.member(rng.lo if rng.lo is not None else 0)]
    pts = w._finite_endpoints() or [Fraction(0)]
    ks = {k for k in (rng.lo, rng.hi) if k is not None}
    for e in pts:
        ks.update(rng.clamp(*_translate_span(f, e, e)))

    def reps(tail) -> int:
        if tail is None:
            return 2
        return 2 * int(_lcm_frac(f.period, tail.period) / f.period)

    k_lo = _translate_span(f, min(pts), min(pts))[0]
    k_hi = _translate_span(f, max(pts), max(pts))[1]
    last = k_lo - 1 if rng.hi is None else min(k_lo - 1, rng.hi)
    first = k_hi + 1 if rng.lo is None else max(k_hi + 1, rng.lo)
    ks.update(rng.clamp(last - reps(w.left_tail) + 1, last))
    ks.update(rng.clamp(first, first + reps(w.right_tail) - 1))
    return _clip_all((f.member(k) for k in sorted(ks)), w)


def _fan_probes(f: Fan, w: Optional[RealSet]) -> list[RealSet]:
    """Members of f n w that decide a shape predicate for all of them.  The
    member for q changes shape only where q crosses an endpoint of w, so
    every endpoint of w inside (lo, hi) is probed, and one q strictly
    between each two consecutive ones; the middle of (lo, hi) goes first."""
    mid = (f.lo + f.hi) / 2
    if w is None:
        return [f.member(mid)]
    cuts = sorted({x for iv in w.materialize(f.lo, f.hi) for x in (iv.lo, iv.hi)
                   if f.lo < x < f.hi})
    bounds = [f.lo] + cuts + [f.hi]
    qs = [mid] + cuts + [(a + b) / 2 for a, b in zip(bounds, bounds[1:])]
    return _clip_all((f.member(q) for q in qs), w)


@dataclass(frozen=True)
class Directions:
    unbounded_below: bool
    unbounded_above: bool


def ess_finite_on_all_base(f: FamilySpec, schema) -> bool:
    """Is f essentially finite on every element B_n of the monotone base
    `schema` (a `lines.BaseSchema`)?  Exact closed form.  A periodic piece
    fails only in a direction in which the B_n and its window n the union of
    its base, but no single member, are unbounded.  A fan piece fails only
    when its trace accumulates at the fan's edge; the traces grow with n, so
    the stable trace B_n n [edge - 1, edge + 1] of large n decides."""
    dirs = schema.directions()
    for base, w in _pieces(f):
        if isinstance(base, Fan):
            edge = base.hi if base.side == "down" else base.lo
            if not _essfin_fan(base, _meet(w, schema.stable_trace(edge - 1, edge + 1))):
                return False
            continue
        if isinstance(base, FiniteFamily) or base.index_range.is_finite or \
                not (dirs.unbounded_below or dirs.unbounded_above):
            continue
        u = union_of(base if w is None else Restricted(base, w)).boundedness()
        kind = base.seed_kind
        if kind != "nested_up" and dirs.unbounded_below and not u.bounded_below:
            return False
        if kind != "nested_down" and dirs.unbounded_above and not u.bounded_above:
            return False
    return True


def ef_member(f: FamilySpec, l_kind: TopologyKind, bornology) -> bool:
    """Membership in EF(L, B): every member is open in the topology l_kind
    and the family is essentially finite on every base element of the
    bornology."""
    if not isinstance(l_kind, TopologyKind):
        raise TypeError(f"L must be a TopologyKind, not {type(l_kind).__name__}")
    bad = violating_member(f, lambda a: is_open_in(a, l_kind))
    if bad is not None:
        raise PreconditionError(f"family member {bad} is outside L")
    schema = bornology.base_schema()
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
    on the atom masks of psi (see `_Atoms`)."""
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
            pick = itertools.product(*choices)
            if math.prod(len(c) for c in choices) > 64:
                pick = [tuple(c[0] for c in choices)]
                truncated = True
            for combo in pick:
                merged = frozenset().union(*combo)
                fams.add(frozenset(m for m in merged if m))
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
    fams, ops = frozenset(fams), frozenset(ops)
    return CovCollection(psi.carrier, frozenset(map(alg.family, fams)),
                         frozenset(map(alg.set, ops)), truncated, (alg, fams, ops))


RULES = ("finiteness", "stability", "transitivity", "saturation", "regularity")


def generation_levels(psi: CovCollection, max_opens: int = 48) -> Iterator[CovCollection]:
    """Psi, then Psi after each further round of RULES, without end: level k
    is the depth-k approximation of <Psi>.  Collections with more than
    max_opens opens are marked truncated, and the mark carries forward."""
    while True:
        yield psi
        for rule in RULES:
            psi = plus_step(psi, rule, max_opens)


def member_generated(f: FamilySpec, levels: Iterable[CovCollection],
                     k: int) -> GenerationResult:
    """Semi-decision over the first k + 1 of `levels` (a `generation_levels`
    chain): found=True proves f in <Psi>; found=False only means "not found
    within depth k" (with truncated flagging cap pressure)."""
    if k < 0:
        raise PreconditionError(f"generation depth {k} is negative")
    mats = members(f)
    if mats is None:
        return GenerationResult(False, True, 0)
    target = frozenset(m for m in mats if not m.is_empty)
    for depth, level in enumerate(itertools.islice(levels, k + 1)):
        if target in level.families:
            return GenerationResult(True, level.truncated, depth)
    return GenerationResult(False, level.truncated, k)
