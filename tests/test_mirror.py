"""Every family decision and every set operation commutes with the mirror
x -> -x.

The covers module writes the union and essential finiteness of nested
families and fans for rays down only, and decides a shape with rays up
through its mirror image.  This differential test mirrors seeded random
families of every shape by hand and checks each decision against the
mirrored decision on the mirrored inputs.  The realset kernel decides each
side of a set (its tails, cuts and germs, and the ends a local closure or
interior rule touches) with one routine that takes the side; the set
algebra is checked the same way, against sets mirrored through
`affine_image`."""

import random
import re
from fractions import Fraction as F

from gtsreal.checkers import PiecewiseAffineMap, preimage_family
from gtsreal.covers import (
    Fan,
    FiniteFamily,
    Periodic,
    Restricted,
    Split,
    _pieces,
    ess_finite_on,
    ess_finite_on_all_base,
    finite_family,
    members,
    union_of,
    violating_member,
)
from gtsreal.lines import FB, BaseSchema, line, op_member
from gtsreal.realset import (
    NEG_INF,
    POS_INF,
    Interval,
    TopologyKind,
    affine_image,
    interval,
    normalize,
    union_of_translates,
)

from helpers import rand_family, rand_fraction, rand_realset

LINES = [line(n) for n in ("standard/ut", "standard/om", "standard/lst", "standard/uu",
                           "sorgenfrey/om", "sorgenfrey/lst")]


def mirror(a):
    return affine_image(a, -1, 0)


def mirror_family(f):
    """The family {-U : U in f}.  A split's left part holds its cut point
    and the right part does not, so a split mirrors only when its right part
    is restricted to the open ray past the cut, as rand_mirror_family makes
    them."""
    if isinstance(f, FiniteFamily):
        return finite_family(map(mirror, f.members_tuple))
    if isinstance(f, Periodic):
        return Periodic(mirror(f.seed), f.period, f.index_range.mirrored())
    if isinstance(f, Fan):
        return Fan(-f.hi, -f.lo, {"down": "up", "up": "down"}[f.side])
    if isinstance(f, Restricted):
        return Restricted(mirror_family(f.base), mirror(f.window))
    assert f.right.window == interval(f.cut, POS_INF)
    return Split(-f.cut, mirror_family(f.right.base),
                 Restricted(mirror_family(f.left), interval(-f.cut, POS_INF)))


def rand_mirror_family(rng, depth=0):
    """Finite families, bounded, nested-up and nested-down periodic families
    with every kind of index range, fans of both sides, and splits and
    restrictions of them to windows with and without periodic tails."""
    kind = rng.randrange(4) if depth < 2 else 0
    if kind == 1:
        c = rand_fraction(rng, -3, 3, 2)
        return Split(c, rand_mirror_family(rng, depth + 1),
                     Restricted(rand_mirror_family(rng, depth + 1), interval(c, POS_INF)))
    if kind == 2:
        return Restricted(rand_mirror_family(rng, depth + 1), rand_realset(rng))
    return rand_family(rng)


def mirror_schema(s):
    """The base -B_n: an interval schema with its ends swapped and negated."""
    if s.kind == "grid":
        return s
    neg = (lambda e: None if e is None else (-e[0], -e[1]))
    return BaseSchema(lo=neg(s.hi), hi=neg(s.lo), lo_closed=s.hi_closed,
                      hi_closed=s.lo_closed, n0=s.n0)


def rand_schema(rng):
    if rng.random() < 0.2:
        return FB.base_schema()
    a = rand_fraction(rng, -2, 2, 2)
    ends = [None if rng.random() < 0.3 else (e, F(sign, rng.choice((1, 3, 4))))
            for e, sign in ((a, -1), (a + F(rng.randint(0, 4), 2), 1))]
    return BaseSchema(lo=ends[0], hi=ends[1], lo_closed=rng.random() < 0.5,
                      hi_closed=rng.random() < 0.5, n0=rng.randint(0, 2))


def mirror_obstruction(text):
    """The obstruction of the mirrored family: the other side, the mirrored edge."""
    if text is None:
        return None
    swapped = re.sub(r"above|below", lambda m: {"above": "below", "below": "above"}[m[0]], text)
    return re.sub(r"at (-?\d+(?:/\d+)?) ", lambda m: f"at {-F(m[1])} ", swapped)


def as_set(ms):
    return None if ms is None else sorted(map(str, ms))


def test_every_decision_commutes_with_the_mirror():
    rng = random.Random(2027)
    shapes = set()
    for _ in range(350):
        f = rand_mirror_family(rng)
        g = mirror_family(f)
        k = rand_realset(rng)
        shapes.add(type(f).__name__)
        ctx = (str(f), str(k))

        assert union_of(g) == mirror(union_of(f)), ctx
        got = members(f)
        assert as_set(members(g)) == as_set(None if got is None else map(mirror, got)), ctx

        v, w = ess_finite_on(f, k), ess_finite_on(g, mirror(k))
        assert w.essentially_finite == v.essentially_finite, ctx
        assert len(w.witness or ()) == len(v.witness or ()), ctx
        # the first piece that fails names the obstruction, and a split's
        # pieces come in the other order once mirrored
        assert w or w.obstruction in {mirror_obstruction(ess_finite_on(
            Restricted(b, pw), k).obstruction) for b, pw in _pieces(f)}, ctx

        l = rng.choice(LINES)
        bad = violating_member(f, lambda u: op_member(l, u))
        bad_g = violating_member(g, lambda u: op_member(l, mirror(u)))
        assert (bad_g is None) == (bad is None), ctx + (str(l),)
        assert bad_g is None or not op_member(l, mirror(bad_g)), ctx

        schema = rand_schema(rng)
        assert ess_finite_on_all_base(g, mirror_schema(schema)) == \
            ess_finite_on_all_base(f, schema), ctx + (str(schema),)

        s, c = F(rng.randint(1, 4), rng.randint(1, 2)), rand_fraction(rng, -2, 2, 2)
        pre_f = preimage_family(PiecewiseAffineMap.affine(s, c), f)
        pre_g = preimage_family(PiecewiseAffineMap.affine(s, -c), g)
        assert union_of(pre_g) == mirror(union_of(pre_f)), ctx
        assert ess_finite_on(pre_g, mirror(k)).essentially_finite == \
            ess_finite_on(pre_f, k).essentially_finite, ctx
    assert shapes == {"FiniteFamily", "Periodic", "Fan", "Split", "Restricted"}


def test_the_mirrored_obstructions_name_the_callers_side():
    up = Periodic(interval(NEG_INF, 0), 1)
    down = mirror_family(up)
    k = interval(0, POS_INF)
    assert ess_finite_on(up, k).obstruction == \
        "trace unbounded above while the nested members are all bounded above"
    assert ess_finite_on(down, mirror(k)).obstruction == \
        "trace unbounded below while the nested members are all bounded below"
    near = interval(F(1, 2), 2, True, True)
    assert ess_finite_on(Fan(0, 1), near).obstruction == \
        "trace accumulates at 1 but every ray stops short of it"
    assert ess_finite_on(Fan(-1, 0, "up"), mirror(near)).obstruction == \
        "trace accumulates at -1 but every ray stops short of it"


# each topology and the one its mirror image carries
MIRROR_KIND = {TopologyKind.UPPER: TopologyKind.LOWER, TopologyKind.LOWER: TopologyKind.UPPER,
               TopologyKind.SORG_R: TopologyKind.SORG_L, TopologyKind.SORG_L: TopologyKind.SORG_R,
               TopologyKind.NAT: TopologyKind.NAT, TopologyKind.DISCRETE: TopologyKind.DISCRETE}
PERIODS = (F(1, 4), F(1, 2), F(1), F(3, 2), F(2), F(3))


def rand_seed(rng):
    """A bounded, tail-free seed: one to three pieces on the 1/4 grid of
    [-3, 3]."""
    pieces = []
    for _ in range(rng.randint(1, 3)):
        a, b = sorted(F(rng.randint(-12, 12), 4) for _ in range(2))
        pieces.append(Interval(a, b, rng.random() < 0.5 or a == b, rng.random() < 0.5 or a == b))
    return normalize(pieces)


def rand_range(rng):
    """(k_min, k_max) over all indices, from k, up to k, or a span."""
    k, n = rng.randint(-3, 3), rng.randint(0, 3)
    return rng.choice(((None, None), (k, None), (None, k), (k, k + n)))


def test_set_algebra_commutes_with_the_mirror():
    rng = random.Random(2509)
    tails = {"left": 0, "right": 0}
    for _ in range(250):
        a, b = rand_realset(rng), rand_realset(rng)
        ma, mb = mirror(a), mirror(b)
        ctx = (str(a), str(b))
        tails["left"] += a.left_tail is not None
        tails["right"] += a.right_tail is not None

        assert ma | mb == mirror(a | b), ctx
        assert ma & mb == mirror(a & b), ctx
        assert ma - mb == mirror(a - b), ctx
        assert ~ma == mirror(~a), ctx
        for x, y in ((a, b), (b, a), (a & b, a), (a, a | b)):
            assert mirror(x).is_subset(mirror(y)) == x.is_subset(y), ctx
        assert ma.inf_value() == -a.sup_value(), ctx
        assert ma.sup_value() == -a.inf_value(), ctx
        for kind, twin in MIRROR_KIND.items():
            assert ma.closure(twin) == mirror(a.closure(kind)), ctx + (kind,)
            assert ma.interior(twin) == mirror(a.interior(kind)), ctx + (kind,)
    assert min(tails.values()) > 20


def test_the_translate_ranges_commute_with_the_mirror():
    """Seeded random seeds and ranges, and every range shape on a periodic,
    a full and a misread germ: the open piece (0, 1) at period 1, which the
    kernel reads as full."""
    rng = random.Random(2510)
    cases = [(rand_seed(rng), rng.choice(PERIODS), *rand_range(rng)) for _ in range(250)]
    for seed, period in ((interval(F(1, 4), F(1, 2), True, True), F(1)),
                         (interval(0, 1, True, True), F(1)),
                         (interval(0, 1), F(1))):
        for k_min, k_max in ((None, None), (2, None), (None, -2), (-1, 3)):
            cases.append((seed, period, k_min, k_max))
    for seed, period, k_min, k_max in cases:
        got = union_of_translates(mirror(seed), period,
                                  None if k_max is None else -k_max,
                                  None if k_min is None else -k_min)
        assert got == mirror(union_of_translates(seed, period, k_min, k_max)), \
            (str(seed), period, k_min, k_max)
