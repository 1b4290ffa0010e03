"""Seeded differential test of the closed forms in `gtsreal.checkers`.

`proper_check` and `base_check` read cl_t2(B_n) inside int_t1(B_m) at two
landmark indices.  Here a deep sweep tries every n up to s + DEPTH (s the
first nonempty index) against every m up to n + MARGIN, on random interval
schemas (free, moving and fixed ends, late and never nonempty elements), the
grid and the balls of the 13 metrics and their conjugates, under all 36
topology pairs.

The bornology part of `metrizable_verdict` says that b is exactly the
d-bounded sets iff b has d's ends and no isolated-points condition.  Here that
is compared with `b.member` and `d.is_bounded_set` on a set sample, and the set
named when they differ must be in one and not the other.
"""

import itertools
import random
from fractions import Fraction as F

from gtsreal import checkers
from gtsreal.checkers import _separating_set, base_check, metrizable_verdict, proper_check
from gtsreal.lines import (
    ALL_SETS,
    FB,
    LB,
    NAT_BOUNDED,
    UB,
    UF_SMALL,
    BaseSchema,
    Bornology,
    custom_bornology,
    line,
    metric_bounded,
    probe_corpus,
)
from gtsreal.qmetric import ALL_METRICS, metric
from gtsreal.realset import NEG_INF, POS_INF, TopologyKind, interval, point, points

from helpers import rand_realset

DEPTH, MARGIN = 12, 40
PAIRS = list(itertools.product(TopologyKind, repeat=2))
METRICS = [e for d in ALL_METRICS for e in (d, d.conjugate())]


def _end(rng, sign):
    """None (free), a fixed end or a moving one, at a half-integer."""
    kind = rng.randrange(3)
    if kind == 0:
        return None
    return F(rng.randint(-8, 8), 2), F(0) if kind == 1 else F(sign * rng.choice((1, 2, 4)), 2)


def _interval_schemas(rng):
    """Random ends, then elements that start late and elements never nonempty."""
    out = [BaseSchema(lo=_end(rng, -1), hi=_end(rng, 1), lo_closed=rng.random() < .5,
                      hi_closed=rng.random() < .5, n0=rng.randint(0, 2)) for _ in range(28)]
    for k in range(4):
        late = F(rng.randint(3, 20))
        out.append(BaseSchema(lo=(F(k), F(0)), hi=(k - late, F(1)),
                              lo_closed=k % 2 == 0, hi_closed=k < 2))
        out.append(BaseSchema(lo=(late / 2, F(-1, 2)), hi=(-late / 2, F(1, 2)),
                              lo_closed=k < 2, hi_closed=k % 2 == 0, n0=k))
    # fixed ends past every probe, as in FAR = schema(closed -1000, closed affine(0, 1))
    out += [BaseSchema(lo=(F(-1000), F(0)), hi=(F(0), F(1))),
            BaseSchema(lo=(F(0), F(-1)), hi=(F(2000), F(0)), hi_closed=False),
            BaseSchema(lo=(F(-1000), F(0)), hi=None, lo_closed=False)]
    out += [BaseSchema(lo=(F(1), F(0)), hi=(F(0), F(0))),
            BaseSchema(lo=(F(0), F(0)), hi=(F(0), F(0)), lo_closed=False),
            BaseSchema(lo=None, hi=None)]
    return out


def _bornologies():
    rng = random.Random(20)
    customs = [custom_bornology(sc) for sc in _interval_schemas(rng)]
    balls = [metric_bounded(d) for d in METRICS]
    return customs, balls


def _swept(schema, t1, t2):
    """The first (n, cl_t2(B_n)) up to s + DEPTH that fits inside no
    int_t1(B_m) with m <= n + MARGIN, or None."""
    s = schema.first_nonempty()
    for n in range(schema.n0, (schema.n0 if s is None else s) + DEPTH + 1):
        c = schema.element(n).closure(t2)
        if not any(c.is_subset(schema.element(m).interior(t1))
                   for m in range(n, n + MARGIN + 1)):
            return n, c
    return None


def test_properness_and_base_match_a_deep_sweep():
    customs, balls = _bornologies()
    cases = 0
    for b in customs + balls + [FB]:
        for t1, t2 in PAIRS:
            got = proper_check(b, t1, t2)
            want = _swept(b.base_schema(), t1, t2)
            assert (got.witness_index, got.witness_closure) == (want or (None, None)), \
                (b.base_schema(), t1, t2)
            assert got.proper == (want is None)
            if t2 is TopologyKind.DISCRETE:
                assert base_check(b, t1) == got.proper
            cases += 1
    assert cases == 36 * (len(customs) + 27)


def test_properness_certificates_reverify():
    customs, balls = _bornologies()
    for b in customs[::4] + balls[::4] + [FB]:
        sc = b.base_schema()
        bound = (sc.first_nonempty() or sc.n0) + 2
        for t1, t2 in PAIRS:
            got = proper_check(b, t1, t2)
            for n in range(sc.n0, bound + 1):
                c, m = checkers._fit(sc, t2, n)
                fits = c.is_subset(sc.element(m).interior(t1))
                assert fits == (got.witness_index is None or n < got.witness_index), \
                    (sc, t1, t2, n)


def _sample(b):
    rng = random.Random(str(b))
    far = [F(10) ** 6, F(1000), F(1001), F(9), F(5), F(17, 2)]
    sc = b.base_schema()
    elements = [] if sc is None or sc.kind == "grid" else \
        [sc.element(sc.n0 + k) for k in range(3)]
    return (list(probe_corpus()) + [rand_realset(rng) for _ in range(40)] + elements
            + [point(x) for q in far for x in (q, -q)] + [points(range(-3, 4))]
            + [interval(NEG_INF, -q) for q in far] + [interval(q, POS_INF) for q in far])


def test_bornology_part_matches_membership():
    customs, balls = _bornologies()
    equal = built = 0
    for b in [FB, ALL_SETS, NAT_BOUNDED, UB, LB, UF_SMALL] + balls + customs:
        sample = _sample(b)
        for d in METRICS:
            split = _separating_set(b, d)
            if split is None:
                equal += 1
                assert all(b.member(a) == d.is_bounded_set(a) for a in sample), (b, d)
                continue
            word, a = split
            assert b.member(a) != d.is_bounded_set(a), (b, d, a)
            assert (word == "set") == all(b.member(p) == d.is_bounded_set(p)
                                          for p in probe_corpus())
            built += word == "set"
    assert equal >= 26 and built > 0


def test_the_built_set_separates_wherever_the_ends_differ(monkeypatch):
    # without probes every unequal pair gets a built set, from each branch
    monkeypatch.setattr(checkers, "probe_corpus", lambda: ())
    customs, balls = _bornologies()
    kinds = set()
    for b in [ALL_SETS, NAT_BOUNDED, UB, LB] + balls + customs:
        for d in METRICS:
            split = _separating_set(b, d)
            if split is not None:
                a = split[1]
                assert b.member(a) != d.is_bounded_set(a), (b, d, a)
                kinds.add((a.boundedness().bounded, b.member(a)))
    assert kinds == {(True, False), (False, False), (False, True)}


def test_custom_and_ball_bornologies_meet_the_metric_in_verdicts():
    # a custom ball schema is its metric's bornology; a fixed end never is
    d = metric("rho_0")
    got = metrizable_verdict(line("sorgenfrey/lst"),
                             custom_bornology(BaseSchema(kind="ball", metric=d)), d)
    assert got.consistent
    far = custom_bornology(BaseSchema(lo=(F(-1000), F(0)), hi=(F(0), F(1))))
    got = metrizable_verdict(line("sorgenfrey/lst"), far, d)
    assert (got.failing_part, got.detail) == (
        "bornology", "set {-1001}: d-bounded but outside the bornology")


def test_a_late_first_element_is_where_properness_fails():
    late = Bornology("custom", BaseSchema(lo=(F(0), F(0)), hi=(F(-1000), F(1))))
    got = proper_check(late, TopologyKind.NAT, TopologyKind.NAT)
    assert (got.proper, got.witness_index, str(got.witness_closure)) == (False, 1000, "{0}")
    assert not base_check(late, TopologyKind.NAT)
