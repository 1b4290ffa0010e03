"""Bornology membership read off the normal form agrees with the definitions.

A seeded differential test: every named bornology, the metric bornology of
each metric and of its conjugate, and 200 custom schemas are checked on the
probe corpus plus 2000 random sets, against references kept here: the
boundedness flags of each named and metric bornology, finiteness for fb,
and for interval schemas the definition a <= B_n for some n, read off the
stable trace."""

import random
from fractions import Fraction as F

import pytest

from gtsreal.covers import End
from gtsreal.lines import (
    ALL_SETS,
    FB,
    LB,
    NAT_BOUNDED,
    UB,
    UF_SMALL,
    BaseSchema,
    custom_bornology,
    metric_bounded,
)
from gtsreal.qmetric import ALL_METRICS, PhiMode, QuasiMetric, UnsupportedCombinationError
from gtsreal.realset import ConstructionError, EMPTY, closed, is_finite

from helpers import probe_corpus, rand_realset, rand_schema

METRICS = ALL_METRICS + tuple(d.conjugate() for d in ALL_METRICS)

# the boundedness flags (below, above) that a d-bounded set needs, per bounded kind
METRIC_FLAGS = {"nat": (True, True), "ub": (False, True), "lb": (True, False),
                "all": (False, False)}


def _reverse_well_ordered(a):
    """Every nonempty subset has a largest element: bounded above, and no
    piece (of the core or of a tail pattern) holds more than one point."""
    return a.boundedness().bounded_above and all(iv.is_point for iv in a.pieces())


NAMED = {
    FB: lambda b: b.finite,
    ALL_SETS: lambda b: True,
    NAT_BOUNDED: lambda b: b.bounded,
    UB: lambda b: b.bounded_above,
    LB: lambda b: b.bounded_below,
}


def _flags(a, below, above):
    b = a.boundedness()
    return (b.bounded_below or not below) and (b.bounded_above or not above)


def _inside_an_element(schema, a):
    """a <= B_n for some n: an end that is not infinite bounds a on its
    side, and past `stable_index` the element's trace on a's hull no longer
    changes."""
    if a.is_empty:
        return True
    lo, hi = a.inf_value(), a.sup_value()
    if (schema.lo is not None and not is_finite(lo)) or \
            (schema.hi is not None and not is_finite(hi)):
        return False
    return a.is_subset(schema.stable_trace(lo, hi))


@pytest.fixture(scope="module")
def sets():
    rng = random.Random(1505)
    return list(probe_corpus()) + [rand_realset(rng) for _ in range(2000)]


def test_named_bornologies(sets):
    for born, flags in NAMED.items():
        for a in sets:
            assert born.member(a) == flags(a.boundedness()), (str(born), str(a))
    for a in sets:
        assert UF_SMALL.member(a) == _reverse_well_ordered(a), str(a)


@pytest.mark.parametrize("d", METRICS, ids=lambda d: d.label())
def test_metric_bornologies(sets, d):
    born = metric_bounded(d)
    below, above = METRIC_FLAGS[d.bounded_kind]
    for a in sets:
        assert born.member(a) == _flags(a, below, above) == d.is_bounded_set(a), str(a)


def test_custom_schemas(sets):
    rng = random.Random(1506)
    schemas = []
    while len(schemas) < 200:
        schema = rand_schema(rng)
        if schema.kind != "grid":
            schemas.append(schema)
    assert any(End.FIXED in s.ends for s in schemas)
    for schema in schemas:
        born = custom_bornology(schema)
        if schema.kind == "ball":
            below, above = METRIC_FLAGS[schema.metric.bounded_kind]
            want = [_flags(a, below, above) for a in sets]
        else:
            want = [_inside_an_element(schema, a) for a in sets]
        assert [born.member(a) for a in sets] == want, schema


def test_the_grid_is_no_custom_base():
    # its B_n hold integers alone; fb, the finite sets, only borrows it
    with pytest.raises(ConstructionError):
        custom_bornology(FB.base_schema())


def test_named_bases_and_names_are_unchanged():
    d = ALL_METRICS[0]
    assert FB.base_schema() == BaseSchema(kind="grid")
    assert ALL_SETS.base_schema() == BaseSchema(lo=None, hi=None, lo_closed=False,
                                                hi_closed=False)
    assert NAT_BOUNDED.base_schema() == BaseSchema(lo=(F(0), F(-1)), hi=(F(0), F(1)))
    assert UB.base_schema() == BaseSchema(lo=None, hi=(F(0), F(1)), hi_closed=False)
    assert LB.base_schema() == BaseSchema(lo=(F(0), F(-1)), hi=None, lo_closed=False)
    assert metric_bounded(d).base_schema() == BaseSchema(kind="ball", metric=d)
    assert UF_SMALL.base_schema() is None
    assert [str(b) for b in (FB, ALL_SETS, NAT_BOUNDED, UB, LB)] == [
        "fb", "all", "nat_bounded", "ub", "lb"]
    assert str(UF_SMALL) == ("uf_small[reverse-well-ordered (every nonempty subset "
                             "has a largest element)]")
    assert str(metric_bounded(d.conjugate())) == "B(conj(d_n))"


def test_the_ends_of_each_base():
    free, moving, fixed = End.FREE, End.MOVING, End.FIXED
    assert [b.ends for b in (FB, ALL_SETS, NAT_BOUNDED, UB, LB, UF_SMALL)] == [
        (moving, moving), (free, free), (moving, moving), (free, moving),
        (moving, free), (free, moving)]
    schema = BaseSchema(lo=(F(-2), F(0)), hi=(F(0), F(1)), lo_closed=False)
    assert schema.ends == (fixed, moving)
    born = custom_bornology(schema)
    assert born.member(closed(-1, 100)) and not born.member(closed(-2, 0))
    for d in METRICS:
        assert metric_bounded(d).ends == tuple(
            moving if s else free for s in METRIC_FLAGS[d.bounded_kind])


def test_a_float_paper_metric_bounds_no_set():
    d = QuasiMetric(ALL_METRICS[2].name, PhiMode.FLOAT_PAPER)
    with pytest.raises(UnsupportedCombinationError, match="requires exact mode"):
        metric_bounded(d).member(EMPTY)
