"""Differential tests of the tail-free fast paths of `gtsreal.realset`.

Each fast path answers from the order keys of its input intervals; each test
compares it, over seeded tail-free sets, with the formula it replaces:

- the complement (the whole line minus a set) is the set's gaps, against
  `_intersect_lists(REALS.core, _complement_list(core))`;
- `is_subset` bisects each piece into the other core, against
  `difference(...).is_empty`;
- the local closure and interior rules change only the flags and the sides
  of the keys, against the pieces rebuilt by `Interval(...)`;
- `_flat(core)` is `RealSet(core)`.

A gate keeps each interval-list kernel the set operation itself, also for
operands with periodic tails.

The sets have points, half-lines, adjacent pieces such as [0, 1) and [1, 2],
and ends on the 1/3 and 1/7 grids, where `_lead` leaves a Fraction remainder.
"""

import random
from fractions import Fraction as F

import pytest

from gtsreal import realset
from gtsreal.realset import (
    EMPTY,
    NEG_INF,
    POS_INF,
    REALS,
    Interval,
    RealSet,
    TopologyKind,
    _complement_list,
    _difference_lists,
    _flat,
    _intersect_lists,
    _LOCAL_RULES,
    _union_lists,
    interval,
    is_finite,
    merge_intervals,
    normalize,
    with_tails,
)

LOCAL_KINDS = (TopologyKind.NAT, TopologyKind.SORG_R, TopologyKind.SORG_L)
# (lower, upper): the ends each local kind's closure closes; its interior
# opens the reversed pair
CLOSES = {TopologyKind.NAT: (True, True), TopologyKind.SORG_R: (True, False),
          TopologyKind.SORG_L: (False, True)}
DENOMINATORS = (1, 2, 3, 7, 8)


def rand_end(rng):
    return F(rng.randint(-24, 24), rng.choice(DENOMINATORS))


def rand_piece(rng):
    a = rand_end(rng)
    shape = rng.randrange(8)
    if shape == 0:
        return Interval(a, a, True, True)
    if shape == 1:
        return Interval(NEG_INF, a, False, rng.random() < .5)
    if shape == 2:
        return Interval(a, POS_INF, rng.random() < .5, False)
    if shape == 3:
        # a bounded piece closed at its upper end
        b = a + rng.randint(1, 6)
        return Interval(a, b, rng.random() < .5, True)
    b = rand_end(rng)
    lo, hi = min(a, b), max(a, b)
    if lo == hi:
        return Interval(lo, lo, True, True)
    return Interval(lo, hi, rng.random() < .5, rng.random() < .5)


def rand_flat(rng):
    """A tail-free set of up to four pieces; now and then EMPTY, REALS, a
    point or a half-line alone."""
    pick = rng.randrange(20)
    if pick == 0:
        return EMPTY
    if pick == 1:
        return REALS
    pieces = [rand_piece(rng) for _ in range(rng.randint(1, 4))]
    if pick == 2:
        # [x, a) and [a, y]: adjacent pieces that merge
        a = rand_end(rng)
        pieces += [Interval(a - 1, a, True, False), Interval(a, a + 1, True, True)]
    return normalize(pieces)


def flat_pairs(seed, n):
    rng = random.Random(seed)
    for _ in range(n):
        yield rand_flat(rng), rand_flat(rng)


def fields(iv):
    return (iv.lo, iv.hi, iv.lo_closed, iv.hi_closed, iv._sk, iv._ek, iv._gk)


def assert_fresh_keys(rs, ctx):
    """Every piece has the keys that a fresh Interval of its ends gets."""
    for iv in rs.core:
        fresh = Interval(iv.lo, iv.hi, iv.lo_closed, iv.hi_closed)
        assert (iv._sk, iv._ek, iv._gk) == (fresh._sk, fresh._ek, fresh._gk), (ctx, str(iv))


def same_pieces(got, want):
    return [fields(iv) for iv in got] == [fields(iv) for iv in want]


def test_the_generator_reaches_every_shape():
    seen = {"empty": 0, "reals": 0, "point": 0, "half-line": 0, "fraction remainder": 0,
            "closed contact": 0}
    for a, _ in flat_pairs(1, 2000):
        seen["empty"] += a.is_empty
        seen["reals"] += a.is_reals
        seen["point"] += any(iv.is_point for iv in a.core)
        seen["half-line"] += any(not (is_finite(iv.lo) and is_finite(iv.hi)) for iv in a.core)
        seen["fraction remainder"] += any(iv._sk[1] != 0 or iv._ek[1] != 0 for iv in a.core)
        seen["closed contact"] += any(iv.lo_closed and iv.hi_closed and not iv.is_point
                                      for iv in a.core)
    assert min(seen.values()) > 40, seen


@pytest.mark.parametrize("seed", [1, 2])
def test_complement_is_the_gaps(seed):
    for a, b in flat_pairs(seed, 2500):
        for s in (a, b, a | b, a & b):
            want = _intersect_lists(REALS.core, _complement_list(s.core))
            for got in (~s, REALS - s, s.complement()):
                assert same_pieces(got.core, want), str(s)
                assert_fresh_keys(got, str(s))
            assert ~~s == s, str(s)


@pytest.mark.parametrize("seed", [3, 4])
def test_is_subset_by_bisection(seed):
    answers = {True: 0, False: 0}
    for a, b in flat_pairs(seed, 2500):
        for x, y in ((a, b), (b, a), (a & b, a), (a, a | b), (a - b, a), (a, a - b),
                     (a, ~a), (EMPTY, a), (a, EMPTY), (a, REALS), (REALS, a)):
            got = x.is_subset(y)
            assert got == x.difference(y).is_empty, (str(x), str(y))
            answers[got] += 1
    assert min(answers.values()) > 5000, answers


def old_close(lo, hi):
    return lambda iv: Interval(iv.lo, iv.hi, iv.lo_closed or lo and is_finite(iv.lo),
                               iv.hi_closed or hi and is_finite(iv.hi))


def old_open(lo, hi):
    return lambda iv: None if iv.is_point else \
        Interval(iv.lo, iv.hi, iv.lo_closed and not lo, iv.hi_closed and not hi)


@pytest.mark.parametrize("seed", [5, 6])
def test_local_rules_flip_only_flags_and_sides(seed):
    for a, _ in flat_pairs(seed, 2500):
        for kind in LOCAL_KINDS:
            lo, hi = CLOSES[kind]
            close, open_ = _LOCAL_RULES[(kind, "close")], _LOCAL_RULES[(kind, "open")]
            for iv in a.core:
                for rule, old in ((close, old_close(lo, hi)), (open_, old_open(hi, lo))):
                    got, want = rule(iv), old(iv)
                    if want is None:
                        assert got is None, str(iv)
                        continue
                    assert fields(got) == fields(want), (kind, str(iv))
                    if (want.lo_closed, want.hi_closed) == (iv.lo_closed, iv.hi_closed):
                        assert got is iv, (kind, str(iv))
            ctx = (str(a), kind)
            closure, interior = a.closure(kind), a.interior(kind)
            assert closure == normalize(map(old_close(lo, hi), a.core)), ctx
            assert interior == normalize(r for r in map(old_open(hi, lo), a.core)
                                         if r is not None), ctx
            assert interior.core == merge_intervals(interior.core), ctx
            assert_fresh_keys(closure, ctx)
            assert_fresh_keys(interior, ctx)


def test_the_rays_of_the_upper_and_lower_kinds():
    for a, _ in flat_pairs(7, 2500):
        up, down = TopologyKind.UPPER, TopologyKind.LOWER
        lo, hi = a.inf_value(), a.sup_value()
        if a.is_empty:
            want = (EMPTY, EMPTY)
        else:
            want = (interval(lo, POS_INF, True, False) if is_finite(lo) else REALS,
                    interval(NEG_INF, hi, False, True) if is_finite(hi) else REALS)
        assert (a.closure(up), a.closure(down)) == want, str(a)
        c = ~a
        want = (REALS if c.is_empty else
                interval(NEG_INF, c.inf_value(), False, False) if is_finite(c.inf_value())
                else EMPTY,
                REALS if c.is_empty else
                interval(c.sup_value(), POS_INF, False, False) if is_finite(c.sup_value())
                else EMPTY)
        assert (a.interior(up), a.interior(down)) == want, str(a)
        for got in (a.closure(up), a.closure(down), a.interior(up), a.interior(down)):
            assert_fresh_keys(got, str(a))


def test_flat_is_the_constructor():
    for a, b in flat_pairs(8, 1000):
        for s in (a, b, a | b, a & b, a - b):
            got, want = _flat(s.core), RealSet(s.core)
            assert got == want and hash(got) == hash(want), str(s)
            assert (got.core, got.left_tail, got.right_tail) == (s.core, None, None)
            assert type(got) is RealSet and got.__dict__ == want.__dict__


def test_each_set_operation_is_its_kernel(monkeypatch):
    # the kernel reaches _binary as its third argument, for tailed operands
    # too; no table of (in a, in b) cases is left to build it from
    calls = []
    binary = realset._binary
    monkeypatch.setattr(realset, "_binary",
                        lambda a, b, op: calls.append(op) or binary(a, b, op))
    half = (Interval(F(0), F(1, 2), True, False),)
    a = with_tails(interval(-3, 3), right=(half, F(1), F(5)))
    b = with_tails(interval(1, 2, True, True), left=(half, F(2), F(-4)))
    for x, y in ((a, b), (b, a), (a, REALS), (interval(0, 9), b)):
        calls.clear()
        assert x.union(y) == x | y
        assert x.intersect(y) == x & y
        assert x.difference(y) == x - y
        assert calls == [_union_lists] * 2 + [_intersect_lists] * 2 + [_difference_lists] * 2
    assert not hasattr(realset, "_select_regions")
