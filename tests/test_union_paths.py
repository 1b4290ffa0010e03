"""The one-pass union, the closed-form periodic unions and the pruned oracle
against the plain folds, windows and enumerations they replace."""

import functools
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtsreal import oracles
from gtsreal.oracles import OracleRefusal, oracle_ess_finite
from gtsreal.realset import (
    EMPTY,
    NEG_INF,
    POS_INF,
    REALS,
    Interval,
    PeriodicTail,
    RealSet,
    closed,
    normalize,
    open_iv,
    union_all,
    union_of_translates,
)

from helpers import reference_oracle, reference_union_of_translates


def _tail(pieces, period, side, cut):
    return PeriodicTail(tuple(Interval(F(a), F(b), lc, hc) for a, b, lc, hc in pieces),
                        F(period), side, F(cut))


# (0, 1/2] u (1/2, 1) mod 1 is stored as the one open piece (0, 1), which the
# kernel's `>=` test reads as full when it reduces the pattern again
MISREAD_RIGHT = normalize((), None, _tail([(0, F(1, 2), False, True),
                                           (F(1, 2), 1, False, False)], 1, "right", 2))
LEFT_A = normalize((), _tail([(0, F(1, 4), True, False)], 1, "left", -1), None)
LEFT_B = normalize((), _tail([(F(1, 2), 1, True, False)], 2, "left", 0), None)


@st.composite
def raw_pattern(draw, period):
    """One or two pieces on the period/4 grid of [0, period)."""
    out = []
    for _ in range(draw(st.integers(1, 2))):
        a = draw(st.integers(0, 3))
        b = draw(st.integers(a, 4))
        lc = draw(st.booleans()) or a == b
        hc = (draw(st.booleans()) and b < 4) or a == b
        out.append(Interval(period * a / 4, period * b / 4, lc, hc))
    return tuple(out)


@st.composite
def sets(draw):
    """A canonical set: up to two core pieces on the 1/4 grid of [-4, 4]
    (half-lines included) and on each side maybe a tail; the tails include
    patterns stored as one open piece a period long."""
    core = []
    for _ in range(draw(st.integers(0, 2))):
        a, b = sorted(F(draw(st.integers(-16, 16)), 4) for _ in range(2))
        shape = draw(st.sampled_from(("bounded", "bounded", "down", "up")))
        if shape == "down":
            core.append(Interval(NEG_INF, b, False, draw(st.booleans())))
        elif shape == "up":
            core.append(Interval(a, POS_INF, draw(st.booleans()), False))
        else:
            core.append(Interval(a, b, draw(st.booleans()) or a == b,
                                 draw(st.booleans()) or a == b))
    tails = []
    for side in ("left", "right"):
        if draw(st.booleans()):
            period = draw(st.sampled_from((F(1, 2), F(1), F(2))))
            tails.append(PeriodicTail(draw(raw_pattern(period)), period, side,
                                      F(draw(st.integers(-12, 12)), 2)))
        else:
            tails.append(None)
    return normalize(core, *tails)


def _fold(xs):
    return functools.reduce(RealSet.union, xs, EMPTY)


class TestUnionAll:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(sets(), max_size=4))
    @example([])
    @example([MISREAD_RIGHT, closed(5, 6)])
    @example([closed(-3, -2), MISREAD_RIGHT])
    @example([LEFT_A, LEFT_B, closed(0, 1)])
    @example([LEFT_A, MISREAD_RIGHT, open_iv(-1, 3)])
    def test_equals_the_pairwise_fold(self, xs):
        got = union_all(xs)
        want = _fold(xs)
        assert got == want
        assert str(got) == str(want)

    def test_tail_free_sets_merge_in_one_pass(self):
        got = union_all([closed(0, 1), open_iv(1, 2), normalize([Interval(F(5), POS_INF, True, False)])])
        assert str(got) == "[0, 2) u [5, +inf)"
        assert union_all(iter([])) == EMPTY
        assert union_all([MISREAD_RIGHT]) is MISREAD_RIGHT


@st.composite
def seeds(draw):
    """A bounded, tail-free seed: one to three pieces on the 1/4 grid of
    [-3, 3]."""
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        a, b = sorted(F(draw(st.integers(-12, 12)), 4) for _ in range(2))
        pieces.append(Interval(a, b, draw(st.booleans()) or a == b, draw(st.booleans()) or a == b))
    return normalize(pieces)


PERIODS = st.sampled_from((F(1, 4), F(1, 2), F(1), F(3, 2), F(2), F(3)))


class TestClosedFormTranslates:
    @settings(max_examples=400, deadline=None)
    @given(seeds(), PERIODS)
    # open pieces exactly one period long: read as full by the kernel
    @example(open_iv(0, 1), F(1))
    @example(open_iv(F(-1, 2), F(3, 2)), F(2))
    # a trace of two open pieces that reduces to (0, 1) mod 1
    @example(open_iv(0, 1) | open_iv(1, 2), F(2))
    @example(open_iv(0, 1) | open_iv(1, 2) | closed(3, 3), F(3))
    # genuinely full germs
    @example(closed(0, 1), F(1))
    @example(open_iv(0, 2), F(1))
    @example(open_iv(0, 1) | closed(1, 1), F(1))
    def test_all_indices_match_the_window(self, seed, period):
        got = union_of_translates(seed, period)
        want = reference_union_of_translates(seed, period)
        assert got == want
        assert str(got) == str(want)

    @settings(max_examples=300, deadline=None)
    @given(seeds(), PERIODS, st.integers(-3, 3), st.integers(0, 3),
           st.sampled_from(("up", "down", "both")))
    # per range shape: germs the kernel misreads (as full, and as an open
    # piece one reduced period long), full germs, and a periodic germ whose
    # translates overlap
    @example(open_iv(0, 1), F(1), 2, 0, "up")
    @example(open_iv(0, 1), F(1), -2, 0, "down")
    @example(open_iv(0, 1), F(1), -1, 3, "both")
    @example(open_iv(0, 1) | open_iv(1, 2), F(2), 1, 0, "up")
    @example(open_iv(0, 1) | open_iv(1, 2), F(2), 1, 0, "down")
    @example(open_iv(0, 1) | open_iv(1, 2), F(2), 1, 2, "both")
    @example(closed(0, 1), F(1), -3, 0, "up")
    @example(closed(0, 1), F(1), 3, 0, "down")
    @example(open_iv(0, 2), F(1), 0, 3, "both")
    @example(closed(0, F(1, 4)) | closed(1, F(5, 4)), F(1, 2), 1, 0, "up")
    @example(closed(0, F(1, 4)) | closed(1, F(5, 4)), F(1, 2), 1, 0, "down")
    def test_one_sided_and_finite_ranges_match_the_window(self, seed, period, k, n, shape):
        k_min = None if shape == "down" else k
        k_max = None if shape == "up" else k + n
        got = union_of_translates(seed, period, k_min, k_max)
        want = reference_union_of_translates(seed, period, k_min, k_max)
        assert got == want
        assert str(got) == str(want)

    def test_closed_forms(self):
        assert union_of_translates(closed(0, 1), F(1)) == REALS
        got = union_of_translates(closed(F(1, 4), F(1, 2)), F(1))
        assert str(got) == "<~([1/4, 1/2] mod 1)|x<0 u x>0|([1/4, 1/2] mod 1)~>"


# members on the 1/2 grid of [-4, 4], drawn from a small pool so that repeats
# are common; some of them miss every trace drawn below
POOL = [closed(0, 1), open_iv(0, 2), closed(1, 3), closed(F(5, 2), 4), open_iv(-2, F(1, 2)),
        closed(0, 0), open_iv(3, 4) | closed(-1, 0), closed(-4, -3), closed(6, 7), EMPTY,
        closed(F(1, 2), F(3, 2)), open_iv(-1, 1) | open_iv(2, 3)]


@st.composite
def oracle_inputs(draw):
    members = draw(st.lists(st.sampled_from(POOL), max_size=8))
    a, b = sorted(F(draw(st.integers(-8, 8)), 2) for _ in range(2))
    k_set = normalize([Interval(a, b, draw(st.booleans()) or a == b,
                                draw(st.booleans()) or a == b)])
    shape = draw(st.sampled_from(("none", "avail", "wider")))
    full_union = None if shape == "none" else union_all(members)
    if shape == "wider":   # K meets the family outside the window: a refusal
        full_union = full_union | closed(F(-1, 2), 5)
    return members, k_set, draw(st.integers(-1, 5)), full_union


def _outcome(oracle, *args):
    try:
        return oracle(*args)
    except OracleRefusal as exc:
        return f"refused: {exc}"


TWENTY = [closed(k, k + 1) for k in range(20)]


class TestPrunedOracle:
    @settings(max_examples=600, deadline=None)
    @given(oracle_inputs())
    # a repeated member: the smallest cover needs it once
    @example(([closed(0, 1), closed(0, 1), closed(1, 2)], closed(0, 2), 2, None))
    # three essential parts, more than max
    @example(([closed(0, 1), closed(1, 2), closed(2, 3), open_iv(0, 3)], closed(0, 3), 1, None))
    # two essential parts and one of two spare ones
    @example(([closed(0, 1), open_iv(F(1, 2), 2), closed(F(3, 2), 3), closed(2, 4), closed(3, 4)],
              closed(0, 4), 3, None))
    # members that miss the trace, max 0 and a negative max
    @example(([closed(6, 7), closed(0, 1)], closed(0, 1), 0, None))
    @example(([closed(0, 1)], closed(0, 1), -1, None))
    @example(([closed(6, 7)], closed(0, 1), 1, None))
    # both refusals
    @example(([closed(0, 1)], closed(0, 3), 2, closed(0, 3)))
    @example((TWENTY, closed(0, 20), 8, None))
    def test_matches_the_plain_enumeration(self, args):
        assert _outcome(oracle_ess_finite, *args) == _outcome(reference_oracle, *args)

    @pytest.mark.parametrize("members, k_set, cap, answer, unions", [
        # twelve essential parts and max 8: no combination is tried
        ([closed(k, k + 1) for k in range(12)], closed(0, 12), 8, False, 1 + 12),
        # one part once the miss and the repeat are dropped: fits in max 1
        ([closed(0, 1), closed(5, 6), closed(0, 1)], closed(0, 1), 1, True, 1),
    ])
    def test_the_search_is_pruned(self, monkeypatch, members, k_set, cap, answer, unions):
        calls = []

        def counted(sets):
            calls.append(1)
            return union_all(sets)
        monkeypatch.setattr(oracles, "union_all", counted)
        assert oracles.oracle_ess_finite(members, k_set, cap) is answer
        assert len(calls) == unions

    def test_the_budget_counts_every_member(self):
        # 20 members, max 8: 263950 subfamilies, although one part covers
        with pytest.raises(OracleRefusal, match="263950 candidate subfamilies"):
            oracle_ess_finite(TWENTY, closed(0, 1), 8)
