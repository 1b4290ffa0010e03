import math
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtsreal.realset import (
    EMPTY,
    MAX_SAMPLE_POINTS,
    NEG_INF,
    POS_INF,
    REALS,
    ConstructionError,
    Interval,
    PeriodicTail,
    RealSet,
    TopologyKind,
    closed,
    closed_open,
    interval,
    normalize,
    open_closed,
    open_iv,
    point,
    points,
    with_tails,
    _clip,
    _complement_list,
    _intersect_lists,
    _key,
    is_finite,
    merge_intervals,
)

from helpers import (
    GRID_STEP,
    GRID_WINDOW,
    oracle_closure_member,
    oracle_interior_member,
    rand_realset,
    signature,
)
from test_acceptance import _quick_set


def tail_set(pattern, period, cut, side):
    left = (pattern, F(period), F(cut)) if side == "left" else None
    right = (pattern, F(period), F(cut)) if side == "right" else None
    return with_tails(EMPTY, left=left, right=right)


HALF_OPEN_PATTERN = (Interval(F(0), F(1, 2), False, False),)
LEFT_HALF = tail_set(HALF_OPEN_PATTERN, 1, 0, "left")


class TestConstruction:
    def test_malformed_intervals(self):
        with pytest.raises(ConstructionError):
            Interval(F(1), F(0), True, True)
        with pytest.raises(ConstructionError):
            Interval(F(0), F(0), True, False)
        with pytest.raises(ConstructionError):
            Interval(NEG_INF, F(0), True, False)
        with pytest.raises(ConstructionError):
            Interval(F(0), POS_INF, False, True)

    def test_adjacent_closed_merge(self):
        assert closed(0, 1) | closed(1, 2) == closed(0, 2)

    def test_open_gap_no_merge(self):
        got = open_iv(0, 1) | open_iv(1, 2)
        assert got.core == (Interval(F(0), F(1), False, False),
                            Interval(F(1), F(2), False, False))

    def test_half_open_chain_merges(self):
        assert closed_open(0, 1) | closed_open(1, 2) == closed_open(0, 2)

    def test_normalize_idempotent_on_soup(self):
        soup = [Interval(F(0), F(2), True, False), Interval(F(1), F(3), False, True),
                Interval(F(5), F(5), True, True)]
        once = normalize(soup)
        again = normalize(once.core, once.left_tail, once.right_tail)
        assert once == again
        assert once == closed(0, 3) | point(5)


class TestBooleanOps:
    def test_spec_examples(self):
        assert (closed_open(0, 1) & closed_open(1, 2)).is_empty
        assert ~interval(NEG_INF, 0) == interval(0, POS_INF, True, False)

    def test_tail_union_preserves_tail(self):
        got = LEFT_HALF | closed(0, 3)
        assert got.left_tail is not None
        assert got.left_tail.cut == 0
        assert got.core == (Interval(F(0), F(3), True, True),)
        # point-sampling oracle on [-4, 4] step 1/8
        win = Interval(F(-4), F(4), True, True)
        step = F(1, 8)
        expect = sorted(set(LEFT_HALF.sample_points(win, step))
                        | set(closed(0, 3).sample_points(win, step)))
        assert got.sample_points(win, step) == expect

    def test_subset(self):
        assert closed_open(0, 1).is_subset(closed(0, 1))
        assert not interval(NEG_INF, 0, False, True).is_subset(interval(NEG_INF, 0))
        assert LEFT_HALF.is_subset(REALS)

    def test_tail_alignment_lcm(self):
        a = tail_set((Interval(F(0), F(1, 2), False, False),), 1, 0, "right")
        b = tail_set((Interval(F(0), F(1), False, False),), F(3, 2), 0, "right")
        u = a | b
        i = a & b
        assert u.right_tail is not None and u.right_tail.period == 3
        for x in range(0, 140):
            q = F(x, 8)
            assert u.contains_point(q) == (a.contains_point(q) or b.contains_point(q))
            assert i.contains_point(q) == (a.contains_point(q) and b.contains_point(q))


class TestBoundedness:
    def test_flags(self):
        b = closed(0, 1).boundedness()
        assert (b.bounded, b.bounded_above, b.bounded_below, b.finite) == (True, True, True, False)
        b = interval(NEG_INF, 0).boundedness()
        assert (b.bounded, b.bounded_above, b.bounded_below, b.finite) == (False, True, False, False)
        b = points([0, 1, 2]).boundedness()
        assert b.finite and b.bounded
        assert not LEFT_HALF.boundedness().bounded_below
        assert LEFT_HALF.boundedness().bounded_above


class TestTopology:
    def test_spec_examples(self):
        assert closed(0, 1).interior(TopologyKind.NAT) == open_iv(0, 1)
        assert open_iv(0, 1).closure(TopologyKind.SORG_R) == closed_open(0, 1)
        assert interval(NEG_INF, 0).closure(TopologyKind.LOWER) == interval(NEG_INF, 0, False, True)
        assert interval(NEG_INF, 0).closure(TopologyKind.UPPER) == REALS

    def test_lower_closed_sets_brute_force(self):
        # Lower-closed sets are (-inf, b], empty, R; the closure must be minimal
        a = interval(NEG_INF, 0)
        cl = a.closure(TopologyKind.LOWER)
        candidates = [EMPTY, REALS] + [interval(NEG_INF, F(b, 4), False, True)
                                       for b in range(-12, 13)]
        best = [c for c in candidates if a.is_subset(c)]
        smallest = min(best, key=lambda c: (c.sup_value(),))
        assert cl == smallest

    def test_tail_closure_wraps_pattern(self):
        # pattern (0,1/2): Nat closure of each occurrence is [k, k+1/2]
        cl = LEFT_HALF.closure(TopologyKind.NAT)
        assert cl.contains_point(F(-1)) and cl.contains_point(F(-1, 2))
        assert not cl.contains_point(F(-1, 4))

    @pytest.mark.parametrize("kind", list(TopologyKind))
    def test_operator_laws_on_randoms(self, kind):
        rng = random.Random(20240 + hash(kind.value) % 97)
        for _ in range(40):
            a = rand_realset(rng)
            cl = a.closure(kind)
            it = a.interior(kind)
            assert it.is_subset(a) and a.is_subset(cl)
            assert cl.closure(kind) == cl
            assert it.interior(kind) == it
            assert cl == (~((~a).interior(kind)))

    @pytest.mark.parametrize("kind", list(TopologyKind))
    def test_sampling_agreement(self, kind):
        rng = random.Random(777 + hash(kind.value) % 31)
        for _ in range(12):
            a = rand_realset(rng)
            cl = a.closure(kind)
            it = a.interior(kind)
            k = 0
            x = GRID_WINDOW.lo
            while x <= GRID_WINDOW.hi:
                assert cl.contains_point(x) == oracle_closure_member(a, x, kind)
                assert it.contains_point(x) == oracle_interior_member(a, x, kind)
                k += 1
                x = GRID_WINDOW.lo + k * F(1, 2)


class TestPoints:
    def test_contains(self):
        assert not closed_open(0, 1).contains_point(1)
        assert LEFT_HALF.contains_point(F(-3, 4))
        assert closed(0, 1).sample_points(Interval(F(0), F(1), True, True), F(1, 2)) == \
            [F(0), F(1, 2), F(1)]


class TestCanonicity:
    def test_randomized_roundtrip(self):
        rng = random.Random(99)
        for _ in range(200):
            a = rand_realset(rng)
            b = normalize(a.core, a.left_tail, a.right_tail)
            assert a == b

    def test_equal_signatures_imply_equal_sets(self):
        rng = random.Random(5)
        seen = {}
        for _ in range(300):
            a = rand_realset(rng, allow_tails=False)
            sig = signature(a)
            # restrict attention to sets inside the window so the signature
            # actually determines the set
            if not a.is_subset(closed(-8, 8)):
                continue
            if all(iv.lo.denominator <= 16 and iv.hi.denominator <= 16 for iv in a.core):
                if sig in seen:
                    # same samples with endpoints on the grid: must be equal
                    prev = seen[sig]
                    if prev != a:
                        # differing flags off the grid are possible; compare densified
                        s2a = a.sample_points(GRID_WINDOW, F(1, 32))
                        s2b = prev.sample_points(GRID_WINDOW, F(1, 32))
                        assert s2a != s2b or prev == a
                else:
                    seen[sig] = a


@st.composite
def finite_realsets(draw):
    n = draw(st.integers(0, 3))
    ivs = []
    for _ in range(n):
        a = F(draw(st.integers(-24, 24)), 8)
        b = F(draw(st.integers(-24, 24)), 8)
        a, b = sorted((a, b))
        lc = draw(st.booleans())
        hc = draw(st.booleans())
        if a == b:
            lc = hc = True
        kind = draw(st.integers(0, 3))
        if kind == 0:
            ivs.append(Interval(NEG_INF, b, False, hc))
        elif kind == 1:
            ivs.append(Interval(a, POS_INF, lc, False))
        else:
            ivs.append(Interval(a, b, lc, hc))
    return normalize(ivs)


class TestAlgebraLaws:
    @settings(max_examples=150, deadline=None)
    @given(finite_realsets(), finite_realsets(), finite_realsets())
    def test_boolean_algebra(self, a, b, c):
        assert ~(a | b) == (~a) & (~b)
        assert ~(a & b) == (~a) | (~b)
        assert a & (b | c) == (a & b) | (a & c)
        assert a | (b & c) == (a | b) & (a | c)
        assert a - b == a & ~b
        assert ~~a == a

    @settings(max_examples=100, deadline=None)
    @given(finite_realsets(), finite_realsets())
    def test_subset_via_difference(self, a, b):
        assert a.is_subset(b) == (a - b).is_empty
        assert (a & b).is_subset(a)
        assert a.is_subset(a | b)

    def test_boolean_laws_with_tails(self):
        rng = random.Random(12)
        for _ in range(120):
            a = rand_realset(rng)
            b = rand_realset(rng)
            assert ~(a | b) == (~a) & (~b)
            assert a - b == a & ~b
            assert ~~a == a
            assert (a | b) & a == a


# ---------------------------------------------------------------------------
# differential tests: the bisected kernel paths against their linear forms
# ---------------------------------------------------------------------------

def contains_linear(a, x):
    """Membership by a scan of every core piece (the linear form)."""
    return (any(iv.contains(x) for iv in a.core)
            or (a.left_tail is not None and a.left_tail.contains(x))
            or (a.right_tail is not None and a.right_tail.contains(x)))


def sample_walk(a, window, step):
    """The grid points in the window, tested one by one (the pointwise walk)."""
    k = math.ceil(window.lo / step)
    out = []
    while k * step <= window.hi:
        x = k * step
        if window.contains(x) and contains_linear(a, x):
            out.append(x)
        k += 1
    return out


def clip_by_intersection(items, lo, hi, lo_closed, hi_closed):
    """The window trace as a general list intersection with the window."""
    try:
        window = Interval(lo, hi, lo_closed and is_finite(lo), hi_closed and is_finite(hi))
    except ConstructionError:  # the window is empty
        return ()
    return _intersect_lists(items, (window,))


def differential_pool(rng, n):
    """Criterion-6 sets (half of them tailed) plus sets whose tails have more
    translates on a window than it has grid points."""
    pool = [_quick_set(rng, tail_rate=0.5) for _ in range(n)]
    pool += [rand_realset(rng) for _ in range(n // 4)]
    pool += [tail_set((Interval(F(0), F(1, 128), True, False),), F(1, 64), 1, "right"),
             tail_set((Interval(F(0), F(1, 200), False, True),), F(1, 100), -1, "left"),
             REALS, EMPTY]
    return pool


SAMPLE_STEPS = (F(1), F(5, 2), F(1, 3), F(1, 7), F(1, 16))


def sample_windows(rng):
    out = [GRID_WINDOW, Interval(F(-8), F(8), False, False),
           Interval(F(-8), F(8), True, False), Interval(F(-8), F(8), False, True),
           Interval(F(-7, 3), F(13, 5), True, True), Interval(F(-7, 3), F(13, 5), False, False),
           Interval(F(0), F(0), True, True), Interval(F(1, 3), F(1, 3), True, True),
           Interval(F(5, 11), F(5, 11), True, True)]
    for _ in range(4):
        lo = F(rng.randint(-80, 80), rng.choice((1, 3, 8, 16)))
        hi = lo + F(rng.randint(0, 60), rng.choice((2, 7, 16)))
        closed_ends = (True, True) if lo == hi else (rng.random() < .5, rng.random() < .5)
        out.append(Interval(lo, hi, *closed_ends))
    return out


class TestKernelDifferential:
    def test_sample_points_matches_the_pointwise_walk(self):
        rng = random.Random(7001)
        cases = tailed = 0
        for a in differential_pool(rng, 60):
            for window in sample_windows(rng):
                for step in SAMPLE_STEPS:
                    assert a.sample_points(window, step) == sample_walk(a, window, step), (
                        str(a), str(window), step)
                    cases += 1
                    tailed += a.left_tail is not None or a.right_tail is not None
        assert cases >= 5000 and tailed >= 2000

    def test_sample_points_refuses_an_oversized_grid(self):
        window = Interval(F(0), F(1), True, True)
        assert len(REALS.sample_points(window, F(1, MAX_SAMPLE_POINTS - 1))) == MAX_SAMPLE_POINTS
        with pytest.raises(ConstructionError, match="grid points"):
            REALS.sample_points(window, F(1, MAX_SAMPLE_POINTS))
        with pytest.raises(ConstructionError, match="grid points"):
            EMPTY.sample_points(window, F(1, 100_000_000))

    def test_sample_points_walks_the_grid_when_the_trace_is_larger(self, monkeypatch):
        # 8 million pattern translates meet the window, but only 8001 grid points
        fine = tail_set((Interval(F(0), F(1, 2000), True, False),), F(1, 1000), 0, "right")

        def no_trace(*args):
            raise AssertionError("sample_points built the trace")

        monkeypatch.setattr(RealSet, "materialize", no_trace)
        got = fine.sample_points(Interval(F(-4000), F(4000), True, True), F(1))
        assert got == [F(k) for k in range(1, 4001)]

    def test_clip_matches_the_window_intersection(self):
        rng = random.Random(7002)
        ends = [NEG_INF, POS_INF] + [F(k, 4) for k in range(-40, 41)]
        lists = [(), (Interval(F(0), F(1), True, True),),
                 (Interval(F(0), F(1), False, False), Interval(F(1), F(2), False, True)),
                 (Interval(NEG_INF, F(-2), False, True), Interval(F(3), F(3), True, True),
                  Interval(F(5), POS_INF, False, False))]
        for _ in range(300):
            soup = []
            for _ in range(rng.randrange(7)):
                lo, hi = sorted((rng.choice(ends), rng.choice(ends)))
                if lo == hi:
                    if is_finite(lo):
                        soup.append(Interval(lo, hi, True, True))
                    continue
                soup.append(Interval(lo, hi, is_finite(lo) and rng.random() < .5,
                                     is_finite(hi) and rng.random() < .5))
            lists.append(merge_intervals(soup))
        windows = [(NEG_INF, POS_INF, True, True),   # everything
                   (F(-20), F(-15), True, True),     # before every piece
                   (F(15), F(20), False, False),     # after every piece
                   (F(1, 4), F(3, 4), False, True),  # inside one piece: cut at both ends
                   (F(1), F(1), True, True),         # touches [0, 1] at its end
                   (F(1), F(2), False, True),        # open start on a closed end
                   (F(-2), F(3), True, True),        # closed ends on closed ends
                   (F(-2), F(3), False, False),      # open ends on closed ends
                   (F(2), F(1), True, True)]         # empty window
        for _ in range(60):
            lo, hi = sorted((rng.choice(ends), rng.choice(ends)))
            windows.append((lo, hi, rng.random() < .5, rng.random() < .5))
        cases = 0
        for items in lists:
            for lo, hi, lo_closed, hi_closed in windows:
                got = _clip(items, lo, hi, lo_closed, hi_closed)
                assert got == clip_by_intersection(items, lo, hi, lo_closed, hi_closed), (
                    [str(iv) for iv in items], lo, hi, lo_closed, hi_closed)
                assert isinstance(got, tuple)
                cases += 1
        assert cases >= 20000

    def test_contains_point_matches_the_linear_scan(self):
        rng = random.Random(7003)
        probes = [F(k, 16) for k in range(-160, 161)] + [F(k, 7) for k in range(-70, 71)]
        for a in differential_pool(rng, 60):
            for x in probes:
                assert a.contains_point(x) == contains_linear(a, x), (str(a), x)


# ---------------------------------------------------------------------------
# order keys
# ---------------------------------------------------------------------------

def exact_key(v, eps):
    """The order a key must reproduce: (rank, exact value, eps)."""
    if v == NEG_INF:
        return (-1, F(0), eps)
    if v == POS_INF:
        return (1, F(0), eps)
    return (0, F(v), eps)


BEYOND = F(2) ** 1024                  # the first value past the float range
FMAX = F(sys.float_info.max)           # its half ulp is 2**970
SUB = F(1, 2 ** 1074)                  # the smallest subnormal
TINY = F(1, 10 ** 40)


def curated_key_values():
    pos = [F(1), F(1, 3), F(2, 7), F(1, 7), F(1, 8), F(5, 8), F(1, 10), F(0.1), F(0.1) + TINY,
           F(0.1) - TINY, F(1) + TINY, F(1) - TINY, F(1, 8) + TINY, F(1, 3) + TINY,
           F(2 ** 53 + 1), F(2 ** 53), F(2 ** 53) + F(1, 2),
           BEYOND, BEYOND + 1, BEYOND + F(1, 3), 2 * BEYOND, BEYOND ** 2,
           FMAX, FMAX + TINY, FMAX - TINY, FMAX + 2 ** 969, FMAX + 2 ** 970, FMAX + 2 ** 971,
           SUB, 2 * SUB, SUB / 2, SUB / 3, 3 * SUB / 2, SUB + TINY ** 9, F(1, 10 ** 320),
           F(2, 10 ** 320), F(1, 2 ** 1022), F(1, 2 ** 1022) - SUB / 3, F(1, 3 * 2 ** 1060)]
    return [F(0), NEG_INF, POS_INF] + pos + [-v for v in pos]


def key_points():
    floats = st.floats(allow_nan=False, allow_infinity=False)
    return st.one_of(
        st.sampled_from((NEG_INF, POS_INF)),
        st.fractions(max_denominator=50),                                # 1/3, 1/7, ...
        floats.map(F),                                                   # every float, subnormals too
        st.builds(lambda f, k: F(f) + k * TINY, floats, st.integers(-3, 3)),  # rounding ties
        st.builds(lambda m, q: m * BEYOND + q,                           # beyond 2**1024
                  st.integers(-4, 4).filter(bool), st.fractions(max_denominator=10)),
        st.builds(lambda s, k: s * (FMAX + k * 2 ** 968),                # around the largest float
                  st.sampled_from((-1, 1)), st.integers(-4, 4)),
        st.builds(lambda k, d: F(k, d) * SUB, st.integers(-9, 9), st.integers(1, 4)),  # subnormal
    )


def kernel_lists(rng, ends, n):
    """n sorted disjoint interval lists over the given endpoints."""
    lists = [(), REALS.core]
    while len(lists) < n:
        soup = []
        for _ in range(rng.randrange(7)):
            lo, hi = sorted((rng.choice(ends), rng.choice(ends)), key=lambda v: exact_key(v, 0))
            if lo == hi:
                if is_finite(lo):
                    soup.append(Interval(lo, hi, True, True))
                continue
            soup.append(Interval(lo, hi, is_finite(lo) and rng.random() < .5,
                                 is_finite(hi) and rng.random() < .5))
        lists.append(merge_intervals(soup))
    return lists


def run_kernels(lists, windows):
    """Every kernel on every pair of lists and every window; the outputs."""
    out = []
    for a in lists:
        out.append(_complement_list(a))
        for lo, hi, lo_closed, hi_closed in windows:
            out.append(_clip(a, lo, hi, lo_closed, hi_closed))
        for b in lists:
            out.append(merge_intervals(a + b))
            out.append(_intersect_lists(a, b))
    return out


class TestOrderKeys:
    def test_curated_keys_order_as_the_exact_values(self):
        points = [(v, eps) for v in curated_key_values() for eps in (-1, 0, 1)]
        keys = [(_key(v, eps), exact_key(v, eps)) for v, eps in points]
        for ka, ea in keys:
            for kb, eb in keys:
                assert (ka < kb) == (ea < eb) and (ka == kb) == (ea == eb), (ea, eb)
        assert (sorted(points, key=lambda p: _key(*p))
                == sorted(points, key=lambda p: exact_key(*p)))

    @settings(max_examples=600, deadline=None)
    @given(key_points(), st.sampled_from((-1, 0, 1)), key_points(), st.sampled_from((-1, 0, 1)))
    @example(F(1), 0, F(1) + TINY, 0)                # one float, two values
    @example(F(1, 3), 1, F(1, 3) + TINY, -1)
    @example(BEYOND, 0, BEYOND + 1, 0)               # past the float range
    @example(-BEYOND - F(1, 3), 0, -BEYOND, 0)
    @example(FMAX + 2 ** 970, 0, POS_INF, -1)
    @example(SUB / 3, 0, -SUB / 3, 0)                # both round to a zero
    def test_keys_order_as_the_exact_values(self, v, eps, w, eta):
        a, b = _key(v, eps), _key(w, eta)
        ea, eb = exact_key(v, eps), exact_key(w, eta)
        assert (a < b) == (ea < eb)
        assert (a == b) == (ea == eb)

    def test_grid_values_have_an_int_remainder(self):
        for v in [F(k, 8) for k in range(-80, 81)] + [F(3, 2 ** 60), F(2 ** 52 + 1, 2), SUB]:
            assert _key(v, 0)[1] == 0 and type(_key(v, 0)[1]) is int, v
        for v in (F(1, 3), F(2 ** 53 + 1, 2), SUB / 2, BEYOND):   # not floats
            assert type(_key(v, 0)[1]) is F and _key(v, 0)[1] != 0, v

    def test_kernels_compare_no_fractions_on_the_grid(self, monkeypatch):
        rng = random.Random(7004)
        ends = [NEG_INF, POS_INF] + [F(k, 8) for k in range(-64, 65)]
        lists = kernel_lists(rng, ends, 40)
        windows = [(NEG_INF, POS_INF, True, True), (F(-3, 8), F(17, 8), True, False),
                   (F(1, 8), F(1, 8), True, True), (NEG_INF, F(5, 4), False, True),
                   (F(-7, 2), POS_INF, False, False), (F(2), F(1), True, True)]
        calls = []
        eq, richcmp = F.__eq__, F._richcmp

        def counted_eq(a, b):
            calls.append("eq")
            return eq(a, b)

        def counted_richcmp(a, b, op):
            calls.append("richcmp")
            return richcmp(a, b, op)

        monkeypatch.setattr(F, "__eq__", counted_eq)
        monkeypatch.setattr(F, "_richcmp", counted_richcmp)
        assert F(1, 3) < F(1, 2) and not F(1, 3) == F(1, 2)
        assert calls == ["richcmp", "eq"]
        del calls[:]
        outputs = run_kernels(lists, windows)
        assert calls == []
        assert sum(map(len, outputs)) > 2000

    def test_kernel_pieces_carry_the_keys_of_their_endpoints(self):
        rng = random.Random(7005)
        ends = [NEG_INF, POS_INF] + [F(k, 3) for k in range(-9, 10)] + [F(k, 8) for k in range(-24, 25)]
        windows = [(NEG_INF, POS_INF, True, True), (F(-2, 3), F(5, 8), True, False),
                   (F(1, 3), F(1, 3), True, True), (F(-1), F(7, 3), False, True)]
        for out in run_kernels(kernel_lists(rng, ends, 30), windows):
            for iv in out:
                fresh = Interval(iv.lo, iv.hi, iv.lo_closed, iv.hi_closed)
                assert (iv._sk, iv._ek, iv._gk) == (fresh._sk, fresh._ek, fresh._gk), str(iv)
            assert all(exact_key(x.hi, 0) <= exact_key(y.lo, 0) for x, y in zip(out, out[1:]))

    def test_kernels_return_unchanged_pieces_as_they_are(self):
        a = (closed(0, 1) | open_iv(2, 3) | point(F(1, 3) + 5)).core
        assert all(x is y for x, y in zip(_intersect_lists(a, REALS.core), a))
        assert all(x is y for x, y in zip(_intersect_lists(REALS.core, a), a))
        assert all(x is y for x, y in zip(merge_intervals(a), a))
        assert all(x is y for x, y in zip(_clip(a, F(-1), F(9)), a))
        assert _complement_list(_complement_list(a)) == a

    def test_interval_equality_reads_the_keys_and_agrees_with_the_hash(self):
        a = Interval(F(1, 3), F(2), False, True)
        assert a == Interval(F(2, 6), 2, False, True) and hash(a) == hash(Interval(F(2, 6), 2, False, True))
        assert a != Interval(F(1, 3), F(2), True, True)
        assert a != Interval(F(1, 3) + TINY, F(2), False, True)
        assert a != (F(1, 3), F(2), False, True)
        assert Interval(F(0), F(0), True, True).is_point and not a.is_point

    def test_intervals_have_slots_and_no_dict(self):
        built = [Interval(F(0), F(1), True, False), Interval(NEG_INF, POS_INF, False, False),
                 *(open_iv(0, 1) | closed(2, 3)).core, *(~closed(0, 1)).core,
                 *_clip(closed(0, 5).core, F(1), F(2)), Interval(F(0), F(1), True, True).shift(F(1))]
        for iv in built:
            assert not hasattr(iv, "__dict__"), str(iv)
        with pytest.raises(AttributeError):
            built[0].lo = F(3)

    def test_construction_errors_are_unchanged(self):
        with pytest.raises(ConstructionError, match=r"empty interval: lo=1 > hi=1/3"):
            Interval(F(1), F(1, 3), True, True)
        with pytest.raises(ConstructionError, match=r"empty interval: lo=inf > hi=0"):
            Interval(POS_INF, F(0), False, True)
        with pytest.raises(ConstructionError, match="degenerate"):
            Interval(F(1, 3), F(1, 3), False, True)
        with pytest.raises(ConstructionError, match="degenerate"):
            Interval(POS_INF, POS_INF, False, False)
        with pytest.raises(ConstructionError, match="inexact lower"):
            Interval(0.5, F(1), True, True)
        with pytest.raises(ConstructionError, match="infinite endpoint"):
            Interval(F(0), POS_INF, True, True)
        big = Interval(-BEYOND, BEYOND + F(1, 3), True, False)
        assert big.contains(BEYOND) and not big.contains(BEYOND + F(1, 3))
        assert not big.contains(POS_INF) and not big.is_point
