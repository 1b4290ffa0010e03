import dataclasses
import importlib
import itertools
import math
import pkgutil
import random
import time
from fractions import Fraction as F

import pytest

import gtsreal
from gtsreal.covers import (
    ALL_INDICES,
    RULES,
    CovCollection,
    End,
    Fan,
    FiniteFamily,
    GenerationResult,
    IndexRange,
    Periodic,
    PreconditionError,
    Restricted,
    Split,
    _dedupe,
    ef_member,
    ess_finite,
    ess_finite_on,
    ess_finite_on_all_base,
    finite_family,
    full_ring_closure,
    gen_topology,
    gen_topology_member,
    generation_levels,
    is_open_in,
    member_generated,
    members,
    plus_step,
    restrict_family,
    union_of,
    violating_member,
)
from gtsreal.lines import (
    ALL_SETS,
    CORPUS,
    FB,
    LB,
    NAT_BOUNDED,
    UB,
    BaseSchema,
    cov_member,
    custom_bornology,
    line,
    locally_ess_finite,
    metric_bounded,
    op_member,
    probe_corpus,
)
from gtsreal.checkers import default_probe_battery
from gtsreal.oracles import OracleRefusal, oracle_ess_finite
from gtsreal.queries import parse
from gtsreal.report import run as run_doc
from gtsreal import covers, realset, report
from gtsreal.qmetric import metric
from gtsreal.realset import (
    EMPTY,
    NEG_INF,
    POS_INF,
    REALS,
    ConstructionError,
    Interval,
    TopologyKind,
    closed,
    closed_open,
    interval,
    open_iv,
    point,
    points,
    with_tails,
)

from helpers import (
    WINDOW_MISSES_UNION,
    fan_edges,
    plain_levels,
    rand_any_family,
    rand_family,
    rand_fraction,
    rand_realset,
    rand_schema,
)

PER_02 = Periodic(open_iv(0, 2), F(1))
PER_HALF_FROM0 = Periodic(open_iv(0, F(1, 2)), F(1), IndexRange(0, None))
NESTED_UP = Periodic(interval(NEG_INF, 0), F(1))  # {(-inf, k) : k in Z}


class TestUnionOf:
    def test_spec_examples(self):
        assert union_of(PER_02) == REALS
        assert union_of(finite_family([closed_open(0, 1), closed_open(1, 2)])) == \
            closed_open(0, 2)
        got = union_of(PER_HALF_FROM0)
        expect = with_tails(EMPTY, right=((Interval(F(0), F(1, 2), False, False),),
                                          F(1), F(0)))
        assert got == expect
        # point sampling cross-check
        for k in range(-64, 64):
            q = F(k, 8)
            assert got.contains_point(q) == any(
                PER_HALF_FROM0.member(i).contains_point(q) for i in range(0, 20))

    def test_nested_union(self):
        assert union_of(NESTED_UP) == REALS
        top = Periodic(interval(NEG_INF, 0), F(1), IndexRange(None, 5))
        assert union_of(top) == interval(NEG_INF, 5)

    @pytest.mark.xfail(strict=True, reason="an open pattern piece exactly one period "
                       "long is anchored as the full germ (realset._pattern_reduce_cached)")
    def test_open_unit_translates_miss_the_integers(self):
        got = union_of(Periodic(open_iv(0, 1), F(1)))
        assert not any(got.contains_point(F(k)) for k in range(-8, 9))


class TestEssFiniteOn:
    def test_periodic_on_bounded_k(self):
        v = ess_finite_on(PER_02, closed(0, 5))
        assert v.essentially_finite
        ks = sorted((m.inf_value(), m.sup_value()) for m in v.witness)
        assert (F(-1), F(1)) in ks and (F(4), F(6)) in ks

    def test_periodic_on_reals(self):
        v = ess_finite_on(PER_02, REALS)
        assert not v.essentially_finite
        assert "unbounded" in v.obstruction

    def test_finite_always(self):
        assert ess_finite_on(finite_family([REALS]), REALS).essentially_finite

    def test_nested(self):
        assert ess_finite_on(NESTED_UP, closed(0, 100)).essentially_finite
        v = ess_finite_on(NESTED_UP, interval(0, POS_INF, True, False))
        assert not v.essentially_finite

    def test_monotone_in_k(self):
        rng = random.Random(31)
        fams = [PER_02, PER_HALF_FROM0, NESTED_UP,
                finite_family([open_iv(0, 3), closed(2, 9)])]
        for f in fams:
            for _ in range(20):
                a = F(rng.randint(-40, 40), 4)
                b = a + F(rng.randint(0, 60), 4)
                if a + 1 > b:
                    continue
                big = closed(a, b + 3)
                small = closed(a + 1, b)
                if ess_finite_on(f, big).essentially_finite:
                    assert ess_finite_on(f, small).essentially_finite


class TestEssFiniteAndLocal:
    def test_spec_examples(self):
        assert not ess_finite(PER_02).essentially_finite
        assert locally_ess_finite(PER_02)
        five = finite_family([interval(NEG_INF, n) for n in range(1, 6)])
        assert ess_finite(five).essentially_finite

    def test_split(self):
        f = Split(F(0), finite_family([interval(NEG_INF, 1)]),
                  Periodic(closed_open(0, 2), F(1), ALL_INDICES))
        assert locally_ess_finite(f)
        assert ess_finite_on(f, interval(NEG_INF, 0)).essentially_finite
        assert not ess_finite_on(f, REALS).essentially_finite


class TestRestrict:
    def test_spec_examples(self):
        got = restrict_family(finite_family([open_iv(0, 2), open_iv(1, 3)]), closed(0, 1))
        assert isinstance(got, FiniteFamily)
        assert members(got) == [interval(0, 1, False, True)]
        f = PER_02
        assert restrict_family(f, REALS) is f
        r = restrict_family(f, closed(0, 5))
        assert isinstance(r, Restricted)
        ms = members(r)
        # occurrences (k, k+2) meeting [0,5]: k = -1..4, six nonempty members
        assert len(ms) == 6
        assert interval(0, 1, True, False) in ms
        assert interval(4, 5, False, True) in ms


class TestFullRing:
    def test_spec_examples(self):
        got = full_ring_closure([closed_open(0, 1), closed_open(1, 2)], REALS)
        assert set(got) == {EMPTY, REALS, closed_open(0, 1), closed_open(1, 2),
                            closed_open(0, 2)}
        assert full_ring_closure([], closed(0, 1)) == sorted(
            [EMPTY, closed(0, 1)], key=str)
        got = full_ring_closure([open_iv(0, 2), open_iv(1, 3)], REALS)
        assert set(got) == {EMPTY, REALS, open_iv(0, 2), open_iv(1, 3),
                            open_iv(1, 2), open_iv(0, 3)}

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            full_ring_closure([open_iv(0, 2)], closed(0, 1))

    def test_closure_laws_exhaustive(self):
        gens = [open_iv(0, 2), closed_open(3, 4), point(1)]
        y = closed(-1, 6)
        ring = full_ring_closure(gens, y)
        rs = set(ring)
        assert EMPTY in rs and y in rs
        for a in ring:
            for b in ring:
                assert a.union(b) in rs
                assert a.intersect(b) in rs

    def test_gen_topology(self):
        assert gen_topology([]) == sorted([EMPTY, REALS], key=str)
        assert gen_topology_member([open_iv(0, 2), open_iv(1, 3)], open_iv(0, 3))


FREE, MOVING = End.FREE, End.MOVING


class _FakeSchema:
    """A base that gives only its ends (lower, upper)."""

    def __init__(self, *ends):
        self.ends = ends

    def element(self, n):
        raise AssertionError("closed form should not enumerate")


class _FakeBornology:
    def __init__(self, *ends):
        self._schema = _FakeSchema(*ends)

    def base_schema(self):
        return self._schema


class TestEfMember:
    def test_upper_family_on_ub(self):
        fam = finite_family([interval(NEG_INF, n) for n in range(0, 6)])
        ub = _FakeBornology(FREE, MOVING)
        assert ef_member(fam, TopologyKind.UPPER, ub)

    def test_periodic_on_nat_bounded(self):
        nat = _FakeBornology(MOVING, MOVING)
        assert ef_member(PER_02, TopologyKind.NAT, nat)

    def test_periodic_on_all_sets(self):
        all_b = _FakeBornology(FREE, FREE)
        assert not ef_member(PER_02, TopologyKind.NAT, all_b)

    def test_member_outside_l(self):
        fam = finite_family([closed(0, 1)])
        nat = _FakeBornology(MOVING, MOVING)
        with pytest.raises(PreconditionError):
            ef_member(fam, TopologyKind.NAT, nat)

    def test_nested_on_ub(self):
        ub = _FakeBornology(FREE, MOVING)
        assert ef_member(NESTED_UP, TopologyKind.UPPER, ub)
        lb = _FakeBornology(MOVING, FREE)
        assert not ef_member(NESTED_UP, TopologyKind.UPPER, lb)

    def test_member_far_inside_an_unbounded_window(self):
        # member k=199 is [100, 201/2), which is not open
        f = Restricted(Periodic(open_iv(0, 1), F(1, 2)), interval(100, POS_INF, True, False))
        with pytest.raises(PreconditionError, match=r"\[100, 201/2\)"):
            ef_member(f, TopologyKind.NAT, FB)

    def test_a_window_that_misses_a_periodic_union(self):
        f = WINDOW_MISSES_UNION
        assert union_of(f) == EMPTY and ess_finite(f)
        for born in (ALL_SETS, UB, LB):
            assert ef_member(f, TopologyKind.NAT, born) is True
        assert cov_member(line("standard/om"), f) == bool(ess_finite(f))

    @pytest.mark.parametrize("index_range,named", [
        (IndexRange(None, -3), r"\[-3, -2\]"),
        (IndexRange(5, None), r"\[5, 6\]"),
        (IndexRange(-7, -4), r"\[-7, -6\]"),
    ])
    def test_an_unwindowed_periodic_probe_is_a_member(self, index_range, named):
        # member 0 is not in the family unless the index range holds 0
        f = Periodic(closed(0, 1), F(1), index_range)
        with pytest.raises(PreconditionError, match=named):
            ef_member(f, TopologyKind.NAT, FB)

    def test_a_collection_pool_is_no_topology(self):
        # a pool of sets is not translation-stable: member (1, 2) is not in it
        with pytest.raises(TypeError, match="L must be a TopologyKind, not list"):
            ef_member(Periodic(open_iv(0, 1), F(1)), [open_iv(0, 1)], NAT_BOUNDED)


# (fan, bornology, the first base index on which the fan is not essentially
# finite): each lies past the 64 elements the former sweep checked
FAR_FAN_FAILURES = (
    (Fan(F(99), F(100)), NAT_BOUNDED, 100),
    (Fan(F(0), F(1)), custom_bornology(BaseSchema(lo=(F(0), F(-1, 100)),
                                                  hi=(F(0), F(1, 100)))), 100),
    (Fan(F(0), F(70)), metric_bounded(metric("d_n")), 69),
)


class TestEfMemberWithFans:
    @pytest.mark.parametrize("fan,born,n", FAR_FAN_FAILURES)
    def test_failure_past_the_first_64_base_elements(self, fan, born, n):
        schema = born.base_schema()
        assert ess_finite_on(fan, schema.element(n - 1))
        assert not ess_finite_on(fan, schema.element(n))
        assert ef_member(fan, TopologyKind.UPPER, born) is False

    def test_closed_form_returns_a_bool_for_a_fan_piece(self):
        f = Split(F(0), finite_family([interval(NEG_INF, -1)]), Fan(F(0), F(1)))
        assert ess_finite_on_all_base(f, NAT_BOUNDED.base_schema()) is False
        assert ess_finite_on_all_base(f, FB.base_schema()) is True

    def test_a_fan_piece_reads_one_stable_trace(self):
        schema = _CountingSchema(MOVING, MOVING)
        f = Restricted(Fan(F(0), F(1)), interval(F(1, 2), POS_INF))
        assert ess_finite_on_all_base(f, schema) is False
        assert schema.read == [(0, 2)]

    def test_a_far_fan_on_the_grid_reads_only_points_next_to_its_edge(self):
        # B_n of the grid near the edge 10^9 + 1 would hold 2 * 10^9 points
        edge = F(10**9 + 1)
        assert FB.base_schema().stable_trace(edge - 1, edge + 1) == points(
            [edge - 1, edge, edge + 1])
        fan = Fan(edge - 1, edge)
        assert ef_member(fan, TopologyKind.UPPER, FB) is True
        assert cov_member(line("standard/uf"), fan) is True

    def test_stable_index_fixes_the_trace_on_its_interval(self):
        rng = random.Random(103)
        for _ in range(200):
            schema = rand_schema(rng)
            a = rand_fraction(rng, -4, 4, 4)
            hull = closed(a, a + rand_fraction(rng, 0, 4, 4))
            n_star = schema.stable_index(hull.inf_value(), hull.sup_value())
            assert n_star >= schema.n0
            want = schema.element(n_star).intersect(hull)
            assert schema.stable_trace(hull.inf_value(), hull.sup_value()) == want
            for n in range(n_star + 1, n_star + 4):
                assert schema.element(n).intersect(hull) == want, (schema, str(hull), n)

    def test_closed_form_agrees_with_a_sweep(self):
        rng = random.Random(101)
        cases = [(WINDOW_MISSES_UNION, b.base_schema())
                 for b in (ALL_SETS, UB, LB, NAT_BOUNDED)]
        cases += [(rand_any_family(rng), rand_schema(rng)) for _ in range(1500)]
        for f, schema in cases:
            n_star = max([schema.stable_index(e - 1, e + 1) for e in fan_edges(f)]
                         + [schema.n0])
            sweep = all(ess_finite_on(f, schema.element(n))
                        for n in range(schema.n0, n_star + 4))
            assert ess_finite_on_all_base(f, schema) == sweep, (str(f), schema)


class _CountingSchema(_FakeSchema):
    """A base whose stable traces are the closed intervals themselves; it
    records which traces are read and builds no element."""

    def __init__(self, *ends):
        super().__init__(*ends)
        self.read = []

    def stable_trace(self, a, b):
        self.read.append((a, b))
        return closed(a, b)


NF_LINES = (line("standard/om"), line("sorgenfrey/lst"))


def _observe(f, k_set):
    v = ess_finite_on(f, k_set)
    return (union_of(f), members(f), v.essentially_finite, len(v.witness or ()),
            locally_ess_finite(f)) + tuple(cov_member(l, f) for l in NF_LINES)


class TestNormalForm:
    """A family is the union of its (base, window) pieces."""

    def test_nested_windows_intersect(self):
        rng = random.Random(83)
        for _ in range(40):
            f = rand_family(rng)
            a, b, k_set = (rand_realset(rng) for _ in range(3))
            assert _observe(Restricted(Restricted(f, a), b), k_set) == \
                _observe(Restricted(f, a.intersect(b)), k_set), (str(f), str(a), str(b))

    def test_split_is_its_two_windowed_pieces(self):
        rng = random.Random(89)
        for _ in range(40):
            c = rand_fraction(rng, -3, 3, 2)
            left, right = rand_family(rng), rand_family(rng)
            k_set = rand_realset(rng)
            got = _observe(Split(c, left, right), k_set)
            lo = _observe(Restricted(left, interval(NEG_INF, c)), k_set)
            hi = _observe(Restricted(right, interval(c, POS_INF, True, False)), k_set)
            ms = None if lo[1] is None or hi[1] is None else \
                lo[1] + [m for m in hi[1] if m not in lo[1]]
            both_ef = lo[2] and hi[2]
            want = (lo[0].union(hi[0]), ms, both_ef,
                    lo[3] + hi[3] if both_ef else (lo[3] if not lo[2] else hi[3]),
                    lo[4] and hi[4]) + tuple(x and y for x, y in zip(lo[5:], hi[5:]))
            assert got == want, (str(c), str(left), str(right), str(k_set))


class TestViolatingMember:
    def test_agrees_with_a_wide_sweep_of_members(self):
        # windows unbounded on at least one side, some with periodic tails:
        # the probes must find a violation exactly when one of many members
        # around the window's finite part violates the line's open shape
        rng = random.Random(97)
        checked = 0
        while checked < 60:
            f, w = rand_family(rng), rand_realset(rng)
            if isinstance(f, FiniteFamily) or w.is_empty or w.boundedness().bounded:
                continue
            if isinstance(f, Fan):
                sweep = [f.member(f.lo + (f.hi - f.lo) * F(i, 64)) for i in range(1, 64)]
            else:
                sweep = [f.member(k) for k in f.index_range.clamp(-60, 60)]
            sweep = [m.intersect(w) for m in sweep]
            l = rng.choice(NF_LINES + (line("standard/ut"), line("standard/uu")))
            bad = violating_member(Restricted(f, w), lambda u: op_member(l, u))
            assert (bad is None) == all(m.is_empty or op_member(l, m) for m in sweep), \
                (str(l), str(f), str(w))
            assert bad is None or (not bad.is_empty and not op_member(l, bad))
            checked += 1


class TestGeneration:
    def test_member_at_depth_zero(self):
        psi = CovCollection.from_specs([finite_family([open_iv(0, 1)])])
        got = member_generated(finite_family([open_iv(0, 1)]), generation_levels(psi), 0)
        assert got.found and got.depth_used == 0

    def test_spec_generation_example(self):
        # {(0,1),(1,2)} obtainable from opens {(0,1),(1,2),(0,2)} by finiteness
        psi = CovCollection.from_specs([
            finite_family([open_iv(0, 2)]),
            finite_family([open_iv(0, 1)]),
            finite_family([open_iv(1, 2)]),
        ])
        target = finite_family([open_iv(0, 1), open_iv(1, 2)])
        got = member_generated(target, generation_levels(psi), 1)
        assert got.found

    def test_periodic_not_found(self):
        psi = CovCollection.from_specs([
            finite_family([open_iv(0, 2), open_iv(1, 3)])])
        got = member_generated(PER_02, generation_levels(psi), 3)
        assert not got.found

    def test_negative_depth_is_a_precondition_error(self):
        psi = CovCollection.from_specs([finite_family([open_iv(0, 1)])])
        for f in (finite_family([open_iv(0, 1)]), finite_family([open_iv(5, 6)])):
            with pytest.raises(PreconditionError):
                member_generated(f, generation_levels(psi), -1)

    def test_shared_levels_give_the_fresh_chain_answers(self):
        # candidates that read one tee'd chain, as the restriction battery's
        # do, get the answers of a fresh chain each, whatever order they
        # consume it in; the depth-2 find carries the truncation mark
        psi = CovCollection.from_specs(
            [finite_family([open_iv(0, 2)]), finite_family([open_iv(1, 3)])],
            carrier=closed(-1, 4))
        cands = [finite_family([open_iv(0, 1)]),
                 finite_family([open_iv(0, 2), open_iv(1, 3)]),
                 finite_family([open_iv(0, 2), open_iv(0, 3), open_iv(1, 2), open_iv(1, 3)])]
        chains = itertools.tee(generation_levels(psi, 56), len(cands))
        shared = [member_generated(c, lv, 3) for c, lv in zip(cands, chains)]
        fresh = [member_generated(c, generation_levels(psi, 56), 3) for c in cands]
        assert shared == fresh
        assert [(g.found, g.truncated, g.depth_used) for g in shared] == \
            [(False, True, 3), (True, False, 1), (True, True, 2)]

    def test_depth_past_the_fixpoint(self):
        # the chain settles after a few levels, so a search a million levels
        # deep answers as a shallow one does, at once
        psi = CovCollection.from_specs([finite_family([open_iv(0, 2)]),
                                        finite_family([open_iv(1, 3)])])
        target = finite_family([open_iv(5, 6)])
        levels = list(itertools.islice(plain_levels(psi), 12))
        assert levels[-1] is levels[-2] and levels[-1].truncated
        for k, level in enumerate(levels):
            assert member_generated(target, generation_levels(psi), k) == \
                GenerationResult(False, level.truncated, k)
        # the search reads the chain up to the first level that repeats
        settled = next(k for k in range(1, 12) if levels[k] is levels[k - 1])
        read = []
        start = time.perf_counter()
        got = member_generated(target, (read.append(lv) or lv for lv in generation_levels(psi)),
                               10 ** 6)
        assert time.perf_counter() - start < 1
        assert got == GenerationResult(False, True, 10 ** 6)
        assert len(read) == settled + 1
        doc = parse("collection C = collection(finite(interval(open 0, open 2)), "
                    "finite(interval(open 1, open 3)))\n"
                    "query member_generated finite(interval(open 5, open 6)) C 1000000\n")
        start = time.perf_counter()
        record, = run_doc(doc).records
        assert time.perf_counter() - start < 1
        assert record.machine().endswith("|ok|found=false depth=1000000 truncated")

    def test_monotone_and_contains_input(self):
        psi = CovCollection.from_specs([
            finite_family([open_iv(0, 2)]), finite_family([open_iv(1, 3)])])
        zero, one, two = itertools.islice(generation_levels(psi, 64), 3)
        assert zero == psi
        assert psi.families <= one.families <= two.families
        assert psi.opens <= one.opens <= two.opens
        for rule in ("finiteness", "stability", "transitivity", "saturation",
                     "regularity"):
            stepped = plus_step(psi, rule)
            assert psi.families <= stepped.families
            assert psi.opens <= stepped.opens


# ---------------------------------------------------------------------------
# the atom-mask engine and ring against the RealSet code they replaced
# ---------------------------------------------------------------------------

def _ref_union(sets):
    u = EMPTY
    for m in sets:
        u = u.union(m)
    return u


def _ref_by_union(fams):
    out = {}
    for fam in fams:
        out.setdefault(_ref_union(fam), []).append(fam)
    return out


def _ref_open_combos(opens):
    for size in range(1, 4):
        for combo in itertools.combinations(opens, size):
            yield combo, _ref_union(combo)


def reference_plus_step(psi, rule, max_opens=48):
    """plus_step as it ran on RealSets before the atom masks."""
    fams = set(psi.families)
    ops = set(psi.opens)
    truncated = psi.truncated
    if rule == "finiteness":
        ops.update((psi.carrier, EMPTY))
        for combo, u in _ref_open_combos(psi.opens):
            inter = combo[0]
            for m in combo[1:]:
                inter = inter.intersect(m)
            ops.update((u, inter))
            fams.add(frozenset(m for m in combo if not m.is_empty))
        fams.add(frozenset())
    elif rule == "stability":
        for fam in psi.families:
            for v in psi.opens:
                fams.add(frozenset(x for x in (m.intersect(v) for m in fam)
                                   if not x.is_empty))
    elif rule == "transitivity":
        by_union = _ref_by_union(sorted(
            psi.families, key=lambda f: tuple(sorted(str(m) for m in f))))
        for fam in psi.families:
            if not fam or any(m not in by_union for m in fam):
                continue
            choices = [by_union[m] for m in fam]
            pick = itertools.product(*choices)
            if math.prod(len(c) for c in choices) > 64:
                pick = [tuple(c[0] for c in choices)]
                truncated = True
            for combo in pick:
                merged = frozenset().union(*combo)
                fams.add(frozenset(m for m in merged if not m.is_empty))
    elif rule == "saturation":
        by_union = _ref_by_union(psi.families)
        for combo, cu in _ref_open_combos(psi.opens):
            if any(all(any(v.is_subset(u) for u in combo) for v in fam)
                   for fam in by_union.get(cu, ())):
                fams.add(frozenset(m for m in combo if not m.is_empty))
    else:
        by_union = _ref_by_union(psi.families)
        for _, v in _ref_open_combos(psi.opens):
            if v in ops:
                continue
            covering = (fam for fu, group in by_union.items() if v.is_subset(fu)
                        for fam in group)
            if any(all(v.intersect(u) in psi.opens for u in fam) for fam in covering):
                ops.add(v)
    if len(ops) > max_opens or len(fams) > 6000:
        truncated = True
    return CovCollection(psi.carrier, frozenset(fams), frozenset(ops), truncated)


def reference_ring(generators, y):
    """L_Y[A] as the pairwise fixpoint over the whole ring."""
    ring = {EMPTY, y}
    ring.update(generators)
    while True:
        fresh = set()
        for a, b in itertools.combinations(list(ring), 2):
            fresh.update((a.union(b), a.intersect(b)))
        if fresh <= ring:
            return sorted(ring, key=str)
        ring |= fresh


BATTERY_POOL = (open_iv(0, 2), open_iv(1, 3), open_iv(-2, 1), closed_open(0, 1),
                open_iv(-1, 4), open_iv(2, 5), point(1).union(open_iv(3, 4)))
BATTERY_WINDOWS = (closed(-1, 3), closed(0, 4), closed(-2, 5), open_iv(-1, 4))
# transitivity meets a member with more than 64 candidate combos at level 2
PSI_PAST_64 = CovCollection.from_specs(
    [restrict_family(finite_family([g]), closed(-1, 3))
     for g in (open_iv(0, 2), point(1).union(open_iv(3, 4)), open_iv(-2, 1))],
    carrier=closed(-1, 3))


def _seeded_psis(rng, n):
    for _ in range(n):
        y = rng.choice(BATTERY_WINDOWS)
        specs = [finite_family(rng.sample(BATTERY_POOL, rng.randint(1, 2)))
                 for _ in range(rng.randint(1, 2))]
        yield CovCollection.from_specs([restrict_family(f, y) for f in specs], carrier=y)


class TestAtomEngine:
    def _assert_reference_levels(self, psi, max_opens, levels=5):
        # every rule on psi itself (only there does regularity glue a new
        # open: on the chain, finiteness has added those unions first) and
        # every step of the first `levels` levels equals the RealSet step,
        # on the chain and from a collection that carries no atoms, and the
        # chain's levels are the stepped ones
        for rule in RULES:
            assert plus_step(psi, rule, max_opens) == \
                reference_plus_step(psi, rule, max_opens), rule
        ref = got = psi
        want = [psi]
        for depth in range(1, levels):
            for rule in RULES:
                step = reference_plus_step(ref, rule, max_opens)
                got = plus_step(got, rule, max_opens)
                assert got == step, (depth, rule)
                ref = step
            want.append(ref)
            bare = CovCollection(ref.carrier, ref.families, ref.opens, ref.truncated)
            rule = RULES[depth % len(RULES)]
            assert plus_step(bare, rule, max_opens) == \
                reference_plus_step(ref, rule, max_opens), (depth, rule)
        assert list(itertools.islice(generation_levels(psi, max_opens), levels)) == want
        return ref

    def test_levels_match_the_realset_engine(self):
        rng = random.Random(9097)
        for psi in _seeded_psis(rng, 10):
            self._assert_reference_levels(psi, rng.choice((8, 24, 56)))

    def test_past_64_transitivity_combos(self):
        lv1 = reference_plus_step(PSI_PAST_64, "finiteness", 56)
        for rule in RULES[1:]:
            lv1 = reference_plus_step(lv1, rule, 56)
        lv2 = reference_plus_step(reference_plus_step(lv1, "finiteness", 56), "stability", 56)
        assert not lv2.truncated
        assert reference_plus_step(lv2, "transitivity", 56).truncated
        self._assert_reference_levels(PSI_PAST_64, 56, 4)

    @staticmethod
    def _psi_with_choices(n1, n2, extra=()):
        """A collection whose family {(0, 4), (10, 14)} has n1 * n2 transitivity
        combos: n1 families union to (0, 4) and n2 to (10, 14)."""
        def unioning_to(lo, hi, n):
            fams = [frozenset({open_iv(lo, hi)})]
            cuts = [lo + F(k, 4) for k in range(1, 16)]
            fams += [frozenset({open_iv(lo, a), open_iv(b, hi)})
                     for b, a in itertools.combinations(cuts, 2)][::-1]
            return fams[:n]
        fams = {frozenset({open_iv(0, 4), open_iv(10, 14)}), *extra,
                *unioning_to(0, 4, n1), *unioning_to(10, 14, n2)}
        assert len(fams) == n1 + n2 + 1 + len(extra)
        ops = frozenset(m for f in fams for m in f)
        return CovCollection(open_iv(-1, 15), frozenset(fams), ops)

    @pytest.mark.parametrize("n1, n2, cut", [(8, 8, False), (5, 13, True), (1, 64, False),
                                             (1, 65, True)])
    def test_transitivity_at_the_64_combo_cut(self, n1, n2, cut):
        psi = self._psi_with_choices(n1, n2)
        got = plus_step(psi, "transitivity", 200)
        assert got == reference_plus_step(psi, "transitivity", 200)
        assert got.truncated is cut
        # every pick is new but {(0, 4)} + {(10, 14)}; past the cut only the
        # first choice of each member is taken
        new = got.families - psi.families
        assert len(new) <= 1 if cut else len(new) == n1 * n2 - 1

    @pytest.mark.parametrize("extra", [
        (frozenset({EMPTY, open_iv(0, 4)}),),                       # no family unions to {}
        (frozenset({EMPTY, open_iv(0, 4)}), frozenset()),
        (frozenset({EMPTY, open_iv(10, 14)}), frozenset({EMPTY}), frozenset()),
    ], ids=["unrefinable", "empty-family", "empty-member-family"])
    def test_transitivity_with_an_empty_member(self, extra):
        psi = self._psi_with_choices(3, 2, extra)
        got = plus_step(psi, "transitivity", 200)
        assert got == reference_plus_step(psi, "transitivity", 200)
        assert all(not m.is_empty for f in got.families - psi.families for m in f)

    def test_max_opens_truncation(self):
        psi = CovCollection.from_specs([finite_family([open_iv(0, 2)]),
                                        finite_family([open_iv(1, 3)])])
        step = reference_plus_step(psi, "finiteness", 4)
        assert step.truncated and len(step.opens) > 4
        assert self._assert_reference_levels(psi, 4).truncated

    def test_binary_ops_follow_the_atoms_not_the_rounds(self, monkeypatch):
        # the atoms are built once per chain and each new set is materialized
        # once: levels 2-4 add no set, so they cost no RealSet operation
        calls = []
        binary = realset._binary
        monkeypatch.setattr(realset, "_binary",
                            lambda a, b, table: calls.append(table) or binary(a, b, table))
        chain = generation_levels(PSI_PAST_64, 56)
        psi = next(chain)
        gens = {psi.carrier} | psi.opens | {m for f in psi.families for m in f}
        counts, sets = [], []
        for level in itertools.islice(chain, 4):
            counts.append(len(calls))
            sets.append(level.opens | {m for f in level.families for m in f})
        atoms = len(level._masks[0].atoms)
        assert atoms == 5 and len(gens) == 4
        # refining by each generator: <= 2 operations per atom plus 2
        build = len(gens) * (2 * atoms + 2)
        assert counts[0] <= build + (atoms - 1) * len(sets[0] - gens)
        assert sets[0] == sets[3] and counts[0] == counts[3] == len(calls)
        assert len(calls) < 40


# ---------------------------------------------------------------------------
# settled rules: the chain skips a rule that left its level as it was
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def battery_psis():
    """The (Psi, max_opens) of each of the restriction-generation battery's
    chains, as its generation_levels calls receive them."""
    got = []
    levels = report.generation_levels
    report.generation_levels = \
        lambda psi, max_opens=48: got.append((psi, max_opens)) or levels(psi, max_opens)
    try:
        report.restriction_generation_battery()
    finally:
        report.generation_levels = levels
    assert len(got) == report.RESTRICTION_INSTANCES == 50
    return got


def _instances(battery_psis, seed):
    """The battery's chains, then ten seeded ones for each max_opens."""
    rng = random.Random(seed)
    return battery_psis + [(psi, max_opens) for max_opens in (8, 24, 56)
                           for psi in _seeded_psis(rng, 10)]


class TestSettledRules:
    def test_every_battery_chain_settles_within_the_battery_depth(self, battery_psis):
        # the battery searches levels 0..RESTRICTION_DEPTH; a chain cut off
        # before its fixpoint would turn "not generated" into "not found yet"
        # and report a disagreement that is none
        for psi, max_opens in battery_psis:
            levels = list(itertools.islice(generation_levels(psi, max_opens),
                                           report.RESTRICTION_DEPTH + 1))
            assert any(b is a for a, b in itertools.pairwise(levels)), psi

    def test_a_step_is_its_input_exactly_when_nothing_changed(self, battery_psis):
        # each level, with its atoms and without, stepped by each rule under
        # each max_opens: the answer is the input itself exactly when the
        # input carries its atoms and the rule changed nothing, truncated
        # included (a collection's equality compares it)
        same = new = 0
        for psi, max_opens in _instances(battery_psis, 9101):
            for level in itertools.islice(plain_levels(psi, max_opens), 3):
                bare = CovCollection(level.carrier, level.families, level.opens,
                                     level.truncated)
                for start, rule, cap in itertools.product((level, bare), RULES, (8, 24, 56)):
                    got = plus_step(start, rule, cap)
                    assert got.truncated or len(got.opens) <= cap, (rule, cap)
                    assert (got is start) == (start._masks is not None and got == start), \
                        (rule, cap)
                    same += got is start
                    new += got == start and got is not start
        assert same and new

    def test_a_truncation_flip_is_a_change(self):
        # a settled level with 5 opens and no mark, stepped under max_opens
        # 4: no rule adds anything, and each marks the collection truncated
        psi = CovCollection.from_specs([finite_family([open_iv(0, 1), open_iv(2, 3)])])
        chain = generation_levels(psi, 56)
        level = next(lv for lv, nxt in itertools.pairwise(chain) if nxt is lv)
        assert len(level.opens) == 5 and not level.truncated
        for rule in RULES:
            got = plus_step(level, rule, 4)
            assert got is not level and got.truncated, rule
            assert (got.families, got.opens) == (level.families, level.opens)
        levels = list(itertools.islice(generation_levels(level, 4), 4))
        assert levels == list(itertools.islice(plain_levels(level, 4), 4))
        assert [lv.truncated for lv in levels] == [False, True, True, True]

    def test_the_chain_is_the_plain_loop(self, battery_psis):
        # level by level for 8 levels, truncated chains included
        truncated = settled = 0
        for psi, max_opens in _instances(battery_psis, 9102):
            got = list(itertools.islice(generation_levels(psi, max_opens), 8))
            assert got == list(itertools.islice(plain_levels(psi, max_opens), 8)), max_opens
            truncated += got[-1].truncated
            settled += got[-1] is got[-2]
        assert truncated and settled

    def test_a_settled_chain_makes_no_more_steps(self, battery_psis, monkeypatch):
        calls = []
        step = covers.plus_step
        monkeypatch.setattr(covers, "plus_step", lambda psi, rule, max_opens=48:
                            calls.append(rule) or step(psi, rule, max_opens))
        for psi, max_opens in battery_psis:
            calls.clear()
            levels, counts = [], []
            for level in itertools.islice(generation_levels(psi, max_opens), 8):
                levels.append(level)
                counts.append(len(calls))
            k = next(k for k in range(1, 8) if levels[k] is levels[k - 1])
            assert all(lv is levels[k] for lv in levels[k:])
            assert counts[k:] == [counts[k]] * (8 - k)
            assert counts[k] < k * len(RULES)

    def test_an_equal_copy_is_not_skipped(self, battery_psis, monkeypatch):
        # stability answers an unchanged level with an equal copy, so each
        # rule meets a new object on every level and must run on it
        calls = []
        step = covers.plus_step

        def copying(psi, rule, max_opens=48):
            calls.append(rule)
            got = step(psi, rule, max_opens)
            return dataclasses.replace(got) if got is psi and rule == "stability" else got

        monkeypatch.setattr(covers, "plus_step", copying)
        for psi, max_opens in battery_psis[:10]:
            calls.clear()
            got = list(itertools.islice(generation_levels(psi, max_opens), 8))
            assert len(calls) == 7 * len(RULES)
            assert got == list(itertools.islice(plain_levels(psi, max_opens), 8))


class TestAtomRing:
    def test_ring_matches_the_pairwise_fixpoint(self):
        rng = random.Random(9092)
        for _ in range(40):
            y = rng.choice((REALS, closed(-4, 4), open_iv(-5, 3)))
            gens = [rand_realset(rng).intersect(y) for _ in range(rng.randint(0, 3))]
            assert full_ring_closure(gens, y) == reference_ring(gens, y)

    def test_membership_matches_the_listed_ring(self):
        rng = random.Random(9093)
        for _ in range(25):
            gens = [rand_realset(rng) for _ in range(rng.randint(0, 3))]
            ring = reference_ring(gens, REALS)
            listed = set(ring)
            cands = [EMPTY, REALS, rand_realset(rng)] + rng.sample(ring, min(3, len(ring)))
            cands += [c.union(rand_realset(rng)) for c in cands[3:]]
            cands += [c.difference(rand_realset(rng)) for c in cands[3:6]]
            for u in cands:
                assert gen_topology_member(gens, u) == (u in listed), (gens, u)

    def test_many_generators(self):
        # k intervals (i, i + 5/2 + i/7): the ring's size grows fast, the
        # membership test does not list it
        gens = [open_iv(i, i + F(5, 2) + F(i, 7)) for i in range(8)]
        start = time.perf_counter()
        ring = gen_topology(gens[:7])
        assert time.perf_counter() - start < 1
        assert len(ring) == 446
        start = time.perf_counter()
        assert gen_topology_member(gens, gens[0].union(gens[1]).union(gens[6].intersect(gens[7])))
        assert not gen_topology_member(gens, open_iv(0, 3))
        assert time.perf_counter() - start < 0.1


class TestOracleAgreement:
    def test_oracle_spec_examples(self):
        mats = [PER_02.member(k) for k in range(-3, 9)]
        assert oracle_ess_finite(mats, closed(0, 5), 8, full_union=union_of(PER_02))
        assert oracle_ess_finite([open_iv(0, 1)], open_iv(2, 3), 2)
        with pytest.raises(OracleRefusal):
            oracle_ess_finite([PER_02.member(0)], closed(0, 5), 8,
                              full_union=union_of(PER_02))

    def test_randomized_agreement(self):
        rng = random.Random(61)
        agreements = 0
        for _ in range(120):
            kind = rng.randrange(3)
            if kind == 0:
                ms = [open_iv(q, q + rng.randint(1, 3))
                      for q in (F(rng.randint(-8, 8), 2) for _ in range(rng.randint(1, 5)))]
                fam = finite_family(ms)
                trunc = members(fam)
                fu = union_of(fam)
            elif kind == 1:
                seed = open_iv(0, rng.randint(1, 3))
                fam = Periodic(seed, F(rng.randint(1, 2)), ALL_INDICES)
                trunc = [fam.member(k) for k in range(-9, 10)]
                fu = union_of(fam)
            else:
                fam = Periodic(interval(NEG_INF, rng.randint(-2, 2)), F(1), ALL_INDICES)
                trunc = [fam.member(k) for k in range(-9, 10)]
                fu = union_of(fam)
            a = F(rng.randint(-12, 6), 2)
            k_set = closed(a, a + rng.randint(0, 3))
            try:
                expect = oracle_ess_finite(trunc, k_set, 8, full_union=fu)
            except OracleRefusal:
                continue
            got = ess_finite_on(fam, k_set)
            assert got.essentially_finite == expect, (str(fam), str(k_set))
            agreements += 1
        assert agreements >= 100


# (family, K): nested families with periodic pieces, whose truncation keeps
# members 0..3 of each periodic piece, clipped to the piece's window
TRUNCATED_CASES = (
    ("restricted(periodic(interval(open 0, open 2), 1, all), interval(open 0, open inf))",
     "interval(closed 1, closed 2)"),
    ("split(0, periodic(interval(open 0, open 2), 1, all), "
     "periodic(interval(open 0, open 1), 1/2, from 0))", "interval(closed 1/4, closed 5/4)"),
    ("split(1, finite(interval(open -1, open 1)), "
     "restricted(periodic(interval(open 0, open 3), 1, all), interval(open 0, open 4)))",
     "interval(closed 0, closed 3)"),
)


class TestTruncated:
    @pytest.mark.parametrize("fam,k_set", TRUNCATED_CASES)
    def test_the_oracle_answers_nested_periodic_families(self, fam, k_set):
        doc = parse(f"family F = {fam}\nset K = {k_set}\n"
                    "query oracle_ess_finite F window 0 3 K max 4\n"
                    "query ess_finite_on F K\n")
        oracle, decided = run_doc(doc).records
        f, k = doc.families["F"], doc.sets["K"]
        assert oracle.status == "ok"
        assert oracle.detail == str(ess_finite_on(f, k).essentially_finite).lower()
        assert decided.detail.startswith("essentially_finite")

    def test_each_periodic_piece_gives_members_in_the_span_on_its_window(self):
        per = Periodic(open_iv(0, 2), F(1))
        got = Split(F(1), finite_family([open_iv(-1, 1)]),
                    Restricted(per, open_iv(0, 4))).truncated(0, 3)
        assert got == [open_iv(-1, 1), closed_open(1, 2), open_iv(1, 3),
                       open_iv(2, 4), open_iv(3, 4)]
        assert Restricted(per, interval(3, POS_INF)).truncated(0, 3) == [
            open_iv(3, 4), open_iv(3, 5)]
        assert Split(F(0), per, Fan(F(0), F(1))).truncated(0, 3) is None


def _rand_probe(rng):
    """A bounded interval, a half-line, or a random set (tailed 40% of the time)."""
    a = rand_fraction(rng, -8, 8, 2)
    kind = rng.randrange(3)
    if kind == 0:
        return closed(a, a + F(rng.randint(0, 12), 2))
    if kind == 1:
        return rng.choice((interval(NEG_INF, a), interval(a, POS_INF, True, False)))
    return rand_realset(rng)


def _outcome(fn, *args):
    """fn's result, or its exception's type and message."""
    try:
        return fn(*args)
    except Exception as e:  # noqa: BLE001 - the type is part of the outcome
        return type(e), str(e)


class TestFamilyCache:
    """union_of and ess_finite_on are memoized by value: a cached answer is
    the answer of the undecorated function, and exceptions are not cached."""

    def test_cached_answers_match_the_undecorated_functions(self):
        rng = random.Random(1103)
        union_of.cache_clear()
        ess_finite_on.cache_clear()
        for _ in range(300):
            f, k_set = rand_any_family(rng), _rand_probe(rng)
            want_u = _outcome(union_of.__wrapped__, f)
            want_v = _outcome(ess_finite_on.__wrapped__, f, k_set)
            for _ in range(2):   # a miss, then a hit
                assert _outcome(union_of, f) == want_u, str(f)
                assert _outcome(ess_finite_on, f, k_set) == want_v, (str(f), str(k_set))
        assert ess_finite_on.cache_info().hits >= 300

    def test_exceptions_are_not_cached(self):
        # the right side of this split is no family, which _pieces refuses
        # inside the cached body; every call must still raise
        f, k_set = Split(0, Fan(0, 1), "not a family"), closed(-1, 1)
        ess_finite_on.cache_clear()
        for _ in range(2):
            with pytest.raises(TypeError, match="not a family"):
                ess_finite_on(f, k_set)
        info = ess_finite_on.cache_info()
        assert info.currsize == 0 and info.misses == 2

    @pytest.mark.parametrize("int_built,frac_built", [
        (Fan(0, 1), Fan(F(0), F(1))),
        (Fan(-3, 2, "up"), Fan(F(-3), F(2), "up")),
        (Periodic(closed(0, 1), 2), Periodic(closed(0, 1), F(2))),
        (Periodic(interval(NEG_INF, 0), 1, IndexRange(None, 3)),
         Periodic(interval(NEG_INF, 0), F(1), IndexRange(None, 3))),
        (Split(0, Fan(0, 1), Periodic(open_iv(0, 2), 1)),
         Split(F(0), Fan(F(0), F(1)), Periodic(open_iv(0, 2), F(1)))),
    ], ids=str)
    def test_equal_keys_give_equal_answers(self, int_built, frac_built):
        assert int_built == frac_built and hash(int_built) == hash(frac_built)
        probes = (closed(-3, -2), closed(0, 1), open_iv(F(1, 3), 5), interval(0, POS_INF))
        for first, second in ((int_built, frac_built), (frac_built, int_built)):
            for k_set in probes:
                union_of.cache_clear()
                ess_finite_on.cache_clear()
                a = (union_of(first), ess_finite_on(first, k_set))
                b = (union_of(second), ess_finite_on(second, k_set))
                want = (union_of.__wrapped__(second), ess_finite_on.__wrapped__(second, k_set))
                assert a == b == want
                assert str(a) == str(want)

    def test_open_test_memo_is_the_interior_test(self):
        # every (set, topology) pair the battery asks: the probe corpus and
        # the axiom probe's opens, against all six topologies; a miss, then a hit
        sets = set(probe_corpus()) | {u for l in CORPUS for u in default_probe_battery(l)[0]}
        is_open_in.cache_clear()
        for _ in range(2):
            for a in sets:
                for kind in TopologyKind:
                    assert is_open_in(a, kind) == (a.interior(kind) == a), (str(a), kind)
        info = is_open_in.cache_info()
        assert info.misses == len(sets) * len(TopologyKind) <= info.hits
        assert any(is_open_in(a, k) for a in sets for k in TopologyKind)
        assert not all(is_open_in(a, k) for a in sets for k in TopologyKind)

    def test_construction_refuses_floats_and_fractional_indices(self):
        assert type(Fan(0, 1).lo) is type(Periodic(closed(0, 1), 2).period) is F
        assert type(Split(1, Fan(0, 1), Fan(0, 1)).cut) is F
        for build in (lambda: Fan(0, 0.5), lambda: Fan(0.5, 1, "up"),
                      lambda: Periodic(closed(0, 1), 2.5),
                      lambda: Split(0.5, Fan(0, 1), Fan(0, 1)),
                      lambda: IndexRange(F(1, 2), 2), lambda: IndexRange(0, 2.0),
                      lambda: IndexRange(None, F(3))):
            with pytest.raises(ConstructionError):
                build()

    def test_dedupe_keeps_first_occurrences(self):
        a, b = open_iv(0, 1), closed(F(1, 2), 3)
        got = _dedupe([a, b, open_iv(F(0), F(1)), point(5), closed(F(1, 2), F(3)), a])
        assert got == [a, b, point(5)] and got[0] is a and got[1] is b

    def test_members_of_a_long_span(self):
        # 20,001 distinct members: the dedupe is linear in them
        doc = parse("query members periodic(interval(closed 0, closed 1), 1, span 0 20000)\n")
        start = time.perf_counter()
        record, = run_doc(doc).records
        assert time.perf_counter() - start < 2
        assert record.status == "ok"
        assert members(Periodic(closed(0, 1), F(1), IndexRange(0, 20000))) == \
            [closed(k, k + 1) for k in range(20001)]

    def test_module_caches_are_bounded(self):
        # every module-level memo of the library holds a bounded number of
        # entries (the per-algebra maps of _Atoms live and die with one chain)
        found = {}
        for mod in pkgutil.iter_modules(gtsreal.__path__):
            module = importlib.import_module(f"gtsreal.{mod.name}")
            for name, obj in vars(module).items():
                if callable(getattr(obj, "cache_info", None)):
                    found[f"{mod.name}.{name}"] = obj.cache_info().maxsize
        for name in ("realset._pattern_reduce_cached", "realset._germ_op_cached",
                     "realset._materialize_cached", "covers.union_of",
                     "covers.ess_finite_on", "covers._probes", "covers.is_open_in",
                     "lines._element", "lines.cov_member", "lines._admissible_battery",
                     "checkers._end_gaps", "queries._steps", "queries._literal"):
            assert name in found
        assert all(size is not None for size in found.values()), found
