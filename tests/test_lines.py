import math
import random
from fractions import Fraction as F

import pytest

from gtsreal.checkers import default_probe_battery
from gtsreal.covers import (
    Fan,
    IndexRange,
    Periodic,
    Restricted,
    ess_finite,
    ess_finite_on,
    ess_finite_on_all_base,
    finite_family,
    members,
    union_of,
)
from gtsreal.lines import (
    ALL_SETS,
    CORPUS,
    FB,
    LB,
    NAT_BOUNDED,
    UB,
    UF_SMALL,
    BaseSchema,
    acb_member,
    admissible_battery,
    cb_member,
    cov_member,
    custom_bornology,
    line,
    metric_bounded,
    op_member,
    pt_of,
    sm_member,
    smallness_refuter,
    topology_of_line,
    weak_local_small_cover,
    weak_local_small_verdict,
)
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

from helpers import WINDOW_MISSES_UNION, fan_edges, probe_corpus, rand_any_family
from helpers import battery_candidates as _battery_candidates

PROBES = probe_corpus()


class TestOpMember:
    def test_spec_examples(self):
        assert op_member(line("sorgenfrey/om"), closed_open(0, 1) | closed_open(2, 3))
        assert not op_member(line("sorgenfrey/om"), open_iv(0, 1))
        assert op_member(line("standard/ut"), open_iv(0, 1) | open_iv(5, POS_INF))

    def test_upper_lines(self):
        for v in ("uu", "ul", "uf"):
            l = line(f"standard/{v}")
            assert op_member(l, interval(NEG_INF, 3))
            assert op_member(l, EMPTY) and op_member(l, REALS)
            assert not op_member(l, open_iv(0, 1))
            assert not op_member(l, interval(NEG_INF, 0, False, True))

    def test_om_vs_st_tails(self):
        tail = with_tails(EMPTY, right=((Interval(F(0), F(1, 2), True, False),),
                                        F(1), F(0)))
        assert op_member(line("sorgenfrey/lom"), tail)
        assert not op_member(line("sorgenfrey/om"), tail)
        assert op_member(line("sorgenfrey/st"), tail)
        assert not op_member(line("sorgenfrey/l_minus_om"), tail)
        assert op_member(line("sorgenfrey/l_plus_om"), tail)

    def test_sorgenfrey_shapes(self):
        l = line("sorgenfrey/om")
        assert op_member(l, interval(NEG_INF, 2))      # infinite left end allowed
        assert op_member(l, interval(0, POS_INF, True, False))
        assert op_member(l, REALS)
        assert not op_member(l, open_iv(0, POS_INF))   # finite open left end
        assert not op_member(l, closed(0, 1))
        assert not op_member(l, point(0))

    def test_standard_match_nat(self):
        l = line("standard/st")
        assert op_member(l, open_iv(0, 1))
        assert not op_member(l, closed_open(0, 1))


class TestCovMember:
    def test_spec_examples(self):
        per = Periodic(closed_open(0, 2), F(1))
        assert not cov_member(line("sorgenfrey/st"), per)
        assert cov_member(line("sorgenfrey/lst"), per)
        split_like = Periodic(closed_open(0, 2), F(1), IndexRange(0, None))
        assert cov_member(line("sorgenfrey/l_plus_st"), split_like)

    def test_split_spec_example(self):
        from gtsreal.covers import Split
        f = Split(F(0), finite_family([interval(NEG_INF, 1)]),
                  Periodic(closed_open(0, 2), F(2)))
        assert cov_member(line("sorgenfrey/l_plus_st"), f)

    def test_ut_accepts_everything_shaped(self):
        per = Periodic(open_iv(0, 2), F(1))
        assert cov_member(line("standard/ut"), per)
        assert not cov_member(line("standard/ut"),
                              finite_family([closed(0, 1)]))  # not open

    def test_member_far_inside_an_unbounded_window(self):
        # member k=199 is [100, 201/2), which is not open
        f = Restricted(Periodic(open_iv(0, 1), F(1, 2)), interval(100, POS_INF, True, False))
        assert not cov_member(line("standard/ut"), f)

    def test_every_ray_of_a_restricted_fan(self):
        # (-inf, q) n (-1, 1/2] is (-1, 1/2], which is not open, for q > 1/2
        f = Restricted(Fan(F(0), F(1)), interval(-1, F(1, 2), False, True))
        assert not cov_member(line("standard/ut"), f)
        assert cov_member(line("standard/ut"), Restricted(Fan(F(0), F(1)), open_iv(-1, F(1, 2))))

    def test_upper_ef_lines(self):
        nested = Periodic(interval(NEG_INF, 0), F(1))
        assert cov_member(line("standard/uu"), nested)
        assert not cov_member(line("standard/ul"), nested)
        assert cov_member(line("standard/uf"), nested)
        assert cov_member(line("standard/ul"), finite_family([REALS]))


def _locally_ess_finite_by_sweep(f) -> bool:
    """f is essentially finite on a neighborhood of every point.  Only a fan
    piece can fail, and only at its edge, so [-n, n] with n past every fan
    edge decides."""
    n = math.ceil(max([abs(e) for e in fan_edges(f)] + [0])) + 2
    return bool(ess_finite_on(f, closed(-n, n)))


# Each cover bornology's admissible families by definition, decided by the
# witness-building `ess_finite_on` rather than the closed form: every family
# (fb); essentially finite (all sets); locally essentially finite
# (nat_bounded); and that plus essentially finite on (-inf, 0] (ub) or on
# [0, +inf) (lb), since [0, n] is compact.
_COVER_DEFINITIONS = {
    "fb": lambda f: True,
    "all": lambda f: bool(ess_finite(f)),
    "nat_bounded": _locally_ess_finite_by_sweep,
    "ub": lambda f: _locally_ess_finite_by_sweep(f) and bool(
        ess_finite_on(f, interval(NEG_INF, 0))),
    "lb": lambda f: _locally_ess_finite_by_sweep(f) and bool(
        ess_finite_on(f, interval(0, POS_INF))),
}


class TestCoverBornology:
    def test_closed_form_matches_each_line_definition(self):
        rng = random.Random(151)
        for f in [WINDOW_MISSES_UNION] + [rand_any_family(rng) for _ in range(520)]:
            want = {kind: define(f) for kind, define in _COVER_DEFINITIONS.items()}
            for l in CORPUS:
                cover = l.spec.cover
                got = ess_finite_on_all_base(f, cover.base_schema())
                assert got == want[cover.kind], (str(l), str(f))

class TestBornologies:
    def test_spec_examples(self):
        assert UB.member(interval(NEG_INF, 5, False, True))
        tail = with_tails(EMPTY, right=((Interval(F(0), F(1, 2), True, False),),
                                        F(1), F(0)))
        assert not NAT_BOUNDED.member(tail)
        sc = FB.base_schema()
        assert sc.element(2) == points([-2, -1, 0, 1, 2])

    def test_named_bases_monotone_and_inside(self):
        for b in (FB, ALL_SETS, NAT_BOUNDED, UB, LB,
                  metric_bounded(metric("d_n")), metric_bounded(metric("rho_u"))):
            sc = b.base_schema()
            for n in range(0, 6):
                e_n, e_next = sc.element(n), sc.element(n + 1)
                assert e_n.is_subset(e_next)
                assert b.member(e_n)

    def test_uf_small_has_no_base(self):
        assert UF_SMALL.base_schema() is None
        assert UF_SMALL.member(points([0, 1, 2]))
        left_points = with_tails(EMPTY, left=((Interval(F(0), F(0), True, True),),
                                              F(1), F(0)))
        assert UF_SMALL.member(left_points)
        assert not UF_SMALL.member(closed(0, 1))
        assert not UF_SMALL.member(interval(NEG_INF, 0, False, True))

    def test_custom_schema(self):
        sc = BaseSchema(lo=(F(-1), F(-2)), hi=(F(1), F(2)))
        b = custom_bornology(sc)
        assert b.member(closed(-100, 100))
        assert not b.member(interval(0, POS_INF, True, False))
        with pytest.raises(ConstructionError):
            BaseSchema(lo=(F(0), F(1)), hi=(F(0), F(1)))  # lower end grows

    def test_ideal_laws_on_probes(self):
        borns = [FB, ALL_SETS, NAT_BOUNDED, UB, LB, UF_SMALL,
                 metric_bounded(metric("rho_0")), metric_bounded(metric("rho_S"))]
        for b in borns:
            for a1 in PROBES:
                for a2 in PROBES[:10]:
                    if b.member(a2) and a1.is_subset(a2):
                        assert b.member(a1)
                    if b.member(a1) and b.member(a2):
                        assert b.member(a1.union(a2))
            assert b.member(point(7))
            assert b.member(EMPTY)


class TestIdentityTables:
    def test_corpus_sm_examples(self):
        assert not sm_member(line("standard/ut"), closed(0, 1))
        assert sm_member(line("standard/lom"), closed(0, 1))
        assert not sm_member(line("standard/lom"), interval(0, POS_INF))
        assert not cb_member(line("sorgenfrey/st"), closed(0, 1))
        assert acb_member(line("standard/uf"), interval(NEG_INF, 0))

    def test_line_topologies(self):
        assert topology_of_line(line("standard/ut")) is TopologyKind.NAT
        assert topology_of_line(line("standard/uu")) is TopologyKind.UPPER
        assert topology_of_line(line("sorgenfrey/lst")) is TopologyKind.SORG_R

    def test_acb_subsumption_sweep(self):
        for l in CORPUS:
            for a in PROBES:
                if sm_member(l, a) or cb_member(l, a):
                    assert acb_member(l, a), (str(l), str(a))

    def test_pt_bornology_invariance(self):
        for l in CORPUS:
            lp = pt_of(l)
            for a in PROBES:
                assert sm_member(l, a) == sm_member(lp, a), (str(l), str(a))
                assert cb_member(l, a) == cb_member(lp, a), (str(l), str(a))
                # ACB(X_pt) subset of ACB(X)
                if acb_member(lp, a):
                    assert acb_member(l, a)

    def test_pt_table(self):
        assert pt_of(line("standard/lom")) == line("standard/lst")
        assert pt_of(line("standard/ut")) == line("standard/ut")
        assert pt_of(line("sorgenfrey/om")) == line("sorgenfrey/st")
        assert pt_of(line("standard/l_plus_om")) == line("standard/l_plus_st")
        fixed = [l for l in CORPUS if pt_of(l) == l]
        for l in fixed:
            assert l.variant in ("ut", "st", "lst", "l_plus_st", "l_minus_st",
                                 "uu", "ul", "uf")


class TestRefuters:
    def test_battery_is_admissible(self):
        for l in CORPUS:
            bat = admissible_battery(l)
            assert bat, str(l)
            for f in bat:
                assert cov_member(l, f)

    def test_small_probes_survive_battery(self):
        for l in CORPUS:
            bat = admissible_battery(l)
            for a in PROBES:
                if sm_member(l, a):
                    for f in bat:
                        assert ess_finite_on(f, a).essentially_finite, \
                            (str(l), str(a), str(f))

    def test_non_small_probes_are_refuted(self):
        for l in CORPUS:
            for a in PROBES:
                if not sm_member(l, a):
                    f = smallness_refuter(l, a)
                    assert f is not None, (str(l), str(a))
                    assert cov_member(l, f), (str(l), str(a), str(f))
                    assert not ess_finite_on(f, a).essentially_finite, \
                        (str(l), str(a), str(f))


# Per line, two bit-strings ("1" is true) recorded from the tables each line
# had before they became one row per line: op_member on the probe corpus
# followed by default_probe_battery's opens, and cov_member on the seven
# families admissible_battery tries followed by the smallness refuter of each
# non-small probe.
LINE_PINS = {
    "standard/ut": ("100001000101011000000100001111111", "11111111111111111111111111111"),
    "standard/om": ("100001000101011000000000001111111", "1100000"),
    "standard/st": ("100001000101011000000100001111111", "1100000"),
    "standard/lom": ("100001000101011000000100001111111", "111111011111111111111"),
    "standard/lst": ("100001000101011000000100001111111", "111111011111111111111"),
    "standard/slom": ("100001000101011000000100001111111", "1100000"),
    "standard/l_plus_om": ("100001000101011000000000001111111", "110101011111111"),
    "standard/l_minus_om": ("100001000101011000000100001111111", "1100100111111111"),
    "standard/l_plus_st": ("100001000101011000000100001111111", "110101011111111"),
    "standard/l_minus_st": ("100001000101011000000100001111111", "1100100111111111"),
    "standard/sl_plus_om": ("100001000101011000000000001111111", "1100000"),
    "standard/sl_minus_om": ("100001000101011000000100001111111", "1100000"),
    "standard/rom": ("100001000101011000000000001111111", "1100000"),
    "standard/uu": ("100000000100010000000000001111", "100001011111111"),
    "standard/ul": ("100000000100010000000000001111", "1000000"),
    "standard/uf": ("100000000100010000000000001111", "100001111111111111111111111"),
    "sorgenfrey/ut": ("100001100101111010000111001111111", "11111111111111111111111111111"),
    "sorgenfrey/om": ("100000100100110010000000001111111", "1100000"),
    "sorgenfrey/st": ("100001100101111010000111001111111", "1100000"),
    "sorgenfrey/lom": ("100000100100110010000011001111111", "111111011111111111111"),
    "sorgenfrey/lst": ("100001100101111010000111001111111", "111111011111111111111"),
    "sorgenfrey/slom": ("100000100100110010000011001111111", "1100000"),
    "sorgenfrey/l_plus_om": ("100000100100110010000010001111111", "110101011111111"),
    "sorgenfrey/l_minus_om": ("100000100100110010000000001111111", "1100100111111111"),
    "sorgenfrey/l_plus_st": ("100001100101111010000111001111111", "110101011111111"),
    "sorgenfrey/l_minus_st": ("100001100101111010000111001111111", "1100100111111111"),
    "sorgenfrey/sl_plus_om": ("100000100100110010000010001111111", "1100000"),
    "sorgenfrey/sl_minus_om": ("100000100100110010000000001111111", "1100000"),
    "sorgenfrey/rom": ("100000100100110010000000001111111", "1100000"),
}


def _bits(xs):
    return "".join("1" if x else "0" for x in xs)


@pytest.mark.parametrize("l", CORPUS, ids=str)
def test_line_pin(l):
    opens = PROBES + tuple(default_probe_battery(l)[0])
    fams = _battery_candidates(l) + [smallness_refuter(l, a)
                                     for a in PROBES if not sm_member(l, a)]
    got = (_bits(op_member(l, u) for u in opens), _bits(cov_member(l, f) for f in fams))
    assert got == LINE_PINS[str(l)]
    assert admissible_battery(l) == [f for f in _battery_candidates(l) if cov_member(l, f)]


class TestWeakLocalSmallness:
    def test_classification(self):
        for l in CORPUS:
            expect = not (l.variant in ("ut", "uf"))
            assert weak_local_small_verdict(l) == expect, str(l)

    def test_covers_are_small_open_and_cover(self):
        for l in CORPUS:
            f = weak_local_small_cover(l)
            if f is None:
                continue
            assert union_of(f) == REALS, str(l)
            mats = members(f)
            if mats is None:
                # periodic: check a window of members
                base = f
                mats = [base.member(k) for k in range(-4, 5)]
            for m in mats:
                assert op_member(l, m), (str(l), str(m))
                assert sm_member(l, m), (str(l), str(m))

    def test_ut_uf_small_opens_cannot_cover(self):
        # small opens on these lines are all empty
        for name in ("standard/ut", "sorgenfrey/ut", "standard/uf"):
            l = line(name)
            for u in [open_iv(0, 1), closed_open(0, 1), interval(NEG_INF, 0),
                      REALS, point(0), points([0, 1])]:
                if op_member(l, u) and not u.is_empty:
                    assert not sm_member(l, u), (name, str(u))


class TestInducedLineSmallness:
    def test_ef_line_smallness_identity(self):
        # the line whose covers are EF(tau_nat, CB_nat) is standard/lst
        from gtsreal.covers import ef_member
        l = line("standard/lst")
        for a in PROBES:
            assert sm_member(l, a) == NAT_BOUNDED.member(a)
        for f in admissible_battery(l):
            assert ef_member(f, TopologyKind.NAT, NAT_BOUNDED) == cov_member(l, f)
        per = Periodic(open_iv(0, 2), F(1))
        assert ef_member(per, TopologyKind.NAT, NAT_BOUNDED)
        assert not ef_member(per, TopologyKind.NAT, ALL_SETS)
