import random
import time
from fractions import Fraction as F

import pytest

from gtsreal.checkers import (
    PiecewiseAffineMap,
    _delta_star,
    _fit,
    _missing,
    axiom_probe,
    base_check,
    chain_check,
    chain_search,
    initial_bornology_member,
    metrizable_verdict,
    proper_check,
    strict_cont_refute,
    uniform_chain_check,
)
from gtsreal.covers import Periodic, PreconditionError
from gtsreal.lines import (
    ALL_SETS,
    FB,
    LB,
    NAT_BOUNDED,
    UB,
    BaseSchema,
    line,
    metric_bounded,
)
from gtsreal.qmetric import ALL_METRICS, metric
from gtsreal.queries import parse
from gtsreal.realset import (
    EMPTY,
    POS_INF,
    REALS,
    TopologyKind,
    closed,
    closed_open,
    interval,
    open_iv,
    point,
)

from gtsreal.report import run


SYM_SCHEMA = BaseSchema(lo=(F(-1), F(-1)), hi=(F(1), F(1)))          # [-(n+1), n+1]
UB_SCHEMA = BaseSchema(lo=None, hi=(F(0), F(1)), hi_closed=False)    # (-inf, n)

CHAIN_METRICS = ALL_METRICS + tuple(m.conjugate() for m in ALL_METRICS)
# open, closed, one-sided and fixed (beta = 0) ends, ends that cross 0 late,
# a later first index, the grid and a ball schema of every metric
CHAIN_SCHEMAS = (
    SYM_SCHEMA,
    BaseSchema(lo=(F(-1), F(-1)), hi=(F(1), F(1)), lo_closed=False, hi_closed=False),
    UB_SCHEMA,
    BaseSchema(lo=(F(0), F(-1)), hi=None, lo_closed=False),
    BaseSchema(lo=(F(0), F(0)), hi=(F(1), F(1))),
    BaseSchema(lo=(F(0), F(0)), hi=(F(1), F(1)), lo_closed=False),
    BaseSchema(lo=(F(-2), F(-1, 2)), hi=(F(5, 2), F(0)), hi_closed=False),
    BaseSchema(lo=(F(-2), F(-1, 2)), hi=(F(5, 2), F(0))),
    BaseSchema(lo=(F(7, 2), F(-1)), hi=(F(9, 2), F(1, 2)), hi_closed=False),
    BaseSchema(lo=(F(-9), F(-1)), hi=(F(-6), F(3, 2))),
    BaseSchema(lo=(F(-3), F(-2)), hi=(F(1), F(1, 3)), n0=2),
    BaseSchema(kind="grid"),
) + tuple(BaseSchema(kind="ball", metric=m) for m in CHAIN_METRICS)


class TestPiecewiseAffine:
    def test_eval_and_windows(self):
        f = PiecewiseAffineMap((F(0),), ((F(1), F(0)), (F(2), F(-1))))
        assert f(-3) == -3
        assert f(0) == -1
        assert f(2) == 3

    def test_image_preimage_roundtrip(self):
        f = PiecewiseAffineMap.affine(2, 1)
        a = closed(0, 1) | point(3)
        img = f.image(a)
        assert img == closed(1, 3) | point(7)
        assert f.preimage(img) == a

    def test_negative_slope_and_constant(self):
        g = PiecewiseAffineMap.affine(-1, 0)
        assert g.image(closed_open(0, 1)) == interval(-1, 0, False, True)
        h = PiecewiseAffineMap((), ((F(0), F(5)),))
        assert h.image(REALS) == point(5)
        assert h.preimage(point(5)) == REALS
        assert h.preimage(open_iv(0, 1)).is_empty


class TestProperCheck:
    def test_spec_examples(self):
        got = proper_check(UB, TopologyKind.UPPER, TopologyKind.LOWER)
        assert got.proper
        got = proper_check(LB, TopologyKind.UPPER, TopologyKind.UPPER)
        assert not got.proper
        got = proper_check(LB, TopologyKind.UPPER, TopologyKind.LOWER)
        assert not got.proper
        got = proper_check(FB, TopologyKind.SORG_R, TopologyKind.NAT)
        assert not got.proper

    def test_certificates_reverify(self):
        # cl(B_n) fits in int(B_m), with the m of _fit, at each n up to the
        # bound exactly when n comes before the witness
        got = proper_check(NAT_BOUNDED, TopologyKind.NAT, TopologyKind.NAT)
        assert got.proper
        sc = NAT_BOUNDED.base_schema()
        for n in range(sc.n0, 13):
            c, m = _fit(sc, TopologyKind.NAT, n)
            fits = c.is_subset(sc.element(m).interior(TopologyKind.NAT))
            assert fits == (got.witness_index is None or n < got.witness_index), n


class TestBaseCheck:
    def test_spec_examples(self):
        assert base_check(NAT_BOUNDED, TopologyKind.NAT)
        assert not base_check(FB, TopologyKind.SORG_R)
        assert base_check(UB, TopologyKind.UPPER)

    def test_more(self):
        assert base_check(ALL_SETS, TopologyKind.NAT)
        assert not base_check(FB, TopologyKind.NAT)
        assert not base_check(UB, TopologyKind.LOWER)


class TestChainChecks:
    def test_d_n_uniform_pass(self):
        rep = chain_check(metric("d_n"), SYM_SCHEMA, F(1, 2))
        assert rep.verdict == "pass" and rep.uniform

    def test_d_n_plus_fails_early(self):
        # left end of [B_n]^delta is phi^-1(1/(n+2) - delta), which escapes
        # B_(n+1) as soon as (n+2)(n+3) > 1/delta; for delta = 1/8 that is n=1
        rep = chain_check(metric("d_n_plus"), SYM_SCHEMA, F(1, 8))
        assert rep.verdict == "fail_at"
        assert rep.fail_index == 1
        assert rep.missing is not None and not rep.missing.is_empty

    def test_d_n_plus_failure_law(self):
        import math
        for k in (2, 3, 4, 5, 7, 9, 12):
            d = F(1, 2**k)
            rep = chain_check(metric("d_n_plus"), SYM_SCHEMA, d)
            predicted = next(n for n in range(200) if (n + 2) * (n + 3) > 1 / d)
            assert rep.verdict == "fail_at"
            assert rep.fail_index == predicted
            assert rep.fail_index <= math.ceil(1 / d)

    def test_d_n_plus_ub_schema_uniform(self):
        rep = chain_check(metric("d_n_plus"), UB_SCHEMA, F(1, 2))
        assert rep.verdict == "pass" and rep.uniform
        got = uniform_chain_check(metric("d_n_plus"), UB_SCHEMA)
        assert got.verdict == "pass"

    def test_chain_failures_carry_missing_region(self):
        rep = chain_check(metric("d_n"), SYM_SCHEMA, F(3))
        assert rep.verdict == "fail_at" and rep.fail_index == 0
        # [B_0]^3 = (-4, 4) vs B_1 = [-2, 2]
        assert rep.missing == open_iv(-4, -2) | open_iv(2, 4)

    def test_chain_search_theorem_style(self):
        rep = chain_search(metric("d_n"), SYM_SCHEMA)
        assert rep.verdict == "pass"
        # per-index deltas exist for d_n_plus (delta_n ~ n^-2) although no
        # single delta works: the theorem-style search passes at every index
        # while the uniform check refutes, reproducing the
        # equivalence/uniformity gap
        rep = chain_search(metric("d_n_plus"), SYM_SCHEMA)
        assert rep.verdict == "pass" and not rep.uniform
        assert str(rep) == "pass (per-index)"
        assert all(_delta_star(metric("d_n_plus"), SYM_SCHEMA, n) > 0
                   for n in range(SYM_SCHEMA.n0, 33))
        rep = uniform_chain_check(metric("d_n_plus"), SYM_SCHEMA)
        assert rep.verdict == "fail_at"

    def test_rho_s_minus_not_uniform_on_nat(self):
        rep = uniform_chain_check(metric("rho_S_minus"), SYM_SCHEMA)
        assert rep.verdict == "fail_at"

    def test_grid_schema_fails(self):
        rep = chain_check(metric("d_n"), FB.base_schema(), F(1, 2))
        assert rep.verdict == "fail_at" and rep.fail_index == 0

    def test_delta_star_is_the_largest_delta(self):
        # the inclusion holds at delta*(n) and fails just above it (at 2^-40
        # when delta*(n) = 0); delta*(n) = inf means every delta holds
        rng = random.Random(6061)
        for sc in CHAIN_SCHEMAS:
            for d in CHAIN_METRICS:
                self._check_delta_star(d, sc, sc.n0 + rng.randrange(12))
                self._check_delta_star(d, sc, sc.n0 + rng.randrange(12))

    @staticmethod
    def _check_delta_star(d, sc, n):
        star = _delta_star(d, sc, n)
        case = (d.label(), sc, n, star)
        if star == 0:
            assert not _missing(d, sc, F(1, 2**40), n).is_empty, case
        elif star == POS_INF:
            assert _missing(d, sc, F(1000), n).is_empty, case
        else:
            assert _missing(d, sc, star, n).is_empty, case
            assert not _missing(d, sc, star * F(1001, 1000), n).is_empty, case

    def test_first_failure_matches_a_scan(self):
        rng = random.Random(6062)
        for sc, d in ((sc, rng.choice(CHAIN_METRICS)) for sc in CHAIN_SCHEMAS
                      for _ in range(3)):
            delta = rng.choice((F(2), F(1), F(1, 2), F(3, 7), F(1, 8), F(1, 64)))
            scan = next((n for n in range(sc.n0, 121)
                         if not _missing(d, sc, delta, n).is_empty), None)
            rep = chain_check(d, sc, delta)
            case = (d.label(), sc, delta, str(rep), scan)
            if scan is None:
                assert rep.verdict == "pass" or rep.fail_index > 120, case
            else:
                assert rep.verdict == "fail_at" and rep.fail_index == scan, case
                assert rep.missing == _missing(d, sc, delta, scan), case

    def test_search_and_uniform_read_the_profile(self):
        # chain_search fails at the first delta*(n) = 0; a uniform pass
        # reports min(1, inf delta*), and every other uniform answer fails
        rng = random.Random(6063)
        for sc in CHAIN_SCHEMAS:
            for d in rng.sample(CHAIN_METRICS, 6):
                stars = [_delta_star(d, sc, n) for n in range(sc.n0, 121)]
                zero = next((n for n, g in enumerate(stars, sc.n0) if g == 0), None)
                case = (d.label(), sc)
                assert chain_search(d, sc).fail_index == zero, case
                rep = uniform_chain_check(d, sc)
                if rep.verdict == "pass":
                    assert rep.delta_used == min(F(1), min(stars)), case
                else:
                    assert zero is not None or stars[-1] < stars[60], case

    def test_per_index_search_on_d_n_plus_at_any_bound(self):
        # the damped metric needs delta_n ~ n^-2 but some delta works at
        # every n; an index window no longer decides this
        start = time.perf_counter()
        rep = chain_search(metric("d_n_plus"), SYM_SCHEMA)
        assert time.perf_counter() - start < 1
        assert str(rep) == "pass (per-index)"
        rep = chain_check(metric("d_n_plus"), SYM_SCHEMA, F(1, 2**25))
        assert rep.verdict == "fail_at" and rep.fail_index == 5791

    def test_a_large_index_bound_answers_at_once(self):
        # the bound is only checked against the first index: each query
        # answers at once and as it does with a small bound
        queries = ("chain_check d_n nat_bounded delta 1/2 upto {}",
                   "chain_search d_n_plus ub upto {}",
                   "uniform_chain rho_S_minus nat_bounded upto {}",
                   "proper_check nat_bounded nat nat {}")
        for q in queries:
            start = time.perf_counter()
            got = run(parse(f"query {q.format(100000)}")).records[0]
            assert time.perf_counter() - start < 0.1, q
            assert got == run(parse(f"query {q.format(16)}")).records[0], q
            assert got.status == "ok", (q, got.detail)

    def test_far_zero_crossing_is_read_not_scanned(self):
        # the lower end 100000 - n crosses 0 at n = 100000; the damped gap
        # phi(-k) - phi(-k - 1) drops below 1/2 one step later
        sc = BaseSchema(lo=(F(100000), F(-1)), hi=(F(200000), F(1)))
        start = time.perf_counter()
        rep = chain_check(metric("d_n_plus"), sc, F(1, 2))
        assert time.perf_counter() - start < 1
        assert rep.fail_index == 100001 and not rep.missing.is_empty
        assert chain_check(metric("d_n"), sc, F(1, 2)).verdict == "pass"

    def test_schemas_whose_first_elements_are_empty(self):
        # B_0 = (0, 0) and B_0..B_4 = [5, n] are empty, so those inclusions
        # hold for every delta; each answer matches a scan of _missing up to
        # the query's bound and past it
        cases = (
            ("chain_check d_n schema(open 0, open affine(0, 1)) delta 1/2 upto 4",
             BaseSchema(lo=(F(0), F(0)), hi=(F(0), F(1)), lo_closed=False,
                        hi_closed=False), F(1, 2)),
            ("chain_search d_n schema(closed 5, closed affine(0, 1)) upto 4",
             BaseSchema(lo=(F(5), F(0)), hi=(F(0), F(1))), F(1, 2**40)),
        )
        rep = run(parse("".join(f"query {q}\n" for q, _, _ in cases)))
        d = metric("d_n")
        for rec, (q, sc, delta) in zip(rep.records, cases):
            assert rec.status == "ok", (q, rec.detail)
            assert sc.element(0) == EMPTY
            got = (chain_check(d, sc, delta) if q.startswith("chain_check")
                   else chain_search(d, sc))
            assert rec.detail == str(got), q
            for upto in (4, 40):
                scan = next((n for n in range(sc.n0, upto + 1)
                             if not _missing(d, sc, delta, n).is_empty), None)
                if scan is None:
                    assert got.verdict == "pass" or got.fail_index > upto, (q, upto)
                else:
                    assert got.verdict == "fail_at" and got.fail_index == scan, (q, upto)
        assert rep.records[0].detail.startswith("fail_at(1)")
        assert rep.records[1].detail.startswith("fail_at(5)")

    def test_first_nonempty_element(self):
        rng = random.Random(6064)
        for _ in range(200):
            sc = BaseSchema(lo=(F(rng.randint(-4, 8)), F(-rng.randint(0, 2), 2)),
                            hi=(F(rng.randint(-6, 4)), F(rng.randint(0, 2), 2)),
                            lo_closed=rng.random() < 0.5, hi_closed=rng.random() < 0.5,
                            n0=rng.randint(0, 2))
            start = sc.first_nonempty()
            for n in range(sc.n0, 24):
                lo = sc.lo[0] + sc.lo[1] * n
                hi = sc.hi[0] + sc.hi[1] * n
                empty = lo > hi or (lo == hi and not (sc.lo_closed and sc.hi_closed))
                assert sc.element(n).is_empty == empty == (start is None or n < start), (sc, n)


class TestMetrizableVerdict:
    def test_consistent_spec_examples(self):
        got = metrizable_verdict(line("standard/lst"), NAT_BOUNDED, metric("d_n"))
        assert got.consistent
        got = metrizable_verdict(line("sorgenfrey/lst"),
                                 metric_bounded(metric("rho_0")), metric("rho_0"))
        assert got.consistent

    def test_inconsistent_spec_example(self):
        got = metrizable_verdict(line("standard/ut"), FB, metric("d_n"))
        assert not got.consistent
        assert got.failing_part == "bornology"

    def test_topology_mismatch(self):
        got = metrizable_verdict(line("standard/ut"), NAT_BOUNDED, metric("rho_u"))
        assert got.failing_part == "topology"


class TestStrictCont:
    def test_spec_examples(self):
        battery = [Periodic(open_iv(0, 2), F(1))]
        ident = PiecewiseAffineMap.identity()
        got = strict_cont_refute(ident, line("standard/st"), line("standard/ut"),
                                 battery)
        assert got.verdict == "REFUTED"
        got = strict_cont_refute(ident, line("standard/ut"), line("standard/lst"),
                                 battery)
        assert got.verdict == "UNREFUTED"
        shift = PiecewiseAffineMap.affine(1, 1)
        got = strict_cont_refute(shift, line("standard/lst"), line("standard/lst"),
                                 battery)
        assert got.verdict == "UNREFUTED"

    def test_battery_precondition(self):
        battery = [Periodic(open_iv(0, 2), F(1))]
        with pytest.raises(PreconditionError):
            strict_cont_refute(PiecewiseAffineMap.identity(),
                               line("standard/ut"), line("standard/st"), battery)

    def test_refuted_witness_reverifies(self):
        from gtsreal.lines import cov_member
        battery = [Periodic(open_iv(0, 2), F(1))]
        got = strict_cont_refute(PiecewiseAffineMap.identity(),
                                 line("standard/st"), line("standard/lst"), battery)
        assert got.verdict == "REFUTED"
        assert cov_member(line("standard/lst"), got.witness)
        assert not cov_member(line("standard/st"), got.preimage)

    def test_unrepresentable_preimage_reported(self):
        bent = PiecewiseAffineMap((F(0),), ((F(-1), F(0)), (F(1), F(0))))
        battery = [Periodic(open_iv(0, 2), F(1))]
        got = strict_cont_refute(bent, line("standard/lst"), line("standard/lst"),
                                 battery)
        assert got.verdict == "UNREFUTED"
        assert got.notes  # the escape is reported, never silent


class TestAxiomProbes:
    def test_spec_lines_pass(self):
        for name in ("standard/om", "sorgenfrey/lst", "standard/uu",
                     "sorgenfrey/om", "standard/lst", "standard/uf"):
            rep = axiom_probe(line(name))
            assert rep.passed, (name, rep.failures)
            assert rep.checks > 10


class TestInitialBornology:
    def test_spec_examples(self):
        ident = PiecewiseAffineMap.identity()
        neg = PiecewiseAffineMap.affine(-1, 0)
        assert initial_bornology_member([ident, neg], [UB, UB], closed(0, 1))
        assert not initial_bornology_member([ident, neg], [UB, UB],
                                            interval(0, POS_INF, True, False))
        assert initial_bornology_member([], [], REALS)


class TestCoherenceInvariants:
    def test_consistent_triples_are_proper(self):
        # whenever the verdict is CONSISTENT with metric d, the bornology is
        # (tau(d), tau(d^-1))-proper
        from gtsreal.report import _metrizability_table
        seen = 0
        for l, b, d, expect, anchor, part in _metrizability_table():
            if expect != "CONSISTENT":
                continue
            got = metrizable_verdict(l, b, d)
            assert got.consistent, (str(l), str(b), d.label())
            pr = proper_check(b, d.topology_of(), d.conjugate().topology_of())
            assert pr.proper, (str(l), str(b), d.label())
            seen += 1
        assert seen >= 20

    def test_chain_certificates_reverify(self):
        # [B_n]^delta lies inside B_(n+1) at each n <= 16 exactly when n
        # comes before the first failure
        for d, delta in ((metric("d_n"), F(1, 2)), (metric("d_n_plus"), F(1, 8))):
            rep = chain_check(d, SYM_SCHEMA, delta)
            for n in range(SYM_SCHEMA.n0, 17):
                holds = d.nbhd(SYM_SCHEMA.element(n), delta).is_subset(SYM_SCHEMA.element(n + 1))
                assert holds == (rep.fail_index is None or n < rep.fail_index), (d.label(), n)
