"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `python3 -m pytest tests/test_acceptance.py -v -s`.
"""

import math
import random
import time
from fractions import Fraction as F

from gtsreal.checkers import (
    base_check,
    chain_check,
    metrizable_verdict,
    uniform_chain_check,
)
from gtsreal.covers import IndexRange, Periodic, ef_member, ess_finite_on, finite_family, members, union_of
from gtsreal.lines import (
    ALL_SETS,
    CORPUS,
    FB,
    NAT_BOUNDED,
    UB,
    UF_SMALL,
    BaseSchema,
    acb_member,
    cb_member,
    cov_member,
    line,
    metric_bounded,
    pt_of,
    sm_member,
)
from gtsreal.oracles import OracleRefusal, oracle_ess_finite
from gtsreal.qmetric import ALL_METRICS, metric
from gtsreal.realset import (
    NEG_INF,
    POS_INF,
    REALS,
    Interval,
    TopologyKind,
    closed,
    interval,
    normalize,
    open_iv,
    with_tails,
)
from gtsreal.report import corpus_verify, restriction_generation_battery, _metrizability_table

from helpers import probe_corpus

GRID = [F(k, 16) for k in range(-128, 129)]
WINDOW = Interval(F(-8), F(8), True, True)


def announce(num, name, detail):
    print(f"\nACCEPTANCE {num} [{name}]: PASS  ({detail})")


# ---------------------------------------------------------------------------
# criterion 1: bornology identity table
# ---------------------------------------------------------------------------

def test_criterion_1_identity_table():
    t0 = time.time()
    probes = probe_corpus()
    assert len(probes) >= 24
    checks = 0
    failures = []

    def agree(tag, l, member_fn, born):
        nonlocal checks
        for a in probes:
            checks += 1
            if member_fn(l, a) != born.member(a):
                failures.append(f"{tag}:{l}:{a}")

    BD = metric_bounded
    # upper-topology lines
    agree("uu:Sm=UB", line("standard/uu"), sm_member, UB)
    agree("uu:ACB=UB", line("standard/uu"), acb_member, UB)
    agree("ul:Sm=all", line("standard/ul"), sm_member, ALL_SETS)
    agree("ul:ACB=all", line("standard/ul"), acb_member, ALL_SETS)
    agree("uf:Sm=rwo", line("standard/uf"), sm_member, UF_SMALL)
    agree("uf:ACB=UB", line("standard/uf"), acb_member, UB)
    agree("uf:CB=UB", line("standard/uf"), cb_member, UB)
    for v in ("uu", "ul", "uf"):
        agree("upper:CB=UB", line(f"standard/{v}"), cb_member, UB)
    # EF(upper, nat-bounded) = uu-covers and EF(upper, all) = ul-covers
    for fam in (finite_family([interval(NEG_INF, n) for n in range(3)]),
                Periodic(interval(NEG_INF, 0), F(1)),
                finite_family([REALS])):
        checks += 2
        lhs = ef_member(fam, TopologyKind.UPPER, NAT_BOUNDED)
        if lhs != cov_member(line("standard/uu"), fam):
            failures.append(f"EF(u,nat)=uu:{fam}")
        lhs = ef_member(fam, TopologyKind.UPPER, ALL_SETS)
        if lhs != cov_member(line("standard/ul"), fam):
            failures.append(f"EF(u,all)=ul:{fam}")
    # standard lines against metric-ball bornologies
    agree("ut:Sm=FB", line("standard/ut"), sm_member, FB)
    agree("ut:CB=B(d_n)", line("standard/ut"), cb_member, BD(metric("d_n")))
    agree("ut:ACB=B(d_n)", line("standard/ut"), acb_member, BD(metric("d_n")))
    for v in ("lom", "lst"):
        l = line(f"standard/{v}")
        agree("loc:Sm=B(d_n)", l, sm_member, BD(metric("d_n")))
        agree("loc:CB=B(d_n)", l, cb_member, BD(metric("d_n")))
        agree("loc:ACB=B(d_n)", l, acb_member, BD(metric("d_n")))
    for v in ("l_plus_om", "l_plus_st"):
        l = line(f"standard/{v}")
        agree("l+:CB=B(d_n)", l, cb_member, BD(metric("d_n")))
        agree("l+:Sm=B(d+)", l, sm_member, BD(metric("d_n_plus")))
        agree("l+:ACB=B(d+)", l, acb_member, BD(metric("d_n_plus")))
    for v in ("om", "slom", "rom", "st"):
        l = line(f"standard/{v}")
        agree("small:Sm=all", l, sm_member, ALL_SETS)
        agree("small:ACB=all", l, acb_member, ALL_SETS)
        agree("small:CB=B(d_n)", l, cb_member, BD(metric("d_n")))
    # strictness probes of the stated proper inclusions
    assert cb_member(line("standard/ut"), closed(0, 1)) and \
        not sm_member(line("standard/ut"), closed(0, 1))
    assert sm_member(line("standard/l_plus_om"), interval(NEG_INF, 0)) and \
        not cb_member(line("standard/l_plus_om"), interval(NEG_INF, 0))
    # Sorgenfrey lines against metric-ball bornologies
    for v in ("lst", "lom"):
        l = line(f"sorgenfrey/{v}")
        agree("sloc:Sm=B(rho_0)", l, sm_member, BD(metric("rho_0")))
        agree("sloc:ACB=B(rho_0)", l, acb_member, BD(metric("rho_0")))
    for v in ("l_plus_st", "l_plus_om"):
        l = line(f"sorgenfrey/{v}")
        agree("sl+:Sm=B(rho_S)", l, sm_member, BD(metric("rho_S")))
        agree("sl+:ACB=B(rho_S)", l, acb_member, BD(metric("rho_S")))
    for v in ("l_minus_st", "l_minus_om"):
        l = line(f"sorgenfrey/{v}")
        agree("sl-:Sm=B(rho_L)", l, sm_member, BD(metric("rho_L")))
        agree("sl-:ACB=B(rho_L)", l, acb_member, BD(metric("rho_L")))
    for v in ("om", "slom", "st", "sl_plus_om"):
        l = line(f"sorgenfrey/{v}")
        agree("ssmall:Sm=B(rho_S1)", l, sm_member, BD(metric("rho_S1")))
        agree("ssmall:ACB=B(rho_S1)", l, acb_member, BD(metric("rho_S1")))
    agree("sut:Sm=FB", line("sorgenfrey/ut"), sm_member, FB)
    assert not base_check(FB, TopologyKind.SORG_R)
    # relatively compact Sorgenfrey sets are finite in this representation
    for l in CORPUS:
        if l.family == "sorgenfrey":
            agree("sorg:CB=FB", l, cb_member, FB)
    dt = time.time() - t0
    assert not failures, failures[:8]
    assert dt < 10, f"criterion 1 took {dt:.1f}s"
    announce(1, "bornology identity table",
             f"{checks} membership agreements across {len(probes)} probes, {dt:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: metrizability verdict sweep
# ---------------------------------------------------------------------------

def test_criterion_2_metrizability_sweep():
    mism = []
    n_cons = n_incons = 0
    for l, b, d, expect, anchor, part in _metrizability_table():
        got = metrizable_verdict(l, b, d)
        if got.verdict != expect or (part is not None and got.failing_part != part):
            mism.append(f"{l}/{b}/{d.label()}: got {got.verdict}@{got.failing_part}, "
                        f"want {expect}@{part} ({anchor})")
        elif expect == "CONSISTENT":
            n_cons += 1
        else:
            n_incons += 1
    assert not mism, mism
    announce(2, "metrizability verdicts",
             f"{n_cons} consistent + {n_incons} anchored failures, zero mismatches")


# ---------------------------------------------------------------------------
# criterion 3: chain criteria
# ---------------------------------------------------------------------------

def test_criterion_3_chain_criteria():
    t0 = time.time()
    sym = BaseSchema(lo=(F(-1), F(-1)), hi=(F(1), F(1)))
    ub_schema = BaseSchema(lo=None, hi=(F(0), F(1)), hi_closed=False)
    rep = chain_check(metric("d_n"), sym, F(1, 2))
    assert rep.verdict == "pass" and rep.uniform
    fail_info = []
    for k in range(2, 13):
        delta = F(1, 2**k)
        rep = chain_check(metric("d_n_plus"), sym, delta)
        assert rep.verdict == "fail_at"
        assert rep.fail_index <= math.ceil(1 / delta)
        fail_info.append(rep.fail_index)
    rep = chain_check(metric("d_n_plus"), ub_schema, F(1, 2))
    assert rep.verdict == "pass" and rep.uniform
    rep2 = uniform_chain_check(metric("d_n_plus"), ub_schema)
    assert rep2.verdict == "pass"
    dt = time.time() - t0
    assert dt < 5, f"criterion 3 took {dt:.1f}s"
    announce(3, "chain criteria",
             f"d_n uniform pass; d_n_plus fail indices {fail_info} within ceil(1/delta); "
             f"(-inf,n) uniform with delta=1/2; {dt:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: bornology subsumption and pt-invariance sweeps
# ---------------------------------------------------------------------------

def test_criterion_4_subsumption_and_pt_invariance():
    probes = probe_corpus()
    checks = 0
    for l in CORPUS:
        lp = pt_of(l)
        for a in probes:
            checks += 1
            if sm_member(l, a) or cb_member(l, a):
                assert acb_member(l, a), (str(l), str(a))
            assert sm_member(l, a) == sm_member(lp, a)
            assert cb_member(l, a) == cb_member(lp, a)
            if acb_member(lp, a):
                assert acb_member(l, a)
    announce(4, "subsumption + pt invariance sweeps",
             f"{checks} probe checks over {len(CORPUS)} lines, zero violations")


# ---------------------------------------------------------------------------
# criterion 5: essential-finiteness oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_5_oracle_equivalence():
    rng = random.Random(515)
    answered = 0
    target = 200
    attempts = 0
    while answered < target and attempts < 1200:
        attempts += 1
        kind = rng.randrange(4)
        if kind == 0:
            ms = [open_iv(q, q + rng.randint(1, 3))
                  for q in (F(rng.randint(-8, 8), 2) for _ in range(rng.randint(1, 5)))]
            fam = finite_family(ms)
            trunc = members(fam)
        elif kind == 1:
            fam = Periodic(open_iv(0, rng.randint(1, 3)), F(rng.randint(1, 2)))
            trunc = [fam.member(k) for k in range(-9, 10)]
        elif kind == 2:
            fam = Periodic(interval(NEG_INF, rng.randint(-2, 2)), F(1))
            trunc = [fam.member(k) for k in range(-9, 10)]
        else:
            fam = Periodic(closed(0, 0).union(open_iv(F(1, 2), 1)), F(2),
                           IndexRange(0, None))
            trunc = [fam.member(k) for k in range(0, 12)]
        a = F(rng.randint(-12, 6), 2)
        k_set = closed(a, a + rng.randint(0, 3))
        try:
            expect = oracle_ess_finite(trunc, k_set, 8, full_union=union_of(fam))
        except OracleRefusal:
            continue
        got = ess_finite_on(fam, k_set)
        assert got.essentially_finite == expect, (str(fam), str(k_set))
        answered += 1
    assert answered >= target
    announce(5, "essential-finiteness oracle equivalence",
             f"{answered} decided instances, zero disagreements")


# ---------------------------------------------------------------------------
# criterion 6: RealSet algebra laws at scale
# ---------------------------------------------------------------------------

def _quick_set(rng, tail_rate=0.12):
    n = rng.randrange(4)
    ivs = []
    for _ in range(n):
        a = F(rng.randint(-64, 64), 8)
        b = a + F(rng.randint(0, 32), 8)
        shape = rng.randrange(8)
        if shape == 0:
            ivs.append(Interval(a, a, True, True))
        elif shape == 1:
            ivs.append(Interval(NEG_INF, b, False, rng.random() < .5))
        elif shape == 2:
            ivs.append(Interval(a, POS_INF, rng.random() < .5, False))
        else:
            lc, hc = rng.random() < .5, rng.random() < .5
            if a == b:
                lc = hc = True
            ivs.append(Interval(a, b, lc, hc))
    base = normalize(ivs)
    if rng.random() >= tail_rate:
        return base
    period = F(rng.choice((1, 2)), rng.choice((1, 2)))
    hi = period * F(rng.randint(1, 3), 4)
    pat = (Interval(F(0), hi, rng.random() < .5, False),)
    cut = F(rng.randint(-6, 6), 2)
    side = rng.choice(("left", "right"))
    core = base.intersect(closed(cut - 4, cut + 4) if side == "left" else REALS)
    try:
        return with_tails(
            normalize([iv for iv in core.core
                       if iv.lo != NEG_INF and iv.hi != POS_INF]),
            left=(pat, period, cut) if side == "left" else None,
            right=(pat, period, cut) if side == "right" else None)
    except Exception:
        return base


def test_criterion_6_realset_laws():
    rng = random.Random(606)
    n_target = 10_000

    t0 = time.time()
    for _ in range(n_target):
        a, b, c = _quick_set(rng), _quick_set(rng), _quick_set(rng)
        assert ~(a | b) == (~a) & (~b)
        assert a - b == a & ~b
        assert ~~a == a
        assert a & (b | c) == (a & b) | (a & c)
    t_bool = time.time() - t0

    t0 = time.time()
    sig_pool = {}
    for i in range(n_target):
        raws = []
        for _ in range(rng.randrange(4)):
            lo = F(rng.randint(-64, 56), 8)
            hi = lo + F(rng.randint(0, 48), 8)
            if lo == hi:
                raws.append(Interval(lo, hi, True, True))
            else:
                raws.append(Interval(lo, hi, rng.random() < .5, rng.random() < .5))
        a = normalize(raws)
        assert normalize(a.core, a.left_tail, a.right_tail) == a
        # signature canonicity: endpoints on the 1/8 grid inside the window,
        # sampled at 1/16, so distinct sets always separate on the grid
        if i % 5 == 0 and a.is_subset(closed(-8, 8)):
            sig = tuple(a.sample_points(WINDOW, F(1, 16)))
            prev = sig_pool.get(sig)
            if prev is not None:
                assert prev == a, (str(prev), str(a))
            sig_pool[sig] = a
    t_canon = time.time() - t0

    t0 = time.time()
    kinds = list(TopologyKind)
    for i in range(n_target):
        a = _quick_set(rng)
        k = kinds[i % len(kinds)]
        cl = a.closure(k)
        it = a.interior(k)
        assert it.is_subset(a) and a.is_subset(cl)
        assert cl.closure(k) == cl and it.interior(k) == it
        assert cl == ~((~a).interior(k))
        if i % 7 == 0:
            b = _quick_set(rng)
            if a.is_subset(b):
                assert cl.is_subset(b.closure(k))
    t_topo = time.time() - t0

    t0 = time.time()
    step = F(1, 16)
    for i in range(n_target):
        a, b = _quick_set(rng), _quick_set(rng)
        op = i % 4
        if op == 0:
            got, ref = a | b, lambda x: a.contains_point(x) or b.contains_point(x)
        elif op == 1:
            got, ref = a & b, lambda x: a.contains_point(x) and b.contains_point(x)
        elif op == 2:
            got, ref = a - b, lambda x: a.contains_point(x) and not b.contains_point(x)
        else:
            got, ref = ~a, lambda x: not a.contains_point(x)
        want = [x for x in GRID if ref(x)]
        assert got.sample_points(WINDOW, step) == want
    t_sampling = time.time() - t0

    announce(6, "RealSet algebra laws",
             f"{n_target} instances per law: boolean {t_bool:.0f}s, canonicity "
             f"{t_canon:.0f}s, closure/interior {t_topo:.0f}s, sampling {t_sampling:.0f}s; "
             f"zero failures")


# ---------------------------------------------------------------------------
# criterion 7: quasi-pseudometric axioms and ball agreement
# ---------------------------------------------------------------------------

def test_criterion_7_metric_axioms_and_balls():
    rng = random.Random(707)
    n = 10_000
    for d in ALL_METRICS:
        for _ in range(n):
            x = F(rng.randint(-96, 96), 8)
            y = F(rng.randint(-96, 96), 8)
            z = F(rng.randint(-96, 96), 8)
            dxy = d.eval(x, y)
            assert dxy >= 0
            assert d.eval(x, x) == 0
            assert dxy <= d.eval(x, z) + d.eval(z, y)
    shape_checks = 0
    for d in ALL_METRICS:
        for _ in range(n // 2):
            x = F(rng.randint(-64, 64), 8)
            y = F(rng.randint(-64, 64), 8)
            r = F(rng.randint(1, 64), 16)
            ball = d.ball(x, r)
            assert ball.is_reals or len(ball.core) == 1
            shape_checks += 1
            assert ball.contains_point(y) == (d.eval(x, y) < r)
    announce(7, "quasi-pseudometric axioms + balls",
             f"{n} triples per metric, {shape_checks} ball agreements, "
             f"single-interval shape throughout")


# ---------------------------------------------------------------------------
# criterion 8: restriction/generation instance battery
# ---------------------------------------------------------------------------

def test_criterion_8_restriction_generation():
    agreements, truncations, disagreements = restriction_generation_battery()
    assert not disagreements, disagreements[:3]
    assert agreements >= 50
    announce(8, "restriction/generation battery",
             f"{agreements} agreements, {truncations} truncation reports, "
             f"0 disagreements")


# ---------------------------------------------------------------------------
# criterion 9: determinism
# ---------------------------------------------------------------------------

def test_criterion_9_determinism():
    a = corpus_verify().machine_text()
    b = corpus_verify().machine_text()
    assert a == b
    assert a.startswith("gtsreal-report-v2")
    announce(9, "determinism", f"{len(a)} bytes, byte-identical across runs")
