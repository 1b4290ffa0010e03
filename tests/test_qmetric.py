import random
from fractions import Fraction as F

import pytest

from gtsreal.qmetric import (
    ALL_METRICS,
    EquivVerdict,
    MetricName,
    PhiMode,
    QuasiMetric,
    MetricSpec,
    UnsupportedCombinationError,
    metric,
    phi_q,
    phi_q_inv,
    uniform_equiv_refute,
)
from gtsreal.realset import (
    EMPTY,
    ConstructionError,
    NEG_INF,
    POS_INF,
    REALS,
    Interval,
    TopologyKind,
    closed,
    closed_open,
    interval,
    open_iv,
    point,
    with_tails,
)


def rand_q(rng, span=8, den=16):
    return F(rng.randint(-span * den, span * den), den)


class TestPhi:
    def test_surrogate_properties(self):
        assert phi_q(F(0)) == 1
        assert phi_q(F(-1)) == F(1, 2)
        assert phi_q(F(-6)) == F(1, 7)
        assert phi_q(F(3)) == 4
        rng = random.Random(1)
        for _ in range(500):
            a, b = sorted((rand_q(rng), rand_q(rng)))
            if a < b:
                assert phi_q(a) < phi_q(b)
            assert phi_q(a) > 0
            assert phi_q_inv(phi_q(a)) == a
        assert phi_q(F(-1000)) < 1  # negatives land in (0,1)


class TestEval:
    def test_rho_s_asymmetry(self):
        d = metric("rho_S")
        assert d.eval(0, F(1, 2)) == F(1, 2)
        assert d.eval(F(1, 2), 0) == 1

    def test_identity_zero(self):
        rng = random.Random(2)
        for d in ALL_METRICS:
            for _ in range(50):
                x = rand_q(rng)
                assert d.eval(x, x) == 0

    def test_d_n_plus_surrogate(self):
        d = metric("d_n_plus")
        assert d.eval(-1, 0) == F(1, 2)

    def test_float_paper_needs_phi(self):
        # float_paper only applies to the Phi-based metrics, through metric()
        # as through the constructor
        for name in ("d_n", "rho_S", "d_u"):
            with pytest.raises(ConstructionError):
                metric(name, PhiMode.FLOAT_PAPER)
            with pytest.raises(ConstructionError):
                QuasiMetric(MetricName(name), PhiMode.FLOAT_PAPER)
        for name in ("d_n_plus", "d_n_plus_1", "rho_S_minus"):
            assert metric(name, PhiMode.FLOAT_PAPER).label() == f"{name}[float]"

    def test_float_paper_mode(self):
        import math
        d = metric("d_n_plus", phi_mode=PhiMode.FLOAT_PAPER)
        got = d.eval(-1, 0)
        assert abs(got - (1.0 - math.exp(-1))) < 1e-9
        with pytest.raises(UnsupportedCombinationError):
            d.ball(0, 1)
        with pytest.raises(UnsupportedCombinationError):
            d.is_bounded_set(closed(0, 1))

    def test_axioms_random_triples(self):
        rng = random.Random(3)
        for d in ALL_METRICS:
            for _ in range(400):
                x, y, z = (rand_q(rng) for _ in range(3))
                dxy, dxz, dzy = d.eval(x, y), d.eval(x, z), d.eval(z, y)
                assert dxy >= 0
                assert dxy <= dxz + dzy
            if not d.is_pseudo:
                for _ in range(100):
                    x, y = rand_q(rng), rand_q(rng)
                    if x != y:
                        assert d.eval(x, y) > 0 or d.eval(y, x) > 0


class TestBalls:
    def test_spec_examples(self):
        assert metric("rho_S").ball(0, F(1, 2)) == closed_open(0, F(1, 2))
        assert metric("rho_u").ball(0, 1) == interval(NEG_INF, 1)
        assert metric("rho_S", conjugated=True).ball(0, F(1, 2)) == \
            interval(F(-1, 2), 0, False, True)
        assert metric("rho_0").ball(0, 2) == open_iv(-1, 2)

    def test_ball_shapes_always_interval(self):
        rng = random.Random(4)
        for d in ALL_METRICS + tuple(m.conjugate() for m in ALL_METRICS):
            for _ in range(60):
                x = rand_q(rng)
                r = abs(rand_q(rng)) + F(1, 16)
                b = d.ball(x, r)
                assert len(b.core) == 1 or b.is_reals
                assert b.contains_point(x) or d.eval(x, x) > 0

    def test_ball_eval_agreement(self):
        rng = random.Random(5)
        mets = ALL_METRICS + tuple(m.conjugate() for m in ALL_METRICS)
        for d in mets:
            for _ in range(120):
                x, y = rand_q(rng), rand_q(rng)
                r = abs(rand_q(rng)) + F(1, 16)
                assert d.ball(x, r).contains_point(y) == (d.eval(x, y) < r)

    def test_conjugate_involution_and_duality(self):
        rng = random.Random(6)
        for d in ALL_METRICS:
            dd = d.conjugate().conjugate()
            for _ in range(40):
                x, y = rand_q(rng), rand_q(rng)
                assert dd.eval(x, y) == d.eval(x, y)
                assert d.conjugate().eval(x, y) == d.eval(y, x)

    def test_conjugate_upper_is_lower(self):
        assert metric("rho_u").conjugate().topology_of() is TopologyKind.LOWER


class TestTopologyOf:
    def test_table(self):
        expect = {
            "d_n": TopologyKind.NAT, "d_n1": TopologyKind.NAT,
            "d_n_plus": TopologyKind.NAT, "d_n_plus_1": TopologyKind.NAT,
            "d_u": TopologyKind.NAT,
            "rho_u": TopologyKind.UPPER, "rho_u1": TopologyKind.UPPER,
            "rho_S": TopologyKind.SORG_R, "rho_S1": TopologyKind.SORG_R,
            "rho_L": TopologyKind.SORG_R, "rho_0": TopologyKind.SORG_R,
            "rho_0_1": TopologyKind.SORG_R,
            "rho_S_minus": TopologyKind.SORG_R,
        }
        for name, kind in expect.items():
            assert metric(name).topology_of() is kind

    def test_balls_generate_claimed_topology(self):
        # small balls must be basic opens of the claimed topology, for each
        # metric and its conjugate
        probes = [F(0), F(1, 2), F(-3), F(7, 4)]
        for d in ALL_METRICS + tuple(m.conjugate() for m in ALL_METRICS):
            kind = d.topology_of()
            for x in probes:
                b = d.ball(x, F(1, 8))
                iv = b.core[0]
                assert len(b.core) == 1 and iv.contains(x), d.label()
                if kind is TopologyKind.NAT:
                    assert not iv.lo_closed and not iv.hi_closed, d.label()
                elif kind is TopologyKind.UPPER:
                    assert iv.lo == NEG_INF and not iv.hi_closed, d.label()
                elif kind is TopologyKind.LOWER:
                    assert iv.hi == POS_INF and not iv.lo_closed, d.label()
                elif kind is TopologyKind.SORG_R:
                    assert iv.lo == x and iv.lo_closed and not iv.hi_closed, d.label()
                else:
                    assert kind is TopologyKind.SORG_L, d.label()
                    assert iv.hi == x and iv.hi_closed and not iv.lo_closed, d.label()


class TestRows:
    def test_flags_match_the_formulas(self):
        # a row's symmetric and invariant flags decide how its conjugate is
        # derived, so check them against its distance formula
        rng = random.Random(11)
        pts = [(rand_q(rng, 4), rand_q(rng, 4), rand_q(rng, 2)) for _ in range(300)]
        for d in ALL_METRICS:
            symmetric = all(d.eval(x, y) == d.eval(y, x) for x, y, _ in pts)
            invariant = all(d.eval(x + t, y + t) == d.eval(x, y) for x, y, t in pts)
            assert d._row.symmetric == symmetric, d.label()
            assert d.translation_invariant == invariant, d.label()

    def test_only_rho_s_minus_has_its_own_coball(self):
        underived = [d.label() for d in ALL_METRICS
                     if not (d._row.symmetric or d.translation_invariant)]
        assert underived == ["rho_S_minus"]

    def test_a_row_must_not_contradict_its_derived_conjugate(self):
        def dist(x, y, phi, one):
            return abs(x - y)

        def ball(x, r):
            return Interval(x - r, x + r, False, False)

        nat = TopologyKind.NAT
        with pytest.raises(ConstructionError):
            MetricSpec("x", dist, ball, nat, "nat")
        with pytest.raises(ConstructionError):
            MetricSpec("x", dist, ball, nat, "nat", symmetric=True, coball=ball)
        with pytest.raises(ConstructionError):
            MetricSpec("x", dist, ball, nat, "nat", invariant=True, bounded_conj="nat")
        row = MetricSpec("x", dist, ball, nat, "ub", invariant=True)
        assert row.bounded_conj == "lb"
        assert row.coball(F(1), F(1, 2)) == Interval(F(1, 2), F(3, 2), False, False)

    def test_qmetric_imports_no_private_realset_name(self):
        # realset's underscore names are its own; qmetric uses its public API
        import ast
        import pathlib

        import gtsreal.qmetric as qmetric_module
        tree = ast.parse(pathlib.Path(qmetric_module.__file__).read_text())
        aliases, private = set(), []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "gtsreal.realset":
                private += [a.name for a in node.names if a.name.startswith("_")]
            elif isinstance(node, ast.ImportFrom) and node.module == "gtsreal":
                aliases |= {a.asname or a.name for a in node.names if a.name == "realset"}
            elif isinstance(node, ast.Import):
                aliases |= {a.asname or a.name for a in node.names
                            if a.name == "gtsreal.realset"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                    and ast.unparse(node.value) in aliases:
                private.append(ast.unparse(node))
        assert private == []


HALF_PATTERN = (Interval(F(0), F(1, 2), False, False),)


class TestNbhd:
    def test_spec_examples(self):
        assert metric("d_n").nbhd(closed(-1, 1), F(1, 2)) == open_iv(F(-3, 2), F(3, 2))
        got = metric("d_n_plus").nbhd(closed(-6, 6), F(1, 4))
        assert got == interval(NEG_INF, F(25, 4))
        assert metric("rho_u1").nbhd(point(0), 2) == REALS

    def test_periodic_tail_invariant(self):
        a = with_tails(EMPTY, left=((Interval(F(0), F(1, 2), True, False),), F(1), F(0)))
        got = metric("d_n").nbhd(a, F(1, 8))
        # each occurrence [k, k+1/2) expands to (k-1/8, k+5/8)
        assert got.contains_point(F(-9, 8) + F(1, 64))
        assert got.contains_point(F(-3, 8) - F(1, 64))
        assert not got.contains_point(F(-3, 16))
        assert got.left_tail is not None

    def test_tail_non_invariant_raises(self):
        a = with_tails(EMPTY, left=((Interval(F(0), F(1, 2), True, False),), F(1), F(0)))
        for name in ("d_n_plus", "d_u", "rho_S_minus"):
            with pytest.raises(UnsupportedCombinationError):
                metric(name).nbhd(a, F(1, 2))

    def test_decomposition_union(self):
        rng = random.Random(7)
        for d in ALL_METRICS:
            for _ in range(12):
                a_lo, b_lo = rand_q(rng, 3), rand_q(rng, 3)
                a = closed(a_lo, a_lo + abs(rand_q(rng, 2)) + 1)
                b = open_iv(b_lo, b_lo + abs(rand_q(rng, 2)) + 1)
                delta = abs(rand_q(rng, 2)) + F(1, 8)
                lhs = d.nbhd(a.union(b), delta)
                rhs = d.nbhd(a, delta).union(d.nbhd(b, delta))
                assert lhs == rhs
                assert a.is_subset(d.nbhd(a, delta))

    def test_nbhd_sampling_oracle(self):
        # [A]^d = union of balls: sample y and compare with min-distance test
        rng = random.Random(8)
        mets = ALL_METRICS + tuple(m.conjugate() for m in ALL_METRICS)
        for d in mets:
            for _ in range(10):
                lo = rand_q(rng, 3)
                hi = lo + abs(rand_q(rng, 2)) + F(1, 8)
                a = interval(lo, hi, rng.random() < .5, rng.random() < .5)
                delta = abs(rand_q(rng, 2)) + F(1, 8)
                got = d.nbhd(a, delta)
                for _ in range(40):
                    y = rand_q(rng, 6)
                    centers = a.sample_points(Interval(lo, hi, True, True), F(1, 16))
                    expect = any(d.eval(c, y) < delta for c in centers)
                    if expect:
                        assert got.contains_point(y)
                    # no cheap exact negative oracle: containment implies some
                    # center works at finer granularity, checked via ball overlap
                    if got.contains_point(y) and not expect:
                        ball_ok = not d.conjugate().ball(y, delta).intersect(a).is_empty
                        assert ball_ok

    def test_nbhd_tail_matches_pointwise(self):
        # every translation-invariant metric and its conjugate, on a pattern
        # inside its period and one that wraps around it
        sets = [with_tails(closed(3, 4),
                           left=((Interval(F(0), F(1, 2), True, False),), F(1), F(0))),
                with_tails(point(0), right=((Interval(F(0), F(1, 4), True, False),
                                             Interval(F(5, 4), F(3, 2), False, False)),
                                            F(3, 2), F(1)))]
        invariant = [d for d in ALL_METRICS if d.translation_invariant]
        assert len(invariant) == 9
        for d in invariant + [d.conjugate() for d in invariant]:
            for a in sets:
                for delta in (F(1, 4), F(5, 8)):
                    got = d.nbhd(a, delta)
                    for k in range(-64, 97):
                        y = F(k, 16)
                        expect = not d.conjugate().ball(y, delta).intersect(a).is_empty
                        assert got.contains_point(y) == expect, (d.label(), str(a), delta, y)


class TestBoundedSets:
    def test_spec_examples(self):
        assert not metric("rho_u").is_bounded_set(interval(0, POS_INF))
        assert metric("rho_u").is_bounded_set(interval(NEG_INF, 0))
        assert metric("rho_u1").is_bounded_set(REALS)
        assert metric("d_n_plus").is_bounded_set(interval(NEG_INF, 0))

    def test_capped_metrics_bound_everything(self):
        for name in ("d_n1", "d_n_plus_1", "rho_u1", "rho_S1", "rho_0_1"):
            assert metric(name).is_bounded_set(REALS)

    def test_balls_are_bounded(self):
        rng = random.Random(9)
        for d in ALL_METRICS + tuple(m.conjugate() for m in ALL_METRICS):
            for _ in range(40):
                b = d.ball(rand_q(rng), abs(rand_q(rng)) + F(1, 8))
                assert d.is_bounded_set(b)

    def test_bounded_iff_contained_in_central_ball(self):
        # classification agrees with an explicit escalating-radius search
        rng = random.Random(10)
        probe_sets = [closed(-3, 7), interval(NEG_INF, 2), interval(-1, POS_INF),
                      REALS, point(5), EMPTY,
                      with_tails(EMPTY, right=((Interval(F(0), F(1, 2), True, False),), F(1), F(0)))]
        for d in ALL_METRICS + tuple(m.conjugate() for m in ALL_METRICS):
            for a in probe_sets:
                claimed = d.is_bounded_set(a)
                found = any(a.is_subset(d.ball(0, F(2) ** k)) for k in range(0, 14))
                assert claimed == found, (d.label(), str(a))


class TestUniformEquivRefuter:
    def test_d_n_plus_vs_d_n_refuted(self):
        pairs = [(-F(2) ** k, -F(2) ** (k + 1)) for k in range(0, 24)]
        got = uniform_equiv_refute(metric("d_n_plus"), metric("d_n"), 1, pairs)
        assert got is EquivVerdict.REFUTED

    def test_d_n_vs_capped_inconclusive(self):
        pairs = [(F(k), F(k) + F(1, 4)) for k in range(-10, 10)]
        got = uniform_equiv_refute(metric("d_n"), metric("d_n1"), F(1, 2), pairs)
        assert got is EquivVerdict.INCONCLUSIVE

    def test_rho_s_vs_rho_0_inconclusive(self):
        pairs = [(F(k), F(k) + F(1, 4)) for k in range(-10, 10)]
        got = uniform_equiv_refute(metric("rho_S"), metric("rho_0"), F(1, 2), pairs)
        assert got is EquivVerdict.INCONCLUSIVE


# ---------------------------------------------------------------------------
# behaviour pin: one sha256 per metric over eval, balls, flags and nbhd
# ---------------------------------------------------------------------------

PIN_GRID = (F(-5), F(-3, 2), F(-1), F(-1, 3), F(0), F(1, 4), F(1, 2), F(1), F(7, 3), F(5))
PIN_CENTRES = (F(-3, 2), F(-1), F(0), F(1, 2), F(1))
PIN_RADII = (F(1, 4), F(1), F(3, 2), F(4))
PIN_DELTAS = (F(1, 8), F(1, 4), F(3, 4), F(1), F(3, 2), F(3))
PIN_BOUNDED = (closed(-1, 1),
               closed(-2, -1).union(open_iv(0, F(1, 2))).union(point(2)))
PIN_TAILED = (
    with_tails(closed(3, 4), left=((Interval(F(0), F(1, 2), True, False),), F(1), F(0))),
    with_tails(point(-2), right=((Interval(F(1, 3), F(1), False, True),), F(3, 2), F(1))),
    with_tails(EMPTY, left=((Interval(F(0), F(1, 4), False, False),), F(1), F(-1)),
               right=((Interval(F(0), F(1, 2), True, True),), F(2), F(2))),
)


def _pin_metrics():
    plain = [metric(n) for n in MetricName]
    floats = [QuasiMetric(n, PhiMode.FLOAT_PAPER)
              for n in (MetricName.D_N_PLUS, MetricName.D_N_PLUS_1, MetricName.RHO_S_MINUS)]
    return plain + [d.conjugate() for d in plain] + floats + [d.conjugate() for d in floats]


def _pin_call(fn, *args):
    try:
        return repr(fn(*args))
    except (UnsupportedCombinationError, ValueError) as e:
        return type(e).__name__


def _pin_dump(d) -> str:
    lines = [d.label(), repr(d.bounded_kind), repr(d.topology_of()),
             repr(d.is_pseudo), repr(d.translation_invariant)]
    lines += [f"eval {x} {y} {d.eval(x, y)!r}" for x in PIN_GRID for y in PIN_GRID]
    lines += [f"ball {x} {r} {_pin_call(d.ball, x, r)}"
              for x in PIN_CENTRES for r in PIN_RADII]
    lines += [f"nbhd {i} {delta} {_pin_call(d.nbhd, a, delta)}"
              for i, a in enumerate(PIN_BOUNDED + PIN_TAILED) for delta in PIN_DELTAS]
    lines += [f"bounded {i} {_pin_call(d.is_bounded_set, a)}"
              for i, a in enumerate(PIN_BOUNDED + PIN_TAILED)]
    return "\n".join(lines) + "\n"


PIN_SHA256 = {
    'd_n': '4b7e5e6148422047f2c82a8fb62794bf3955853fd23a22d06cfed161ed0cbad4',
    'd_n1': '4b17450f4d8d7beaca1ee878f5eacd1bf7af16deea36e118afc680c85cff8abe',
    'd_n_plus': '5fc72401db22278bd60b938346eff286caa6ad48db864825f04230683c82dac5',
    'd_n_plus_1': '9b783e04e4cd17984ccd2f4bbf53b3eb1c0c6defd6424c314376807d7d6647ac',
    'd_u': '8f6b29d1f29e9cee0996de108da65bf5037d115cbdea8bdc743ce4fd82a31cd8',
    'rho_u': 'b2e74db13f8f4fe06076eef98c661098e603c01a609aa9e23050bbb829524aa3',
    'rho_u1': '0fd5c46ca898d8e04c889369a3eb89443041b7cf71ddb9b90ad3a097d2fbc942',
    'rho_S': 'e364a05ad7bbe02a83d594a72e7fc1eaf9203f7b77d2d4cc6a35c7ea773141ad',
    'rho_S1': 'd5b736cf4c84ddacf057c2bf931055d94b8d0a7afff6a2f80bde3db842557f92',
    'rho_L': '68693d4de24a38fc44c9c4ab56e5cd1a0b56a545ea3f61921790fb23c8333598',
    'rho_0': '089bcbb5a3442d3be4ede4e079403325204d314a124d4aad219888726dbf85ed',
    'rho_0_1': '97f2eb537adae6460d62ffb735a7f8dbd4917a8c88be51468946999ae92b3a72',
    'rho_S_minus': 'bd0c7347fed13fffd31024dcb74f19506ccd799309b4d7890632deb2478e1041',
    'conj(d_n)': '8805f9d62387f325585378b8df763a850583fbbe96601bc38c81bbaa55e3cd9f',
    'conj(d_n1)': 'a3b1a9fdac47ecda8bd00310e834c44fac5108dd784162578277469cbc25dc92',
    'conj(d_n_plus)': '6d019fa73afe89ea74ff4e40b05d4d9906787fd0e9bbd10d045086bd9b93a1e2',
    'conj(d_n_plus_1)': '4e9182b4d32ac55c25ec52a2ded2bf4c4f3ffe373e1cf2f36df323cd2113c8f6',
    'conj(d_u)': '7fc9a53d675cafd571c7a2088c488d70b812239d4ecb3fe099a3579a428d9292',
    'conj(rho_u)': 'aae3da22403e885e56a3692e11ceba6696aba964f8ad5d47f7c44e1c579f7496',
    'conj(rho_u1)': '451ddb6fe77841560247f76b3be55b4ddc72ef3b02abaf8c5d81902c78cd3f33',
    'conj(rho_S)': 'fe4bcf6932a92ed44dd1e74f378cb395d02f219eee09183db3f173ccf1af2fb1',
    'conj(rho_S1)': 'bbdd2de65401ed6c9e2993675c8b2ab9a003b39bf018dda0e7e9a5f93394cfab',
    'conj(rho_L)': 'e95cdbd43e1358da6999e6c4308f7d82d040e95ccef5e0b3d3db0445b199c5f8',
    'conj(rho_0)': 'e2b997bb6fb643610364061de38f4f978c3865243ac8acd8d96289ad4cd1b0d6',
    'conj(rho_0_1)': '04e7adf30ea1889f491feb715b240e3a70403267c413af35a19f132165652536',
    'conj(rho_S_minus)': '3ba4db10cc3204a98bdbad2fbfce9defe94cba875c4ed04e0d9dc30e511adfc3',
    'd_n_plus[float]': '72915a58b0db9613ed8c93a1476f23a161af4035d863df484be7a72a28c2b6a6',
    'd_n_plus_1[float]': '474bec5c4dfbf2d23c8e980ff710083fbff65389e4703743b99975ef01860906',
    'rho_S_minus[float]': '484458913a610771a02b7d66b669d0dd5301757217bca75b16e7f15792600878',
    'conj(d_n_plus[float])': 'b0c178d80aa980f95d2924541af7e56d07ed270ae941ba0da342f2a970838630',
    'conj(d_n_plus_1[float])': '35e5c47145913612d7b3ed59d28101c858a87fd09d4c72e38e71275574c593a0',
    'conj(rho_S_minus[float])': 'cdcc08c474163cc4b843c49214cdaf243c6ff158a3bada152be0b56ad21080a9',
}


def test_metric_pin():
    """Every metric, its conjugate and the float_paper metrics answer as
    pinned: eval on a grid, balls, the bounded kind, the topology, the
    pseudo and invariance flags, and nbhd of bounded and tailed sets."""
    import hashlib
    got = {d.label(): hashlib.sha256(_pin_dump(d).encode()).hexdigest()
           for d in _pin_metrics()}
    assert got == PIN_SHA256
