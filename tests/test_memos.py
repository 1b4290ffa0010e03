"""The memos of the values the corpus battery repeats: the base elements
B_n (`lines._element`, behind `BaseSchema.element`), the end gaps of the
chain condition (`checkers._end_gaps`), the probe list of one family
piece (`covers._probes`, behind `violating_member`), admissibility
(`lines.cov_member`) and each line's admissible battery
(`lines._admissible_battery`, behind `admissible_battery`).

They are tested as `union_of` and `ess_finite_on` are in
tests/test_covers.py::TestFamilyCache: a cached answer is the undecorated
function's, equal keys give equal answers whatever numbers built them, an
exception is not cached, and one corpus battery finds at least as many
answers in the memos as it computes."""

import random
from fractions import Fraction as F

import pytest

from gtsreal.checkers import _end_gaps
from gtsreal.covers import (
    Fan,
    IndexRange,
    Periodic,
    _pieces,
    _probes,
    finite_family,
    violating_member,
)
from gtsreal.lines import (
    CORPUS,
    FB,
    NAT_BOUNDED,
    UB,
    BaseSchema,
    _admissible_battery,
    _element,
    admissible_battery,
    cov_member,
    metric_bounded,
    op_member,
    probe_corpus,
)
from gtsreal.qmetric import ALL_METRICS
from gtsreal.realset import NEG_INF, POS_INF, ConstructionError, closed, interval, open_iv
from gtsreal.report import corpus_verify

from helpers import battery_candidates, rand_any_family, rand_schema

MEMOS = (_element, _end_gaps, _probes)
ADMISSIBILITY_MEMOS = (cov_member, _admissible_battery)


def _outcome(fn, *args):
    """fn's result, or its exception's type and message."""
    try:
        return fn(*args)
    except Exception as e:  # noqa: BLE001 - the type is part of the outcome
        return type(e), str(e)


def _clear():
    for memo in MEMOS + ADMISSIBILITY_MEMOS:
        memo.cache_clear()


def _schemas(rng, count):
    """The bases of the named and metric bornologies, then random ones."""
    named = [b.base_schema() for b in (FB, NAT_BOUNDED, UB)]
    named += [metric_bounded(d).base_schema() for d in ALL_METRICS]
    return named + [rand_schema(rng) for _ in range(count)]


def _indices(schema):
    """One index below the schema's start (which raises), then six from it."""
    return range(schema.n0 - 1, schema.n0 + 6)


class TestCachedAnswers:
    def test_element_matches_the_undecorated_function(self):
        _clear()
        for schema in _schemas(random.Random(1901), 200):
            for n in _indices(schema):
                want = _outcome(_element.__wrapped__, schema, n)
                for _ in range(2):   # a miss, then a hit
                    assert _outcome(_element, schema, n) == want, (schema, n)
                    assert _outcome(schema.element, n) == want, (schema, n)
        assert _element.cache_info().hits >= 200

    def test_end_gaps_match_the_undecorated_function(self):
        rng = random.Random(1902)
        _clear()
        for schema in _schemas(rng, 150):
            d = rng.choice(ALL_METRICS)
            for n in _indices(schema):
                want = _outcome(_end_gaps.__wrapped__, d, schema, n)
                for _ in range(2):
                    assert _outcome(_end_gaps, d, schema, n) == want, (d, schema, n)
        assert _end_gaps.cache_info().hits >= 150

    def test_probes_match_the_undecorated_function(self):
        # each piece as it stands, and again clipped to a probe-corpus set
        rng = random.Random(1903)
        _clear()
        families = [finite_family(probe_corpus())] + [rand_any_family(rng) for _ in range(300)]
        windows = [w for w in probe_corpus() if not w.is_empty]
        for f in families:
            pieces = _pieces(f) + tuple((base, rng.choice(windows)) for base, _ in _pieces(f))
            for base, w in pieces:
                want = _outcome(_probes.__wrapped__, base, w)
                for _ in range(2):
                    assert _outcome(_probes, base, w) == want, (str(f), str(w))
        assert _probes.cache_info().hits >= 300

    def test_violating_member_reads_the_probes_memo(self):
        rng = random.Random(1904)
        _clear()
        for _ in range(100):
            f, l = rand_any_family(rng), rng.choice(CORPUS)
            want = next((m for base, w in _pieces(f) for m in base.probes(w)
                         if not op_member(l, m)), None)
            for _ in range(2):
                assert violating_member(f, lambda u: op_member(l, u)) == want, (str(f), l)
        info = _probes.cache_info()
        assert info.hits >= info.misses


class TestEqualKeys:
    INT_SCHEMA = BaseSchema(lo=(0, -1), hi=(1, 2), hi_closed=False)
    FRAC_SCHEMA = BaseSchema(lo=(F(0), F(-1)), hi=(F(1), F(2)), hi_closed=False)

    @pytest.mark.parametrize("first,second", [
        ((INT_SCHEMA, 3), (FRAC_SCHEMA, 3)),
        ((FRAC_SCHEMA, 3), (INT_SCHEMA, F(3))),
        ((BaseSchema(lo=(-2, 0), hi=None), 1), (BaseSchema(lo=(F(-2), F(0)), hi=None), 1)),
    ], ids=str)
    def test_element(self, first, second):
        assert first == second and hash(first) == hash(second)
        _clear()
        a, b = _element(*first), _element(*second)
        want = _element.__wrapped__(*second)
        assert a == b == want and str(a) == str(want)
        assert _element.cache_info().hits == 1

    @pytest.mark.parametrize("d", ALL_METRICS[:4], ids=str)
    def test_end_gaps(self, d):
        for first, second in ((self.INT_SCHEMA, self.FRAC_SCHEMA),
                              (self.FRAC_SCHEMA, self.INT_SCHEMA)):
            _clear()
            for n in range(4):
                a, b = _end_gaps(d, first, n), _end_gaps(d, second, n)
                want = _end_gaps.__wrapped__(d, second, n)
                assert a == b == want and str(a) == str(want)

    @pytest.mark.parametrize("int_built,frac_built", [
        (Periodic(closed(0, 1), 2), Periodic(closed(0, 1), F(2))),
        (Periodic(interval(NEG_INF, 0), 1, IndexRange(None, 3)),
         Periodic(interval(NEG_INF, 0), F(1), IndexRange(None, 3))),
        (Fan(0, 1), Fan(F(0), F(1))),
        (Fan(-3, 2, "up"), Fan(F(-3), F(2), "up")),
    ], ids=str)
    def test_probes(self, int_built, frac_built):
        assert int_built == frac_built and hash(int_built) == hash(frac_built)
        for w in (None, closed(-3, -2), open_iv(F(1, 3), 5), interval(0, POS_INF)):
            for first, second in ((int_built, frac_built), (frac_built, int_built)):
                _clear()
                a, b = _probes(first, w), _probes(second, w)
                want = _probes.__wrapped__(second, w)
                assert a == b == want and str(a) == str(want)


class TestAdmissibility:
    def test_cov_member_matches_the_undecorated_function(self):
        rng = random.Random(1905)
        _clear()
        families = list(dict.fromkeys(f for l in CORPUS for f in battery_candidates(l)))
        families += [rand_any_family(rng) for _ in range(40)]
        for l in CORPUS:
            for f in families:
                want = _outcome(cov_member.__wrapped__, l, f)
                for _ in range(2):
                    assert _outcome(cov_member, l, f) == want, (l, str(f))
        assert cov_member.cache_info().hits >= len(CORPUS) * len(families)

    def test_battery_matches_the_undecorated_function(self):
        _clear()
        for l in CORPUS:
            want = [f for f in battery_candidates(l) if cov_member.__wrapped__(l, f)]
            assert list(_admissible_battery.__wrapped__(l)) == want, l
            for _ in range(2):
                got = admissible_battery(l)
                assert got == want and type(got) is list, l
                got.append(None)   # a fresh list each time: the memo is not touched
        info = _admissible_battery.cache_info()
        assert (info.misses, info.hits) == (len(CORPUS), len(CORPUS))

    @pytest.mark.parametrize("l", CORPUS, ids=str)
    def test_equal_keys(self, l):
        for int_built, frac_built in zip(battery_candidates(l, int), battery_candidates(l)):
            assert int_built == frac_built and hash(int_built) == hash(frac_built)
            for first, second in ((int_built, frac_built), (frac_built, int_built)):
                _clear()
                a, b = cov_member(l, first), cov_member(l, second)
                assert a == b == cov_member.__wrapped__(l, second)
                assert cov_member.cache_info().hits == 1

    def test_one_corpus_battery_reuses_them(self):
        # the battery asks for each line's admissible battery twice, and it
        # asks 1401 distinct (line, family) pairs 2150 times: at most 749 of
        # those asks can be hits, and nearly all of them come within 128
        # other pairs
        _clear()
        assert corpus_verify().failures == 0
        info = _admissible_battery.cache_info()
        assert info.hits >= info.misses == len(CORPUS), info
        info = cov_member.cache_info()
        assert 2 * info.hits >= info.misses > 0, info


class _NoProbes:
    """A piece base whose probe list cannot be made."""

    def probes(self, w):
        raise ValueError("no probes here")


class TestExceptionsAreNotCached:
    @pytest.mark.parametrize("memo,args,error", [
        (_element, (BaseSchema(n0=2), 1), ConstructionError),
        (_end_gaps, (ALL_METRICS[0], BaseSchema(n0=2), 1), ConstructionError),
        (_probes, (_NoProbes(), None), ValueError),
    ], ids=lambda x: getattr(x, "__name__", ""))
    def test_every_call_raises(self, memo, args, error):
        _clear()
        for _ in range(2):
            with pytest.raises(error):
                memo(*args)
        info = memo.cache_info()
        assert info.currsize == 0 and info.misses == 2


def test_one_corpus_battery_reuses_the_memos():
    # a key that never matches (say, a new unequal schema from every
    # base_schema() call) would leave every lookup a miss
    _clear()
    assert corpus_verify().failures == 0
    for memo in MEMOS:
        info = memo.cache_info()
        assert info.hits >= info.misses > 0, (memo.__name__, info)
