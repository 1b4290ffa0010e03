"""Shared randomized generators and sampling oracles for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from gtsreal.lines import probe_corpus  # noqa: F401
from gtsreal.realset import (
    NEG_INF,
    POS_INF,
    Interval,
    RealSet,
    TopologyKind,
    normalize,
    with_tails,
)

GRID_WINDOW = Interval(Fraction(-8), Fraction(8), True, True)
GRID_STEP = Fraction(1, 16)


def rand_fraction(rng: random.Random, lo=-6, hi=6, den=8) -> Fraction:
    return Fraction(rng.randint(lo * den, hi * den), den)


def rand_interval(rng: random.Random) -> Interval:
    kind = rng.randrange(6)
    if kind == 0:
        q = rand_fraction(rng)
        return Interval(q, q, True, True)
    a, b = sorted((rand_fraction(rng), rand_fraction(rng)))
    if a == b:
        return Interval(a, b, True, True)
    if kind == 1:
        return Interval(NEG_INF, b, False, rng.random() < 0.5)
    if kind == 2:
        return Interval(a, POS_INF, rng.random() < 0.5, False)
    return Interval(a, b, rng.random() < 0.5, rng.random() < 0.5)


def rand_realset(rng: random.Random, allow_tails=True) -> RealSet:
    n = rng.randrange(4)
    core = [rand_interval(rng) for _ in range(n)]
    if not allow_tails or rng.random() < 0.6:
        return normalize(core)
    # tailed variant: bounded core, simple patterns
    core = [iv for iv in core if iv.lo != NEG_INF and iv.hi != POS_INF]
    period = Fraction(rng.choice((1, 2)), rng.choice((1, 2)))
    lo_q = period * Fraction(rng.randrange(4), 4)
    hi_q = period * Fraction(rng.randrange(4), 4)
    lo_q, hi_q = sorted((lo_q, hi_q))
    if hi_q == lo_q or hi_q >= period:
        lo_q, hi_q = Fraction(0), period / 2
    pat = (Interval(lo_q, hi_q, rng.random() < 0.5, False),)
    cut = rand_fraction(rng, -3, 3, 2)
    side = rng.choice(("left", "right", "both"))
    left = (pat, period, cut) if side in ("left", "both") else None
    right = (pat, period, cut) if side in ("right", "both") else None
    return with_tails(normalize(core), left=left, right=right)


def signature(a: RealSet, window=GRID_WINDOW, step=GRID_STEP):
    return tuple(a.sample_points(window, step))


def _basic_nbhd(x: Fraction, eps: Fraction, kind: TopologyKind) -> RealSet:
    from gtsreal.realset import closed_open, interval, open_closed, open_iv

    if kind is TopologyKind.NAT:
        return open_iv(x - eps, x + eps)
    if kind is TopologyKind.SORG_R:
        return closed_open(x, x + eps)
    if kind is TopologyKind.SORG_L:
        return open_closed(x - eps, x)
    if kind is TopologyKind.UPPER:
        return interval(NEG_INF, x + eps)
    return interval(x - eps, POS_INF)


def oracle_closure_member(a: RealSet, x: Fraction, kind: TopologyKind, depth=20) -> bool:
    """x in cl(a)?  Basic neighborhoods are nested, so only the smallest
    probe radius is decisive (sound for endpoints coarser than 2^-depth)."""
    if kind is TopologyKind.DISCRETE:
        return a.contains_point(x)
    nb = _basic_nbhd(x, Fraction(1, 2**depth), kind)
    return not a.intersect(nb).is_empty


def oracle_interior_member(a: RealSet, x: Fraction, kind: TopologyKind, depth=20) -> bool:
    """x in int(a)?  Dual probe: the smallest basic neighborhood must fit."""
    if kind is TopologyKind.DISCRETE:
        return a.contains_point(x)
    nb = _basic_nbhd(x, Fraction(1, 2**depth), kind)
    return nb.is_subset(a)
