"""The `setalg` workload: a seeded stream of single RealSet calls, and the
pointwise reference that checks every result.

Operands come from the criterion-6 generator (`quick_set`, about 12% with a
periodic tail).  Every endpoint they have lies on the 1/8 grid, and outside
[-13, 13] each operand is constant or periodic with period at most 2, so a
set of this family is pinned down by its membership on the 1/16 grid over
W = [-16, 16]: grid points at even indices are the candidate endpoints, odd
indices stand for the open cells between them.  The reference for each call
is computed from the operands' grid bits, and each operand's bits are
cross-checked against its own `contains_point` on [-8, 8].
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

GRID_LO = -256          # W = [-16, 16] in steps of 1/16
GRID_N = 513
FULL = (1 << GRID_N) - 1
INNER_LO, INNER_HI = 128, 384   # [-8, 8]
INNER = ((1 << (INNER_HI + 1)) - 1) ^ ((1 << INNER_LO) - 1)
_EVEN = sum(1 << i for i in range(0, GRID_N, 2))   # the 1/8-grid points

POOL_SIZE = 2048
TAIL_RATE = 0.12

# (name, weight): the calls tests/test_acceptance.py::test_criterion_6_realset_laws
# makes on sets, as `python3 perfbench/criterion6_mix.py` counts them.  Left
# out are the calls that build its operands (`_quick_set`: normalize,
# intersect, with_tails), which the benchmark makes in its set-up, and the
# contains_point calls of its pointwise reference, which the benchmark's own
# check replaces.  The test never calls `^`.
OPS = (
    ("or", 32500), ("and", 52500), ("sub", 12500), ("invert", 82500),
    ("closure", 20455), ("interior", 30000), ("is_subset", 23884), ("eq", 80502),
    ("normalize", 20000), ("sample_points", 11625),
)
_OP_NAMES = tuple(n for n, _ in OPS)
_OP_WEIGHTS = tuple(w for _, w in OPS)
WINDOW_STEP = F(1, 16)      # the test samples [-8, 8] at 1/16


# ---------------------------------------------------------------------------
# generators (the criterion-6 shapes)
# ---------------------------------------------------------------------------

def quick_set(gs, rng):
    """Criterion-6 operand: up to three pieces on the 1/8 grid, sometimes
    with a left or right periodic tail.  `gs` is the gtsreal package.

    The same generator as `_quick_set` in tests/test_acceptance.py, copied
    because the benchmark drives the library only from its own files."""
    n = rng.randrange(4)
    ivs = []
    for _ in range(n):
        a = F(rng.randint(-64, 64), 8)
        b = a + F(rng.randint(0, 32), 8)
        shape = rng.randrange(8)
        if shape == 0:
            ivs.append(gs.Interval(a, a, True, True))
        elif shape == 1:
            ivs.append(gs.Interval(-math.inf, b, False, rng.random() < .5))
        elif shape == 2:
            ivs.append(gs.Interval(a, math.inf, rng.random() < .5, False))
        else:
            lc, hc = rng.random() < .5, rng.random() < .5
            if a == b:
                lc = hc = True
            ivs.append(gs.Interval(a, b, lc, hc))
    base = gs.normalize(ivs)
    if rng.random() >= TAIL_RATE:
        return base
    period = F(rng.choice((1, 2)), rng.choice((1, 2)))
    hi = period * F(rng.randint(1, 3), 4)
    pat = (gs.Interval(F(0), hi, rng.random() < .5, False),)
    cut = F(rng.randint(-6, 6), 2)
    side = rng.choice(("left", "right"))
    core = base.intersect(gs.closed(cut - 4, cut + 4) if side == "left" else gs.REALS)
    try:
        return gs.with_tails(
            gs.normalize([iv for iv in core.core
                          if iv.lo != -math.inf and iv.hi != math.inf]),
            left=(pat, period, cut) if side == "left" else None,
            right=(pat, period, cut) if side == "right" else None)
    except gs.ConstructionError:
        return base


def raw_pieces(gs, rng):
    """The criterion-6 canonicity soup: up to three bounded pieces."""
    out = []
    for _ in range(rng.randrange(4)):
        lo = F(rng.randint(-64, 56), 8)
        hi = lo + F(rng.randint(0, 48), 8)
        closed = lo == hi
        out.append(gs.Interval(lo, hi, closed or rng.random() < .5,
                               closed or rng.random() < .5))
    return tuple(out)


class Inputs:
    """Operand pool and op stream, both fixed by the seed."""

    def __init__(self, gs, seed):
        rng = random.Random(f"setalg-pool-{seed}")
        self.gs = gs
        self.pool = [quick_set(gs, rng) for _ in range(POOL_SIZE)]
        tailed = [s.left_tail is not None or s.right_tail is not None for s in self.pool]
        self.tailed = [i for i, t in enumerate(tailed) if t]
        self.flat = [i for i, t in enumerate(tailed) if not t]
        self.window = gs.Interval(F(-8), F(8), True, True)
        self.kinds = list(gs.TopologyKind)
        self.seed = seed

    def stream(self, label):
        """Endless op stream: (op name, args).  Ops draw pool indices, so
        the reference can reuse each operand's grid bits.  An operand is
        tailed with probability TAIL_RATE whatever share of the pool is:
        tailed ops take most of the time, and the share in a pool of this
        size varies by about 10% between seeds."""
        rng = random.Random(f"setalg-{label}-{self.seed}")
        gs = self.gs

        def operand():
            return rng.choice(self.tailed if rng.random() < TAIL_RATE else self.flat)

        while True:
            op = rng.choices(_OP_NAMES, _OP_WEIGHTS)[0]
            i, j = operand(), operand()
            if op in ("closure", "interior"):
                yield op, (i, rng.choice(self.kinds))
            elif op == "normalize":
                yield op, (raw_pieces(gs, rng),)
            elif op in ("invert", "sample_points"):
                yield op, (i,)
            else:
                yield op, (i, j)

    def call(self, op, args):
        """Perform one op; the timed region of the workload."""
        p = self.pool
        if op == "or":
            return p[args[0]] | p[args[1]]
        if op == "and":
            return p[args[0]] & p[args[1]]
        if op == "sub":
            return p[args[0]] - p[args[1]]
        if op == "invert":
            return ~p[args[0]]
        if op == "closure":
            return p[args[0]].closure(args[1])
        if op == "interior":
            return p[args[0]].interior(args[1])
        if op == "is_subset":
            return p[args[0]].is_subset(p[args[1]])
        if op == "eq":
            return p[args[0]] == p[args[1]]
        if op == "normalize":
            return self.gs.normalize(args[0])
        if op == "sample_points":
            return p[args[0]].sample_points(self.window, WINDOW_STEP)
        raise ValueError(op)


# ---------------------------------------------------------------------------
# the grid reference
# ---------------------------------------------------------------------------

def _piece_bits(lo, hi, lo_closed, hi_closed):
    """Grid bits of one interval (infinite ends as floats)."""
    if lo == -math.inf:
        a = 0
    else:
        s = lo * 16
        a = math.ceil(s) - GRID_LO
        if s == math.ceil(s) and not lo_closed:
            a += 1
    if hi == math.inf:
        b = GRID_N - 1
    else:
        s = hi * 16
        b = math.floor(s) - GRID_LO
        if s == math.floor(s) and not hi_closed:
            b -= 1
    a, b = max(a, 0), min(b, GRID_N - 1)
    if a > b:
        return 0
    return ((1 << (b - a + 1)) - 1) << a


def _tail_bits(pattern, period, cut, side):
    """Grid bits of the pattern translates beyond the cut (strictly)."""
    bits = 0
    k_lo = math.floor(F(GRID_LO, 16) / period) - 1
    k_hi = math.ceil(F(GRID_LO + GRID_N, 16) / period) + 1
    for k in range(k_lo, k_hi + 1):
        d = k * period
        for iv in pattern:
            bits |= _piece_bits(iv.lo + d, iv.hi + d, iv.lo_closed, iv.hi_closed)
    if side == "left":
        return bits & _piece_bits(-math.inf, cut, False, False)
    return bits & _piece_bits(cut, math.inf, False, False)


class Reference:
    """Grid bits of sets, computed from their public parts."""

    def __init__(self):
        self._tails = {}
        self._pool = {}

    def pool_bits(self, pool, i):
        if i not in self._pool:
            self._pool[i] = self.bits(pool[i])
        return self._pool[i]

    def bits(self, rs):
        out = 0
        for iv in rs.core:
            out |= _piece_bits(iv.lo, iv.hi, iv.lo_closed, iv.hi_closed)
        for t in (rs.left_tail, rs.right_tail):
            if t is not None:
                key = (t.pattern, t.period, t.cut, t.direction)
                if key not in self._tails:
                    self._tails[key] = _tail_bits(*key)
                out |= self._tails[key]
        return out


def _topo_bits(bits, kind, closure):
    """Closure or interior of a set of the generator's family, on [-8, 8].

    NAT/SORG_R/SORG_L/DISCRETE act on each grid point through its two
    neighbouring cells; UPPER (opens are down-rays) and LOWER (opens are
    up-rays) through the set's lowest or highest point."""
    name = kind.name
    if not closure:
        return ~_topo_bits(FULL & ~bits, kind, True) & FULL
    if name == "DISCRETE":
        return bits
    if name == "UPPER":
        if not bits:
            return 0
        low = (bits & -bits).bit_length() - 1
        start = low - 1 if low % 2 else low
        return FULL & ~((1 << start) - 1)
    if name == "LOWER":
        if not bits:
            return 0
        high = bits.bit_length() - 1
        end = high + 1 if high % 2 else high
        return (1 << (end + 1)) - 1
    left, right = bits << 1, bits >> 1          # cell below / above point i
    if name == "NAT":
        grow = left | right
    elif name == "SORG_R":                      # basic opens [x, x + e)
        grow = right
    elif name == "SORG_L":                      # basic opens (x - e, x]
        grow = left
    else:
        raise ValueError(kind)
    return (bits | (grow & _EVEN)) & FULL


def expected(inputs, ref, op, args):
    """Reference answer of one op: grid bits, a bool, or a point list."""
    pb = [ref.pool_bits(inputs.pool, i) if isinstance(i, int) else None
          for i in args[:2]]
    if op == "or":
        return pb[0] | pb[1]
    if op == "and":
        return pb[0] & pb[1]
    if op == "sub":
        return pb[0] & ~pb[1]
    if op == "invert":
        return FULL & ~pb[0]
    if op in ("closure", "interior"):
        return _topo_bits(pb[0], args[1], op == "closure") & INNER
    if op == "is_subset":
        return pb[0] & ~pb[1] == 0
    if op == "eq":
        return pb[0] == pb[1]
    if op == "normalize":
        out = 0
        for iv in args[0]:
            out |= _piece_bits(iv.lo, iv.hi, iv.lo_closed, iv.hi_closed)
        return out
    if op == "sample_points":
        return [F(i + GRID_LO, 16) for i in range(INNER_LO, INNER_HI + 1)
                if pb[0] >> i & 1]
    raise ValueError(op)


def observed(ref, op, result):
    """The comparable form of a result: grid bits for sets."""
    if op in ("is_subset", "eq", "sample_points"):
        return result
    bits = ref.bits(result)
    return bits & INNER if op in ("closure", "interior") else bits


def check_operand(ref, rs):
    """The operand's grid bits agree with its own contains_point on [-8, 8],
    and its endpoints lie on the 1/8 grid (the premise of the reference)."""
    bits = ref.bits(rs)
    for i in range(INNER_LO, INNER_HI + 1):
        if rs.contains_point(F(i + GRID_LO, 16)) != bool(bits >> i & 1):
            return f"grid bits disagree with contains_point at {F(i + GRID_LO, 16)}"
    ends = [e for iv in rs.pieces() for e in (iv.lo, iv.hi) if math.isfinite(e)]
    ends += [t.cut for t in (rs.left_tail, rs.right_tail) if t is not None]
    if any((e * 8).denominator != 1 for e in ends):
        return "endpoint off the 1/8 grid"
    return None


class Checker:
    """Checks results against the grid reference.  `seen` holds the pool
    indices whose operands are already cross-checked; it may be shared by
    checkers of pools built from the same seed."""

    def __init__(self, inputs, seen):
        self.inputs = inputs
        self.ref = Reference()
        self.seen = seen

    def check(self, results):
        """Check (op, args, result) triples; return a list of error strings."""
        inputs, ref = self.inputs, self.ref
        errors = []
        for op, args, result in results:
            for i in args[:2]:
                if isinstance(i, int) and i not in self.seen:
                    self.seen.add(i)
                    bad = check_operand(ref, inputs.pool[i])
                    if bad:
                        errors.append(f"operand {inputs.pool[i]}: {bad}")
            if observed(ref, op, result) != expected(inputs, ref, op, args):
                errors.append(f"{op} on {describe(inputs, op, args)} gave {result}")
        return errors


def describe(inputs, op, args):
    if op == "normalize":
        return repr(args)
    return ", ".join(str(inputs.pool[a]) if isinstance(a, int) and k < 2 else str(a)
                     for k, a in enumerate(args))
