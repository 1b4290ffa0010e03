"""Count the RealSet calls of tests/test_acceptance.py::test_criterion_6_realset_laws,
the source of the `setalg` op weights (setalg.OPS).

    python3 perfbench/criterion6_mix.py [N]

runs the test body with n_target = N (default 10000, the test's own value)
and prints, per call, how often the test makes it.  Calls are counted only
at the top level, not inside other library calls, and in three groups:
`law` (the calls under test, which become the weights), `gen` (inside
`_quick_set`, which builds operands) and `oracle` (the contains_point calls
of the test's pointwise reference).  Takes about three minutes at N = 10000.
"""

from __future__ import annotations

import collections
import functools
import inspect
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# RealSet attribute -> op name in setalg.OPS; the operators are aliases.
METHODS = {"union": "or", "intersect": "and", "difference": "sub",
           "symmetric_difference": "xor", "complement": "invert",
           "is_subset": "is_subset", "__eq__": "eq", "closure": "closure",
           "interior": "interior", "contains_point": "contains_point",
           "sample_points": "sample_points"}
ALIASES = {"__or__": "union", "__and__": "intersect", "__sub__": "difference",
           "__xor__": "symmetric_difference", "__invert__": "complement"}


def count(n):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import test_acceptance as t
    from gtsreal.realset import RealSet

    counts = collections.Counter()
    depth, in_gen = [0], [0]

    def counted(fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[0] == 0:
                group = "gen" if in_gen[0] else \
                    "oracle" if name == "contains_point" else "law"
                counts[group, name] += 1
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    wrapped = {attr: counted(RealSet.__dict__[attr], name) for attr, name in METHODS.items()}
    for attr, fn in wrapped.items():
        setattr(RealSet, attr, fn)
    for alias, attr in ALIASES.items():
        setattr(RealSet, alias, wrapped[attr])
    t.normalize = counted(t.normalize, "normalize")
    t.with_tails = counted(t.with_tails, "with_tails")
    quick_set = t._quick_set

    def generator(*args, **kwargs):
        in_gen[0] += 1
        try:
            return quick_set(*args, **kwargs)
        finally:
            in_gen[0] -= 1

    t._quick_set = generator
    t.announce = lambda *args, **kwargs: None
    src = textwrap.dedent(inspect.getsource(t.test_criterion_6_realset_laws))
    exec(src.replace("n_target = 10_000", f"n_target = {n}"), vars(t))
    vars(t)["test_criterion_6_realset_laws"]()
    return counts


if __name__ == "__main__":
    counts = count(int(sys.argv[1]) if len(sys.argv) > 1 else 10_000)
    for group in ("law", "gen", "oracle"):
        calls = {name: k for (g, name), k in sorted(counts.items()) if g == group}
        print(f"{group:6s} {sum(calls.values()):8d}  {calls}")
