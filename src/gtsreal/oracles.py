"""Exhaustive-search oracles used to cross-check the symbolic decisions."""

from __future__ import annotations

import itertools
from math import comb
from typing import Optional, Sequence

from gtsreal.realset import EMPTY, RealSet


MAX_CHECKS = 200_000   # candidate subfamilies the oracle may enumerate


class OracleRefusal(RuntimeError):
    """The oracle cannot answer within its stated search budget."""


def oracle_ess_finite(truncated_members: Sequence[RealSet], k_set: RealSet,
                      max_subfamily: int = 8,
                      full_union: Optional[RealSet] = None) -> bool:
    """Brute-force essential finiteness on k_set for a truncated family.

    Searches every subfamily of at most max_subfamily members for one whose
    union covers K n UF.  Refuses (never guesses) when the truncation window
    does not contain the full trace or the subset count exceeds MAX_CHECKS.
    """
    mats = [m for m in truncated_members if not m.is_empty]
    avail = EMPTY
    for m in mats:
        avail = avail.union(m)
    trace = k_set.intersect(full_union if full_union is not None else avail)
    if not trace.is_subset(avail):
        raise OracleRefusal("window does not cover K n UF")
    total = sum(comb(len(mats), s) for s in range(0, max_subfamily + 1))
    if total > MAX_CHECKS:
        raise OracleRefusal(f"{total} candidate subfamilies exceed the budget")
    if trace.is_empty:
        return True
    # greedy shortcut: a single covering member settles it
    if max_subfamily >= 1 and any(trace.is_subset(m) for m in mats):
        return True
    for size in range(2, max_subfamily + 1):
        for combo in itertools.combinations(mats, size):
            u = EMPTY
            for m in combo:
                u = u.union(m)
            if trace.is_subset(u):
                return True
    return False
