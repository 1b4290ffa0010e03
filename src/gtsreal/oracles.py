"""Exhaustive-search oracles used to cross-check the symbolic decisions."""

from __future__ import annotations

import itertools
from math import comb
from typing import Optional, Sequence

from gtsreal.realset import RealSet, union_all


MAX_CHECKS = 200_000   # candidate subfamilies the oracle may enumerate


class OracleRefusal(RuntimeError):
    """The oracle cannot answer within its stated search budget."""


def oracle_ess_finite(truncated_members: Sequence[RealSet], k_set: RealSet,
                      max_subfamily: int = 8,
                      full_union: Optional[RealSet] = None) -> bool:
    """Brute-force essential finiteness on k_set for a truncated family.

    Decides whether some subfamily of at most max_subfamily members covers
    the trace K n UF.  Refuses (never guesses) when the truncation window
    does not contain the full trace or when the subfamilies of at most
    max_subfamily of the nonempty members number more than MAX_CHECKS.

    The search is exhaustive over fewer candidates, by three set facts:
    - a subfamily covers the trace iff its members' parts on the trace do,
      so members are replaced by their parts, and empty parts and repeats
      (which a smallest cover never needs) are dropped;
    - covering is monotone, so if all parts fit in max_subfamily, the whole
      family of parts, which covers the trace, answers true;
    - a part whose removal uncovers the trace is in every cover, so with
      more such essential parts than max_subfamily the answer is false, and
      otherwise only the other parts are enumerated, each combination
      joined with the essential ones.
    """
    mats = [m for m in truncated_members if not m.is_empty]
    avail = union_all(mats)
    trace = k_set.intersect(full_union if full_union is not None else avail)
    if not trace.is_subset(avail):
        raise OracleRefusal("window does not cover K n UF")
    total = sum(comb(len(mats), s) for s in range(0, max_subfamily + 1))
    if total > MAX_CHECKS:
        raise OracleRefusal(f"{total} candidate subfamilies exceed the budget")
    if trace.is_empty:
        return True
    parts: list[RealSet] = []
    for m in mats:
        part = m.intersect(trace)
        if not part.is_empty and part not in parts:
            parts.append(part)
    if len(parts) <= max_subfamily:
        return True
    essential, rest = [], []
    for i, part in enumerate(parts):
        others = union_all(parts[:i] + parts[i + 1:])
        (rest if trace.is_subset(others) else essential).append(part)
    if len(essential) > max_subfamily:
        return False
    uncovered = trace.difference(union_all(essential))
    if uncovered.is_empty:
        return True
    for size in range(1, max_subfamily - len(essential) + 1):
        for combo in itertools.combinations(rest, size):
            if uncovered.is_subset(union_all(combo)):
                return True
    return False
