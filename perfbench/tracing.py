"""Spans recorded from outside the library, by rebinding its public functions.

`install(tracer)` wraps every function named in `SPANS` with a span and
rebinds the wrapper at every place the original is bound: the class
attribute and its aliases (`RealSet.__or__` is `RealSet.union`), the defining
module's global, and every `from gtsreal.X import f` global in the other
`gtsreal` modules.  `uninstall` puts every original back.

A span has a name, a start, an end and a parent (the span below it on the
stack).  Spans are folded into per-name totals as they end, because a corpus
battery makes millions of calls: for each name the tracer keeps the call
count, the inclusive time and the self time, which is the span's duration
minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (module, attribute path, span name).  "realset.binary" calls with a
# periodic-tail operand count as "realset.tailed" instead.
SPANS = (
    ("gtsreal.realset", "RealSet.union", "realset.binary"),
    ("gtsreal.realset", "RealSet.intersect", "realset.binary"),
    ("gtsreal.realset", "RealSet.difference", "realset.binary"),
    ("gtsreal.realset", "RealSet.symmetric_difference", "realset.binary"),
    ("gtsreal.realset", "RealSet.is_subset", "realset.binary"),
    ("gtsreal.realset", "RealSet.__eq__", "realset.binary"),
    ("gtsreal.realset", "RealSet.closure", "realset.topo"),
    ("gtsreal.realset", "RealSet.interior", "realset.topo"),
    ("gtsreal.realset", "normalize", "realset.canon"),
    ("gtsreal.realset", "with_tails", "realset.canon"),
    ("gtsreal.realset", "RealSet.contains_point", "realset.point"),
    ("gtsreal.realset", "RealSet.sample_points", "realset.point"),
    ("gtsreal.qmetric", "QuasiMetric.eval", "qmetric.eval"),
    ("gtsreal.qmetric", "QuasiMetric.ball", "qmetric.ball"),
    ("gtsreal.qmetric", "QuasiMetric.nbhd", "qmetric.nbhd"),
    ("gtsreal.qmetric", "QuasiMetric.is_bounded_set", "qmetric.is_bounded_set"),
    ("gtsreal.covers", "ess_finite_on", "covers.ess_finite_on"),
    ("gtsreal.covers", "ef_member", "covers.ef_member"),
    ("gtsreal.covers", "union_of", "covers.union_of"),
    ("gtsreal.covers", "members", "covers.members"),
    ("gtsreal.covers", "member_generated", "covers.member_generated"),
    ("gtsreal.covers", "full_ring_closure", "covers.full_ring_closure"),
    ("gtsreal.covers", "plus_step", "covers.plus_step"),
    ("gtsreal.lines", "op_member", "lines.op_member"),
    ("gtsreal.lines", "cov_member", "lines.cov_member"),
    ("gtsreal.lines", "sm_member", "lines.sm_member"),
    ("gtsreal.lines", "smallness_refuter", "lines.smallness_refuter"),
    ("gtsreal.lines", "admissible_battery", "lines.admissible_battery"),
    ("gtsreal.checkers", "axiom_probe", "checkers.axiom_probe"),
    ("gtsreal.checkers", "chain_check", "checkers.chain_check"),
    ("gtsreal.checkers", "metrizable_verdict", "checkers.metrizable_verdict"),
    ("gtsreal.checkers", "proper_check", "checkers.proper_check"),
    ("gtsreal.queries", "parse", "queries.parse"),
    ("gtsreal.report", "run", "report.run"),
    ("gtsreal.report", "Report.machine_text", "report.machine_text"),
    ("gtsreal.report", "corpus_verify", "report.corpus_verify"),
    ("gtsreal.oracles", "oracle_ess_finite", "oracles.oracle_ess_finite"),
    ("gtsreal.cli", "main", "cli.main"),
)

# Span names in output order; "op" is an op's time outside every layer span,
# "bench" the benchmark's own time between ops.
SPAN_NAMES = tuple(dict.fromkeys(
    [name for _, _, name in SPANS] + ["realset.tailed", "op", "bench"]))

# lru caches whose cache_info() gives realset.cache_hit_ratio.
CACHES = ("_germ_op_cached", "_pattern_reduce_cached", "_materialize_cached")


class Tracer:
    """Span stack plus per-name totals: name -> [calls, inclusive_s, self_s]."""

    def __init__(self):
        self.stack = []
        self.totals = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self.parse_bytes = 0
        self.generated = 0
        self.truncated = 0
        self.error_records = 0

    def enter(self, name):
        frame = [name, perf_counter(), 0.0]   # name, start, time in children
        self.stack.append(frame)
        return frame

    def leave(self, frame):
        end = perf_counter()
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        duration = end - frame[1]
        tot = self.totals[frame[0]]
        tot[0] += 1
        tot[1] += duration
        tot[2] += duration - frame[2]
        if self.stack:
            self.stack[-1][2] += duration

    def observe(self, name, args, result):
        """Counts taken at the span boundary from arguments and results."""
        if name == "queries.parse" and args and isinstance(args[0], str):
            self.parse_bytes += len(args[0].encode("utf-8"))
        elif name == "covers.member_generated":
            self.generated += 1
            self.truncated += bool(getattr(result, "truncated", False))
        elif name in ("report.run", "report.corpus_verify"):
            self.error_records += sum(
                1 for r in getattr(result, "records", ()) if r.status == "error")


def _has_tail(x) -> bool:
    return getattr(x, "left_tail", None) is not None or \
        getattr(x, "right_tail", None) is not None


def _wrap(fn, name, tracer):
    split = name == "realset.binary"
    observed = name in ("queries.parse", "covers.member_generated",
                        "report.run", "report.corpus_verify")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = name
        if split and any(_has_tail(a) for a in args):
            span = "realset.tailed"
        frame = tracer.enter(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(frame)
        if observed:
            tracer.observe(span, args, result)
        return result

    wrapper.__perfbench_original__ = fn
    return wrapper


def _lookup(module, path):
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _namespaces():
    """Every gtsreal module and every class defined in one."""
    out = []
    for n, mod in sorted(sys.modules.items()):
        if mod is not None and (n == "gtsreal" or n.startswith("gtsreal.")):
            out.append(mod)
            out += [v for v in vars(mod).values()
                    if isinstance(v, type) and v.__module__ == n]
    return out


def install(tracer):
    """Wrap every span target at every binding; return the undo list."""
    wrappers = {}
    for module, path, name in SPANS:
        fn = _lookup(module, path)
        if id(fn) not in wrappers:
            wrappers[id(fn)] = (fn, _wrap(fn, name, tracer))
    undo = []
    for ns in _namespaces():
        for attr, value in list(vars(ns).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(ns, attr, hit[1])
                undo.append((ns, attr, value))
    replaced = {id(orig) for _, _, orig in undo}
    missing = [fn.__qualname__ for fn, _ in wrappers.values() if id(fn) not in replaced]
    if missing:
        uninstall(undo)
        raise RuntimeError(f"no binding found for {missing}")
    return undo


def uninstall(undo):
    for ns, attr, original in reversed(undo):
        setattr(ns, attr, original)


def leftover_wrappers():
    """Bindings in gtsreal modules and classes that still hold a wrapper."""
    return [f"{ns.__name__}.{attr}" for ns in _namespaces()
            for attr, value in vars(ns).items()
            if hasattr(value, "__perfbench_original__")]


def cache_counts():
    """(hits, misses) summed over CACHES, or None once any cache is gone."""
    realset = sys.modules.get("gtsreal.realset")
    hits = misses = 0
    for name in CACHES:
        fn = getattr(realset, name, None)
        info = getattr(fn, "cache_info", None)
        if info is None:
            return None
        ci = info()
        hits += ci.hits
        misses += ci.misses
    return hits, misses
