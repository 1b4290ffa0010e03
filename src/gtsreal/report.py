"""Deterministic evaluation reports and the built-in corpus verification
battery: the ACB identity, the pt map with its bornology invariance, the
small/compact subsumption sweep, the metrizability verdict table, chain
criteria, properness/base anchors, the gts-axiom verdicts, smallness
refuters, weak local smallness, and the restriction/generation agreement
battery."""

from __future__ import annotations

import itertools
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from gtsreal.checkers import (
    base_check,
    chain_check,
    metrizable_verdict,
    proper_check,
    uniform_chain_check,
)
from gtsreal.covers import (
    CovCollection,
    ess_finite,
    ess_finite_on,
    finite_family,
    full_ring_closure,
    generation_levels,
    member_generated,
    members,
    restrict_family,
    union_of,
)
from gtsreal.lines import (
    ALL_SETS,
    CORPUS,
    FB,
    LB,
    NAT_BOUNDED,
    UB,
    UF_SMALL,
    BaseSchema,
    acb_member,
    admissible_battery,
    axiom_verdict,
    cb_member,
    cov_member,
    line,
    op_member,
    probe_corpus,
    pt_of,
    sm_member,
    smallness_refuter,
    weak_local_small_cover,
)
from gtsreal.qmetric import EquivVerdict, metric, uniform_equiv_refute
from gtsreal.queries import QUERIES
from gtsreal.realset import (
    REALS,
    TopologyKind,
    closed,
    closed_open,
    open_iv,
    point,
)

SCHEMA_VERSION = "gtsreal-report-v3"


@dataclass(frozen=True)
class Record:
    ident: str
    kind: str
    status: str          # "pass" | "fail" (corpus), "ok" (eval) | "error"
    detail: str

    def machine(self) -> str:
        detail = self.detail.replace("|", "!").replace("\n", " ")
        return f"{self.ident}|{self.kind}|{self.status}|{detail}"


@dataclass(frozen=True)
class Report:
    records: Tuple[Record, ...]

    @property
    def failures(self) -> int:
        return sum(1 for r in self.records if r.status in ("fail", "error"))

    @property
    def passes(self) -> int:
        return sum(1 for r in self.records if r.status in ("pass", "ok"))

    def machine_text(self) -> str:
        head = [SCHEMA_VERSION, "caps none"]
        body = [r.machine() for r in self.records]
        tail = [f"summary pass={self.passes} fail={self.failures} total={len(self.records)}"]
        return "\n".join(head + body + tail) + "\n"

    def human_text(self) -> str:
        width = max((len(r.ident) for r in self.records), default=8)
        out = [f"{SCHEMA_VERSION}  (caps: none)", ""]
        for r in self.records:
            out.append(f"  {r.ident.ljust(width)}  {r.status.upper():5}  {r.detail}")
        out.append("")
        out.append(f"  {self.passes} passed, {self.failures} failed, "
                   f"{len(self.records)} records")
        return "\n".join(out) + "\n"


def _text(answer) -> str:
    """An answer's record text: true/false for a bool, [a, b] for a list,
    and its own text otherwise."""
    if isinstance(answer, bool):
        return "true" if answer else "false"
    if isinstance(answer, list):
        return "[" + ", ".join(map(_text, answer)) + "]"
    return str(answer)


def run(doc) -> Report:
    """Evaluate every query of a document; per-query errors become records,
    never aborts.  An answer is rendered inside its query's `try`, so an
    answer that cannot be printed is that query's error record."""
    records = []
    for i, (kind, args) in enumerate(doc.queries):
        ident = f"q{i:03d}"
        try:
            records.append(Record(ident, kind, "ok", _text(QUERIES[kind].run(*args))))
        except Exception as e:  # noqa: BLE001 - per-query isolation is the contract
            detail = f"{type(e).__name__}: {e}"
            if isinstance(e, ValueError) and "integer string conversion" in detail:
                # printing the answer hit the limit; name it, not Python's advice
                detail = (f"ValueError: answer has a number longer than "
                          f"{sys.get_int_max_str_digits()} digits, the most a report prints")
            records.append(Record(ident, kind, "error", detail))
    return Report(tuple(records))


# ---------------------------------------------------------------------------
# the corpus battery
# ---------------------------------------------------------------------------

def _check(records, ident, kind, ok: bool, detail: str):
    records.append(Record(ident, kind, "pass" if ok else "fail", detail))


def _metrizability_table():
    """(line, bornology, metric, expected, anchor, expected failing part)."""
    t = []

    def c(ln, b, d, anchor):
        t.append((line(ln), b, metric(d), "CONSISTENT", anchor, None))

    def x(ln, b, d, anchor, part):
        t.append((line(ln), b, metric(d), "INCONSISTENT", anchor, part))

    c("standard/uu", UB, "rho_u", "small=adm-compact=bounded-above, by rho_u")
    c("standard/ul", ALL_SETS, "rho_u1", "everything small, by the capped rho_u1")
    c("standard/uf", UB, "rho_u", "adm-compact=compact=bounded-above, by rho_u")
    c("standard/ul", UB, "rho_u", "compact bornology by rho_u")
    c("standard/ut", NAT_BOUNDED, "d_n", "adm-compact metrized by d_n")
    c("standard/lst", NAT_BOUNDED, "d_n", "small=bounded, by d_n")
    c("standard/lom", NAT_BOUNDED, "d_n", "small=bounded, by d_n")
    c("standard/l_plus_om", UB, "d_n_plus", "small=adm-compact, by the damped metric")
    c("standard/l_plus_st", UB, "d_n_plus", "small=adm-compact, by the damped metric")
    c("standard/l_plus_om", UB, "d_u", "bounded-above sets, by d_u")
    c("standard/l_plus_st", UB, "d_u", "bounded-above sets, by d_u")
    for ln in ("standard/om", "standard/slom", "standard/rom", "standard/st"):
        c(ln, ALL_SETS, "d_n1", "everything small, by the capped d_n1")
        c(ln, NAT_BOUNDED, "d_n", "compact bornology by d_n")
    c("sorgenfrey/lst", NAT_BOUNDED, "rho_0", "small=adm-compact=bounded, by rho_0")
    c("sorgenfrey/lom", NAT_BOUNDED, "rho_0", "small=adm-compact=bounded, by rho_0")
    c("sorgenfrey/l_plus_st", UB, "rho_S", "bounded-above sets, by rho_S")
    c("sorgenfrey/l_plus_om", UB, "rho_S", "bounded-above sets, by rho_S")
    c("sorgenfrey/l_minus_om", LB, "rho_L", "bounded-below sets, by rho_L")
    c("sorgenfrey/l_minus_st", LB, "rho_L", "bounded-below sets, by rho_L")
    for ln in ("sorgenfrey/om", "sorgenfrey/slom", "sorgenfrey/st",
               "sorgenfrey/sl_plus_om"):
        c(ln, ALL_SETS, "rho_S1", "everything small, by the capped rho_S1")

    x("standard/ut", FB, "d_n", "finite sets never match d_n-bounded sets",
      "bornology")
    x("standard/uf", UF_SMALL, "rho_u", "reverse-well-ordered sets never match "
      "rho_u-bounded sets", "bornology")
    x("standard/uf", LB, "rho_u",
      "bounded-below sets never match (their upper-interiors are empty)",
      "bornology")
    x("sorgenfrey/ut", FB, "rho_S", "finite sets admit no half-open open base",
      "bornology")
    x("sorgenfrey/ut", FB, "rho_L", "same failure against rho_L", "bornology")
    for ln, d in (("sorgenfrey/lst", "rho_0"), ("sorgenfrey/lom", "rho_0"),
                  ("sorgenfrey/l_plus_st", "rho_S"), ("sorgenfrey/l_minus_st", "rho_L"),
                  ("sorgenfrey/om", "rho_S1"), ("sorgenfrey/st", "rho_S1"),
                  ("sorgenfrey/slom", "rho_S1"), ("sorgenfrey/sl_plus_om", "rho_S1"),
                  ("sorgenfrey/ut", "rho_S")):
        x(ln, FB, d, "relatively compact sets are finite, never a ball bornology",
          "bornology")
    return t


def _section_identities(records, probes):
    """ACB = Sm u CB on every probe.  This is a property of the corpus lines,
    checked on the probes; it is not a theorem of the paper."""
    for l in CORPUS:
        sb, cb, ab = l.spec.sm, l.spec.cb, l.spec.acb
        bad = [f"acb({a})" for a in probes
               if ab.member(a) != (sb.member(a) or cb.member(a))]
        _check(records, f"identity/{l}", "bornology-identity", not bad,
               f"Sm={sb} CB={cb} ACB={ab} on {len(probes)} probes"
               + (f"; mismatches: {bad[:3]}" if bad else ""))


def _section_pt(records, probes):
    for l in CORPUS:
        lp = pt_of(l)
        ok = all(sm_member(l, a) == sm_member(lp, a)
                 and cb_member(l, a) == cb_member(lp, a) for a in probes)
        _check(records, f"pt/{l}", "pt-invariance", ok, f"pt image {lp}")
    # bounded generation probe for the pt machinery
    psi = CovCollection.from_specs([
        finite_family([open_iv(0, 2)]),
        finite_family([open_iv(0, 1)]),
        finite_family([open_iv(1, 2)]),
    ])
    got = member_generated(finite_family([open_iv(0, 1), open_iv(1, 2)]),
                           generation_levels(psi), 1)
    _check(records, "pt/generation-probe", "member-generated", got.found,
           f"finiteness closure found at depth {got.depth_used}")


def _section_subsumption(records, probes):
    bad = []
    for l in CORPUS:
        for a in probes:
            if (sm_member(l, a) or cb_member(l, a)) and not acb_member(l, a):
                bad.append(f"{l}:{a}")
    _check(records, "subsumption/corpus", "acb-subsumption", not bad,
           f"Sm u CB inside ACB over {len(CORPUS)} lines x {len(probes)} probes"
           + (f"; violations: {bad[:3]}" if bad else ""))


def _section_metrizability(records):
    for l, b, d, expect, anchor, part in _metrizability_table():
        got = metrizable_verdict(l, b, d)
        ok = got.verdict == expect and (part is None or got.failing_part == part)
        want = expect if part is None else f"{expect}@{part}"
        _check(records, f"metrizable/{l}/{b}/{d.label()}", "metrizability", ok,
               f"{got.verdict}{'' if got.failing_part is None else '@' + got.failing_part}"
               f" (expected {want}; {anchor})")


def _section_chains(records):
    sym = BaseSchema(lo=(Fraction(-1), Fraction(-1)), hi=(Fraction(1), Fraction(1)))
    ub_schema = UB.schema

    rep = chain_check(metric("d_n"), sym, Fraction(1, 2))
    _check(records, "chain/d_n-sym-1/2", "chain", rep.verdict == "pass" and rep.uniform,
           f"{rep} (expected uniform pass)")
    ok = True
    details = []
    for k in range(2, 13):
        delta = Fraction(1, 2**k)
        rep = chain_check(metric("d_n_plus"), sym, delta)
        good = rep.verdict == "fail_at" and rep.fail_index <= 1 / delta
        ok = ok and good
        details.append(f"2^-{k}->{rep.fail_index}")
    _check(records, "chain/d_n_plus-sym-dyadics", "chain", ok,
           "fail indices " + ",".join(details) + " all <= ceil(1/delta)")
    rep = chain_check(metric("d_n_plus"), ub_schema, Fraction(1, 2))
    _check(records, "chain/d_n_plus-ub-1/2", "chain",
           rep.verdict == "pass" and rep.uniform, str(rep))
    rep = uniform_chain_check(metric("d_n_plus"), ub_schema)
    _check(records, "chain/d_n_plus-ub-uniform", "chain", rep.verdict == "pass",
           str(rep))
    rep = uniform_chain_check(metric("rho_S_minus"), sym)
    _check(records, "chain/rho_S_minus-not-uniform", "chain", rep.verdict == "fail_at",
           f"fail_at({rep.fail_index}) (the flipped-damping metric admits no uniform delta)")
    rep = uniform_chain_check(metric("rho_0"), NAT_BOUNDED.schema)
    _check(records, "chain/rho_0-nat-uniform", "chain", rep.verdict == "pass",
           f"{rep} (localized Sorgenfrey chain closes uniformly)")

    got = proper_check(UB, TopologyKind.UPPER, TopologyKind.LOWER)
    _check(records, "proper/ub-upper-lower", "properness", got.proper, "PROPER expected")
    got = proper_check(LB, TopologyKind.UPPER, TopologyKind.LOWER)
    _check(records, "proper/lb-upper", "properness", not got.proper,
           "IMPROPER expected (bounded-below sets have empty upper-interior)")
    got = proper_check(FB, TopologyKind.SORG_R, TopologyKind.NAT)
    _check(records, "proper/fb-sorg", "properness", not got.proper, "IMPROPER expected")
    _check(records, "base/fb-sorg", "base-condition",
           not base_check(FB, TopologyKind.SORG_R),
           "half-open opens contain no nonempty finite set")
    _check(records, "base/nat-nat", "base-condition",
           base_check(NAT_BOUNDED, TopologyKind.NAT), "base exists")
    _check(records, "base/ub-upper", "base-condition",
           base_check(UB, TopologyKind.UPPER), "base exists")

    got = uniform_equiv_refute(
        metric("d_n_plus"), metric("d_n"), 1,
        [(-(Fraction(2) ** k), -(Fraction(2) ** (k + 1))) for k in range(0, 24)])
    _check(records, "equiv/d_n_plus-vs-d_n", "uniform-equivalence",
           got is EquivVerdict.REFUTED,
           "equivalent metrics, uniform equivalence refuted")


def _section_axioms(records):
    for l in CORPUS:
        got = axiom_verdict(l.spec)
        _check(records, f"axioms/{l}", "axioms", got.holds, str(got))


def _section_refuters(records, probes):
    for l in CORPUS:
        bat = admissible_battery(l)
        bad = []
        for a in probes:
            if sm_member(l, a):
                for f in bat:
                    if not ess_finite_on(f, a).essentially_finite:
                        bad.append(f"small {a} refuted by {f}")
            else:
                f = smallness_refuter(l, a)
                if f is None or not cov_member(l, f) or \
                        ess_finite_on(f, a).essentially_finite:
                    bad.append(f"non-small {a} not refuted")
        _check(records, f"refuter/{l}", "smallness-refuter", not bad,
               f"battery size {len(bat)} on {len(probes)} probes"
               + (f"; {bad[:2]}" if bad else ""))


def _section_wls(records):
    for l in CORPUS:
        expect = l.variant not in ("ut", "uf")
        f = weak_local_small_cover(l)
        ok = (f is not None) == expect
        if ok and f is not None:
            ok = union_of(f) == REALS
            ms = f.truncated(-3, 3)
            ok = ok and all(op_member(l, m) and sm_member(l, m) for m in ms)
        _check(records, f"wls/{l}", "weak-local-smallness", ok,
               "cover of small opens exists" if expect else
               "small opens cannot cover the line")


RESTRICTION_INSTANCES = 50   # random (Psi, Y) instances of the battery
RESTRICTION_DEPTH = 4        # generation levels each candidate is searched to


def restriction_generation_battery() -> Tuple[int, int, list]:
    """Randomized restriction/generation agreement: membership in
    EssFin(L_Y[U(Psi n2 Y)]) must match bounded generation over Y.

    Returns (agreements, truncations, disagreements)."""
    rng = random.Random(2026)
    pool = [open_iv(0, 2), open_iv(1, 3), open_iv(-2, 1), closed_open(0, 1),
            open_iv(-1, 4), open_iv(2, 5), point(1).union(open_iv(3, 4))]
    windows = [closed(-1, 3), closed(0, 4), closed(-2, 5), open_iv(-1, 4)]
    agreements = truncations = 0
    disagreements = []
    for _ in range(RESTRICTION_INSTANCES):
        gens = rng.sample(pool, rng.randint(1, 2))
        y = rng.choice(windows)
        psi_specs = [finite_family([g]) for g in gens]
        restricted = [restrict_family(f, y) for f in psi_specs]
        ring_gens = []
        for f in restricted:
            ring_gens.extend(members(f) or [])
        ring = full_ring_closure(ring_gens, y)
        psi = CovCollection.from_specs(restricted, carrier=y)
        ring_set = set(ring)
        candidates = []
        for _ in range(3):
            size = rng.randint(1, min(3, len(ring)))
            candidates.append(finite_family(rng.sample(ring, size)))
        candidates.append(finite_family([y.difference(ring[rng.randrange(len(ring))])]))
        # one chain per Psi: each level is computed once for all candidates
        chains = itertools.tee(generation_levels(psi, 56), len(candidates))
        for cand, levels in zip(candidates, chains):
            mats = members(cand) or []
            in_ring_side = all(m in ring_set for m in mats) and \
                bool(ess_finite(cand)) if mats else True
            got = member_generated(cand, levels, RESTRICTION_DEPTH)
            if got.truncated and got.found != in_ring_side:
                truncations += 1
                continue
            if got.found != in_ring_side:
                disagreements.append((str(y), [str(m) for m in mats],
                                      in_ring_side, got.found))
            else:
                agreements += 1
    return agreements, truncations, disagreements


def _section_restriction_generation(records):
    agreements, truncations, disagreements = restriction_generation_battery()
    _check(records, "restriction-generation/battery", "restriction-generation",
           not disagreements,
           f"{agreements} agreements, {truncations} truncation reports, "
           f"{len(disagreements)} disagreements")


def corpus_verify() -> Report:
    """The flagship battery."""
    records: list[Record] = []
    probes = probe_corpus()
    _section_identities(records, probes)
    _section_pt(records, probes)
    _section_subsumption(records, probes)
    _section_metrizability(records)
    _section_chains(records)
    _section_axioms(records)
    _section_refuters(records, probes)
    _section_wls(records)
    _section_restriction_generation(records)
    return Report(tuple(records))
