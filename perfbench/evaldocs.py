"""The `eval` workload: seeded query documents, evaluated the way
`gtsreal --format machine eval FILE` does, and checked against answers
recorded from the library.

Documents come from a fixed universe: document i is generated from its own
seed, so the universe needs no storage, and `eval_reference.txt` records for
each one the status of every query and a hash of the ok answers.  A run's
`--seed` picks where in the universe the run starts; the documents before
that point are the warm-up.

Record the reference (about a minute per thousand documents):

    python3 perfbench/evaldocs.py --record
"""

from __future__ import annotations

import argparse
import hashlib
import random
import re
import sys
from fractions import Fraction as F
from pathlib import Path

UNIVERSE = 8192
REFERENCE = Path(__file__).resolve().parent / "eval_reference.txt"
GENERATOR = "eval-docs-v2"

METRICS = ("d_n", "d_n1", "d_n_plus", "d_n_plus_1", "d_u", "rho_u", "rho_u1",
           "rho_S", "rho_S1", "rho_L", "rho_0", "rho_0_1", "rho_S_minus")
KINDS = ("nat", "upper", "lower", "sorg_r", "sorg_l", "discrete")
VARIANTS = ("ut", "om", "st", "lom", "lst", "slom", "l_plus_om", "l_minus_om",
            "l_plus_st", "l_minus_st", "sl_plus_om", "sl_minus_om", "rom")
LINES = tuple(f"standard/{v}" for v in VARIANTS + ("uu", "ul", "uf")) + \
    tuple(f"sorgenfrey/{v}" for v in VARIANTS)
BORNS = ("fb", "all_sets", "nat_bounded", "ub", "lb")
# Query kinds drawn for a document.  "ball" also emits an "eval" on the same
# centre, so every kind below and "eval" is equally likely: the benchmark has
# no record of real eval traffic, so no kind is favoured (see DESIGN.md).
QUERIES = ("normalize", "subset", "closure", "sample", "ball", "nbhd", "bounded_set",
           "op_member", "sm_member", "cov_member", "ess_finite_on", "ef_member",
           "chain_check", "metrizable", "oracle_ess_finite")
REFUSALS = ("UnsupportedCombinationError", "PreconditionError", "OracleRefusal")


def rat(q) -> str:
    q = F(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _bound(rng):
    return "closed" if rng.random() < .5 else "open"


def _interval(rng, lo, hi):
    if lo == hi:
        return f"point {rat(lo)}"
    return f"interval({_bound(rng)} {rat(lo)}, {_bound(rng)} {rat(hi)})"


def _set_expr(rng):
    """A criterion-6 shaped set; one in five gets a periodic tail."""
    parts = []
    for _ in range(rng.randint(1, 3)):
        a = F(rng.randint(-32, 32), 4)
        shape = rng.randrange(6)
        if shape == 0:
            parts.append(f"point {rat(a)}")
        elif shape == 1:
            parts.append(f"interval(open -inf, {_bound(rng)} {rat(a)})")
        elif shape == 2:
            parts.append(f"interval({_bound(rng)} {rat(a)}, open inf)")
        else:
            parts.append(_interval(rng, a, a + F(rng.randint(1, 16), 4)))
    if rng.random() < .2:
        parts = [p for p in parts if "inf" not in p]
        period = F(rng.choice((1, 2)), rng.choice((1, 2)))
        pat = f"interval({_bound(rng)} 0, open {rat(period * F(rng.randint(1, 3), 4))})"
        side = rng.choice(("left", "right"))
        parts.append(f"tail({side}, {pat}, {rat(period)}, {rat(F(rng.randint(-6, 6), 2))})")
    return parts[0] if len(parts) == 1 else f"union({', '.join(parts)})"


def _family(rng):
    """A periodic family: its text, the topology kinds its members are open
    in, and a maker of windows K that its members k0..k1 cover."""
    lo = F(rng.randint(-4, 4), 2)
    hi = lo + F(rng.randint(1, 4), 2)
    lc, hc = _bound(rng), _bound(rng)
    period = F(rng.choice((1, 2)), rng.choice((1, 2)))
    kmin, kmax = -10**6, 10**6
    shape = rng.randrange(5)
    if shape < 2:
        span = "all"
    elif shape == 2:
        kmin = rng.randint(-4, 4)
        span = f"from {kmin}"
    elif shape == 3:
        kmax = rng.randint(-4, 4)
        span = f"upto {kmax}"
    else:
        kmin = rng.randint(-6, 2)
        kmax = kmin + rng.randint(0, 8)
        span = f"span {kmin} {kmax}"
    text = f"periodic(interval({lc} {rat(lo)}, {hc} {rat(hi)}), {rat(period)}, {span})"
    open_in = {("open", "open"): ("nat", "sorg_r", "sorg_l", "discrete"),
               ("closed", "open"): ("sorg_r", "discrete"),
               ("open", "closed"): ("sorg_l", "discrete"),
               ("closed", "closed"): ("discrete",)}[(lc, hc)]

    def oracle_args(rng):
        """Member indices k0..k1 and a window K that only they can meet."""
        k0 = rng.randint(-6, 0)
        k1 = k0 + rng.randint(2, 8)
        e0, e1 = max(k0, kmin), min(k1, kmax)
        safe_lo = lo + e0 * period if e0 == kmin else hi + (e0 - 1) * period
        safe_hi = hi + e1 * period if e1 == kmax else lo + (e1 + 1) * period
        safe_lo, safe_hi = max(safe_lo, lo + e0 * period), min(safe_hi, hi + e1 * period)
        if safe_hi - safe_lo < F(1, 2):
            return k0, k1, _window(rng)
        a = safe_lo + F(rng.randrange(int(2 * (safe_hi - safe_lo))), 2)
        b = a + F(rng.randint(1, int(2 * (safe_hi - a))), 2)
        return k0, k1, f"interval(open {rat(a)}, open {rat(b)})"
    return text, open_in, oracle_args


def _window(rng):
    a = F(rng.randint(-12, 12), 2)
    return _interval(rng, a, a + F(rng.randint(1, 8), 2))


def document(i: int):
    """Text of universe document i and its query kinds, in order."""
    rng = random.Random(f"gtsreal-{GENERATOR}-{i}")
    names = [f"S{k}" for k in range(rng.randint(2, 3))]
    lines = [f"set {n} = {_set_expr(rng)}" for n in names]
    fam, open_in, oracle_args = _family(rng)
    lines.append(f"family P = {fam}")
    kinds = []
    want = rng.randint(7, 9)
    while len(kinds) < want:
        q = rng.choice(QUERIES)
        s = rng.choice(names)
        d = rng.choice(METRICS)
        if q == "normalize":
            text = f"normalize {s}"
        elif q == "subset":
            text = f"subset {s} {rng.choice(names)}"
        elif q == "closure":
            text = f"closure {s} {rng.choice(KINDS)}"
        elif q == "sample":
            lo = F(rng.randint(-16, 12), 2)
            text = f"sample {s} from {rat(lo)} to {rat(lo + rng.randint(1, 4))} " \
                   f"step {rat(F(1, rng.choice((2, 4, 8))))}"
        elif q == "ball":
            x = F(rng.randint(-16, 16), 4)
            lines.append(f"query ball {d} at {rat(x)} radius {rat(F(rng.randint(1, 8), 4))}")
            kinds.append("ball")
            q, text = "eval", f"eval {d} {rat(x)} {rat(F(rng.randint(-16, 16), 4))}"
        elif q == "nbhd":
            text = f"nbhd {d} {s} delta {rat(F(rng.randint(1, 8), 8))}"
        elif q == "bounded_set":
            text = f"bounded_set {d} {s}"
        elif q in ("op_member", "sm_member"):
            text = f"{q} {rng.choice(LINES)} {s}"
        elif q == "cov_member":
            text = f"cov_member {rng.choice(LINES)} P"
        elif q == "ess_finite_on":
            text = f"ess_finite_on P {_window(rng)}"
        elif q == "ef_member":
            text = f"ef_member P {rng.choice(open_in)} {rng.choice(BORNS)}"
        elif q == "chain_check":
            text = f"chain_check {d} {rng.choice(BORNS)} " \
                   f"delta {rat(F(1, rng.choice((2, 4, 8))))} upto {rng.randint(4, 16)}"
        elif q == "metrizable":
            text = f"metrizable {rng.choice(LINES)} {rng.choice(BORNS)} {d}"
        else:
            k0, k1, k_set = oracle_args(rng)
            text = f"oracle_ess_finite P window {k0} {k1} {k_set} max {rng.randint(2, 6)}"
        lines.append(f"query {text}")
        kinds.append(q)
    return "\n".join(lines) + "\n", tuple(kinds)


# ---------------------------------------------------------------------------
# machine reports and the reference
# ---------------------------------------------------------------------------

def records(text: str):
    """(kind, status, detail) per query record of a machine report."""
    out = []
    for ln in text.splitlines()[2:-1]:
        _, kind, status, detail = ln.split("|", 3)
        out.append((kind, status, detail))
    return out


def answer_hash(details) -> str:
    return hashlib.sha256("\n".join(details).encode("utf-8")).hexdigest()[:12]


def reference_line(recs) -> str:
    statuses = "".join("o" if st == "ok" else "e" for _, st, _ in recs)
    return f"{statuses} {answer_hash([d for _, st, d in recs if st == 'ok'])}"


def load_reference():
    """Per-document (statuses, hash); refuses a file of another generator."""
    head, refs = {}, []
    for ln in REFERENCE.read_text(encoding="utf-8").splitlines():
        if ln.startswith("#"):
            key, _, value = ln[1:].strip().partition("=")
            head[key.strip()] = value.strip()
        else:
            statuses, digest = ln.split()
            refs.append((statuses, digest))
    if head.get("generator") != GENERATOR or len(refs) != UNIVERSE:
        raise ValueError(f"{REFERENCE} does not match generator {GENERATOR} x {UNIVERSE}")
    return refs


_BALL = re.compile(r"^([(\[])(-?inf|-?\d+(?:/\d+)?), (\+?inf|-?\d+(?:/\d+)?)([)\]])$")


def _in_interval_text(text: str, y: F):
    """Membership of y in a one-interval answer such as '[-1, 3/2)'."""
    m = _BALL.match(text)
    if m is None:
        return None
    lo_closed, lo, hi, hi_closed = m.group(1) == "[", m.group(2), m.group(3), m.group(4) == "]"
    above = lo.endswith("inf") or (y > F(lo) or (lo_closed and y == F(lo)))
    below = hi.endswith("inf") or (y < F(hi) or (hi_closed and y == F(hi)))
    return above and below


def check_document(text: str, kinds, report: str, rc: int, ref):
    """Compare one evaluated document with its reference.

    Returns (wrong, transitions, errors): wrong answers as strings,
    error->ok changes as strings (reported, not failures), and the
    (query kind, exception name) of every error record."""
    try:
        recs = records(report)
    except ValueError:
        return [f"malformed machine report: {report[:200]!r}"], [], []
    wrong, moved, errors = [], [], []
    if [k for k, _, _ in recs] != list(kinds):
        return [f"records {[k for k, _, _ in recs]} do not match queries {list(kinds)}"], [], []
    statuses, digest = ref
    n_err = 0
    for i, ((kind, status, detail), want) in enumerate(zip(recs, statuses)):
        if status == "error":
            n_err += 1
            errors.append((kind, detail.split(":", 1)[0]))
            if want == "o":
                wrong.append(f"q{i:03d} {kind}: ok in the reference, now {detail}")
        elif status != "ok":
            wrong.append(f"q{i:03d} {kind}: status {status}")
        elif want == "e":
            moved.append(f"q{i:03d} {kind}: error in the reference, now ok: {detail}")
    if not wrong and answer_hash([d for (_, _, d), w in zip(recs, statuses) if w == "o"]) != digest:
        wrong.append("ok answers differ from the reference")
    if rc != (1 if n_err else 0):
        wrong.append(f"exit code {rc} with {n_err} error records")
    if not report.endswith(f"fail={n_err} total={len(recs)}\n"):
        wrong.append("summary line does not match the records")
    wrong += _cross_check(text, recs)
    return wrong, moved, errors


def _cross_check(text, recs):
    """y in ball(x, r)  <=>  d(x, y) < r, for every ball/eval pair."""
    qs = [ln.split()[1:] for ln in text.splitlines() if ln.startswith("query ")]
    out = []
    for i in range(len(recs) - 1):
        if recs[i][0] != "ball" or recs[i][1] != "ok" or recs[i + 1][1] != "ok":
            continue
        _, d, _, x, _, r = qs[i]
        _, d2, x2, y = qs[i + 1]
        if (d2, x2) != (d, x):
            out.append(f"q{i:03d}: ball/eval pair does not share its centre")
            continue
        inside = _in_interval_text(recs[i][2], F(y))
        dist = recs[i + 1][2]
        closer = dist != "inf" and F(dist) < F(r)
        if inside is None or inside != closer:
            out.append(f"q{i:03d}: {y} in ball {d}({x}, {r}) = {recs[i][2]} "
                       f"but {d}({x}, {y}) = {dist}")
    return out


def record():
    """Evaluate the whole universe with the library in src/ and write the
    reference file."""
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from gtsreal.queries import parse
    from gtsreal.report import run
    lines = [f"# generator = {GENERATOR}", f"# documents = {UNIVERSE}",
             "# line = query statuses (o ok, e error) and sha256[:12] of the ok answers"]
    for i in range(UNIVERSE):
        text, _ = document(i)
        lines.append(reference_line(records(run(parse(text)).machine_text())))
    REFERENCE.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--record", action="store_true", help="rewrite eval_reference.txt")
    if ap.parse_args().record:
        record()
