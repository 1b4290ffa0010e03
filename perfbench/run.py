"""gtsreal benchmark: one workload per run, measured from outside the library.

    python3 perfbench/run.py --workload setalg|eval|corpus --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout; it imports the library from `src/`.

Each workload is a closed loop: one client in one process sends the next op
when the previous one has returned.  An op is one RealSet call (`setalg`),
one query document through `gtsreal --format machine eval FILE` (`eval`), or
one `gtsreal --format machine corpus` battery (`corpus`).

With `--trace 0` the run makes ROUNDS rounds.  Each round sets up afresh
(import, inputs, warm-up) and then times ops with no tracing: the first round
until their CPU time adds up to `--seconds` / ROUNDS (or their wall time to
1.5 times that), the later rounds replay the same ops.  `setup_s` is the
median set-up, and an op's time is its shortest over the rounds.  Op and
set-up times are CPU times scaled to a nominal host speed (HostClock, and
DESIGN.md).  With `--trace 1` it sets up,
times a fixed number of ops untraced, sets up again and replays the same ops
with spans on the library's public functions (see tracing.py), and reports
the per-layer metrics.  Every output is checked after its timed
region; the last line of standard output is the JSON result, and a wrong
answer makes the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter, thread_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ROUNDS = 4
CHECK_EVERY = 1000
UNATTRIBUTED_MAX = 0.05   # share of trace.wall_s that ops may spend outside every span
SAMPLE_EVERY = 0.01       # CPU seconds between samples of the host's speed
REFERENCE_S = 1e-4        # the reference snippet's time at nominal host speed

sys.path.insert(0, str(HERE))

import evaldocs  # noqa: E402
import setalg  # noqa: E402
import tracing  # noqa: E402


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Outcome:
    """What the checks found: wrong answers fail the run."""

    def __init__(self):
        self.wrong = []        # descriptions of wrong answers
        self.failed_ops = 0    # ops that raised or gave a wrong answer
        self.answers = 0       # answers checked (calls, query records, battery records)
        self.errors = {}       # "kind: exception" -> count, for answers that were errors
        self.notes = []        # reported, not failures

    def count_error(self, key):
        self.errors[key] = self.errors.get(key, 0) + 1

    @property
    def error_answers(self):
        return sum(self.errors.values())

    @property
    def error_frac(self):
        """Answers that were errors, refusals or wrong, over answers."""
        bad = self.error_answers + len(self.wrong)
        return min(1.0, bad / max(self.answers, 1))


class Workload:
    """What the runner needs of a workload.  Class attributes: `warm_ops`
    (warm-up ops per set-up), `trace_ops` (ops per phase of a traced run)
    and `rss_ops` (ops after which peak_rss_mb is read)."""

    def before(self, op):
        """Untimed preparation of one op."""

    def after(self, op, out):
        """Untimed collection of one op's output (or its exception)."""
        return out


class SetAlg(Workload):
    """Single RealSet calls on criterion-6 operands (setalg.py)."""

    name = "setalg"
    warm_ops = 1000
    trace_ops = 6000
    rss_ops = 10000

    def __init__(self, seed, tmp):
        self.seed = seed
        self.checked_operands = set()   # every set-up builds the same pool

    def prepare(self, gs):
        self.inputs = setalg.Inputs(gs, self.seed)
        self.checker = setalg.Checker(self.inputs, self.checked_operands)

    def stream(self, label):
        return self.inputs.stream(label)

    def call(self, op):
        return self.inputs.call(*op)

    def check(self, done, outcome):
        """Every call must succeed and agree with the grid reference."""
        results = []
        for op, out in done:
            if isinstance(out, BaseException):
                outcome.wrong.append(f"{op[0]} raised {type(out).__name__}: {out}")
            else:
                results.append((op[0], op[1], out))
        wrong = self.checker.check(results)
        outcome.failed_ops += len(done) - len(results) + len(wrong)
        outcome.wrong += wrong
        outcome.answers += len(done)


class EvalDocs(Workload):
    """Query documents from the recorded universe (evaldocs.py)."""

    name = "eval"
    warm_ops = 40
    trace_ops = 300
    rss_ops = 300

    def __init__(self, seed, tmp):
        # documents [0, warm_ops) warm every run up; the seed picks where in
        # the rest of the universe the measured documents start
        self.span = evaldocs.UNIVERSE - self.warm_ops
        self.start = random.Random(f"eval-start-{seed}").randrange(self.span)
        self.reference = evaldocs.load_reference()
        self.doc = tmp / "doc.gts"
        self.report = tmp / "report.txt"
        self.argv = ["--format", "machine", "--report", str(self.report),
                     "eval", str(self.doc)]

    def prepare(self, gs):
        self.cli = sys.modules["gtsreal.cli"]

    def stream(self, label):
        if label == "warm":
            yield from range(self.warm_ops)
            return
        i = self.start
        while True:
            yield self.warm_ops + i % self.span
            i += 1

    def before(self, i):
        text, kinds = evaldocs.document(i)
        self.doc.write_text(text, encoding="utf-8")
        self.current = (text, kinds)

    def call(self, i):
        return self.cli.main(self.argv)

    def after(self, i, rc):
        if isinstance(rc, BaseException):
            return rc
        return self.current + (self.report.read_text(encoding="utf-8"), rc)

    def check(self, done, outcome):
        for i, out in done:
            if isinstance(out, BaseException):
                outcome.failed_ops += 1
                outcome.wrong.append(f"document {i}: {type(out).__name__}: {out}")
                continue
            text, kinds, report, rc = out
            wrong, moved, errors = evaldocs.check_document(
                text, kinds, report, rc, self.reference[i])
            outcome.answers += len(kinds)
            for kind, exc in errors:
                outcome.count_error(f"{kind}: {exc}")
            outcome.notes += [f"document {i} {m}" for m in moved]
            if wrong:
                outcome.failed_ops += 1
                outcome.wrong += [f"document {i} {w}" for w in wrong]


class Corpus(Workload):
    """The built-in 204-record verification battery, as `gtsreal corpus`
    runs it: before each op the library is imported afresh, outside the
    timed region, so every battery starts with empty caches and there is
    nothing to warm up.  The battery takes no input, so the seed changes
    nothing."""

    name = "corpus"
    warm_ops = 0
    trace_ops = 1
    rss_ops = 1
    reimport = True

    def __init__(self, seed, tmp):
        self.report = tmp / "corpus.txt"
        self.argv = ["--format", "machine", "--report", str(self.report), "corpus"]
        self.first = None

    def prepare(self, gs):
        self.cli = sys.modules["gtsreal.cli"]

    def stream(self, label):
        while True:
            yield label

    def before(self, op):
        if self.reimport:
            self.prepare(import_gtsreal())

    def call(self, op):
        return self.cli.main(self.argv)

    def after(self, op, rc):
        if isinstance(rc, BaseException):
            return rc
        text = self.report.read_text(encoding="utf-8")
        if self.first is None:
            self.first = text
        return rc, text

    def check(self, done, outcome):
        for _, out in done:
            if isinstance(out, BaseException):
                outcome.failed_ops += 1
                outcome.wrong.append(f"corpus raised {type(out).__name__}: {out}")
                continue
            rc, text = out
            lines = text.splitlines() or [""]
            summary, records = lines[-1], lines[2:-1]
            outcome.answers += len(records)
            bad = []
            if rc != 0:
                bad.append(f"exit code {rc}")
            if " fail=0 " not in f" {summary} ":
                bad.append(f"summary {summary!r}")
            if text != self.first:
                bad.append("machine text differs from the run's first battery")
            for r in records:
                status = r.split("|")[2]
                if status not in ("pass", "info"):
                    outcome.count_error(f"{r.split('|')[1]}: {status}")
            if bad:
                outcome.failed_ops += 1
                outcome.wrong += bad


WORKLOADS = {w.name: w for w in (SetAlg, EvalDocs, Corpus)}


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------

def import_gtsreal():
    """Import the library afresh, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == "gtsreal" or n.startswith("gtsreal.")]:
        del sys.modules[name]
    importlib.import_module("gtsreal.cli")
    return importlib.import_module("gtsreal")


def reference_snippet():
    """CPU time of a fixed piece of exact-rational arithmetic, the kind of
    work the library does; it does not use the library."""
    t0 = thread_time()
    x = Fraction(0)
    for i in range(1, 10):
        x += Fraction(i, 7) * Fraction(3, i + 1)
    return thread_time() - t0


class HostClock:
    """Op times scaled to a nominal host speed.

    The host's speed changes by up to 2x from one second to the next and
    by 30% over minutes, and the library's CPU time follows it.  While
    running, the clock times `reference_snippet` every SAMPLE_EVERY
    seconds of CPU time, from a SIGVTALRM handler, so the samples land
    inside ops too.  An interval's scaled time is its CPU time, less the
    handler's, times REFERENCE_S over the mean of the samples taken in it
    (the last four, if fewer were taken)."""

    def __init__(self):
        self.samples = []
        self.handler_s = 0.0
        self.running = False

    def _sample(self, signum, frame):
        t0 = thread_time()
        self.samples.append(reference_snippet())
        self.handler_s += thread_time() - t0

    def __enter__(self):
        self.samples = [reference_snippet() for _ in range(4)]
        signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY, SAMPLE_EVERY)
        self.running = True
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)
        self.running = False

    def start(self):
        return len(self.samples), self.handler_s, thread_time()

    def stop(self, mark):
        """(CPU seconds, scaled seconds) since `mark`; unscaled when the
        clock is not running."""
        c1 = thread_time()
        n0, h0, c0 = mark
        cpu = c1 - c0 - (self.handler_s - h0)
        if not self.running:
            return cpu, cpu
        local = self.samples[n0:] if len(self.samples) - n0 >= 4 else self.samples[-4:]
        return cpu, cpu * REFERENCE_S * len(local) / sum(local)


CLOCK = HostClock()


def run_op(wl, op):
    """One op; returns (CPU seconds, scaled seconds, wall seconds, output)."""
    wl.before(op)
    w0, mark = perf_counter(), CLOCK.start()
    try:
        out = wl.call(op)
    except Exception as e:  # noqa: BLE001 - a raising op is counted, not fatal
        out = e
    cpu, scaled = CLOCK.stop(mark)
    return cpu, scaled, perf_counter() - w0, wl.after(op, out)


def set_up(wl):
    """Import, build the inputs and run the warm-up ops; returns the scaled
    seconds it took.  Per-chunk op times stop falling after the first
    chunk of fresh inputs, so a fixed warm-up length is enough."""
    gc.collect()
    mark = CLOCK.start()
    wl.prepare(import_gtsreal())
    stream = wl.stream("warm")
    for _ in range(wl.warm_ops):
        run_op(wl, next(stream))
    return CLOCK.stop(mark)[1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_ops(wl, stream, seconds=None, count=None, outcome=None):
    """Run ops until their summed CPU time reaches `seconds` (or their wall
    time 1.5 times that, on a busy host), or until `count` ops are done.
    Returns the CPU, scaled and wall time of each op, the outputs not
    checked, and the peak RSS once `wl.rss_ops` ops are done (None if
    fewer ran).

    With an outcome, outputs are checked every CHECK_EVERY ops, between ops,
    so memory does not grow with the run; without one they are returned."""
    gc.collect()
    cpu, scaled, wall, done, rss = [], [], [], [], None
    total_cpu = total_wall = 0.0
    while True:
        op = next(stream)
        c, x, w, out = run_op(wl, op)
        cpu.append(c)
        scaled.append(x)
        wall.append(w)
        total_cpu += c
        total_wall += w
        done.append((op, out))
        if len(cpu) == wl.rss_ops:
            rss = peak_rss_mb()
        if outcome is not None and len(done) >= CHECK_EVERY:
            wl.check(done, outcome)
            done = []
        if (count is not None and len(cpu) >= count) or \
                (seconds is not None and (total_cpu >= seconds or total_wall >= 1.5 * seconds)):
            break
    if outcome is not None:
        wl.check(done, outcome)
        done = []
    return cpu, scaled, wall, done, rss


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def measure(wl, seconds):
    outcome = Outcome()
    setups, rounds_cpu, lat, raw = [], [], None, None
    with CLOCK:
        for _ in range(ROUNDS):
            setups.append(set_up(wl))
            stream = wl.stream("measure")
            if lat is None:
                raw, lat, wall, _, rss = timed_ops(wl, stream, seconds=seconds / ROUNDS,
                                                   outcome=outcome)
                rss = rss or peak_rss_mb()
                rounds_cpu.append(sum(raw))
            else:
                cpu, scaled, _, _, _ = timed_ops(wl, stream, count=len(lat), outcome=outcome)
                rounds_cpu.append(sum(cpu))
                lat = list(map(min, lat, scaled))
                raw = list(map(min, raw, cpu))
    samples = sorted(CLOCK.samples)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (percentile(lat, 0.50) * 1e3, "ms"),
        "op_p99_ms": (percentile(lat, 0.99) * 1e3, "ms"),
        "ok_frac": (1 - outcome.error_frac, "1"),
        "peak_rss_mb": (rss, "MB"),
    }
    info = [f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}",
            f"{len(lat)} ops a round; CPU seconds per round: "
            f"{', '.join(f'{c:.3f}' for c in rounds_cpu)}; shortest per op: {sum(raw):.3f}",
            f"reference snippet: {len(samples)} samples, median {percentile(samples, 0.5) * 1e6:.1f} us,"
            f" 5-95% {percentile(samples, 0.05) * 1e6:.1f}-{percentile(samples, 0.95) * 1e6:.1f} us",
            f"unscaled CPU time: {len(raw) / sum(raw):.6g} ops/s, p50 {percentile(raw, 0.5) * 1e3:.6g} ms,"
            f" p99 {percentile(raw, 0.99) * 1e3:.6g} ms",
            f"first round in wall time: {len(wall) / sum(wall):.6g} ops/s,"
            f" p50 {percentile(wall, 0.5) * 1e3:.6g} ms, p99 {percentile(wall, 0.99) * 1e3:.6g} ms",
            f"op_p99_ms has {len(lat) - math.ceil(0.99 * len(lat))} ops above it",
            f"peak_rss_mb is taken after {min(wl.rss_ops, len(lat))} ops of the first round"]
    return ROUNDS * len(lat), outcome, metrics, info


def trace(wl):
    """Per-layer metrics.  The same trace_ops ops run twice, each time from a
    fresh set-up (new import, empty caches, the same warm-up): untraced,
    then with spans.  Each op also runs in an "op" span, whose self time is
    the op's time outside every layer span."""
    outcome = Outcome()
    set_up(wl)
    cpu_u, _, _, done, _ = timed_ops(wl, wl.stream("measure"), count=wl.trace_ops)
    wl.check(done, outcome)
    set_up(wl)
    wl.reimport = False        # corpus: the op runs on the set-up's fresh import
    tracer = tracing.Tracer()
    caches0 = tracing.cache_counts()
    undo = tracing.install(tracer)
    untraced_call = wl.call

    def call(op):
        frame = tracer.enter("op")
        try:
            return untraced_call(op)
        finally:
            tracer.leave(frame)

    wl.call = call
    try:
        gc.collect()
        root = tracer.enter("bench")
        cpu_t, _, _, done, _ = timed_ops(wl, wl.stream("measure"), count=wl.trace_ops)
        tracer.leave(root)
    finally:
        del wl.call
        tracing.uninstall(undo)
    caches1 = tracing.cache_counts()
    wl.check(done, outcome)
    leftover = tracing.leftover_wrappers()
    if leftover:
        outcome.wrong.append(f"tracing wrappers left behind: {leftover}")
    tot = tracer.totals
    wall = tot["bench"][1]
    metrics = {}
    for name in tracing.SPAN_NAMES:
        if name != "op":
            metrics[f"{name}.self_s"] = (tot[name][2], "s")
    for name in ("realset.binary", "realset.tailed", "realset.canon", "covers.plus_step"):
        metrics[f"{name}.calls"] = (tot[name][0], "count")
    if caches0 is not None and caches1 is not None:
        hits, misses = caches1[0] - caches0[0], caches1[1] - caches0[1]
        metrics["realset.cache_hit_ratio"] = (hits / max(hits + misses, 1), "ratio")
    metrics["covers.member_generated.truncated_ratio"] = (
        tracer.truncated / max(tracer.generated, 1), "ratio")
    parse_s = tot["queries.parse"][1]
    metrics["queries.parse.bytes_per_s"] = (
        tracer.parse_bytes / parse_s if parse_s else 0.0, "B/s")
    metrics["report.error_records"] = (tracer.error_records, "count")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.unattributed_s"] = (tot["op"][2], "s")
    metrics["trace.overhead_ratio"] = (sum(cpu_t) / sum(cpu_u), "ratio")
    layers = sum(t[2] for name, t in tot.items() if name not in ("op", "bench"))
    info = [f"the same {len(cpu_t)} ops ran untraced, then traced",
            f"traced wall {wall:.4f} s = layer self time {layers:.4f} s"
            f" + unattributed {tot['op'][2]:.4f} s + bench self {tot['bench'][2]:.4f} s"]
    if tot["op"][2] > UNATTRIBUTED_MAX * wall:
        outcome.wrong.append(f"ops spent {tot['op'][2]:.4f} s outside every layer span,"
                             f" over {UNATTRIBUTED_MAX:.0%} of the traced wall time")
    if caches1 is None:
        info.append("realset.cache_hit_ratio absent: the realset lru caches are gone")
    return len(cpu_u) + len(cpu_t), outcome, metrics, info


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gtsreal benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gtsreal" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no library at {ROOT / 'src' / 'gtsreal'}\n")
        return 2
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        sys.pycache_prefix = str(tmp / "pycache")
        sys.path.insert(0, str(ROOT / "src"))
        wl = WORKLOADS[args.workload](args.seed, tmp)
        if args.trace:
            attempted, outcome, metrics, info = trace(wl)
        else:
            attempted, outcome, metrics, info = measure(wl, args.seconds)
        if not Path(sys.modules["gtsreal"].__file__).resolve().is_relative_to(ROOT / "src"):
            outcome.wrong.append("gtsreal was not imported from this checkout")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    correct = not outcome.wrong
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for line in info:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:.6g} {unit}")
    print(f"  error_frac {outcome.error_frac:.6f} ({outcome.error_answers} errors and "
          f"{len(outcome.wrong)} wrong in {outcome.answers} answers)")
    for key, n in sorted(outcome.errors.items(), key=lambda kv: (-kv[1], kv[0])):
        kind = "refused" if key.split(": ")[-1] in evaldocs.REFUSALS else "error"
        print(f"    {n:5d} {kind:7s} {key}")
    for note in outcome.notes[:20]:
        print(f"  note: {note}")
    for w in outcome.wrong[:20]:
        print(f"  WRONG: {w}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": outcome.failed_ops,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
