"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import re
import signal
import sys
from fractions import Fraction as F
from pathlib import Path

import evaldocs
import run
import setalg
import tracing

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
sys.path.insert(0, str(run.ROOT / "src"))


def _gs():
    return run.import_gtsreal()


def test_same_seed_gives_identical_setalg_inputs():
    gs = _gs()

    def ops(seed):
        inputs = setalg.Inputs(gs, seed)
        stream = inputs.stream("measure")
        return [str(s) for s in inputs.pool], [repr(next(stream)) for _ in range(300)]

    assert ops(7) == ops(7)
    assert ops(7) != ops(8)


def test_same_seed_gives_identical_eval_documents(tmp_path):
    assert evaldocs.document(123) == evaldocs.document(123)
    assert evaldocs.document(123) != evaldocs.document(124)
    a, b = run.EvalDocs(5, tmp_path), run.EvalDocs(5, tmp_path)
    take = lambda wl, label: [next(s) for s in [wl.stream(label)] for _ in range(40)]
    assert take(a, "measure") == take(b, "measure")
    assert take(a, "measure") != take(run.EvalDocs(6, tmp_path), "measure")
    assert not set(take(a, "measure")) & set(take(a, "warm"))


def test_metric_names_are_well_formed_and_match_the_runs(tmp_path):
    declared_e2e = [m["name"] for m in BENCHMARK["end_to_end"]]
    declared_layer = [m["name"] for m in BENCHMARK["per_layer"]]
    for name in declared_e2e + declared_layer + [w["name"] for w in BENCHMARK["workloads"]]:
        assert NAME.match(name), name
    assert len(set(declared_e2e + declared_layer)) == len(declared_e2e + declared_layer)

    wl = run.SetAlg(3, tmp_path)
    wl.trace_ops = 200
    _, outcome, metrics, _ = run.trace(wl)
    assert not outcome.wrong
    assert tracing.leftover_wrappers() == []
    assert sorted(metrics) == sorted(declared_layer)
    _, outcome, metrics, _ = run.measure(wl, 0.2)
    assert not outcome.wrong
    assert sorted(metrics) == sorted(declared_e2e)
    assert all(v > 0 for v, _ in metrics.values())


def test_trace_fails_when_ops_work_outside_every_span(tmp_path):
    class Escaping(run.SetAlg):
        def call(self, op):
            for s in self.inputs.pool[:20]:
                str(s)                      # RealSet.__str__ has no span
            return super().call(op)

    wl = Escaping(3, tmp_path)
    wl.trace_ops = 100
    _, outcome, metrics, _ = run.trace(wl)
    assert any("outside every layer span" in w for w in outcome.wrong)
    assert metrics["trace.unattributed_s"][0] > 0
    assert tracing.leftover_wrappers() == []


def test_host_clock_scales_by_the_reference_and_stops_its_timer():
    clock = run.HostClock()
    with clock:
        mark = clock.start()
        sum(i * i for i in range(400_000))
        cpu, scaled = clock.stop(mark)
        taken = clock.samples[mark[0]:]
    local = taken if len(taken) >= 4 else clock.samples[-4:]
    assert len(clock.samples) > 4                      # the timer fired
    assert abs(scaled - cpu * run.REFERENCE_S * len(local) / sum(local)) < 1e-12
    assert signal.getitimer(signal.ITIMER_VIRTUAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGVTALRM) == signal.SIG_DFL


def test_tracing_catches_operator_aliases_and_is_removed_afterwards():
    gs = _gs()
    realset = sys.modules["gtsreal.realset"]
    original_or = realset.RealSet.__dict__["__or__"]
    a, b = gs.closed(0, 1), gs.open_iv(2, 3)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        assert realset.RealSet.__dict__["__or__"] is not original_or
        a | b
        a.union(b)
        sys.modules["gtsreal.qmetric"].normalize([])   # a from-import binding
    finally:
        tracing.uninstall(undo)
    assert tracer.totals["realset.binary"][0] >= 2
    assert tracer.totals["realset.canon"][0] == 1
    assert realset.RealSet.__dict__["__or__"] is original_or
    assert tracing.leftover_wrappers() == []


def test_setalg_check_catches_a_wrong_result():
    gs = _gs()
    inputs = setalg.Inputs(gs, 11)
    stream = inputs.stream("measure")
    results = []
    for _ in range(200):
        op, args = next(stream)
        results.append((op, args, inputs.call(op, args)))
    assert setalg.Checker(inputs, set()).check(results) == []
    op_set = next(r for r in results if r[0] == "or")
    corrupt = (op_set[0], op_set[1], op_set[2] ^ gs.point(F(1, 16)))   # one point flipped
    op_bool = next(r for r in results if r[0] == "eq")
    flipped = (op_bool[0], op_bool[1], not op_bool[2])
    assert len(setalg.Checker(inputs, set()).check([corrupt, flipped])) == 2


def test_eval_reference_matches_library_and_catches_a_changed_answer():
    _gs()
    from gtsreal.queries import parse
    from gtsreal.report import run as run_doc
    reference = evaldocs.load_reference()
    for i in range(12):
        text, kinds = evaldocs.document(i)
        report = run_doc(parse(text)).machine_text()
        rc = 1 if "|error|" in report else 0
        wrong, moved, _ = evaldocs.check_document(text, kinds, report, rc, reference[i])
        assert (wrong, moved) == ([], [])
    lines = report.splitlines()
    k = next(j for j, ln in enumerate(lines) if "|ok|" in ln)
    lines[k] = lines[k] + "0"
    changed = "\n".join(lines) + "\n"
    wrong, _, _ = evaldocs.check_document(text, kinds, changed, rc, reference[11])
    assert wrong


def test_ball_eval_cross_check_flags_an_inconsistent_pair():
    text = "query ball d_n at 0 radius 1\nquery eval d_n 0 1/2\n"
    good = [("ball", "ok", "(-1, 1)"), ("eval", "ok", "1/2")]
    bad = [("ball", "ok", "(-1, 1/4)"), ("eval", "ok", "1/2")]
    assert evaldocs._cross_check(text, good) == []
    assert evaldocs._cross_check(text, bad)


def test_benchmark_json_meets_its_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
    e2e = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    for p in BENCHMARK["paths"]:
        assert (run.ROOT / p).is_dir() and Path(p).parts[0] == "perfbench"
