"""A fixed slice of the `eval` benchmark's document universe, evaluated as
`gtsreal --format machine eval` does and checked against the recorded
answers in perfbench/eval_reference.txt (read only).

The benchmark's own test checks the first 12 documents.  This slice takes
the next 600: every one that declares a tailed set, the declarations the
parser builds with the most care, and a seeded sample of 50 of the rest."""

import random
import sys
from pathlib import Path

from gtsreal.queries import parse
from gtsreal.report import run

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import evaldocs  # noqa: E402

FIRST, LAST = 12, 612
SAMPLE = 50


def _slice():
    tailed, rest = [], []
    for i in range(FIRST, LAST):
        text, kinds = evaldocs.document(i)
        (tailed if "tail(" in text else rest).append((i, text, kinds))
    return tailed + random.Random(2026).sample(rest, SAMPLE)


def test_a_slice_of_the_universe_matches_the_reference():
    reference = evaldocs.load_reference()
    docs = _slice()
    assert len(docs) == 302
    failures = []
    for i, text, kinds in docs:
        report = run(parse(text)).machine_text()
        rc = 1 if "|error|" in report else 0
        wrong, moved, _ = evaldocs.check_document(text, kinds, report, rc, reference[i])
        if wrong or moved:
            failures.append((i, wrong, moved))
    assert failures == []
