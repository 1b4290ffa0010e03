"""Every span target of the benchmark's tracer exists in the library.

perfbench/tracing.py wraps each (module, attribute path) of its `SPANS`
table when a traced run starts, and raises there when one is missing, so a
library change that deletes or renames a traced function fails every traced
run of every workload.  The table is read from the file's text: this test
imports nothing from perfbench/."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "gtsreal"


def span_table(text: str) -> tuple:
    """The literal value of the module-level `SPANS = ...` in `text`."""
    for node in ast.parse(text).body:
        if isinstance(node, ast.Assign) and \
                any(getattr(t, "id", None) == "SPANS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("no SPANS table")


def resolve(module: str, path: str):
    """The object at the dotted attribute path of a gtsreal module."""
    if module != "gtsreal" and not module.startswith("gtsreal."):
        raise LookupError(f"{module} is not a gtsreal module")
    obj = importlib.import_module(module)
    if not Path(obj.__file__).resolve().is_relative_to(LIBRARY):
        raise LookupError(f"{module} is imported from {obj.__file__}, not {LIBRARY}")
    for attr in path.split("."):
        obj = getattr(obj, attr)
    return obj


SPANS = span_table((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))


def test_the_table_is_read():
    assert len(SPANS) >= 30
    assert all(len(row) == 3 and all(isinstance(x, str) for x in row) for row in SPANS)


@pytest.mark.parametrize("module,path", sorted({row[:2] for row in SPANS}),
                         ids=lambda x: x)
def test_span_target_resolves_in_the_library(module, path):
    assert callable(resolve(module, path))


def test_a_missing_target_is_caught():
    with pytest.raises(AttributeError):
        resolve("gtsreal.checkers", "no_such_function")
    with pytest.raises(AttributeError):
        resolve("gtsreal.realset", "RealSet.no_such_method")
    with pytest.raises(LookupError):
        resolve("json", "dumps")
