"""Every parameter of a library function is read in its body.

A parameter that nothing reads is a knob that does nothing.  `self` and `cls`
are exempt, and so are two shapes whose signature is fixed from outside:
- a protocol method, i.e. a method whose name another class of the same
  module also defines (`members_on`, `essfin`, `fails_on_base`): each shape
  takes every argument of the protocol whether it needs it or not;
- a distance formula of the `qmetric._ROWS` rows, `(x, y, phi, one)`.
Functions and lambdas nested anywhere are checked too."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src/gtsreal").glob("*.py"))
FORMULA = ["x", "y", "phi", "one"]
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _protocol_methods(tree: ast.Module) -> set:
    """The ids of the methods whose names more than one class defines."""
    methods = [(c.name, m) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for m in c.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
    owners = Counter(name for _, name in {(c, m.name) for c, m in methods})
    return {id(m) for _, m in methods if owners[m.name] > 1}


def unread_parameters(text: str) -> list[str]:
    """Each parameter of `text`'s functions that its body never reads, as
    "line: function(parameter)"."""
    tree = ast.parse(text)
    exempt = _protocol_methods(tree)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, _FUNCS) or id(node) in exempt:
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg)
                  if p is not None]
        if params == FORMULA:
            continue
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        name = getattr(node, "name", "lambda")
        out += [f"{node.lineno}: {name}({p})" for p in params
                if p not in read and p not in ("self", "cls")]
    return out


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def test_the_gate_sees_an_unread_parameter():
    text = ("def f(a, b, *rest, c=1, **kw):\n"
            "    return a + kw['x']\n"
            "class P:\n"
            "    def probes(self, w):\n"
            "        return ()\n"
            "    def only_here(self, w):\n"
            "        return self\n"
            "class Q:\n"
            "    def probes(self, w):\n"
            "        return w\n"
            "ROWS = (lambda x, y, phi, one: x - y, lambda x, r: x)\n")
    assert unread_parameters(text) == [
        "1: f(b)", "1: f(rest)", "1: f(c)", "6: only_here(w)", "11: lambda(r)"]
