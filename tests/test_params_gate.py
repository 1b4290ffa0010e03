"""Every parameter of a library function is read in its body, and every
optional one is passed by some call.

A parameter that nothing reads is a knob that does nothing.  `self` and `cls`
are exempt, and so are two shapes whose signature is fixed from outside:
- a protocol method, i.e. a method whose name another class of the same
  module also defines (`members_on`, `essfin`, `fails_on_base`): each shape
  takes every argument of the protocol whether it needs it or not;
- a distance formula of the `qmetric._ROWS` rows, `(x, y, phi, one)`.
Functions and lambdas nested anywhere are checked too.

A parameter with a default that no call passes is a knob nobody turns: its
body only ever sees the default.  Calls are matched by the name they call
(`f(...)`, `obj.f(...)`, and a class's name for its `__init__`), over the
library, its tests and the benchmark, which calls the library too; a call
with `*args` or `**kwargs` counts as passing everything."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src/gtsreal").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "tests").glob("*.py")) + \
    sorted((ROOT / "perfbench").glob("*.py"))
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


def _callables(tree: ast.Module):
    """(function, the name its calls use, whether a call passes one argument
    before the listed ones: a method's self or cls) for every function."""
    methods = {}
    for c in ast.walk(tree):
        if isinstance(c, ast.ClassDef):
            for m in c.body:
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in m.decorator_list)
                    methods[id(m)] = (m, c.name if m.name == "__init__" else m.name,
                                      not static)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield methods.get(id(node), (node, node.name, False))


def _optional(fn) -> list:
    """(parameter, its position, or None if keyword-only) for each parameter
    of fn with a default."""
    a = fn.args
    pos = [*a.posonlyargs, *a.args]
    first = len(pos) - len(a.defaults)
    return [(p.arg, i) for i, p in enumerate(pos) if i >= first] + \
        [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def _calls(texts) -> dict:
    """Every call in the texts, grouped by the name it calls."""
    out: dict = {}
    for text in texts:
        for n in ast.walk(ast.parse(text)):
            if isinstance(n, ast.Call):
                f = n.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                out.setdefault(name, []).append(n)
    return out


def _passes(call: ast.Call, param: str, pos, bound: bool) -> bool:
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if any(isinstance(x, ast.Starred) for x in call.args):
        return True
    return pos is not None and len(call.args) + bound > pos


def unpassed_parameters(text: str, calls: dict) -> list[str]:
    """Each optional parameter of `text`'s functions that none of `calls`
    (from `_calls`) passes, as "line: function(parameter)"."""
    out = []
    for fn, name, bound in _callables(ast.parse(text)):
        out += [(fn.lineno, f"{fn.lineno}: {fn.name}({p})") for p, pos in _optional(fn)
                if not any(_passes(c, p, pos, bound) for c in calls.get(name, ()))]
    return [entry for _, entry in sorted(out, key=lambda e: e[0])]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_optional_parameter_is_passed(path):
    calls = _calls(p.read_text() for p in CALLERS)
    assert unpassed_parameters(path.read_text(), calls) == []


def test_the_gate_sees_an_unpassed_parameter():
    # axiom_probe is checkers.axiom_probe as it was: both inputs are read,
    # only to default them, and every caller passed the line alone
    text = ("def f(a, b=1, c=2, *, d=3, e=4):\n"
            "    return a\n"
            "def g(a=1):\n"
            "    return a\n"
            "def h(a=1):\n"
            "    return a\n"
            "class P:\n"
            "    def __init__(self, w=0):\n"
            "        self.w = w\n"
            "    def m(self, x=1, y=2):\n"
            "        return x + y\n"
            "    @staticmethod\n"
            "    def s(x=1, y=2):\n"
            "        return x + y\n"
            "def axiom_probe(l, opens=None, families=None):\n"
            "    if opens is None or families is None:\n"
            "        default_opens, default_fams = default_probe_battery(l)\n"
            "        opens = opens if opens is not None else default_opens\n"
            "        families = families if families is not None else default_fams\n"
            "    return opens, families\n")
    callers = ("f(0, 5)\nf(0, e=1)\ng(*args)\nh(**kw)\n"
               "P(1).m(2)\nP.s(3)\nrep = axiom_probe(line(name))\n")
    assert unread_parameters(text) == ["1: f(b)", "1: f(c)", "1: f(d)", "1: f(e)"]
    assert unpassed_parameters(text, _calls([text, callers])) == [
        "1: f(c)", "1: f(d)", "10: m(y)", "13: s(y)",
        "15: axiom_probe(opens)", "15: axiom_probe(families)"]
