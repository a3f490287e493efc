"""One evaluation engine in the library.

avcalc evaluates and differentiates expressions through the compiled
kernels only.  The tree-walking interpreter (exprlang.evaluate) and the
Hyperdual scalars (autodiff.Hyperdual, gradient, hessian_vector) are
the kernels' oracles: outside their own modules, only
kernels.domain_error, which finds the reason for a non-finite output,
the package's re-exports and the CLI's forcing callable, which
evaluates one point per RK4 stage, may import or use them.
"""
import argparse
import ast
import inspect
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "avcalc"
ORACLES = {"exprlang": {"evaluate"}, "autodiff": {"Hyperdual", "gradient", "hessian_vector"}}
DEFINING = {"exprlang.py", "autodiff.py"}
# file -> the functions that may use an oracle (None: imports only)
ALLOWED = {"kernels.py": {"domain_error"}, "__init__.py": set(), "cli.py": {"_forcing_callable"}}


def oracle_uses(source: str, filename: str) -> list:
    """(line, name) of every import or use of an oracle in `source` that
    ALLOWED does not permit for `filename`."""
    tree = ast.parse(source)
    modules, names = {}, {}  # local name -> oracle module, or -> (module, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            for alias in node.names:
                if alias.name in ORACLES:  # from . import exprlang
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name in ORACLES.get(module, ()):
                    names[alias.asname or alias.name] = f"{module}.{alias.name}"
    allowed = ALLOWED.get(filename)
    found = []

    def visit(node, functions):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions = functions + (node.name,)
        used = None
        if isinstance(node, ast.ImportFrom):
            used = next((names[a.asname or a.name] for a in node.names
                         if (a.asname or a.name) in names), None)
            if used and allowed is not None and not functions:
                used = None  # an import where its use is allowed
        elif isinstance(node, ast.Name) and node.id in names:
            used = names[node.id]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and node.attr in ORACLES[modules[node.value.id]]):
            used = f"{modules[node.value.id]}.{node.attr}"
        if used and not (allowed and allowed & set(functions)):
            found.append((node.lineno, used))
        for child in ast.iter_child_nodes(node):
            visit(child, functions)

    visit(tree, ())
    return found


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name not in DEFINING))
def test_no_oracle_in_the_library(path):
    assert oracle_uses((SRC / path).read_text(), path) == []


@pytest.mark.parametrize("source, filename, expected", [
    ("from .autodiff import gradient\n", "geometry.py", [(1, "autodiff.gradient")]),
    ("from . import exprlang\ndef f(e):\n    return exprlang.evaluate(e, {})\n", "dynamics.py",
     [(3, "exprlang.evaluate")]),
    ("from .exprlang import evaluate as ev\ndef domain_error():\n    ev(1, {})\n"
     "def other():\n    ev(1, {})\n", "kernels.py", [(5, "exprlang.evaluate")]),
    ("from .autodiff import Hyperdual, gradient\n", "__init__.py", []),
    ("from .exprlang import evaluate\ndef _forcing_callable():\n    def force():\n"
     "        return evaluate(1, {})\n", "cli.py", []),
])
def test_guard_sees_imports_and_uses(source, filename, expected):
    assert oracle_uses(source, filename) == expected


def test_compile_field_compiles_no_python(monkeypatch):
    """The batched kernel is an op tape: building one for a fresh
    expression neither compiles nor execs source, while the scalar
    renderings (compile_solve, compile_step) still build theirs."""
    from avcalc import exprlang, kernels

    def refuse(*args, **kwargs):
        raise AssertionError("compile_field compiled or exec'd source")

    built = []
    real_build = kernels._build
    monkeypatch.setattr(kernels, "_CACHE", {})
    monkeypatch.setattr(kernels, "_build", refuse)
    for name in ("compile", "exec"):
        monkeypatch.setattr(kernels, name, refuse, raising=False)
    ast = exprlang.parse("0.5*v1^2 + sin(x1)*v1 - exp(-x1^2)")
    names = ["x1", "v1"]
    kernel = kernels.compile_field(ast, names)
    assert kernels.eval_batch(kernel, [[0.0, 2.0]], [[0.0, 1.0]], [[0.0, 1.0]]).tolist() == [
        [1.0, 2.0, 2.0, 1.0]]
    for name in ("compile", "exec"):
        monkeypatch.delattr(kernels, name)

    def build(src, name, **env):
        built.append(name)
        return real_build(src, name, **env)

    monkeypatch.setattr(kernels, "_build", build)
    kernels.compile_solve(ast, names)
    kernels.compile_step(ast, names)
    assert built == ["_terms", "_run"]


def test_checks_run_at_fixed_sizes_and_tolerances():
    """No verdict can be moved: the suites and the bundled systems take
    no defaulted parameter, no command takes a tolerance or a sample
    count, check-gauge and check-all take no --chart they would ignore,
    action and variation take their curve only as --curve segments, no
    config key sets a value nothing varies or reads, and the sizes the
    action and variation commands take for the user's own curve default
    to the suites' constants."""
    import re

    from avcalc import cli, config, suites, systems

    defaulted = [
        (suite.__name__, name)
        for suite in suites.PER_SYSTEM_SUITES + suites.GLOBAL_SUITES
        for name, param in inspect.signature(suite).parameters.items()
        if param.default is not param.empty
    ]
    assert defaulted == []
    assert [name for name, build in systems._BUILDERS.items()
            if inspect.signature(build).parameters] == []
    parser = cli.build_parser()
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {name: {a.dest for a in p._actions} for name, p in commands.items()}
    assert {name: sorted(d for d in flags if d.startswith("tol") or d == "points")
            for name, flags in dests.items()} == {name: [] for name in commands}
    assert "chart" not in dests["check-gauge"] | dests["check-all"]
    assert {"chart", "t0", "t1"} & (dests["action"] | dests["variation"]) == set()
    removed = [("curve", "t0"), ("curve", "t1"), ("curve", "chart"), ("curve", "exprs"),
               ("atlas", "half_width"), ("atlas", "gauge_10"), ("system", "description")]
    assert [key for section, key in removed if re.fullmatch(config._KEYS[section], key)] == []
    expected = {
        ("action",): {"panels": suites.PANELS, "steps": suites.STEPS},
        ("variation", "--w", "t"): {"eps": suites.EPS, "panels": suites.PANELS},
    }
    for argv, flags in expected.items():
        args = vars(parser.parse_args([*argv, "--system", "free"]))
        assert {flag: args[flag] for flag in flags} == flags
