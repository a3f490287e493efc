"""The generated RK4 loop in C (native.compile_step) against the
same loop in Python, both through integrate_trajectory: the same rows
bit for bit on the bundled systems and their gauge twins, unforced and
under a constant and an expression forcing, and on the
differential fuzz's domain-leaving trees the same rows and the same
error; the Python loop wherever no C loop can be built; and no compiler
process below the threshold."""
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings

from avcalc import dynamics, native
from avcalc.dynamics import GaugeClassLagrangian, integrate_trajectory
from avcalc.exprlang import Binary, Call, Number, Unary, Var, to_text
from avcalc.geometry import euclidean_atlas
from avcalc.systems import bundled_system

from test_dynamics import drag_and_push, orbit_cases
from test_engine_fuzz import ROWS, oracle, trees

pytestmark = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")

STEP_LOOP = dynamics._ChartEngine.step_loop
RK4_STEPS = dynamics._rk4_steps


def on_loop(monkeypatch, native: bool, call):
    """call() with the generated loop in C (native) or in Python: its
    trajectory arrays or its exception's class and text, the loop each
    step_loop call gave ("c" or "python"), and the xs and vs arrays at
    each hand-back to _rk4_steps, whose unwritten rows are NaN."""
    monkeypatch.setattr(dynamics, "NATIVE_STEPS", 0 if native else math.inf)
    used, rows = [], []

    def step_loop(self, steps):
        loop = STEP_LOOP(self, steps)
        used.append("c" if loop is vars(self).get("native_rk4") else "python")
        return loop

    def rk4_steps(*args):
        xs, vs, start = args[-3:]
        xs[start + 1:] = vs[start + 1:] = math.nan
        rows.append((xs, vs))
        return RK4_STEPS(*args)

    monkeypatch.setattr(dynamics._ChartEngine, "step_loop", step_loop)
    monkeypatch.setattr(dynamics, "_rk4_steps", rk4_steps)
    try:
        tr = call()
    except Exception as exc:  # compared between the two loops
        result = (type(exc), str(exc))
    else:
        result = (tr.positions.tobytes(), tr.velocities.tobytes())
    return result, used, [(xs.tobytes(), vs.tobytes()) for xs, vs in rows]


@pytest.mark.parametrize("case", orbit_cases(), ids=lambda c: c[0])
def test_bundled_orbits_bit_identical(case, monkeypatch):
    _name, lam, chart, halfwidth, n = case
    rng = np.random.default_rng(29)
    x0 = rng.uniform(-0.5, 0.5, n)
    v0 = rng.uniform(-0.5, 0.5, n) * halfwidth
    for forcing in (None, rng.uniform(-0.5, 0.5, n), drag_and_push(n)[0]):
        def call():
            return integrate_trajectory(lam, x0, v0, 0.0, 1.0, 300, forcing=forcing,
                                        chart_id=chart)

        python, used, rows = on_loop(monkeypatch, False, call)
        assert (used, rows) == (["python"], [])
        native, used, rows = on_loop(monkeypatch, True, call)
        assert (used, rows) == (["c"], [])
        assert native == python


def fuzz_lagrangian(tree):
    """|v|^2/2 + tree(x1, x2) + tree(x1, v2)/4: the tree in the terms,
    and through v2 in the velocity Hessian and C.v."""
    def swap(node):
        if isinstance(node, Var):
            return Var("v2") if node.name == "x2" else node
        if isinstance(node, Unary):
            return Unary(node.op, swap(node.child))
        if isinstance(node, Binary):
            return Binary(node.op, swap(node.left), swap(node.right))
        if isinstance(node, Call):
            return Call(node.func, tuple(map(swap, node.args)))
        return node

    text = f"0.5*(v1^2 + v2^2) + {to_text(tree)} + 0.25*{to_text(swap(tree))}"
    return GaugeClassLagrangian.from_exprs(euclidean_atlas(2), text)


def applied(*functions):
    """The calls of `functions` nested around x1: applied("exp", "log")
    is exp(log(x1))."""
    return Var("x1") if not functions else Call(functions[0], (applied(*functions[1:]),))


@settings(max_examples=6, database=None, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(trees)
# IEEE arithmetic would absorb C's infinity or NaN here (ROADMAP, known
# defects); Python raises in exp, log or sqrt, and C hands back there
@example(Binary("/", Number(1.0), Call("exp", (Binary("*", Number(1000.0), Var("x1")),))))
@example(applied("exp", "log"))
@example(applied("sign", "log"))
@example(applied("sign", "sqrt"))
@example(Call("sign", (Binary("/", Number(1.0), Var("x1")),)))
# powers: an integer one through |x|, and a negative base to a fraction
@example(Binary("^", Binary("-", Var("x2"), Var("x1")), Number(-3.0)))
@example(Call("pow", (Unary("-", Var("x1")), Number(0.5))))
def native_matches_python_on_domain_leaving_trees(tree):
    assume(any(oracle(tree, row) is None for row in ROWS))
    lam = fuzz_lagrangian(tree)
    # through the fuzz's coordinates, and from its zero, where a sign or
    # a division by an infinity makes every term finite again
    for x0, v0 in (([1.5, -1.5], [-3.0, 3.0]), ([0.0, 0.0], [1.0, 0.5])):
        def call():
            return integrate_trajectory(lam, x0, v0, 0.0, 1.0, 60)

        with pytest.MonkeyPatch.context() as monkeypatch:
            python, _used, python_rows = on_loop(monkeypatch, False, call)
            native, used, native_rows = on_loop(monkeypatch, True, call)
        assert used == ["c"]
        assert native == python, (to_text(tree), x0)
        # C hands back wherever Python does, and _rk4_steps repeats that
        # step, so the rows written up to the error match; C may also hand
        # back where a libm call, a division or a power passes on an
        # infinity or a NaN without a raise in Python
        assert native_rows == python_rows or (native_rows and not python_rows)


def test_native_matches_python_on_domain_leaving_trees():
    # a plain test function, as for the fuzz in test_engine_fuzz.py
    native_matches_python_on_domain_leaving_trees()


@pytest.mark.parametrize("broken", ["no compiler", "failed build", "no temporary directory"])
def test_without_a_c_loop_the_python_loop_runs(broken, monkeypatch, tmp_path):
    monkeypatch.setattr(native, "_LOOPS", {})
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    if broken == "no compiler":
        monkeypatch.setattr(native, "_compiler", lambda: None)
    elif broken == "failed build":
        monkeypatch.setattr(native, "CC_FLAGS", (*native.CC_FLAGS, "-fno-such-option"))
    else:
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    lam = bundled_system("relativistic").lagrangian

    def call():
        return integrate_trajectory(lam, [0.1, 0.0], [0.0, 0.4], 0.0, 1.0, 100)

    python, _used, _rows = on_loop(monkeypatch, False, call)
    fallback, used, rows = on_loop(monkeypatch, True, call)
    assert used == ["python"] and lam.engine("0").native_rk4 is None
    assert fallback == python and rows == []
    assert list(tmp_path.iterdir()) == []  # the failed build left nothing


def test_no_compiler_below_the_threshold(monkeypatch, tmp_path):
    monkeypatch.setattr(native, "_LOOPS", {})
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    started = []

    class Spy(subprocess.Popen):
        def __init__(self, args, *rest, **kwargs):
            started.append(args)
            super().__init__(args, *rest, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", Spy)
    lam = GaugeClassLagrangian.from_exprs(euclidean_atlas(1), "0.5*v1^2 - 0.125*x1^2")
    integrate_trajectory(lam, [0.3], [0.0], 0.0, 1.0, dynamics.NATIVE_STEPS - 1)
    assert started == [] and "native_rk4" not in vars(lam.engine("0"))
    # one more step reaches the threshold: that call builds and runs the C loop
    tr = integrate_trajectory(lam, [0.3], [0.0], 0.0, 1.0, 1)
    assert [args[0] for args in started] == [shutil.which("cc")]
    assert lam.engine("0").native_rk4 is not None
    assert list(tmp_path.iterdir()) == []  # the build directory is gone
    assert tr.positions[1, 0] == pytest.approx(0.3 * math.cos(0.5), abs=1e-3)


def test_import_starts_no_compiler_machinery():
    # subprocess is imported only by the first build (ctypes is numpy's),
    # and native by the first tier-up of a loop or a kernel
    probe = ("import sys, numpy, avcalc\n"
             "from avcalc.systems import bundled_system\n"
             "lam = bundled_system('charged').lagrangian\n"
             "avcalc.integrate_trajectory(lam, [0, 0, 0], [1, 0, 0], 0.0, 1.0, 100)\n"
             "names = avcalc.dynamics.lagrangian_varnames(3)\n"
             "kernel = avcalc.kernels.compile_field(lam.expr('0'), names)\n"
             "vals = numpy.random.default_rng(1).uniform(-1, 1, (10_000, 6))\n"
             "avcalc.kernels.eval_batch(kernel, vals, vals, vals)\n"
             "sys.exit(bool({'subprocess', 'avcalc.native'} & set(sys.modules)))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    assert subprocess.run([sys.executable, "-c", probe], env=env, timeout=60).returncode == 0
