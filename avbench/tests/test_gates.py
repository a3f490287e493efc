"""Every correctness gate passes on a right input and fails on a
deliberately wrong one."""
import math

import numpy as np
import pytest

import avcalc as av
from avcalc import kernels
from avcalc.suites import CheckResult

import gates
import run
import workloads as W


def fails(checks) -> bool:
    return bool(gates.failing(checks))


@pytest.fixture(scope="module")
def charged():
    return W.load_system("charged")


@pytest.fixture(scope="module")
def circle():
    return W.load_system("circle")


def test_failing_rejects_nan_and_excess():
    checks = [("a", math.nan, 1.0), ("b", 2.0, 1.0), ("c", 1.0, 1.0)]
    assert [c[0] for c in gates.failing(checks)] == ["a", "b"]


def test_lorentz_gate(charged):
    x0 = np.array([0.1, -0.2, 0.3])
    v0 = np.array([0.6, 0.3, 0.0])
    tr = av.integrate_trajectory(charged.lagrangian, x0, v0, 0.0, 2 * math.pi, 400)
    assert not fails(gates.lorentz(tr.positions, tr.velocities, x0, v0, 1.0))
    # wrong input: the orbit in a field 1% stronger, checked as |B| = 1
    strong = av.GaugeClassLagrangian.from_exprs(
        charged.atlas, "0.5*(v1^2+v2^2+v3^2) + 0.505*(x1*v2-x2*v1)"
    )
    tr = av.integrate_trajectory(strong, x0, v0, 0.0, 2 * math.pi, 400)
    assert fails(gates.lorentz(tr.positions, tr.velocities, x0, v0, 1.0))


def test_twin_gate(charged):
    lam = charged.lagrangian
    x0, v0 = [0.1, 0.2, 0.0], [0.3, -0.4, 0.1]
    ref = av.integrate_trajectory(lam, x0, v0, 0.0, 1.0, 100)
    twin = av.integrate_trajectory(av.gauge_shift(lam, "sin(x1)*cos(x2)"), x0, v0, 0.0, 1.0, 100)
    assert not fails(gates.twins("c", ref.positions, ref.velocities, twin.positions, twin.velocities))
    # wrong input: a potential term is not a gauge shift
    other = av.GaugeClassLagrangian(
        lam.atlas, {"0": av.exprlang.parse(av.exprlang.to_text(lam.expr("0")) + " - 0.01*x1^2")}
    )
    bad = av.integrate_trajectory(other, x0, v0, 0.0, 1.0, 100)
    assert fails(gates.twins("c", ref.positions, ref.velocities, bad.positions, bad.velocities))


def _plus(lam, text):
    return av.GaugeClassLagrangian(
        lam.atlas,
        {cid: av.exprlang.parse(f"({av.exprlang.to_text(e)}) + {text}")
         for cid, e in lam.chart_exprs.items()},
    )


def test_action_equality_gate(circle):
    lam, curve, atlas = circle.lagrangian, circle.curve, circle.atlas
    quad = av.action_quadrature(lam, curve, 32)
    assert not fails(gates.action_equality("circle", quad, av.action_lift(lam, curve, 32), atlas))
    # wrong input: the lift of a different Lagrangian
    wrong = av.action_lift(_plus(lam, "0.001*v1^2"), curve, 32)
    assert fails(gates.action_equality("circle", quad, wrong, atlas))


def test_variation_gates(circle):
    lam, curve = circle.lagrangian, circle.curve
    general = av.VariationField.from_strings(["0.2+0.1*t"])
    other = av.VariationField.from_strings(["0.2-0.1*t"])
    fd = av.variation_derivative(lam, curve, general, 1e-5, 32)
    assert not fails(gates.variation("circle", fd, av.variation_pairing(lam, curve, general, 32)))
    # wrong input: the pairing of another field
    assert fails(gates.variation("circle", fd, av.variation_pairing(lam, curve, other, 32)))
    w = av.VariationField.from_strings(["(t+1)*(2.5-t)*(0.2+0.1*t)"])
    pair = av.variation_pairing(lam, curve, w, 32)
    shifted = av.gauge_shift(lam, "0.5*sin(2*x1)")
    assert not fails(gates.pairing_gauge("circle", pair, av.variation_pairing(shifted, curve, w, 32)))
    # wrong input: a potential term is not a gauge shift
    potential = _plus(lam, "0.3*x1")
    assert fails(gates.pairing_gauge("circle", pair, av.variation_pairing(potential, curve, w, 32)))


def test_gauge_check_gate(charged, circle):
    assert not fails(gates.suite_results("c", W.check_gauge(charged, "0.5*sin(x1)*x3^2")))
    assert not fails(gates.suite_results("s", W.check_gauge(circle, "cos(2*x1)")))
    # wrong input: x1^2 is not a function on the circle
    with pytest.raises(av.ValidationError):
        W.check_gauge(circle, "x1^2")
    # the gate reads each suite verdict, and an empty result is a failure
    assert fails(gates.suite_results("c", [CheckResult("x", 2e-9, 1e-9)]))
    assert fails(gates.suite_results("c", []))


def _cloud(seed=3):
    wl = W.Cloud(seed)
    wl.setup()
    return wl


def _run(wl, passes=1):
    log = W.OpLog()
    for _ in range(passes):
        run.run_pass(wl, log)
    return log


def test_cloud_gates():
    wl = _cloud()
    log = _run(wl, 3)
    assert log.attempted == 3 and log.failed == 0, log.failures
    # wrong input: the second kernel is L plus a potential, not a gauge shift
    names = av.dynamics.lagrangian_varnames(wl.n)
    wl.kernel1 = kernels.compile_field(_plus(wl.lam, "0.01*x1^2").expr(wl.chart), names)
    log = _run(wl)
    assert log.failed == 1 and "EL gauge difference" in log.failures[0]


def test_cloud_pointwise_gate():
    wl = _cloud()
    # wrong input: probe rows without the (v, a) second seeds
    wl.clouds = [c[:5] + (np.zeros_like(c[5]),) for c in wl.clouds]
    log = _run(wl)
    assert log.failed == 1
    assert any("batched = pointwise" in f for f in log.failures)


def test_orbit_gates():
    wl = W.Orbit(5)
    wl.setup()
    log = _run(wl)
    assert log.failed == 0 and log.attempted == 4, log.failures
    # wrong input: the charged twin carries a potential instead of a gauge term
    lam, _twin = wl.systems[0]
    wl.systems[0] = (lam, _plus(lam, "0.01*x1^2"))
    log = _run(wl)
    assert log.failed == 4
    assert any("charged: gauge twin" in f for f in log.failures)
    assert not any("relativistic" in f for f in log.failures)


def test_action_workload_gates():
    wl = W.Action(5)
    wl.setup()
    log = _run(wl)
    assert log.failed == 0 and log.attempted == 3 * 7, log.failures
    name, lam, _shifted, curve, atlas = wl.systems[2]
    wl.systems[2] = (name, lam, _plus(lam, "0.3*x1"), curve, atlas)
    log = _run(wl)
    assert log.failed == 7
    assert "circle: pairing gauge-invariant" in log.failures[0]
