"""Acceptance battery: ten numbered criteria, one printed verdict line
per criterion (run with -s to watch them stream)."""
import math

import numpy as np
import pytest

from avcalc import exprlang, suites
from avcalc.autodiff import gradient, hessian_vector
from avcalc.systems import bundled_systems

from helpers_reference import fd_gradient, random_cases, reference_eval


@pytest.fixture(scope="module")
def systems():
    return bundled_systems()


def report(num: int, name: str, defect: float, tol: float):
    ok = np.isfinite(defect) and defect <= tol
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {verdict}  {name}: worst defect {defect:.3e} (tol {tol:.0e})")
    assert ok, f"criterion {num} failed: {name} defect {defect:.3e} > tol {tol:.0e}"


def worst_of(results):
    assert results, "suite produced no checks"
    return float(np.max([r.defect for r in results]))  # keeps a NaN, unlike max()


def test_criterion_01_el_gauge_invariance(systems):
    results = []
    for system in systems:
        results.extend(suites.gauge_el_suite(system, points=100))
    report(1, "Euler-Lagrange gauge invariance (all systems x gauge set)", worst_of(results), 1e-9)


def test_criterion_02_legendre_affine_covariance(systems):
    results = []
    for system in systems:
        results.extend(suites.legendre_suite(system))
    report(2, "Legendre shift = d(chi), v-independent", worst_of(results), 1e-12)


def test_criterion_03_action_curve_independence(systems):
    assert (suites.PANELS, suites.STEPS) == (1000, 1000)
    results = []
    for system in systems:
        results.extend(suites.action_equality_suite(system))
    names = " ".join(r.name.split(":")[0] for r in results)
    assert "circle" in names  # includes the junction-crossing curve
    report(3, "action quadrature = lift (incl. circle junction)", worst_of(results), 1e-8)


def test_criterion_04_exact_lagrangian_action(systems):
    assert suites.PANELS == 1000
    results = []
    for system in systems:
        results.extend(suites.exact_action_suite(system))
    report(4, "exact-Lagrangian action = fiber difference of phi", worst_of(results), 1e-8)


def test_criterion_05_variational_identity(systems):
    assert (suites.PANELS, suites.EPS) == (1000, 1e-5)
    results = []
    for system in systems:
        results.extend(suites.variation_suite(system))
    report(5, "FD action derivative = boundary+bulk pairing", worst_of(results), 1e-4)


def test_criterion_06_lorentz_regression():
    results = suites.lorentz_suite()
    radius, period, gauge = results
    report(6, "Lorentz circle: radius and period", max(radius.defect, period.defect), 1e-6)
    assert gauge.defect <= 1e-9, f"gauge-shifted trajectory defect {gauge.defect:.3e}"


def test_criterion_07_galilean_frame_independence():
    el, traj = suites.galilean_suite()
    report(7, "boost = gauge shift: EL outputs", el.defect, 1e-12)
    assert traj.defect <= 1e-9, f"trajectory defect {traj.defect:.3e}"


def test_criterion_08_atlas_integrity(systems):
    circle = next(s for s in systems if s.name == "circle")
    assert suites.PANELS == 1000
    atlas_results = suites.atlas_suite(circle)
    commutation = suites.commutation_suite(circle)
    report(8, "circle atlas antisymmetry + cocycle", worst_of(atlas_results), 1e-12)
    assert worst_of(commutation) <= 1e-8


def test_criterion_09_autodiff_oracle():
    varnames = ["x1", "x2", "x3"]
    worst_rel = 0.0
    checked = 0
    for ast, env in random_cases(500, varnames=varnames, depth=5, seed=4242):
        p = [env[n] for n in varnames]
        try:
            fd = fd_gradient(lambda q: reference_eval(ast, dict(zip(varnames, q))), p)
        except (ValueError, ZeroDivisionError, OverflowError):
            continue
        if any(abs(g) > 1e4 for g in fd):
            continue
        try:
            ad = gradient(
                lambda args: exprlang.evaluate(ast, dict(zip(varnames, args))), p
            )
        except Exception:
            continue  # derivative genuinely singular (e.g. sqrt at 0)
        for ga, gf in zip(ad, fd):
            worst_rel = max(worst_rel, abs(ga - gf) / max(1.0, abs(ga)))
        checked += 1
        if checked >= 100:
            break
    assert checked >= 100
    report(9, "autodiff gradients vs central differences (100 exprs)", worst_rel, 1e-6)

    rng = np.random.default_rng(17)
    worst_sym = 0.0
    for ast, env in random_cases(60, varnames=varnames, depth=4, seed=2020):
        p = [env[n] for n in varnames]
        u = rng.uniform(-1, 1, 3)
        w = rng.uniform(-1, 1, 3)
        f = lambda args: exprlang.evaluate(ast, dict(zip(varnames, args)))
        try:
            hu = hessian_vector(f, p, u)
            hw = hessian_vector(f, p, w)
        except Exception:
            continue
        if max(np.max(np.abs(hu)), np.max(np.abs(hw))) > 1e6:
            continue
        worst_sym = max(worst_sym, abs(float(w @ hu) - float(u @ hw)))
    assert worst_sym <= 1e-10, f"Hessian-vector symmetry defect {worst_sym:.3e}"


def test_criterion_10_parser_oracle():
    worst_rel = 0.0
    count = 0
    for ast, env in random_cases(1000, seed=90210):
        expected = reference_eval(ast, env)
        got = exprlang.evaluate(ast, env)
        worst_rel = max(worst_rel, abs(got - expected) / max(1.0, abs(expected)))
        count += 1
    assert count == 1000
    for ast, _env in random_cases(300, seed=31415):
        assert exprlang.parse(exprlang.to_text(ast)) == ast
    report(10, "parser matches reference evaluator; round-trip exact", worst_rel, 1e-14)


def test_acceptance_footer(systems):
    # not a criterion: sanity that the battery covered every bundled system
    assert {s.name for s in systems} == {
        "free", "uniform", "charged", "relativistic", "boosted", "circle",
    }
    assert math.isfinite(sum(s.dim for s in systems))
