import math

import numpy as np
import pytest

from avcalc import suites
from avcalc.systems import bundled_system, bundled_system_names


class TestCheckResult:
    def test_pass_line(self):
        r = suites.CheckResult("demo", 1e-12, 1e-9)
        assert r.passed
        assert r.line().startswith("PASS")

    def test_fail_line(self):
        r = suites.CheckResult("demo", 1e-3, 1e-9)
        assert not r.passed
        assert r.line().startswith("FAIL")

    def test_nan_defect_fails(self):
        assert not suites.CheckResult("demo", float("nan"), 1e-9).passed


class TestIndividualSuites:
    def test_newton(self):
        results = suites.newton_suite()
        assert all(r.passed for r in results)

    def test_uniform_field_regression(self):
        results = suites.uniform_field_regression()
        assert all(r.passed for r in results)

    def test_atlas_suite_circle(self):
        results = suites.atlas_suite(bundled_system("circle"))
        assert results and all(r.passed for r in results)

    def test_consistency_suite(self):
        results = suites.consistency_suite(bundled_system("free"))
        assert results and all(r.passed for r in results)

    def test_nan_defect_fails_the_check(self):
        # the shift by sqrt(x1) has no real EL covector at x1 < 0; the
        # suite must report that NaN, not drop it in its running maximum
        system = bundled_system("free")
        system.chis = ("sqrt(x1)",)
        with np.errstate(invalid="ignore"):
            (result,) = suites.gauge_el_suite(system)
        assert math.isnan(result.defect)
        assert not result.passed

    def test_domain_error_is_a_failed_legendre_check(self):
        # momenta of the shift by sqrt(x1) have no real value at x1 < 0
        system = bundled_system("free")
        system.chis = ("sqrt(x1)",)
        results = suites.legendre_suite(system)
        assert len(results) == 2
        for result in results:
            assert math.isnan(result.defect) and not result.passed
            assert "sqrt of a negative value in" in result.detail
            assert "FAIL" in result.line() and "at x1=-" in result.line()

    def test_suites_skip_when_inputs_missing(self):
        system = bundled_system("free")
        system.curve = None
        assert suites.action_equality_suite(system) == []
        assert suites.variation_suite(system) == []


def test_bundled_names_stable():
    assert bundled_system_names() == [
        "free", "uniform", "charged", "relativistic", "boosted", "circle",
    ]
    with pytest.raises(KeyError):
        bundled_system("nonesuch")
