import dataclasses
import math

import numpy as np
import pytest

from avcalc import exprlang, suites, systems
from avcalc.dynamics import GaugeClassLagrangian, gauge_shift
from avcalc.errors import ExprSyntaxError
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


class TestGaugeFunctionsOfASystem:
    CHIS = ("x1*x2", "sin(x1)*cos(x2)")

    def test_each_chi_is_parsed_and_shifted_once(self, monkeypatch):
        system = dataclasses.replace(bundled_system("free"), chis=self.CHIS)
        parsed, shifted = [], []
        parse = exprlang.parse
        monkeypatch.setattr(exprlang, "parse", lambda text: parsed.append(text) or parse(text))

        def shift(lam, chi):
            shifted.append((lam, chi))
            return gauge_shift(lam, chi)

        for module in (systems, suites):  # the names a suite could shift through
            monkeypatch.setattr(module, "gauge_shift", shift)
        results = []
        for suite in (suites.gauge_el_suite, suites.legendre_suite, suites.action_gauge_suite,
                      suites.trajectory_gauge_suite):
            results += suite(system)
        assert len(results) == 2 + 4 + 2 + 1 and all(r.passed for r in results)
        assert [text for text in parsed if text in self.CHIS] == list(self.CHIS)
        assert [lam for lam, _chi in shifted] == [system.lagrangian] * 2
        assert [chi for _lam, chi in shifted] == [*map(system.chi_function, self.CHIS)]

    def test_a_replaced_system_shifts_its_own_lagrangian(self):
        system = bundled_system("free")
        chi, chart = self.CHIS[0], system.default_chart()
        twin = system.gauge_twin(chi)
        other = GaugeClassLagrangian.from_exprs(system.atlas, "0.5*v1^2 + v2^2")
        copy = dataclasses.replace(system, lagrangian=other)
        assert copy.gauge_twin(chi).expr(chart) == gauge_shift(other, chi).expr(chart)
        assert copy.gauge_twin(chi).expr(chart) != twin.expr(chart)
        assert system.gauge_twin(chi) is twin  # the original keeps its own

    def test_a_failed_parse_is_not_kept(self, monkeypatch):
        system = bundled_system("free")
        calls = []
        parse = exprlang.parse
        monkeypatch.setattr(exprlang, "parse", lambda text: calls.append(text) or parse(text))
        for _ in range(2):
            with pytest.raises(ExprSyntaxError):
                system.chi_function("x1 $ x2")
        assert calls == ["x1 $ x2"] * 2


def test_bundled_names_stable():
    assert bundled_system_names() == [
        "free", "uniform", "charged", "relativistic", "boosted", "circle",
    ]
    with pytest.raises(KeyError):
        bundled_system("nonesuch")
