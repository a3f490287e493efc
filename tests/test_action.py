import numpy as np
import pytest

from avcalc.action import (
    VariationField,
    action_lift,
    action_quadrature,
    gauge_fixed_value,
    perturbed_curve,
    variation_derivative,
    variation_pairing,
)
from avcalc.affine import affine_scalar_diff
from avcalc.dynamics import GaugeClassLagrangian, gauge_shift
from avcalc.errors import ChartScheduleError, DomainError
from avcalc.geometry import CurveSpec, circle_atlas, euclidean_atlas
from avcalc.systems import bundled_system, bundled_system_names

from helpers_reference import (
    reference_derivative,
    reference_lift,
    reference_pairing,
    reference_quadrature,
)


@pytest.fixture(scope="module")
def free():
    atlas = euclidean_atlas(1)
    lam = GaugeClassLagrangian.from_exprs(atlas, "0.5*v1^2")
    curve = CurveSpec.single("0", ["t"], 0.0, 1.0)
    return atlas, lam, curve


class TestActionValues:
    def test_unit_speed_line(self, free):
        _atlas, lam, curve = free
        s = action_quadrature(lam, curve, panels=1000)
        assert gauge_fixed_value(s) == pytest.approx(0.5, abs=1e-10)
        s2 = action_lift(lam, curve, steps=1000)
        assert gauge_fixed_value(s2) == pytest.approx(0.5, abs=1e-10)

    def test_zero_lagrangian(self, free):
        atlas, _lam, curve = free
        zero = GaugeClassLagrangian.from_exprs(atlas, "0")
        a = action_quadrature(zero, curve, panels=10)
        b = action_lift(zero, curve, steps=10)
        assert gauge_fixed_value(a) == 0.0
        assert abs(affine_scalar_diff(a, b, atlas)) == 0.0

    def test_lift_shift_leaves_class_unchanged(self, free):
        atlas, lam, curve = free
        s = action_lift(lam, curve, steps=200)
        shifted = s.shift(3.0).shift(-3.0)
        assert abs(affine_scalar_diff(s, shifted, atlas)) < 1e-14

    def test_anchors(self, free):
        _atlas, lam, curve = free
        s = action_quadrature(lam, curve, panels=100)
        assert s.minus.base == (0.0,)
        assert s.plus.base == (1.0,)
        assert s.minus.value == 0.0

    def test_panel_validation(self, free):
        _atlas, lam, curve = free
        with pytest.raises(ValueError):
            action_quadrature(lam, curve, panels=0)
        with pytest.raises(ValueError):
            action_lift(lam, curve, steps=0)


class TestPerturbation:
    def test_perturbed_curve_positions(self, free):
        _atlas, _lam, curve = free
        w = VariationField.from_strings(["t*(1-t)"])
        moved = perturbed_curve(curve, w, 0.1)
        t = 0.5
        assert moved.position(t)[0] == pytest.approx(t + 0.1 * t * (1 - t))
        assert curve.position(t)[0] == pytest.approx(t)

    def test_zero_variation(self, free):
        _atlas, lam, curve = free
        w = VariationField.from_strings(["0"])
        assert variation_derivative(lam, curve, w) == pytest.approx(0.0, abs=1e-12)
        assert variation_pairing(lam, curve, w) == pytest.approx(0.0, abs=1e-12)


class TestStationarity:
    def test_el_solution_is_stationary(self, free):
        # straight line solves the free EL equation; endpoint-vanishing
        # variations see a critical point
        _atlas, lam, curve = free
        w = VariationField.from_strings(["t*(1-t)"])
        assert abs(variation_derivative(lam, curve, w)) < 1e-6
        assert abs(variation_pairing(lam, curve, w)) < 1e-8

    def test_identity_for_non_solution_curve(self):
        atlas = euclidean_atlas(1)
        lam = GaugeClassLagrangian.from_exprs(atlas, "0.5*v1^2 - sin(x1)")
        curve = CurveSpec.single("0", ["0.3*t + 0.2*t^2"], 0.0, 1.0)
        w = VariationField.from_strings(["0.1 + 0.2*t"])  # not endpoint-vanishing
        fd = variation_derivative(lam, curve, w, eps=1e-5, panels=1000)
        pair = variation_pairing(lam, curve, w, panels=1000)
        assert fd == pytest.approx(pair, abs=1e-8)

    def test_forced_uniform_field_boundary_term(self):
        # L = v^2/2 - x along the EL solution: only boundary terms remain
        atlas = euclidean_atlas(1)
        lam = GaugeClassLagrangian.from_exprs(atlas, "0.5*v1^2 - x1")
        curve = CurveSpec.single("0", ["0.2 + 0.8*t - 0.5*t^2"], 0.0, 1.0)
        w = VariationField.from_strings(["1"])
        pair = variation_pairing(lam, curve, w, panels=500)
        # <p(1), 1> - <p(0), 1> = (0.8 - 1.0) - 0.8 = -1.0
        assert pair == pytest.approx(-1.0, abs=1e-10)
        fd = variation_derivative(lam, curve, w, panels=500)
        assert fd == pytest.approx(-1.0, abs=1e-8)


class TestAgainstScalarOracle:
    """The batched action layer against the per-node scalar loop, on every
    bundled system (the circle's curve crosses its chart junction).  300
    panels give 900 nodes on a one-segment curve, more than one chunk."""

    PANELS = 300

    @pytest.fixture(scope="class", params=bundled_system_names())
    def system(self, request):
        return bundled_system(request.param)

    @staticmethod
    def fields(system):
        a, b = system.curve.t_start, system.curve.t_end
        poly = [f"(0.2 - {0.1 * (k + 1)}*t + 0.05*t^2)" for k in range(system.dim)]
        return [
            VariationField.from_strings([f"(t-({a}))*(({b})-t)*{p}" for p in poly]),
            VariationField.from_strings(poly),
        ]

    def test_quadrature_and_lift(self, system):
        lam, curve, p = system.lagrangian, system.curve, self.PANELS
        quad = gauge_fixed_value(action_quadrature(lam, curve, p))
        lift = gauge_fixed_value(action_lift(lam, curve, p))
        assert abs(quad - reference_quadrature(lam, curve, p)) <= 1e-12
        assert abs(lift - reference_lift(lam, curve, p)) <= 1e-12

    def test_pairing(self, system):
        curve, p = system.curve, self.PANELS
        shifted = gauge_shift(system.lagrangian, system.chis[0])
        for lam in (system.lagrangian, shifted):
            for w in self.fields(system):
                got = variation_pairing(lam, curve, w, p)
                assert abs(got - reference_pairing(lam, curve, w, p)) <= 1e-12

    def test_derivative(self, system):
        lam, curve, p = system.lagrangian, system.curve, self.PANELS
        for w in self.fields(system):
            got = variation_derivative(lam, curve, w, 1e-5, p)
            assert abs(got - reference_derivative(lam, curve, w, 1e-5, p)) <= 1e-9


class TestErrorPaths:
    def test_domain_error_from_every_action_function(self):
        # |v1| = 2 takes L = -sqrt(1 - v1^2) out of the real domain at every node
        atlas = euclidean_atlas(1)
        lam = GaugeClassLagrangian.from_exprs(atlas, "-sqrt(1 - v1^2)")
        curve = CurveSpec.single("0", ["2*t"], 0.0, 1.0)
        w = VariationField.from_strings(["t*(1-t)"])
        calls = [
            lambda: action_quadrature(lam, curve, 50),
            lambda: action_lift(lam, curve, 50),
            lambda: variation_derivative(lam, curve, w, 1e-5, 50),
            lambda: variation_pairing(lam, curve, w, 50),
        ]
        for call in calls:
            with pytest.raises(DomainError, match=r"sqrt.* at x1=0\.0, v1=2\.0"):
                call()

    def test_non_finite_value_without_a_domain_error(self, free):
        # the interpreter computes inf without complaint; the action may not
        atlas, _lam, curve = free
        lam = GaugeClassLagrangian.from_exprs(atlas, "1e400*v1^2")
        with pytest.raises(DomainError, match=r"non-finite kernel output in .* at x1=0\.0, v1=1\.0"):
            action_quadrature(lam, curve, 10)

    def test_domain_error_in_curve_derivative(self, free):
        _atlas, lam, _curve = free
        curve = CurveSpec.single("0", ["sqrt(t)"], 0.0, 1.0)
        with pytest.raises(DomainError, match=r"sqrt derivative singular at zero .* at t=0\.0"):
            action_quadrature(lam, curve, 10)

    def test_curve_leaving_its_chart_mid_segment(self):
        # chart "0" of the circle covers (-pi, pi); the segment runs on to 4
        circle = circle_atlas("sin(x1)", winding=1.0)
        lam = GaugeClassLagrangian.from_exprs(circle, "0.5*v1^2")
        curve = CurveSpec.single("0", ["t"], 0.0, 4.0)
        w = VariationField.from_strings(["t*(4-t)"])
        with pytest.raises(ChartScheduleError) as expected:
            reference_quadrature(lam, curve, 100)
        calls = [
            lambda: action_quadrature(lam, curve, 100),
            lambda: action_lift(lam, curve, 100),
            lambda: variation_pairing(lam, curve, w, 100),
        ]
        for call in calls:
            with pytest.raises(ChartScheduleError, match="curve leaves chart 0 at t=3.16") as got:
                call()
            assert str(got.value) == str(expected.value)
