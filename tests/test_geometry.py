import math

import numpy as np
import pytest

from avcalc import exprlang
from avcalc.affine import affine_scalar_diff, box_minus
from avcalc.errors import (
    ChartDisjointError,
    ChartScheduleError,
    DomainError,
    UnboundVariableError,
    ValidationError,
)
from avcalc.geometry import (
    AffineOneForm,
    Atlas,
    AVSection,
    Chart,
    CurveSegment,
    CurveSpec,
    ScalarFunction,
    affine_differential,
    circle_atlas,
    euclidean_atlas,
    gauge_transform_section,
    integrate_pullback,
    low_discrepancy_points,
    OverlapComponent,
    simpson_nodes,
)


# NaN wherever sin(x1) != 0: 1e308*10 overflows to inf
NAN_SIN = "1e308*10*sin(x1) - 1e308*10*sin(x1)"
# the start of the DomainError message naming NAN_SIN and a point
NAN_SIN_AT = r"non-finite kernel output in \(\(\(1e\+308\*10\.0\)\*sin\(x1\)\)-.* at x1="


def three_chart_line(offset):
    """Charts a, b, c on the line with g_ij = f_i - f_j; `offset` is
    added to g_ac and taken from g_ca, which keeps antisymmetry and
    breaks the cocycle on the triple overlap (0, 1)."""
    f = {"a": "sin(x1)", "b": "x1^2", "c": "0.5*x1"}
    box = {"a": (-3.0, 1.0), "b": (-1.0, 3.0), "c": (0.0, 4.0)}
    shift = {("a", "c"): offset, ("c", "a"): -offset}
    transitions = {
        (i, j): (OverlapComponent(
            ((max(box[i][0], box[j][0]), min(box[i][1], box[j][1])),),
            (exprlang.parse("x1"),),
            exprlang.parse(f"({f[i]}) - ({f[j]}) + {shift.get((i, j), 0.0)}"),
        ),)
        for i in f for j in f if i != j
    }
    return Atlas(1, [Chart(c, (box[c],)) for c in f], transitions)


@pytest.fixture(scope="module")
def circle():
    return circle_atlas("sin(x1)", winding=1.0)


class TestAtlas:
    def test_circle_validates(self, circle):
        assert circle.validate() <= 1e-12

    def test_defective_atlas_fails(self):
        with pytest.raises(ValidationError) as exc:
            circle_atlas("sin(x1)", winding=1.0, gauge_reverse_a="-sin(x1)+0.1")
        assert exc.value.defect == pytest.approx(0.1, rel=1e-9)

    def test_convert_point_components(self, circle):
        assert circle.convert_point([0.5], "0", "1")[0] == pytest.approx(0.5)
        assert circle.convert_point([-1.0], "0", "1")[0] == pytest.approx(-1.0 + 2 * math.pi)
        assert circle.convert_point([5.0], "1", "0")[0] == pytest.approx(5.0 - 2 * math.pi)

    def test_gauge_offset_with_winding(self, circle):
        assert circle.gauge_offset([0.5], "0", "1") == pytest.approx(math.sin(0.5))
        assert circle.gauge_offset([-1.0], "0", "1") == pytest.approx(
            math.sin(-1.0) - 2 * math.pi
        )

    def test_gauge_gradient(self, circle):
        assert circle.gauge_gradient([0.5], "0", "1")[0] == pytest.approx(math.cos(0.5))

    def test_jacobian_is_identity_shift(self, circle):
        assert circle.jacobian([-1.0], "0", "1")[0, 0] == pytest.approx(1.0)

    def test_outside_overlap(self, circle):
        with pytest.raises(ChartDisjointError):
            circle.convert_point([3.5], "0", "1")  # not a chart-0 point

    def test_contains(self, circle):
        assert circle.contains("0", [3.0])
        assert not circle.contains("0", [3.3])

    def test_three_chart_cocycle(self):
        assert three_chart_line(0.0).validate() < 1e-15

    def test_broken_three_chart_cocycle_fails(self):
        with pytest.raises(ValidationError, match="gauge cocycle") as exc:
            three_chart_line(0.1).validate()
        assert exc.value.defect == pytest.approx(0.1, rel=1e-12)

    def test_euclidean_single_chart(self):
        atlas = euclidean_atlas(3)
        assert len(atlas.charts) == 1
        assert atlas.transitions == {}


class TestSampling:
    def test_points_inside_box(self):
        box = [(-1.0, 2.0), (0.0, 1.0)]
        pts = low_discrepancy_points(box, 50)
        assert pts.shape == (50, 2)
        assert np.all(pts[:, 0] > -1.0) and np.all(pts[:, 0] < 2.0)
        assert np.all(pts[:, 1] > 0.0) and np.all(pts[:, 1] < 1.0)

    def test_deterministic(self):
        box = [(0.0, 1.0)]
        assert np.array_equal(low_discrepancy_points(box, 8), low_discrepancy_points(box, 8))


class TestScalarFunction:
    def test_periodic_function_is_chart_consistent(self, circle):
        fn = ScalarFunction.from_common(circle, "sin(x1)")
        fn.validate()

    def test_non_periodic_function_fails(self, circle):
        fn = ScalarFunction.from_common(circle, "x1")
        with pytest.raises(ValidationError):
            fn.validate()

    def test_nan_defect_fails(self):
        # inf*sin(x1) - inf*sin(x1) is NaN wherever sin(x1) != 0
        fn = ScalarFunction.from_common(circle_atlas("0"), NAN_SIN)
        with pytest.raises(DomainError, match=NAN_SIN_AT + "1.0$"):
            fn([1.0], "0")
        with pytest.raises(DomainError, match=NAN_SIN_AT):
            fn.validate()

    def test_variables_checked(self):
        with pytest.raises(UnboundVariableError, match="'x3'"):
            ScalarFunction.from_common(euclidean_atlas(2), "x3")

    def test_grad(self):
        atlas = euclidean_atlas(2)
        fn = ScalarFunction.from_common(atlas, "x1*x2^2")
        g = fn.grad([2.0, 3.0], "0")
        assert np.allclose(g, [9.0, 12.0])


class TestAVSection:
    def test_compatible_section(self, circle):
        phi = AVSection(circle, {"0": exprlang.parse("x1 + sin(x1)"), "1": exprlang.parse("x1")})
        phi.validate()

    def test_incompatible_section(self, circle):
        phi = AVSection(circle, {"0": exprlang.parse("x1"), "1": exprlang.parse("x1")})
        with pytest.raises(ValidationError):
            phi.validate()

    def test_nan_defect_fails(self):
        atlas = circle_atlas("0")
        phi = AVSection(atlas, {c.id: exprlang.parse(NAN_SIN) for c in atlas.charts})
        with pytest.raises(DomainError, match=NAN_SIN_AT):
            phi.validate()

    def test_gauge_transform_keeps_compatibility(self, circle):
        phi = AVSection(circle, {"0": exprlang.parse("x1 + sin(x1)"), "1": exprlang.parse("x1")})
        shifted = gauge_transform_section(phi, ScalarFunction.from_common(circle, "cos(x1)"))
        shifted.validate()
        x = 0.5
        assert shifted.value([x], "0") == pytest.approx(phi.value([x], "0") + math.cos(x))


class TestCurves:
    def test_variables_checked(self):
        with pytest.raises(UnboundVariableError, match="'s'"):
            CurveSpec.single("0", ["t", "s"], 0.0, 1.0)
        curve = CurveSpec.single("0", ["k*t"], 0.0, 1.0, {"k": 2.0})
        assert curve.position(0.5)[0] == 1.0

    def test_velocity_and_acceleration(self):
        curve = CurveSpec.single("0", ["sin(t)", "t^3"], 0.0, 2.0)
        t = 0.8
        assert np.allclose(curve.velocity(t), [math.cos(t), 3 * t * t])
        assert np.allclose(curve.acceleration(t), [-math.sin(t), 6 * t])

    def test_acceleration_at_zero_of_polynomial(self):
        # second derivative of 0.3 t + 0.2 t^2 is 0.4 everywhere,
        # including the t = 0 endpoint
        curve = CurveSpec.single("0", ["0.3*t + 0.2*t^2"], 0.0, 1.0)
        assert curve.acceleration(0.0)[0] == pytest.approx(0.4)

    def test_junction_validation(self, circle):
        t = exprlang.parse("t")
        good = CurveSpec((CurveSegment(-1.0, 1.5, "0", (t,)), CurveSegment(1.5, 2.5, "1", (t,))))
        good.validate(circle)
        bad = CurveSpec(
            (
                CurveSegment(-1.0, 1.5, "0", (t,)),
                CurveSegment(1.5, 2.5, "1", (exprlang.parse("t+0.1"),)),
            )
        )
        with pytest.raises(ChartScheduleError):
            bad.validate(circle)

    def test_nan_junction_mismatch_fails(self, circle):
        # inf*t - inf*t is NaN at the junction t = 1.5
        t = exprlang.parse("t")
        nan = exprlang.parse("t + 1e308*10*t - 1e308*10*t")
        curve = CurveSpec((CurveSegment(-1.0, 1.5, "0", (t,)), CurveSegment(1.5, 2.5, "1", (nan,))))
        with pytest.raises(DomainError, match=r"in \(\(t\+\(\(1e\+308\*10\.0\)\*t\)\).* at t=1\.5$"):
            curve.validate(circle)

    def test_parameter_gap_rejected(self, circle):
        t = exprlang.parse("t")
        gappy = CurveSpec((CurveSegment(-1.0, 1.0, "0", (t,)), CurveSegment(1.2, 2.5, "1", (t,))))
        with pytest.raises(ChartScheduleError):
            gappy.validate(circle)

    def test_state(self):
        curve = CurveSpec.single("0", ["2*t"], 0.0, 1.0)
        chart, x, v = curve.state(0.25)
        assert chart == "0"
        assert x[0] == pytest.approx(0.5)
        assert v[0] == pytest.approx(2.0)


class TestIntegration:
    def test_simpson_exact_on_cubics(self):
        t, weights = simpson_nodes(0.0, 2.0, 4)
        val = float(weights @ (t**3 - 2 * t))
        assert val == pytest.approx(4.0 - 4.0, abs=1e-14)

    def test_pullback_integral_equals_fiber_difference(self, circle):
        # the affine integral of d(phi) telescopes across the junction
        phi = AVSection(circle, {"0": exprlang.parse("x1 + sin(x1)"), "1": exprlang.parse("x1")})
        t = exprlang.parse("t")
        curve = CurveSpec((CurveSegment(-1.0, 1.5, "0", (t,)), CurveSegment(1.5, 2.5, "1", (t,))))
        sigma = affine_differential(phi, circle)
        integral = integrate_pullback(sigma, curve, circle, panels=800)
        exact = box_minus(phi.at([2.5], "1"), phi.at([-1.0], "0"))
        assert abs(affine_scalar_diff(integral, exact, circle)) < 1e-8

    def test_one_form_compatibility(self, circle):
        phi = AVSection(circle, {"0": exprlang.parse("x1 + sin(x1)"), "1": exprlang.parse("x1")})
        sigma = affine_differential(phi, circle)
        assert sigma.compatibility_defect() < 1e-10

    def test_nan_compatibility_defect(self, circle):
        # d(x1 + sin(x1)) in chart "0" plus inf*x1 - inf*x1, NaN off x1 = 0
        sigma = AffineOneForm.from_expressions(
            circle, {"0": ["1 + cos(x1) + 1e308*10*x1 - 1e308*10*x1"], "1": ["1"]})
        with pytest.raises(DomainError, match=r"in \(\(\(1\.0\+cos\(x1\)\).* at x1="):
            sigma.compatibility_defect()

    def test_one_form_variables_checked(self, circle):
        with pytest.raises(UnboundVariableError, match="'x2'"):
            AffineOneForm.from_expressions(circle, {"0": ["x2"], "1": ["1"]})
