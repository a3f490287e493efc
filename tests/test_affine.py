import math

import pytest

from avcalc.affine import (
    AffineScalar,
    FiberPoint,
    affine_scalar_diff,
    box_minus,
    fiber_diff,
    fiber_translate,
)
from avcalc.errors import BaseMismatchError
from avcalc.geometry import circle_atlas, euclidean_atlas


@pytest.fixture(scope="module")
def circle():
    return circle_atlas("sin(x1)", winding=1.0)


class TestFiberPoint:
    def test_translate(self):
        z = FiberPoint("0", (1.0, 2.0), 0.5)
        assert fiber_translate(z, 2.0) == FiberPoint("0", (1.0, 2.0), 2.5)

    def test_affine_scalar_shift(self):
        s = AffineScalar(FiberPoint("0", (0.0,), 1.0), FiberPoint("0", (1.0,), 0.0))
        t = s.shift(0.5)
        assert t.plus.value == 1.5
        assert t.minus.value == 0.0


class TestFiberDiff:
    def test_same_chart(self):
        atlas = euclidean_atlas(1)
        z1 = FiberPoint("0", (0.3,), 2.0)
        z2 = FiberPoint("0", (0.3,), 0.7)
        assert fiber_diff(z1, z2, atlas) == pytest.approx(1.3)

    def test_base_mismatch(self):
        atlas = euclidean_atlas(1)
        with pytest.raises(BaseMismatchError):
            fiber_diff(FiberPoint("0", (0.0,), 1.0), FiberPoint("0", (1.0,), 1.0), atlas)

    @pytest.mark.parametrize("x, gap", [(1.0, 5e-6), (100.0, 5e-4), (0.0, 2e-9)])
    def test_base_tolerance_is_absolute(self, x, gap):
        # the bases may differ by 1e-9 at any scale, not by a relative 1e-5
        atlas = euclidean_atlas(1)
        near = FiberPoint("0", (x + 0.5e-9,), 1.0)
        assert fiber_diff(FiberPoint("0", (x,), 3.0), near, atlas) == 2.0
        with pytest.raises(BaseMismatchError):
            fiber_diff(FiberPoint("0", (x,), 3.0), FiberPoint("0", (x + gap,), 1.0), atlas)

    def test_cross_chart_base_tolerance_is_absolute(self, circle):
        # 4e-6 apart at x = 0.5 is within numpy's default relative 1e-5
        with pytest.raises(BaseMismatchError):
            fiber_diff(FiberPoint("0", (0.5,), 2.0), FiberPoint("1", (0.5 + 4e-6,), 0.3), circle)

    def test_cross_chart_on_circle(self, circle):
        # same geometric point, x = 0.5 in both charts (primary overlap
        # component, identical coordinates); chart-1 value converts to
        # chart 0 by adding g_01(0.5) = sin(0.5)
        z0 = FiberPoint("0", (0.5,), 2.0)
        z1 = FiberPoint("1", (0.5,), 0.3)
        assert fiber_diff(z0, z1, circle) == pytest.approx(2.0 - (0.3 + math.sin(0.5)))

    def test_cross_chart_is_antisymmetric(self, circle):
        z0 = FiberPoint("0", (0.5,), 2.0)
        z1 = FiberPoint("1", (0.5,), 0.3)
        assert fiber_diff(z0, z1, circle) == pytest.approx(-fiber_diff(z1, z0, circle))

    def test_cross_chart_secondary_component(self, circle):
        # chart-0 angle -1.0 is chart-1 angle -1.0 + 2*pi; the cochain
        # on this component carries the winding shift
        x0 = -1.0
        x1 = x0 + 2.0 * math.pi
        g = math.sin(x0) - 2.0 * math.pi  # winding 1
        z0 = FiberPoint("0", (x0,), 1.0)
        z1 = FiberPoint("1", (x1,), 1.0)
        assert fiber_diff(z0, z1, circle) == pytest.approx(1.0 - (1.0 + g))


class TestAffineScalarDiff:
    def test_rechart_invariance(self, circle):
        # the same affine scalar written with plus-ends in different
        # charts compares to zero
        x = 0.5
        a = AffineScalar(FiberPoint("0", (x,), 1.2), FiberPoint("0", (-1.0,), 0.0))
        x1, v1 = circle.convert_fiber([x], 1.2, "0", "1")
        b = AffineScalar(FiberPoint("1", tuple(x1), v1), FiberPoint("0", (-1.0,), 0.0))
        assert affine_scalar_diff(a, b, circle) == pytest.approx(0.0, abs=1e-15)

    def test_box_minus_difference(self):
        atlas = euclidean_atlas(1)
        a = box_minus(FiberPoint("0", (1.0,), 3.0), FiberPoint("0", (0.0,), 1.0))
        b = box_minus(FiberPoint("0", (1.0,), 2.5), FiberPoint("0", (0.0,), 1.0))
        assert affine_scalar_diff(a, b, atlas) == pytest.approx(0.5)
