"""Arithmetic of fiber points and affine scalars.

A FiberPoint is a point of the value bundle, written in the
trivialization of one chart.  An AffineScalar is a formal difference of
two fiber points (possibly over different base points); it is the value
type of actions and of integrals of affine 1-forms.  Equality of
affine scalars is only meaningful through `affine_scalar_diff`, which
is chart-independent.

Conversion convention used throughout the package: the gauge cochain
g_ij is a function of chart-i coordinates and relates the two fiber
coordinates of one geometric point by

    value_in_chart_i = value_in_chart_j + g_ij(x_i).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BaseMismatchError

_BASE_TOL = 1e-9  # absolute, at any coordinate scale


@dataclass(frozen=True)
class FiberPoint:
    chart_id: str
    base: tuple  # chart coordinates of the base point
    value: float

    def translate(self, r: float) -> "FiberPoint":
        return FiberPoint(self.chart_id, self.base, self.value + r)


@dataclass(frozen=True)
class AffineScalar:
    plus: FiberPoint
    minus: FiberPoint

    def shift(self, r: float) -> "AffineScalar":
        return AffineScalar(self.plus.translate(r), self.minus)


def fiber_translate(z: FiberPoint, r: float) -> FiberPoint:
    """Act with the structural group: add r to the fiber coordinate."""
    return z.translate(r)


def as_base_array(base) -> np.ndarray:
    return np.asarray(base, dtype=float)


def fiber_diff(z1: FiberPoint, z2: FiberPoint, atlas) -> float:
    """z1 - z2 as a real, for equal base points.

    z2 is converted into z1's chart first; the result does not depend
    on the charts the two points happen to be written in.
    """
    if z1.chart_id == z2.chart_id:
        base1, base2 = as_base_array(z1.base), as_base_array(z2.base)
        if not np.allclose(base1, base2, atol=_BASE_TOL, rtol=0):
            raise BaseMismatchError(
                f"base points differ: {z1.base} vs {z2.base} in chart {z1.chart_id}"
            )
        return z1.value - z2.value
    x2, v2 = atlas.convert_fiber(as_base_array(z2.base), z2.value, z2.chart_id, z1.chart_id)
    if not np.allclose(as_base_array(z1.base), x2, atol=_BASE_TOL, rtol=0):
        raise BaseMismatchError(
            f"base points differ: {z1.base} (chart {z1.chart_id}) vs "
            f"{z2.base} (chart {z2.chart_id})"
        )
    return z1.value - v2


def box_minus(z1: FiberPoint, z2: FiberPoint) -> AffineScalar:
    """Formal difference of two fiber points (base points may differ)."""
    return AffineScalar(z1, z2)


def affine_scalar_diff(s1: AffineScalar, s2: AffineScalar, atlas) -> float:
    """Difference of two affine scalars over the same base-point pair.

    The plus slots enter with +, the minus slots with -; the result is
    invariant under re-charting either representative.
    """
    return fiber_diff(s1.plus, s2.plus, atlas) - fiber_diff(s1.minus, s2.minus, atlas)
