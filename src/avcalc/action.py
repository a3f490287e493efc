"""Affine action functionals and the variational pairing.

Two constructions of the action along a curve are provided: direct
quadrature of the chart representative, and the lift construction
that integrates the fiber ODE s' = L(gamma, dgamma/dt).  Both return
AffineScalars anchored at fiber points over the curve endpoints; their
affine difference vanishes (up to discretization), which is exactly the
curve-independence statement for the lifted integral.

`gauge_fixed_value` reads an AffineScalar in its own anchoring
trivialization; it is the number a fixed gauge observer reports, and
shifts by chi(end) - chi(start) under a gauge change of the Lagrangian.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exprlang
from .affine import AffineScalar
from .dynamics import GaugeClassLagrangian, legendre
from .geometry import (
    CurveSpec,
    SegmentNodes,
    _affine_integral,
    _segment_integrals,
    eval_vector,
    schedule_integral,
    simpson_nodes,
)


@dataclass(frozen=True)
class VariationField:
    """Variation vector field along a curve: per-coordinate expressions
    of the parameter t (components in the scheduled chart).  Frozen: a
    field is a value, like the curve it varies."""

    exprs: tuple

    @classmethod
    def from_strings(cls, exprs, constants=None):
        return cls(tuple(exprlang.expression(e, ("t",), constants) for e in exprs))

    def __call__(self, t: float) -> np.ndarray:
        return eval_vector(self.exprs, {"t": t})


def gauge_fixed_value(s: AffineScalar) -> float:
    """Trivialization-dependent readout: plus minus minus fiber values,
    each in its own anchoring chart."""
    return s.plus.value - s.minus.value


def _lagrangian_integrand(lam: GaugeClassLagrangian):
    """L at the nodes of a segment, through its chart's kernel."""

    def integrand(seg: SegmentNodes, sl, x, v, a):
        return lam.engine(seg.chart_id).values(x, v)

    return integrand


def action_quadrature(
    lam: GaugeClassLagrangian, curve: CurveSpec, panels: int = 1000
) -> AffineScalar:
    """Composite-Simpson action along the curve, with gauge offsets
    applied at chart junctions."""
    if panels < 1:
        raise ValueError("panels must be >= 1")
    return schedule_integral(curve, lam.atlas, panels, _lagrangian_integrand(lam))


def _rk4_nodes(t0: float, t1: float, steps: int):
    """Where RK4 evaluates the right-hand side of s' = f(t): the start,
    midpoint and end of each step, with weights h/6 * (1, 4, 1).  The
    last step ends exactly at t1."""
    h = (t1 - t0) / steps
    t = t0 + np.arange(steps) * h
    t_next = t + h
    t_next[-1] = t1
    nodes = np.stack([t, 0.5 * (t + t_next), t_next], axis=1).ravel()
    return nodes, np.tile(np.array([1.0, 4.0, 1.0]) * (h / 6.0), steps)


def action_lift(
    lam: GaugeClassLagrangian, curve: CurveSpec, steps: int = 1000
) -> AffineScalar:
    """Action via the lifted fiber ODE s'(t) = L(gamma(t), dgamma/dt),
    integrated by RK4 segment by segment.  The right-hand side depends
    on t alone, so each step adds its RK4 weights times L at three nodes.

    Shifting the initial fiber value translates the whole integral
    curve; the endpoint AffineScalar class is unchanged (the lift field
    is invariant under the structural group action).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    return _affine_integral(curve.plan(steps, _rk4_nodes), lam.atlas, _lagrangian_integrand(lam))


def variation_derivative(
    lam: GaugeClassLagrangian,
    curve: CurveSpec,
    w: VariationField,
    eps: float = 1e-5,
    panels: int = 1000,
) -> float:
    """Central finite difference of the gauge-fixed action along the
    one-parameter family gamma + s*w.  The jets of gamma + s*w are those
    of gamma, from the curve's Simpson plan, plus s times those of w,
    evaluated once for both signs; no kernel is compiled for the
    perturbed curves."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    plan = curve.plan(panels, simpson_nodes)
    w_jets = plan.field_jets(w.exprs)
    integrand = _lagrangian_integrand(lam)

    def action(s):
        return gauge_fixed_value(_affine_integral(plan.shifted(w_jets, s), lam.atlas, integrand))

    return (action(eps) - action(-eps)) / (2.0 * eps)


def variation_pairing(
    lam: GaugeClassLagrangian,
    curve: CurveSpec,
    w: VariationField,
    panels: int = 1000,
) -> float:
    """Boundary-plus-bulk representation of the action differential:

        <p(b), w(b)> - <p(a), w(a)> + integral of <E(x, v, a), w>,

    with momenta and the Euler-Lagrange covector evaluated in the
    schedule's trivializations (the same anchors the finite-difference
    route uses).  The bulk term enters with the sign that matches the
    chart formula E_i = dL/dx_i - d/dt(dL/dv_i); on solutions of
    E = 0 with endpoint-vanishing variations the whole expression
    vanishes.  Curve accelerations come from differentiating the curve
    expressions, not from any trajectory discretization.  The curve's
    jets come from its Simpson plan, the field's from one evaluation.
    """
    plan = curve.plan(panels, simpson_nodes)
    w_jets = dict(zip(plan.segments, plan.field_jets(w.exprs)))

    def integrand(seg, sl, x, v, a):
        e = lam.engine(seg.chart_id).el_covectors(x, v, a)
        return np.einsum("ij,ij->i", e, w_jets[seg][0][0, sl])

    parts = _segment_integrals(plan, lam.atlas, integrand)
    bulk = sum(parts)  # a covector pairing: no offsets at chart junctions

    def boundary(seg, end):
        """<p, w> at the segment's start (end 0) or its end (end 1)."""
        p = legendre(lam, seg.ends[0, end], seg.ends[1, end], seg.chart_id).p
        return float(np.dot(p, w_jets[seg][1][0, end]))

    first, last = plan.segments[0], plan.segments[-1]
    return boundary(last, 1) - boundary(first, 0) + bulk
