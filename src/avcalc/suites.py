"""Invariant suites shared by `avcalc check-all` and the test battery.

Each suite function takes a System and returns CheckResults carrying
the measured worst defect and the tolerance it was held to.  Sweep
suites draw all their samples first and make one batched chart-engine
call per Lagrangian.  The gauge suites take each gauge function and
the Lagrangian's twin by it from the System (chi_function,
gauge_twin), which parses and shifts each chi once however many
suites check it; a suite reports a failure to parse or evaluate as it
meets it, and the System keeps nothing of a failed one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .action import (
    VariationField,
    action_lift,
    action_quadrature,
    gauge_fixed_value,
    variation_derivative,
    variation_pairing,
)
from .affine import affine_scalar_diff, box_minus
from .dynamics import (
    GaugeClassLagrangian,
    gauge_shift,
    integrate_trajectory,
    solve_accelerations,
)
from .errors import ChartExitError, DomainError, SingularLagrangianError, ValidationError
from .geometry import (
    VALIDATION_TOL,
    affine_differential,
    coord_names,
    euclidean_atlas,
    eval_rows,
    integrate_pullback,
)
from .systems import (
    System,
    boosted_free,
    bundled_systems,
    charged_particle,
    exact_lagrangian,
    free_particle,
)

SEED = 20240811

# Sizes and tolerances of the checks.  The action and variation
# commands hold the user's curve to INTEGRAL_TOL and VARIATION_TOL, and
# take PANELS, STEPS and EPS as their flags' defaults.
POINTS = 100  # random second-order points per chi in gauge_el_suite
PANELS = 1000  # Simpson panels of every integral along a curve
STEPS = 1000  # RK4 steps of the action lift and of each trajectory pair on [0, 1]
EPS = 1e-5  # step of the finite-difference action derivative
GAUGE_TOL = 1e-9  # E, trajectories and the action against their gauge twins'
LEGENDRE_TOL = 1e-12  # the momentum shift against d(chi)
INTEGRAL_TOL = 1e-8  # integrals along a curve against each other or their end values
VARIATION_TOL = 1e-4  # the finite-difference action derivative against the pairing

# Worst defects are taken with np.max / np.maximum, which keep a NaN
# defect so that CheckResult.passed fails it; max(0.0, nan) is 0.0.


@dataclass
class CheckResult:
    name: str
    defect: float
    tol: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return np.isfinite(self.defect) and self.defect <= self.tol

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return f"{status}  {self.name}: defect {self.defect:.3e} (tol {self.tol:.0e}){extra}"


def _uniform_rows(rng, count: int, halfwidths, n: int) -> np.ndarray:
    """s[k, i] uniform in [-h_k, h_k]^n for h_k = halfwidths[k]: the
    values, in stream order, that count loops of rng.uniform(-h_k, h_k, n)
    for k = 0, 1, ... would draw."""
    h = np.asarray(halfwidths, float)[None, :, None]
    u = rng.random((count, len(halfwidths), n))
    return (-h + (2.0 * h) * u).transpose(1, 0, 2)


def _random_points(system: System, rng, count: int) -> np.ndarray:
    """(x, v, a) arrays of shape (count, n) in [-1,1]^{3n}, velocities
    capped by the system's sampling half-width (relativistic
    representatives need |v| < 1)."""
    return _uniform_rows(rng, count, (1.0, system.v_halfwidth, 1.0), system.dim)


def _worst(diff) -> float:
    """Largest |entry|; NaN if any entry is NaN, 0.0 if there is none."""
    return float(np.max(np.abs(diff), initial=0.0))


def _trajectory_gap(tr0, tr1) -> float:
    """max(max |x0 - x1|, max |v0 - v1|) of two trajectories on one grid."""
    return float(np.maximum(_worst(tr0.positions - tr1.positions),
                            _worst(tr0.velocities - tr1.velocities)))


def _section_change(system: System):
    """box_minus of the system's section over its curve's end and start."""
    curve, phi = system.curve, system.section
    return box_minus(phi.at(curve.position(curve.t_end), curve.segments[-1].chart_id),
                     phi.at(curve.position(curve.t_start), curve.segments[0].chart_id))


# ---------------------------------------------------------------------------
# Structure suites

def atlas_suite(system: System):
    name = f"{system.name}: atlas antisymmetry+cocycle"
    try:
        worst = system.atlas.validate()
    except ValidationError as e:
        return [CheckResult(name, e.defect, VALIDATION_TOL, e.invariant)]
    return [CheckResult(name, worst, VALIDATION_TOL)]


def commutation_suite(system: System):
    """Integral of the affine differential along a curve equals the
    endpoint fiber difference of the section (pull-back commutes with d)."""
    if system.section is None or system.curve is None:
        return []
    atlas = system.atlas
    sigma = affine_differential(system.section, atlas)
    integral = integrate_pullback(sigma, system.curve, atlas, PANELS)
    defect = abs(affine_scalar_diff(integral, _section_change(system), atlas))
    return [CheckResult(f"{system.name}: pull-back/differential commutation", defect, INTEGRAL_TOL)]


# ---------------------------------------------------------------------------
# Gauge suites

def gauge_el_suite(system: System):
    """E(L + <d chi, v>) = E(L) at random second-order data."""
    rng = np.random.default_rng(SEED)
    chart = system.default_chart()
    results = []
    for chi in system.chis:
        name = f"{system.name}: EL gauge invariance, chi={chi}"
        x, v, a = _random_points(system, rng, POINTS)
        try:
            e0 = system.lagrangian.engine(chart).el_covectors(x, v, a)
            e1 = system.gauge_twin(chi).engine(chart).el_covectors(x, v, a)
        except DomainError as exc:
            results.append(CheckResult(name, math.nan, GAUGE_TOL, str(exc)))
            continue
        results.append(CheckResult(name, _worst(e1 - e0), GAUGE_TOL))
    return results


def legendre_suite(system: System):
    """P(L + <d chi, v>) - P(L) = d chi, independently of the velocity."""
    points, vels = 10, 10
    rng = np.random.default_rng(SEED + 1)
    chart = system.default_chart()
    n = system.dim
    results = []
    for chi in system.chis:
        names = (
            f"{system.name}: Legendre shift = d(chi), chi={chi}",
            f"{system.name}: Legendre shift v-independent, chi={chi}",
        )
        # per point: x, then `vels` velocities at x
        x, *v = _uniform_rows(rng, points, (1.0,) + (system.v_halfwidth,) * vels, n)
        xs = np.repeat(x, vels, axis=0)
        vs = np.stack(v, axis=1).reshape(points * vels, n)
        fn = system.chi_function(chi)
        try:
            p0 = system.lagrangian.engine(chart).momenta(xs, vs)
            p1 = system.gauge_twin(chi).engine(chart).momenta(xs, vs)
            # the reference is chi's own kernel, not the <d chi, v> under test
            dchi = eval_rows((fn.chart_exprs[chart],), coord_names(n), x, grad=True)
        except DomainError as exc:
            results += [CheckResult(name, math.nan, LEGENDRE_TOL, str(exc)) for name in names]
            continue
        diffs = (p1 - p0).reshape(points, vels, n)
        results.append(CheckResult(names[0], _worst(diffs - dchi), LEGENDRE_TOL))
        results.append(CheckResult(names[1], _worst(diffs - diffs[:, :1]), LEGENDRE_TOL))
    return results


def consistency_suite(system: System):
    """euler_lagrange at the solved accelerations reproduces the forcing."""
    rng = np.random.default_rng(SEED + 2)
    chart = system.default_chart()
    lam = system.lagrangian
    x, v, _a, f = _uniform_rows(rng, 20, (1.0, system.v_halfwidth, 1.0, 1.0), system.dim)
    a = np.array([solve_accelerations(lam, *xvf, chart) for xvf in zip(x, v, f)])
    e = lam.engine(chart).el_covectors(x, v, a.reshape(x.shape))
    return [CheckResult(f"{system.name}: forced EL consistency", _worst(e - f), 1e-10)]


# ---------------------------------------------------------------------------
# Action suites

def action_equality_suite(system: System):
    """Quadrature and lift constructions of the action agree."""
    if system.curve is None:
        return []
    a = action_quadrature(system.lagrangian, system.curve, PANELS)
    b = action_lift(system.lagrangian, system.curve, STEPS)
    defect = abs(affine_scalar_diff(a, b, system.atlas))
    return [CheckResult(f"{system.name}: action quadrature = lift", defect, INTEGRAL_TOL)]


def exact_action_suite(system: System):
    """For the exact Lagrangian <d(phi), v>, the action is the endpoint
    fiber difference of phi."""
    if system.section is None or system.curve is None:
        return []
    act = action_quadrature(exact_lagrangian(system.section), system.curve, PANELS)
    defect = abs(affine_scalar_diff(act, _section_change(system), system.atlas))
    return [CheckResult(f"{system.name}: exact-Lagrangian action", defect, INTEGRAL_TOL)]


def _random_variation(rng, dim: int, a: float, b: float, vanishing: bool) -> VariationField:
    exprs = []
    for _ in range(dim):
        c = rng.uniform(-0.3, 0.3, 3)
        poly = f"({c[0]}+{c[1]}*t+{c[2]}*t^2)"
        if vanishing:
            poly = f"(t-{a})*({b}-t)*{poly}"
        exprs.append(poly)
    return VariationField.from_strings(exprs)


def variation_suite(system: System):
    """Finite-difference action derivative vs the boundary+bulk pairing,
    for random polynomial variation fields with and without endpoint
    vanishing."""
    if system.curve is None:
        return []
    rng = np.random.default_rng(SEED + 3)
    curve = system.curve
    a, b = curve.t_start, curve.t_end
    worst = {True: 0.0, False: 0.0}
    for k in range(10):
        vanishing = k % 2 == 0
        w = _random_variation(rng, system.dim, a, b, vanishing)
        fd = variation_derivative(system.lagrangian, curve, w, EPS, PANELS)
        pair = variation_pairing(system.lagrangian, curve, w, PANELS)
        worst[vanishing] = np.maximum(worst[vanishing], abs(fd - pair))
    name = f"{system.name}: variational identity"
    return [
        CheckResult(f"{name} (endpoint-vanishing w)", worst[True], VARIATION_TOL),
        CheckResult(f"{name} (general w)", worst[False], VARIATION_TOL),
    ]


def action_gauge_suite(system: System):
    """Gauge behavior of the action: the fixed-trivialization value
    shifts by chi(end) - chi(start); the pairing with endpoint-vanishing
    variations does not shift at all."""
    if system.curve is None or not system.chis:
        return []
    fn = system.chi_function(system.chis[0])
    shifted = system.gauge_twin(system.chis[0])
    curve = system.curve
    s0 = gauge_fixed_value(action_quadrature(system.lagrangian, curve, PANELS))
    s1 = gauge_fixed_value(action_quadrature(shifted, curve, PANELS))
    expected = (fn(curve.position(curve.t_end), curve.segments[-1].chart_id)
                - fn(curve.position(curve.t_start), curve.segments[0].chart_id))
    out = [
        CheckResult(
            f"{system.name}: action gauge shift = chi(b)-chi(a)", abs(s1 - s0 - expected),
            GAUGE_TOL,
        )
    ]
    rng = np.random.default_rng(SEED + 4)
    w = _random_variation(rng, system.dim, curve.t_start, curve.t_end, vanishing=True)
    p0 = variation_pairing(system.lagrangian, curve, w, PANELS)
    p1 = variation_pairing(shifted, curve, w, PANELS)
    out.append(
        CheckResult(
            f"{system.name}: pairing gauge-invariant (vanishing w)", abs(p1 - p0), GAUGE_TOL
        )
    )
    return out


# ---------------------------------------------------------------------------
# Trajectory suites

def trajectory_gauge_suite(system: System):
    """Trajectories are unchanged by a gauge shift of the Lagrangian."""
    if not system.chis:
        return []
    rng = np.random.default_rng(SEED + 5)
    n = system.dim
    x0 = rng.uniform(-0.5, 0.5, n)
    v0 = rng.uniform(-0.5, 0.5, n) * system.v_halfwidth
    chart = system.default_chart()
    chi = system.chis[0]
    name = f"{system.name}: trajectory gauge invariance, chi={chi}"
    try:
        tr0, tr1 = (
            integrate_trajectory(lam, x0, v0, 0.0, 1.0, STEPS, chart_id=chart)
            for lam in (system.lagrangian, system.gauge_twin(chi))
        )
    except (DomainError, ChartExitError, SingularLagrangianError) as exc:
        return [CheckResult(name, math.nan, GAUGE_TOL, str(exc))]
    return [CheckResult(name, _trajectory_gap(tr0, tr1), GAUGE_TOL)]


def newton_suite():
    """For L = m|v|^2/2 - V(x), the EL covector matches Newton's
    -dV/dx - m*a by hand."""
    atlas = euclidean_atlas(2)
    m = 1.3
    lam = GaugeClassLagrangian.from_exprs(
        atlas, "0.5*m*(v1^2+v2^2) - (sin(x1) + 0.5*x2^2)", {"m": m}
    )
    rng = np.random.default_rng(SEED + 6)
    x, v, a = _uniform_rows(rng, 30, (1.0, 1.0, 1.0), 2)
    e = lam.engine("0").el_covectors(x, v, a)
    hand = np.stack([-np.cos(x[:, 0]) - m * a[:, 0], -x[:, 1] - m * a[:, 1]], axis=1)
    return [CheckResult("newton: EL matches hand formula", _worst(e - hand), 1e-12)]


def uniform_field_regression():
    """Closed form x(t) = x0 + v0*t - t^2/2 for L = v^2/2 - x."""
    atlas = euclidean_atlas(1)
    lam = GaugeClassLagrangian.from_exprs(atlas, "0.5*v1^2 - x1")
    x0, v0 = 0.2, 0.8
    tr = integrate_trajectory(lam, [x0], [v0], 0.0, 1.0, 100)
    exact = x0 + v0 * tr.times - 0.5 * tr.times**2
    defect = float(np.max(np.abs(tr.positions[:, 0] - exact)))
    return [CheckResult("uniform field: closed-form trajectory (h=1e-2)", defect, 1e-10)]


def lorentz_suite():
    """Charged particle in |B| = 1: unit-radius circle with period 2*pi,
    reproduced identically after the gauge change A -> A + d(chi)."""
    system = charged_particle()
    period = 2.0 * np.pi
    steps = round(period / 1e-4)
    x0 = np.array([0.0, 0.0, 0.0])
    v0 = np.array([1.0, 0.0, 0.0])
    center = np.array([0.0, -1.0, 0.0])  # x0 + (v0 x B)/|...|, radius 1
    tr = integrate_trajectory(system.lagrangian, x0, v0, 0.0, period, steps)
    radii = np.linalg.norm(tr.positions - center, axis=1)
    radius_defect = float(np.max(np.abs(radii - 1.0)))
    period_defect = max(
        float(np.max(np.abs(tr.positions[-1] - x0))),
        float(np.max(np.abs(tr.velocities[-1] - v0))),
    )
    shifted = gauge_shift(system.lagrangian, "sin(x1)*cos(x2)")
    tr2 = integrate_trajectory(shifted, x0, v0, 0.0, period, steps)
    return [
        CheckResult("lorentz: orbit radius = 1", radius_defect, 1e-6),
        CheckResult("lorentz: period = 2*pi", period_defect, 1e-6),
        CheckResult("lorentz: gauge-shifted trajectory identical", _trajectory_gap(tr, tr2),
                    GAUGE_TOL),
    ]


def galilean_suite():
    """Free particle vs its boosted representative: identical EL outputs
    and identical trajectories."""
    free = free_particle()
    boosted = boosted_free()
    rng = np.random.default_rng(SEED + 7)
    x, v, a = _random_points(free, rng, 50)
    e0 = free.lagrangian.engine("0").el_covectors(x, v, a)
    e1 = boosted.lagrangian.engine("0").el_covectors(x, v, a)
    x0, v0 = np.array([0.1, -0.2]), np.array([0.4, 0.3])
    tr0 = integrate_trajectory(free.lagrangian, x0, v0, 0.0, 1.0, STEPS)
    tr1 = integrate_trajectory(boosted.lagrangian, x0, v0, 0.0, 1.0, STEPS)
    return [
        CheckResult("galilean: identical EL outputs", _worst(e1 - e0), 1e-12),
        CheckResult("galilean: identical trajectories", _trajectory_gap(tr0, tr1), GAUGE_TOL),
    ]


# ---------------------------------------------------------------------------
# Batteries

PER_SYSTEM_SUITES = (
    atlas_suite,
    commutation_suite,
    gauge_el_suite,
    legendre_suite,
    consistency_suite,
    action_equality_suite,
    exact_action_suite,
    variation_suite,
    action_gauge_suite,
    trajectory_gauge_suite,
)

GLOBAL_SUITES = (
    newton_suite,
    uniform_field_regression,
    galilean_suite,
    lorentz_suite,
)


def run_system_suites(system: System):
    results = []
    for suite in PER_SYSTEM_SUITES:
        results.extend(suite(system))
    return results


def run_all(systems=None):
    """The full battery, in fixed declaration order."""
    results = []
    for system in systems if systems is not None else bundled_systems():
        results.extend(run_system_suites(system))
    for suite in GLOBAL_SUITES:
        results.extend(suite())
    return results
