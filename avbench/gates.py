"""Correctness gates applied to every workload result.

Each gate returns a list of (name, defect, tol) triples; a triple
fails when its defect is not finite or exceeds its tolerance.  The
tolerances are the ones the invariant suites in ``avcalc.suites`` hold
the same quantities to, never looser.
"""
from __future__ import annotations

import math

import numpy as np

LORENTZ_TOL = 1e-6  # suites.lorentz_suite: radius and period
TWIN_TOL = 1e-9  # suites.trajectory_gauge_suite / lorentz_suite gauge_tol
VARIATION_TOL = 1e-4  # suites.variation_suite
ACTION_TOL = 1e-8  # suites.action_equality_suite
ACTION_GAUGE_TOL = 1e-9  # suites.action_gauge_suite
EL_GAUGE_TOL = 1e-9  # suites.gauge_el_suite
POINTWISE_TOL = 1e-12  # strictest suite tolerance (suites.legendre_suite)


def failing(checks):
    """The checks whose defect is not finite or exceeds the tolerance."""
    return [c for c in checks if not (math.isfinite(c[1]) and c[1] <= c[2])]


def _maxabs(a) -> float:
    return float(np.max(np.abs(a)))


def lorentz(positions, velocities, x0, v0, omega: float):
    """Charged particle with v0 perpendicular to B (along the third axis)
    after one full period 2*pi/omega: a circle of radius |v0|/omega about
    x0 + (v0_2, -v0_1)/omega, back at its initial state."""
    x0 = np.asarray(x0, float)
    v0 = np.asarray(v0, float)
    center = x0[:2] + np.array([v0[1], -v0[0]]) / omega
    radius = float(np.hypot(v0[0], v0[1])) / omega
    radii = np.hypot(positions[:, 0] - center[0], positions[:, 1] - center[1])
    radius_defect = max(_maxabs(radii - radius), _maxabs(positions[:, 2] - x0[2]))
    period_defect = max(_maxabs(positions[-1] - x0), _maxabs(velocities[-1] - v0))
    return [
        ("lorentz radius = |v0|/omega", radius_defect, LORENTZ_TOL),
        ("lorentz period = 2*pi/omega", period_defect, LORENTZ_TOL),
    ]


def twins(name: str, pos0, vel0, pos1, vel1):
    """A trajectory and its gauge-shifted twin coincide."""
    defect = max(_maxabs(pos0 - pos1), _maxabs(vel0 - vel1))
    return [(f"{name}: gauge twin trajectories", defect, TWIN_TOL)]


def action_equality(name: str, quadrature, lift, atlas):
    """Quadrature and lift constructions of the action agree."""
    from avcalc import affine_scalar_diff

    defect = abs(affine_scalar_diff(quadrature, lift, atlas))
    return [(f"{name}: action quadrature = lift", defect, ACTION_TOL)]


def pairing_gauge(name: str, pairing: float, shifted_pairing: float):
    """The pairing with an endpoint-vanishing variation does not change
    when L is shifted by <d chi, v>."""
    defect = abs(shifted_pairing - pairing)
    return [(f"{name}: pairing gauge-invariant (vanishing w)", defect, ACTION_GAUGE_TOL)]


def variation(name: str, fd: float, pairing: float):
    """Finite-difference action derivative matches the boundary+bulk pairing."""
    return [(f"{name}: |fd - pairing|", abs(fd - pairing), VARIATION_TOL)]


def suite_results(name: str, results):
    """CheckResults from avcalc.suites, each at the suite's own tolerance."""
    if not results:
        return [(f"{name}: suite returned no checks", math.inf, 0.0)]
    return [(f"{name}: {r.name}", float(r.defect), float(r.tol)) for r in results]


def el_gauge(e0, e1):
    """Euler-Lagrange covectors of L and of its gauge shift coincide."""
    return [("cloud: EL gauge difference", _maxabs(e1 - e0), EL_GAUGE_TOL)]


def pointwise(batched, pointwise_values):
    """Batched kernel EL covectors equal pointwise euler_lagrange calls."""
    defect = _maxabs(np.asarray(batched) - np.asarray(pointwise_values))
    return [("cloud: batched = pointwise euler_lagrange", defect, POINTWISE_TOL)]
