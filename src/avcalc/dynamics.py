"""Euler-Lagrange operator, Legendre map and trajectory integration.

The chart formula implemented here,

    E_i = dL/dx_i - (d2L/dx dv_i . v + d2L/dv dv_i . a),

is the concrete realization of the gauge-independent decomposition of
the differential of an affine Lagrangian: shifting the representative
by a velocity coupling <d(chi), v> leaves E unchanged, and shifts the
momenta p_i = dL/dv_i by exactly d(chi).  All derivatives come from
second-order forward-mode evaluation of the chart representative
(compiled kernels; see kernels.py).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from . import exprlang
from ._symdiff import add as _ast_add
from ._symdiff import velocity_coupling
from .errors import (
    ChartExitError,
    SingularLagrangianError,
    ValidationError,
)
from .exprlang import ExprAst
from .geometry import Atlas, ScalarFunction, _overlap_sample_pairs, low_discrepancy_points
from .kernels import compile_field, default_backend, eval_chunked, require_finite

MAX_CONDITION = 1e12


# ---------------------------------------------------------------------------
# Types

@dataclass(frozen=True)
class SecondOrderPoint:
    """(position, velocity, acceleration) in one chart."""

    x: tuple
    v: tuple
    a: tuple

    @classmethod
    def of(cls, x, v, a):
        return cls(tuple(np.asarray(x, float)), tuple(np.asarray(v, float)), tuple(np.asarray(a, float)))


@dataclass(frozen=True)
class Covector:
    x: tuple
    p: tuple


@dataclass(frozen=True)
class AffineCovector:
    """Momentum covector in a given trivialization; re-charting shifts
    the components by the gauge differential."""

    chart_id: str
    x: tuple
    p: tuple

    def convert(self, atlas: Atlas, dst: str) -> "AffineCovector":
        if dst == self.chart_id:
            return self
        x = np.asarray(self.x, float)
        p = np.asarray(self.p, float)
        jac = atlas.jacobian(x, self.chart_id, dst)
        dg = atlas.gauge_gradient(x, self.chart_id, dst)
        # p_src = J^T p_dst + dg_src_dst
        p_dst = np.linalg.solve(jac.T, p - dg)
        x_dst = atlas.convert_point(x, self.chart_id, dst)
        return AffineCovector(dst, tuple(x_dst), tuple(p_dst))


@dataclass
class Trajectory:
    """Discrete solution curve in a single chart."""

    chart_id: str
    times: np.ndarray
    positions: np.ndarray  # (steps+1, n)
    velocities: np.ndarray  # (steps+1, n)


# ---------------------------------------------------------------------------
# Lagrangians

def lagrangian_varnames(dim: int):
    return [f"x{j}" for j in range(1, dim + 1)] + [f"v{j}" for j in range(1, dim + 1)]


@dataclass
class GaugeClassLagrangian:
    """A Lagrangian given by chart representatives L_i(x, v), glued by
    L_i - L_j = <d g_ij, v> across overlaps.  Named constants are folded
    into the expressions at construction."""

    atlas: Atlas
    chart_exprs: dict  # chart_id -> ExprAst
    _engines: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_exprs(cls, atlas: Atlas, exprs: Union[str, dict], constants=None):
        if not isinstance(exprs, dict):
            exprs = {c.id: exprs for c in atlas.charts}
        parsed = {}
        for cid, e in exprs.items():
            ast = exprlang.parse(e) if isinstance(e, str) else e
            if constants:
                ast = exprlang.substitute_constants(ast, constants)
            parsed[cid] = ast
        return cls(atlas, parsed)

    def expr(self, chart_id: str) -> ExprAst:
        return self.chart_exprs[chart_id]

    def value(self, x, v, chart_id: str) -> float:
        env = {f"x{j + 1}": x[j] for j in range(len(x))}
        env.update({f"v{j + 1}": v[j] for j in range(len(v))})
        return float(exprlang.evaluate(self.chart_exprs[chart_id], env))

    def engine(self, chart_id: str, backend: str = None) -> "_ChartEngine":
        backend = backend or default_backend()
        key = (chart_id, backend)
        eng = self._engines.get(key)
        if eng is None:
            eng = _ChartEngine(self.chart_exprs[chart_id], self.atlas.dim, backend)
            self._engines[key] = eng
        return eng

    def validate(self, samples: int = 32, tol: float = 1e-10):
        """Sampled overlap compatibility L_i - L_j = <d g_ij, v>."""
        atlas = self.atlas
        n = atlas.dim
        v_samples = low_discrepancy_points([(-1.0, 1.0)] * n, 5)
        for i, j, x_i, x_j, _g in _overlap_sample_pairs(atlas, samples):
            jac = atlas.jacobian(x_i, i, j)
            dg = atlas.gauge_gradient(x_i, i, j)
            for v in v_samples:
                defect = abs(
                    self.value(x_i, v, i) - self.value(x_j, jac @ v, j) - float(dg @ v)
                )
                if defect > tol:
                    raise ValidationError(
                        "lagrangian compatibility L_i - L_j = <dg_ij, v>",
                        f"charts ({i},{j}) at x={x_i}, v={v}",
                        defect,
                    )


def gauge_shift(lam: GaugeClassLagrangian, chi) -> GaugeClassLagrangian:
    """Representative change L -> L + <d(chi), v> for a gauge function
    chi (an expression, or a ScalarFunction on multi-chart atlases)."""
    atlas = lam.atlas
    if not isinstance(chi, ScalarFunction):
        chi = ScalarFunction.from_common(atlas, chi)
    exprs = {
        cid: _ast_add(e, velocity_coupling(chi.chart_exprs[cid], atlas.dim))
        for cid, e in lam.chart_exprs.items()
    }
    return GaugeClassLagrangian(atlas, exprs)


# ---------------------------------------------------------------------------
# Per-chart evaluation engine

class _ChartEngine:
    """Probe assembly around a compiled kernel for one chart
    representative L(x1..xn, v1..vn)."""

    def __init__(self, ast: ExprAst, dim: int, backend: str):
        self.n = dim
        m = 2 * dim
        self.m = m
        self.ast = ast
        self.varnames = lagrangian_varnames(dim)
        self.kernel = compile_field(ast, self.varnames, backend)
        eye = np.eye(m)
        # EL seeds per point: n gradient-in-x rows, then n velocity rows
        # (the momenta use the velocity rows alone)
        self._d1_el = eye
        # solve layout: n x-gradient rows, n C.v rows, n*n Hessian rows
        d1_solve = [eye[:dim], eye[dim:]]
        d2_solve = [np.zeros((dim, m)), np.zeros((dim, m))]  # d2 of C rows filled per call
        for jcol in range(dim):
            d1_solve.append(eye[dim:])
            d2_solve.append(np.tile(eye[dim + jcol], (dim, 1)))
        self._d1_solve = np.ascontiguousarray(np.vstack(d1_solve))
        self._d2_solve_fixed = np.vstack(d2_solve)

    def values(self, xs, vs) -> np.ndarray:
        """L at every point (xs[i], vs[i]): one probe per point."""
        vals = np.hstack([xs, vs])
        zero = np.zeros_like(vals)
        out = eval_chunked(self.kernel, vals, zero, zero)[:, 0]
        require_finite(out, self.ast, self.varnames, vals, zero, zero)
        return out

    def el_covectors(self, xs, vs, accs) -> np.ndarray:
        """E_i = dL/dx_i - d/dt(dL/dv_i) at every point (xs[i], vs[i],
        accs[i]): 2n probes per point."""
        n, m, k = self.n, self.m, 2 * self.n
        points = xs.shape[0]
        vals = np.repeat(np.hstack([xs, vs]), k, axis=0)
        d1 = np.tile(self._d1_el, (points, 1))
        d2 = np.zeros((points, k, m))
        d2[:, n:] = np.hstack([vs, accs])[:, None, :]
        d2 = d2.reshape(points * k, m)
        out = eval_chunked(self.kernel, vals, d1, d2).reshape(points, k, 4)
        e = out[:, :n, 1] - out[:, n:, 3]
        require_finite(e, self.ast, self.varnames, vals, d1, d2, k)
        return e

    def momenta(self, xs, vs) -> np.ndarray:
        """p_i = dL/dv_i at every point (xs[i], vs[i]): n probes per
        point."""
        n = self.n
        points = xs.shape[0]
        vals = np.repeat(np.hstack([xs, vs]), n, axis=0)
        d1 = np.tile(self._d1_el[n:], (points, 1))
        d2 = np.zeros_like(vals)
        p = eval_chunked(self.kernel, vals, d1, d2)[:, 1].reshape(points, n)
        require_finite(p, self.ast, self.varnames, vals, d1, d2, n)
        return p

    def solve_terms(self, x, v):
        """(dL/dx, (d2L/dv dx) . v, velocity Hessian M) at (x, v): the
        unbatched primitive of the sequential RK4 step.  A non-finite
        term raises DomainError naming the expression and the point."""
        n, m = self.n, self.m
        k = 2 * n + n * n
        vals = np.empty((k, m))
        vals[:] = np.concatenate([x, v])
        d2 = self._d2_solve_fixed.copy()
        d2[n: 2 * n, :n] = v
        out = np.empty((k, 4))
        self.kernel(vals, self._d1_solve, d2, out)
        terms = out[:, 3].copy()
        terms[:n] = out[:n, 1]
        if not np.isfinite(terms).all():
            require_finite(terms[None], self.ast, self.varnames, vals, self._d1_solve, d2, k)
        gx = terms[:n]
        cv = terms[n: 2 * n]
        hess = terms[2 * n:].reshape(n, n).T  # column j from block j
        return gx, cv, hess


# ---------------------------------------------------------------------------
# Operators

def euler_lagrange(
    lam: GaugeClassLagrangian, q: SecondOrderPoint, chart_id: str, backend: str = None
) -> Covector:
    """Evaluate the Euler-Lagrange covector at second-order data q."""
    eng = lam.engine(chart_id, backend)
    x = np.asarray(q.x, float)
    e = eng.el_covectors(x[None], np.asarray(q.v, float)[None], np.asarray(q.a, float)[None])
    return Covector(tuple(x), tuple(e[0]))


def legendre(
    lam: GaugeClassLagrangian, x, v, chart_id: str, backend: str = None
) -> AffineCovector:
    """Momentum map p_i = dL/dv_i in the given trivialization."""
    eng = lam.engine(chart_id, backend)
    x = np.asarray(x, float)
    p = eng.momenta(x[None], np.asarray(v, float)[None])
    return AffineCovector(chart_id, tuple(x), tuple(p[0]))


def _accelerations(eng: _ChartEngine, x, v, f) -> np.ndarray:
    gx, cv, hess = eng.solve_terms(x, v)
    cond = np.linalg.cond(hess)
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        raise SingularLagrangianError(
            f"velocity Hessian is numerically singular (condition {cond:.3g})"
        )
    rhs = gx - cv
    if f is not None:
        rhs = rhs - f
    return np.linalg.solve(hess, rhs)


def solve_accelerations(
    lam: GaugeClassLagrangian, x, v, f=None, chart_id: str = None, backend: str = None
) -> np.ndarray:
    """Accelerations a with E(lam)(x, v, a) = f (f = 0 when omitted)."""
    if chart_id is None:
        chart_id = lam.atlas.charts[0].id
    eng = lam.engine(chart_id, backend)
    fvec = None if f is None else np.asarray(f.p if isinstance(f, Covector) else f, float)
    return _accelerations(eng, np.asarray(x, float), np.asarray(v, float), fvec)


ForcingLike = Optional[Union[np.ndarray, Callable]]


def integrate_trajectory(
    lam: GaugeClassLagrangian,
    x0,
    v0,
    t0: float,
    t1: float,
    steps: int,
    forcing: ForcingLike = None,
    chart_id: str = None,
    backend: str = None,
) -> Trajectory:
    """Fixed-step classical RK4 on (x' = v, v' = solve_accelerations)."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not (np.isfinite(t0) and np.isfinite(t1)):
        raise ValueError(f"t0 and t1 must be finite, got t0={t0}, t1={t1}")
    if chart_id is None:
        chart_id = lam.atlas.charts[0].id
    eng = lam.engine(chart_id, backend)
    atlas = lam.atlas

    if forcing is None:
        force = None
    elif callable(forcing):
        force = forcing
    else:
        fconst = np.asarray(forcing, float)
        force = lambda x, v: fconst

    def acc(x, v):
        f = None if force is None else np.asarray(force(x, v), float)
        return _accelerations(eng, x, v, f)

    n = atlas.dim
    h = (t1 - t0) / steps
    times = t0 + h * np.arange(steps + 1)
    xs = np.empty((steps + 1, n))
    vs = np.empty((steps + 1, n))
    x = np.asarray(x0, float).copy()
    v = np.asarray(v0, float).copy()
    xs[0], vs[0] = x, v
    for k in range(steps):
        a1 = acc(x, v)
        x2 = x + 0.5 * h * v
        v2 = v + 0.5 * h * a1
        a2 = acc(x2, v2)
        x3 = x + 0.5 * h * v2
        v3 = v + 0.5 * h * a2
        a3 = acc(x3, v3)
        x4 = x + h * v3
        v4 = v + h * a3
        a4 = acc(x4, v4)
        x = x + (h / 6.0) * (v + 2.0 * v2 + 2.0 * v3 + v4)
        v = v + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        if not atlas.contains(chart_id, x):
            raise ChartExitError(
                f"trajectory left chart {chart_id} at t={times[k + 1]:.6g} (x={x})"
            )
        xs[k + 1], vs[k + 1] = x, v
    return Trajectory(chart_id, times, xs, vs)
