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

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from . import exprlang
from ._symdiff import add as _ast_add
from ._symdiff import velocity_coupling
from .errors import (
    ChartDisjointError,
    ChartExitError,
    SingularLagrangianError,
    ValidationError,
)
from .exprlang import ExprAst
from .geometry import (
    _BOX_TOL,
    VALIDATION_SAMPLES,
    Atlas,
    ScalarFunction,
    _overlap_samples,
    _require_within,
    low_discrepancy_points,
)
from .kernels import (
    MAX_CONDITION,
    _adjugate,
    _condition,
    _times,
    check_declared,
    compile_field,
    compile_solve,
    compile_step,
    domain_error,
    eval_chunked,
    require_finite,
    require_numpy_backend,
    unit_seeds,
)


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
        d = atlas._transition([x], self.chart_id, dst, grad=True)[0]  # Jacobian rows, then dg
        # p_src = J^T p_dst + dg_src_dst
        p_dst = np.linalg.solve(d[:-1].T, p - d[-1])
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

    def __post_init__(self):
        """ValidationError unless there is one representative per chart."""
        charts = [c.id for c in self.atlas.charts]
        for cid in self.chart_exprs:
            if cid not in charts:
                raise ValidationError("lagrangian chart", f"no chart '{cid}' in atlas", math.inf)
        for cid in charts:
            if cid not in self.chart_exprs:
                raise ValidationError("lagrangian coverage", f"no Lagrangian for chart '{cid}'",
                                      math.inf)

    @classmethod
    def from_exprs(cls, atlas: Atlas, exprs: Union[str, dict], constants=None):
        if not isinstance(exprs, dict):
            exprs = {c.id: exprs for c in atlas.charts}
        names = lagrangian_varnames(atlas.dim)
        return cls(atlas, {cid: exprlang.expression(e, names, constants)
                           for cid, e in exprs.items()})

    def expr(self, chart_id: str) -> ExprAst:
        return self.chart_exprs[chart_id]

    def value(self, x, v, chart_id: str) -> float:
        n = self.atlas.dim
        xs, vs = _finite("x", x, n)[None], _finite("v", v, n)[None]
        return float(self.engine(chart_id).values(xs, vs)[0])

    def engine(self, chart_id: str) -> "_ChartEngine":
        """The compiled engine of chart `chart_id`'s representative;
        ChartDisjointError if the atlas has no such chart."""
        eng = self._engines.get(chart_id)
        if eng is None:
            self.atlas.chart(chart_id)
            eng = _ChartEngine(self.chart_exprs[chart_id], self.atlas.dim)
            self._engines[chart_id] = eng
        return eng

    def validate(self):
        """Sampled overlap compatibility L_i - L_j = <d g_ij, v> to 1e-10, each
        chart's L at every (point, velocity) pair of a component in one call."""
        v = low_discrepancy_points([(-1.0, 1.0)] * self.atlas.dim, 5)
        nv = len(v)
        for i, j, comp, x_i, x_j, _g in _overlap_samples(self.atlas, VALIDATION_SAMPLES):
            d = comp.transition(x_i, grad=True)  # Jacobian rows, then dg
            jv = np.einsum("pkj,vj->pvk", d[:, :-1], v).reshape(-1, v.shape[1])
            defect = (self.engine(i).values(np.repeat(x_i, nv, axis=0), np.tile(v, (len(x_i), 1)))
                      - self.engine(j).values(np.repeat(x_j, nv, axis=0), jv)
                      - (d[:, -1] @ v.T).ravel())
            _require_within("lagrangian compatibility L_i - L_j = <dg_ij, v>", np.abs(defect),
                            1e-10, lambda r: f"charts ({i},{j}) at x={x_i[r // nv]}, v={v[r % nv]}")


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
    """Compiled evaluation of one chart representative L(x1..xn, v1..vn):
    probe assembly around compile_field's kernels, looked up in its cache
    by each call, for the batched operators; the fused acceleration terms
    for the numpy RK4 step, and the generated RK4 loop for n <= 3, each
    compiled at its first use and held, so a caller pays only for the
    one it needs."""

    def __init__(self, ast: ExprAst, dim: int):
        self.n = dim
        self.m = 2 * dim
        self.ast = ast
        self.varnames = tuple(lagrangian_varnames(dim))
        check_declared(ast, self.varnames)

    @cached_property
    def _terms(self):
        return compile_solve(self.ast, self.varnames)

    @cached_property
    def rk4(self):
        """The generated RK4 loop, for n <= 3, with the fused terms
        inlined; see kernels.generate_step_source for its contract."""
        return compile_step(self.ast, self.varnames)

    def values(self, xs, vs) -> np.ndarray:
        """L at every point (xs[i], vs[i]): one unseeded probe per point."""
        vals = np.concatenate((xs, vs), axis=1)
        kernel = compile_field(self.ast, self.varnames, reads=(0,))
        out = eval_chunked(kernel, vals, None, None, 1)[:, 0]
        require_finite((out,), self.ast, self.varnames, vals)
        return out

    def el_covectors(self, xs, vs, accs) -> np.ndarray:
        """E_i = dL/dx_i - d/dt(dL/dv_i) at every point (xs[i], vs[i],
        accs[i]): 2n probes per point, seeded d1 = e_j for j < 2n and,
        on the last n, d2 = (v, a).  L itself must be finite there."""
        n, m, k = self.n, self.m, 2 * self.n
        points = xs.shape[0]
        vals = np.concatenate((xs, vs), axis=1).repeat(k, axis=0)
        d1 = unit_seeds(m, points * k)
        d2 = np.zeros((points, k, m))
        d2[:, n:] = np.concatenate((vs, accs), axis=1)[:, None]
        d2 = d2.reshape(points * k, m)
        kernel = compile_field(self.ast, self.varnames, reads=(0, 1, 3))
        out = eval_chunked(kernel, vals, d1, d2, 3, k).reshape(points, k, 3)
        with np.errstate(invalid="ignore"):  # inf - inf; reported below
            e = out[:, :n, 1] - out[:, n:, 2]
        require_finite((out[:, 0, 0], e), self.ast, self.varnames, vals, d1, d2, k)
        return e

    def momenta(self, xs, vs) -> np.ndarray:
        """p_i = dL/dv_i at every point (xs[i], vs[i]): n probes per
        point, seeded d1 = e_{n+i}.  L itself must be finite there."""
        n = self.n
        points = xs.shape[0]
        vals = np.concatenate((xs, vs), axis=1).repeat(n, axis=0)
        d1 = unit_seeds(self.m, points * n, n)
        kernel = compile_field(self.ast, self.varnames, reads=(0, 1))
        out = eval_chunked(kernel, vals, d1, None, 2, n).reshape(points, n, 2)
        p = out[:, :, 1]
        require_finite((out[:, 0, 0], p), self.ast, self.varnames, vals, d1, None, n)
        return p

    def solve_terms(self, x, v):
        """(dL/dx, (d2L/dv dx) . v, velocity Hessian) at the float arrays
        (x, v), as tuples of n, n and n*n (row-major) floats: the unbatched
        primitive of the sequential RK4 step, one call of the fused
        function.  L and every term must be finite, else DomainError
        names the reason, the expression and the point."""
        n = self.n
        point = [*x.tolist(), *v.tolist()]
        try:
            terms = self._terms(*point)
        except (ValueError, ArithmeticError):
            terms = (math.nan,)
        if not all(map(math.isfinite, terms)):
            vals = np.array([point])
            zero = np.zeros_like(vals)
            raise domain_error(self.ast, self.varnames, vals, zero, zero)
        return terms[1: n + 1], terms[n + 1: 2 * n + 1], terms[2 * n + 1:]


# ---------------------------------------------------------------------------
# Operators

def _finite(name: str, value, n: int, scalar=False) -> np.ndarray:
    """`value` as a float array of n entries (or, with `scalar`, a single
    number); ValueError naming `name` if it has another shape or an
    entry is not finite."""
    arr = np.asarray(value, float)
    if arr.shape != (n,) and not (scalar and arr.ndim == 0):
        raise ValueError(f"{name} must be a vector of dimension {n}, got {arr.tolist()}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {arr}")
    return arr


def _chart_point(atlas: Atlas, chart_id: str, name: str, x) -> np.ndarray:
    """_finite(name, x, n), which must lie in chart `chart_id` (to within
    _BOX_TOL): ChartDisjointError naming the point and the chart if not."""
    x = _finite(name, x, atlas.dim)
    if not atlas.contains(chart_id, x):
        raise ChartDisjointError(f"{name}={x} is outside chart {chart_id}")
    return x


def euler_lagrange(
    lam: GaugeClassLagrangian, q: SecondOrderPoint, chart_id: str, backend: str = "numpy"
) -> Covector:
    """Evaluate the Euler-Lagrange covector at second-order data q.
    `backend` must be "numpy" (see kernels.require_numpy_backend)."""
    require_numpy_backend(backend)
    eng = lam.engine(chart_id)
    x = _chart_point(lam.atlas, chart_id, "x", q.x)
    n = eng.n
    e = eng.el_covectors(x[None], _finite("v", q.v, n)[None], _finite("a", q.a, n)[None])
    return Covector(tuple(x), tuple(e[0]))


def legendre(lam: GaugeClassLagrangian, x, v, chart_id: str) -> AffineCovector:
    """Momentum map p_i = dL/dv_i in the given trivialization."""
    eng = lam.engine(chart_id)
    x = _chart_point(lam.atlas, chart_id, "x", x)
    p = eng.momenta(x[None], _finite("v", v, eng.n)[None])
    return AffineCovector(chart_id, tuple(x), tuple(p[0]))


def _accelerations(eng: _ChartEngine, x, v, f) -> np.ndarray:
    """a solving H a = dL/dx - C.v - f, refusing a numerically singular
    velocity Hessian H.  For n <= 3 with a normal, finite det H, by the
    adjugate, refusing n * cond_1(H) > MAX_CONDITION: since cond_2 <=
    n * cond_1, that refuses every H the SVD guard below refuses."""
    gx, cv, hess = eng.solve_terms(x, v)
    n = eng.n
    rhs = [g - c for g, c in zip(gx, cv)]
    if f is not None:
        rhs = np.subtract(rhs, f).tolist()
    if n <= 3:
        adj, det = _adjugate(hess, n)
        cond = _condition(hess, adj, det, n)
        if cond is not None:
            if not cond <= MAX_CONDITION:
                raise SingularLagrangianError(
                    f"velocity Hessian is numerically singular (condition estimate {cond:.3g})"
                )
            return np.array(_times(adj, rhs, n)) / det
    hess = np.reshape(hess, (n, n))
    cond = np.linalg.cond(hess)
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        raise SingularLagrangianError(
            f"velocity Hessian is numerically singular (condition {cond:.3g})"
        )
    return np.linalg.solve(hess, rhs)


def solve_accelerations(
    lam: GaugeClassLagrangian, x, v, f=None, chart_id: str = None
) -> np.ndarray:
    """Accelerations a with E(lam)(x, v, a) = f (f = 0 when omitted)."""
    if chart_id is None:
        chart_id = lam.atlas.charts[0].id
    eng = lam.engine(chart_id)
    n = eng.n
    f = f.p if isinstance(f, Covector) else f
    fvec = None if f is None else _finite("f", f, n, scalar=True)
    return _accelerations(eng, _chart_point(lam.atlas, chart_id, "x", x), _finite("v", v, n), fvec)


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
) -> Trajectory:
    """Fixed-step classical RK4 on (x' = v, v' = solve_accelerations).

    For n <= 3 without a callable forcing, the engine's generated loop
    (kernels.generate_step_source) takes the steps, and _rk4_steps takes
    over from the first step it hands back; otherwise _rk4_steps takes
    them all.  Both give the same bits, and every error comes from
    _rk4_steps."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not (np.isfinite(t0) and np.isfinite(t1)):
        raise ValueError(f"t0 and t1 must be finite, got t0={t0}, t1={t1}")
    h = (t1 - t0) / steps
    if not math.isfinite(h):
        raise ValueError(f"step size (t1 - t0)/steps must be finite, got {h} "
                         f"for t0={t0}, t1={t1}, steps={steps}")
    if chart_id is None:
        chart_id = lam.atlas.charts[0].id
    eng = lam.engine(chart_id)
    atlas = lam.atlas
    n = atlas.dim
    x0 = _chart_point(atlas, chart_id, "x0", x0)
    v0 = _finite("v0", v0, n)

    if forcing is None:
        force = None
    elif callable(forcing):
        force = forcing
    else:
        fconst = _finite("forcing", forcing, n, scalar=True)
        force = lambda x, v: fconst

    def acc(x, v):
        f = None if force is None else np.asarray(force(x, v), float)
        return _accelerations(eng, x, v, f)

    times = t0 + h * np.arange(steps + 1)
    xs = np.empty((steps + 1, n))
    vs = np.empty((steps + 1, n))
    xs[0], vs[0] = x0, v0
    done = 0
    if n <= 3 and not callable(forcing):
        # x - 0.0 is x, so a zero forcing changes no bit of the solve
        f = [0.0] * n if forcing is None else np.broadcast_to(fconst, (n,)).tolist()
        box = [b for lo, hi in atlas.chart(chart_id).box for b in (lo - _BOX_TOL, hi + _BOX_TOL)]
        done = eng.rk4(*xs[0].tolist(), *vs[0].tolist(), h, steps, *box, *f, xs, vs)
    if done < steps:
        _rk4_steps(acc, atlas, chart_id, h, times, xs, vs, done)
    return Trajectory(chart_id, times, xs, vs)


def _rk4_steps(acc, atlas: Atlas, chart_id: str, h: float, times, xs, vs, start: int):
    """RK4 steps start.. into rows start + 1.. of xs and vs, from the
    state in row `start`; accelerations from acc(x, v)."""
    x = xs[start].copy()
    v = vs[start].copy()
    for k in range(start, xs.shape[0] - 1):
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
