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
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from . import exprlang
from .errors import (
    ChartDisjointError,
    ChartExitError,
    SingularLagrangianError,
    ValidationError,
)
from .exprlang import Binary, ExprAst, Number, Var, _Node
from .geometry import (
    _BOX_TOL,
    VALIDATION_SAMPLES,
    Atlas,
    ScalarFunction,
    _overlap_samples,
    _require_within,
    coord_names,
    low_discrepancy_points,
)
from .kernels import (
    MAX_CONDITION,
    _adjugate,
    _condition,
    _times,
    check_declared,
    compile_solve,
    domain_error,
    gradient_exprs,
    read_table,
    require_finite,
    require_numpy_backend,
)
from .rk4loop import compile_step


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

    def engine(self, chart_id: str, forcing: tuple = ()) -> "_ChartEngine":
        """Chart `chart_id`'s compiled engine under the forcing expressions
        `forcing` (none: unforced); a chart keeps its unforced engine and
        its latest forced one.  ChartDisjointError if there is no such chart."""
        texts = tuple(map(exprlang.to_text, forcing))
        key = (chart_id, bool(texts))
        kept = self._engines.get(key)
        if kept is None or kept[0] != texts:
            self.atlas.chart(chart_id)
            kept = self._engines[key] = (
                texts, _ChartEngine(self.chart_exprs[chart_id], self.atlas.dim, forcing))
        return kept[1]

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


def _is_num(ast: ExprAst, value: float) -> bool:
    return isinstance(ast, Number) and ast.value == value


def _plus(a: ExprAst, b: ExprAst) -> ExprAst:
    """a + b as a node, a zero literal term dropped."""
    return a if _is_num(b, 0.0) else b if _is_num(a, 0.0) else Binary("+", a, b)


def velocity_coupling(chi: ExprAst, dim: int) -> ExprAst:
    """The term <d(chi), v> = sum_j d(chi)/dx_j * v_j as an AST, each
    d(chi)/dx_j read back from chi's gradient table (kernels.gradient_exprs):
    a zero term is dropped and 1 * v_j is v_j."""
    out = Number(0.0)
    for j, g in enumerate(gradient_exprs(chi, coord_names(dim)), 1):
        v = Var(f"v{j}")
        out = _plus(out, g if _is_num(g, 0.0) else v if _is_num(g, 1.0) else Binary("*", g, v))
    return out


def gauge_shift(lam: GaugeClassLagrangian, chi) -> GaugeClassLagrangian:
    """Representative change L -> L + <d(chi), v> for a gauge function
    chi (an expression, or a ScalarFunction on multi-chart atlases).
    Charts whose chi is one expression (from_common's) share one
    coupling, built once."""
    atlas = lam.atlas
    if not isinstance(chi, ScalarFunction):
        chi = ScalarFunction.from_common(atlas, chi)
    couplings = {}  # id of a chart's chi -> its coupling
    exprs = {}
    for cid, e in lam.chart_exprs.items():
        c = chi.chart_exprs[cid]
        if id(c) not in couplings:
            couplings[id(c)] = velocity_coupling(c, atlas.dim)
        exprs[cid] = _plus(e, couplings[id(c)])
    return GaugeClassLagrangian(atlas, exprs)


# ---------------------------------------------------------------------------
# Per-chart evaluation engine

# An engine's RK4 steps run in the C rendering of its generated loop
# (native.compile_step) once it has been asked for NATIVE_STEPS steps
# in total.  Building it costs the C compiler 80-190 ms, which
# buys 1.4-2.5e4 steps of the Python loop at 3.8-8.3 us a step (the
# charged and relativistic particles and their gauge twins), and the C
# loop takes 0.07-0.19 us a step.
NATIVE_STEPS = 20_000


class _ChartEngine:
    """Compiled evaluation of one chart representative L(x1..xn, v1..vn)
    under a forcing (n expressions over the same variables, or none):
    its Lagrangian table, one row per point, for the batched operators;
    and, compiled at first use, the forcing's values and the fused terms
    for the numpy RK4 step and the generated RK4 loop for n <= 3, in
    Python and, for a hot orbit, in C (step_loop)."""

    def __init__(self, ast: ExprAst, dim: int, forcing: tuple = ()):
        self.n = dim
        self.ast = ast
        self.varnames = tuple(lagrangian_varnames(dim))
        check_declared(ast, self.varnames)
        self.forcing = forcing
        self.steps_asked = 0  # of the generated loop, by every step_loop call

    @cached_property
    def _terms(self):
        return compile_solve(self.ast, self.varnames)

    @cached_property
    def _forcing(self):
        return [(f, compile_solve(None, self.varnames, (f,))) for f in self.forcing]

    @cached_property
    def rk4(self):
        """The generated RK4 loop, for n <= 3, with the fused terms and
        forcing inlined; see rk4loop.generate_step_source."""
        return compile_step(self.ast, self.varnames, self.forcing)

    @cached_property
    def native_rk4(self):
        """rk4 in C (native.compile_step), or None where it cannot be
        built: no C compiler, or a failed build.  The native module, and
        subprocess with it, is imported here, at the first build."""
        from . import native

        return native.compile_step(self.ast, self.varnames, self.forcing)

    def step_loop(self, steps: int):
        """The generated RK4 loop for a call of `steps` steps: native_rk4
        once this engine has been asked for NATIVE_STEPS steps in total,
        this call's included, and it can be built; rk4 otherwise.  Both
        take the same arguments and give the same bits, and the C loop
        hands back wherever the Python one does."""
        self.steps_asked += steps
        if self.steps_asked >= NATIVE_STEPS and self.native_rk4 is not None:
            return self.native_rk4
        return self.rk4

    def _table(self, reads, *columns):
        """(vals, out): the columns side by side, one row per point, and
        the outputs `reads` there of kernels._lagrangian (read_table)."""
        vals = np.concatenate(columns, axis=1)
        return vals, read_table("_lagrangian", self.ast, self.varnames, vals, reads)

    def values(self, xs, vs) -> np.ndarray:
        """L at every point (xs[i], vs[i])."""
        return self._table((0,), xs, vs)[1][:, 0]

    def el_covectors(self, xs, vs, accs) -> np.ndarray:
        """E_i = dL/dx_i - d/dt(dL/dv_i) at every point (xs[i], vs[i],
        accs[i]).  L and both terms must be finite there, and so must E,
        which can overflow from finite terms.  The terms are checked at
        every point first, then E: where both fail, the error names the
        first point with a term that is not finite."""
        n = self.n
        vals, out = self._table((0, *range(1, n + 1), *range(2 * n + 1, 3 * n + 1)), xs, vs, accs)
        with np.errstate(over="ignore"):  # finite terms can overflow; reported below
            e = out[:, 1:n + 1] - out[:, n + 1:]
        require_finite((e,), self.ast, self.varnames, vals)
        return e

    def momenta(self, xs, vs) -> np.ndarray:
        """p_i = dL/dv_i at every point (xs[i], vs[i]).  L itself must be
        finite there."""
        n = self.n
        return self._table((0, *range(n + 1, 2 * n + 1)), xs, vs)[1][:, 1:]

    def solve_terms(self, x, v):
        """(dL/dx, (d2L/dv dx) . v, velocity Hessian) at the float arrays
        (x, v), as tuples of n, n and n*n (row-major) floats: the unbatched
        primitive of the sequential RK4 step, one call of the fused
        function.  L and every term must be finite, else DomainError
        names the reason, the expression and the point."""
        n = self.n
        terms = self._scalar(self._terms, self.ast, [*x.tolist(), *v.tolist()])
        return terms[1: n + 1], terms[n + 1: 2 * n + 1], terms[2 * n + 1:]

    def forcing_values(self, x, v) -> np.ndarray:
        """The forcing at the float arrays (x, v), each expression by the
        scalar rendering that the loop inlines; DomainError for the first
        one that raises or is not finite there, naming it."""
        point = [*x.tolist(), *v.tolist()]
        return np.array([self._scalar(fn, f, point)[0] for f, fn in self._forcing])

    def _scalar(self, fn, ast: ExprAst, point) -> tuple:
        """fn(*point) for a function of compile_solve; DomainError naming
        the reason, `ast` and the point if it raises or is not finite."""
        try:
            values = fn(*point)
        except (ValueError, ArithmeticError):
            values = (math.nan,)
        if all(map(math.isfinite, values)):
            return values
        raise domain_error(ast, self.varnames, point)


# ---------------------------------------------------------------------------
# Operators

def _finite(name: str, value, n: int, scalar=False) -> np.ndarray:
    """`value` as a float array of n entries (or, with `scalar`, a single
    number); ValueError naming `name` if it has another shape or an
    entry is not finite.  The entries are checked as Python floats
    (math.isfinite), which for a few entries is cheaper than a numpy
    reduction."""
    arr = np.asarray(value, float)
    if arr.shape != (n,) and not (scalar and arr.ndim == 0):
        raise ValueError(f"{name} must be a vector of dimension {n}, got {arr.tolist()}")
    entries = arr.tolist()
    if not all(map(math.isfinite, entries if arr.ndim else (entries,))):
        raise ValueError(f"{name} must be finite, got {arr}")
    return arr


def _chart_point(atlas: Atlas, chart_id: str, name: str, x) -> np.ndarray:
    """_finite(name, x, n), which must lie in chart `chart_id` (to within
    _BOX_TOL): ChartDisjointError naming the point and the chart if not."""
    x = _finite(name, x, atlas.dim)
    if not atlas.contains(chart_id, x.tolist()):
        raise ChartDisjointError(f"{name}={x} is outside chart {chart_id}")
    return x


def _is_finite(t):
    """np.isfinite(t) of a scalar t, by math.isfinite for a float."""
    return math.isfinite(t) if isinstance(t, float) else np.isfinite(t)


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
        if sys.float_info.min <= abs(det) < math.inf:
            cond = _condition(hess, adj, abs(det), n)
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


def _forcing_expressions(forcing, n: int) -> tuple:
    """A forcing other than a callable as n expressions over x1..xn,
    v1..vn: none for None, and a constant as its literals."""
    if forcing is None:
        return ()
    if isinstance(forcing, (list, tuple)) and all(isinstance(f, (str, _Node)) for f in forcing):
        if len(forcing) != n:
            raise ValueError(f"forcing must be {n} expressions, got {len(forcing)}")
        return tuple(exprlang.expression(f, lagrangian_varnames(n)) for f in forcing)
    f = _finite("forcing", forcing, n, scalar=True)
    return tuple(map(exprlang.Number, np.broadcast_to(f, (n,)).tolist()))


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

    The forcing is n expressions over x1..xn, v1..vn (texts or ASTs, as
    System.forcing holds them), n finite numbers or one for all, a
    callable f(x, v), or None.  For n <= 3 without a callable, the
    generated loop of L's engine under the forcing takes the steps, and
    _rk4_steps takes over from the first step it hands back; otherwise
    _rk4_steps takes them all.  The loop runs in C once the engine has
    been asked for NATIVE_STEPS steps, this call's included, where a C
    compiler builds it, and in Python otherwise (_ChartEngine.step_loop).
    All three give the same bits, and every error comes from _rk4_steps.
    A callable's value is held to a constant forcing's rule."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not (_is_finite(t0) and _is_finite(t1)):
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

    force = None
    if callable(forcing):
        force = lambda x, v: _finite("forcing", forcing(x, v), n, scalar=True)
    elif forcing is not None:
        eng = lam.engine(chart_id, _forcing_expressions(forcing, n))
        force = eng.forcing_values if eng.forcing else None

    def acc(x, v):
        return _accelerations(eng, x, v, None if force is None else force(x, v))

    times = t0 + h * np.arange(steps + 1, dtype=float)  # as an int arange, which h casts
    xs = np.empty((steps + 1, n))
    vs = np.empty((steps + 1, n))
    xs[0], vs[0] = x0, v0
    done = 0
    if n <= 3 and not callable(forcing):
        box = [b for lo, hi in atlas.chart(chart_id).box for b in (lo - _BOX_TOL, hi + _BOX_TOL)]
        done = eng.step_loop(steps)(*xs[0].tolist(), *vs[0].tolist(), h, steps, *box, xs, vs)
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
