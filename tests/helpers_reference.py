"""Independent oracles for the test battery.

The reference evaluator here deliberately shares no code with
avcalc.exprlang.evaluate: it dispatches through tables of lambdas over
math-module functions, so agreement between the two is a real check.

The action oracle at the end evaluates one quadrature node at a time
through the interpreter and Hyperdual scalars, sharing no code with the
batched kernels the library integrates with.
"""
import math
import random

import numpy as np

from avcalc import exprlang
from avcalc.autodiff import Hyperdual
from avcalc.dynamics import SecondOrderPoint, euler_lagrange, legendre
from avcalc.errors import ChartScheduleError
from avcalc.exprlang import Binary, Call, Number, Unary, Var
from avcalc.geometry import CurveSegment, CurveSpec

_UNARY_FNS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
}

_BINOPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "^": lambda a, b: a ** b,
}


def reference_eval(ast, env):
    """Plain-float recursive evaluation; raises on any domain trouble."""
    if isinstance(ast, Number):
        return ast.value
    if isinstance(ast, Var):
        return env[ast.name]
    if isinstance(ast, Unary):
        assert ast.op == "-"
        return -reference_eval(ast.child, env)
    if isinstance(ast, Binary):
        return _BINOPS[ast.op](
            reference_eval(ast.left, env), reference_eval(ast.right, env)
        )
    if isinstance(ast, Call):
        if ast.func == "pow":
            return reference_eval(ast.args[0], env) ** reference_eval(ast.args[1], env)
        return _UNARY_FNS[ast.func](reference_eval(ast.args[0], env))
    raise TypeError(f"unknown node {ast!r}")


_FUNCS = ["sin", "cos", "tan", "exp", "log", "sqrt", "abs"]


def hyperdual_reference(ast, varnames, vals, d1, d2):
    """Kernel output layout computed row by row through the interpreter
    on Hyperdual scalars: row p evaluates at vals[p] with seeds d1[p],
    d2[p]."""
    out = np.empty((vals.shape[0], 4))
    for p in range(vals.shape[0]):
        env = {
            name: Hyperdual(vals[p, j], d1[p, j], d2[p, j])
            for j, name in enumerate(varnames)
        }
        r = exprlang.evaluate(ast, env)
        if isinstance(r, Hyperdual):
            out[p] = (r.val, r.d1, r.d2, r.d12)
        else:
            out[p] = (r, 0.0, 0.0, 0.0)
    return out


def _random_ast(rng, varnames, depth):
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Number(round(rng.uniform(-3.0, 3.0), 3))
        return Var(rng.choice(varnames))
    roll = rng.random()
    if roll < 0.15:
        child = _random_ast(rng, varnames, depth - 1)
        # parser canonicalizes a negated literal into the literal
        if isinstance(child, Number):
            return Number(-child.value)
        return Unary("-", child)
    if roll < 0.40:
        return Call(rng.choice(_FUNCS), (_random_ast(rng, varnames, depth - 1),))
    if roll < 0.50:
        # constant integer exponent keeps powers single-valued
        return Binary("^", _random_ast(rng, varnames, depth - 1), Number(float(rng.randint(0, 3))))
    op = rng.choice(["+", "-", "*", "/"])
    return Binary(
        op, _random_ast(rng, varnames, depth - 1), _random_ast(rng, varnames, depth - 1)
    )


def random_cases(count, varnames=("x1", "x2", "x3"), depth=6, seed=12345):
    """Yield (ast, env) pairs whose reference value is finite and tame.

    Rejection sampling keeps the corpus away from singularities so the
    comparison tolerances are meaningful.
    """
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        ast = _random_ast(rng, list(varnames), depth)
        env = {name: rng.uniform(-2.0, 2.0) for name in varnames}
        try:
            value = reference_eval(ast, env)
        except (ValueError, ZeroDivisionError, OverflowError):
            continue
        if not math.isfinite(value) or abs(value) > 1e6:
            continue
        produced += 1
        yield ast, env


def fd_gradient(f, p, step=1e-6):
    """Central finite-difference gradient of f at point list p."""
    out = []
    for i in range(len(p)):
        hi = list(p)
        lo = list(p)
        hi[i] += step
        lo[i] -= step
        out.append((f(hi) - f(lo)) / (2.0 * step))
    return out


# ---------------------------------------------------------------------------
# Per-node scalar oracle for the action layer: the interpreter for L and
# positions, Hyperdual for curve derivatives, one node at a time.

def simpson_panels(f, t0, t1, panels):
    """Composite Simpson rule with `panels` panels (midpoint refinement)."""
    h = (t1 - t0) / panels
    total = 0.0
    for k in range(panels):
        a = t0 + k * h
        total += f(a) + 4.0 * f(a + 0.5 * h) + f(a + h)
    return total * h / 6.0


def _positions(exprs, t):
    return np.array([exprlang.evaluate(e, {"t": t}) for e in exprs], dtype=float)


def _derivatives(exprs, t, slot):
    """First (slot "d1") or second (slot "d12") t-derivative."""
    td = Hyperdual(t, 1.0, 1.0)
    out = []
    for e in exprs:
        r = exprlang.evaluate(e, {"t": td})
        out.append(getattr(r, slot) if isinstance(r, Hyperdual) else 0.0)
    return np.array(out, dtype=float)


def _lagrangian(lam, chart_id, x, v):
    env = {f"x{j + 1}": x[j] for j in range(len(x))}
    env.update({f"v{j + 1}": v[j] for j in range(len(v))})
    return float(exprlang.evaluate(lam.expr(chart_id), env))


def _checked_state(lam, seg, t):
    x = _positions(seg.exprs, t)
    if not lam.atlas.contains(seg.chart_id, x):
        raise ChartScheduleError(f"curve leaves chart {seg.chart_id} at t={t} (x={x})")
    return x, _derivatives(seg.exprs, t, "d1")


def _junction_offsets(lam, seg, nxt):
    if nxt is None or nxt.chart_id == seg.chart_id:
        return 0.0
    x_end = _positions(seg.exprs, seg.t1)
    return lam.atlas.gauge_offset(x_end, seg.chart_id, nxt.chart_id)


def _segment_counts(curve, count):
    span = curve.t_end - curve.t_start
    segs = list(curve.segments)
    for seg, nxt in zip(segs, segs[1:] + [None]):
        yield seg, nxt, max(1, round(count * (seg.t1 - seg.t0) / span))


def reference_quadrature(lam, curve, panels):
    """Gauge-fixed Simpson action, node by node."""
    total = 0.0
    for seg, nxt, k in _segment_counts(curve, panels):
        def f(t, seg=seg):
            return _lagrangian(lam, seg.chart_id, *_checked_state(lam, seg, t))

        total += simpson_panels(f, seg.t0, seg.t1, k)
        total -= _junction_offsets(lam, seg, nxt)
    return total


def reference_lift(lam, curve, steps):
    """Gauge-fixed RK4 lift s' = L(gamma, dgamma/dt), step by step."""
    s = 0.0
    for seg, nxt, k in _segment_counts(curve, steps):
        h = (seg.t1 - seg.t0) / k

        def rate(t, seg=seg):
            return _lagrangian(lam, seg.chart_id, *_checked_state(lam, seg, t))

        for j in range(k):
            t = seg.t0 + j * h
            t_next = seg.t1 if j == k - 1 else t + h
            s += (h / 6.0) * (rate(t) + 4.0 * rate(0.5 * (t + t_next)) + rate(t_next))
        s -= _junction_offsets(lam, seg, nxt)
    return s


def perturbed_curve(curve, w, s):
    """gamma_s(t) = gamma(t) + s * w(t), chart by chart, as expressions."""
    shift = Number(float(s))
    segments = []
    for seg in curve.segments:
        exprs = tuple(
            Binary("+", e, Binary("*", shift, we)) for e, we in zip(seg.exprs, w.exprs)
        )
        segments.append(CurveSegment(seg.t0, seg.t1, seg.chart_id, exprs))
    return CurveSpec(tuple(segments))


def reference_derivative(lam, curve, w, eps, panels):
    """Central difference of reference_quadrature along gamma + s*w."""
    return (
        reference_quadrature(lam, perturbed_curve(curve, w, eps), panels)
        - reference_quadrature(lam, perturbed_curve(curve, w, -eps), panels)
    ) / (2.0 * eps)


def reference_pairing(lam, curve, w, panels):
    """Boundary terms plus the Simpson bulk of <E, w>, node by node, with
    the pointwise euler_lagrange and legendre operators."""
    bulk = 0.0
    for seg, _nxt, k in _segment_counts(curve, panels):
        def f(t, seg=seg):
            x, v = _checked_state(lam, seg, t)
            q = SecondOrderPoint.of(x, v, _derivatives(seg.exprs, t, "d12"))
            e = euler_lagrange(lam, q, seg.chart_id)
            return float(np.dot(e.p, _positions(w.exprs, t)))

        bulk += simpson_panels(f, seg.t0, seg.t1, k)

    def boundary(seg, t):
        p = legendre(lam, _positions(seg.exprs, t), _derivatives(seg.exprs, t, "d1"),
                     seg.chart_id)
        return float(np.dot(p.p, _positions(w.exprs, t)))

    first, last = curve.segments[0], curve.segments[-1]
    return boundary(last, last.t1) - boundary(first, first.t0) + bulk
