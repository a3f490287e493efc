"""The generated RK4 loop: the whole classical RK4 integrator for a
Lagrangian with n <= 3 as straight-line code, the state in scalar
locals and the fused terms of kernels._fused_terms inlined into each
stage.

generate_step_source writes it as one list of statements, which
lowering.step_loop frames in Python (lowering.PYTHON, compiled here by
compile_step) or in C (lowering.C, built by native.compile_step).  Each
stage's solve is the one dynamics runs (kernels._adjugate, _condition,
_times), run here on atoms that write its operations (_Text).  A
velocity Hessian whose entries are all literals (a gauge shift adds
<d(chi), v>, linear in v, so it never changes the Hessian) is adjugated
and guarded by it on floats once, at codegen time, and only the solve
is rendered.  A forcing's n expressions are n more value records of the
terms.  dynamics.integrate_trajectory runs the loop unless the forcing
is a callable, and it gives the trajectories of its numpy RK4 loop bit
for bit.  On any alarm it returns the last good step, and the caller's
numpy loop repeats that step and raises the error, if there is one.
"""
from __future__ import annotations

import math
import sys

from . import kernels
from .exprlang import ExprAst, Number
from .kernels import MAX_CONDITION, _adjugate, _condition, _fused_terms, _render, _times
from .lowering import _ZERO, PYTHON, _assignments, _Dialect, _lit, step_loop


class _Text:
    """A value of the acceleration solve as text in the dialect d, so
    that kernels' solve (_adjugate, _condition, _times) run on these
    writes its statements: + - * / and unary minus write the operation,
    abs the dialect's abs, with no parentheses, as the solve's
    operations parse as written.  A literal keeps its `value`, and the
    literal 1.0 times x is x, exact for every float x."""

    __slots__ = ("text", "d", "value")

    def __init__(self, text: str, d: _Dialect, value: float = None):
        self.text, self.d, self.value = text, d, value

    def __str__(self):
        return self.text

    def _write(self, template, *operands):
        return _Text(template.format(*operands), self.d)

    def __add__(self, other):
        return self._write("{} + {}", self, other)

    def __sub__(self, other):
        return self._write("{} - {}", self, other)

    def __mul__(self, other):
        return other if self.value == 1.0 else self._write("{} * {}", self, other)

    def __rmul__(self, other):  # n * x, for the integer n of _condition
        return self._write("{} * {}", other, self)

    def __truediv__(self, other):
        return self._write("{} / {}", self, other)

    def __neg__(self):
        return self._write("-{}", self)

    def __abs__(self):
        return self._write(self.d.text("abs({})"), self)


def _stage(terms, inputs, acc, d):
    """Statements (see _lines) in the dialect d solving
    H a = dL/dx - C.v - f into the names `acc` as
    dynamics._accelerations does for n <= 3, returning k wherever that
    would raise or take its LU solve instead.  The terms are those of
    _fused_terms with n forcing values, rendered with the stage's
    position and velocity `inputs` in place of w0..w{2n-1}.

    The finiteness of the terms is screened by one sum of their
    non-literal atoms (non-finite whenever one of them is; an
    overflowing sum is only a false alarm); a non-finite literal term
    hands back unconditionally.  The solve is kernels' own.  A velocity
    Hessian of literals is adjugated and guarded by it on floats, here
    at codegen time, and only the rows of the solve are rendered, with
    the folds that are exact for every float: 1.0 * r is r, / 1.0 and
    - 0.0 (an unforced loop's) are dropped, and literals combine.  0.0 * r stays, as it is
    -0.0 or NaN for some r.  Any other Hessian runs it on _Text atoms,
    which write its statements: the adjugate's entries named j0.., det,
    ad = |det|, and its guards."""
    n = len(inputs) // 2
    # stages reuse the temporaries' names: each reads only its own
    records, results = _render(*terms, inputs)
    statements = _assignments(records, d)
    lits = [_lit(atom) for atom in results]
    if not all(math.isfinite(lit) for lit in lits if lit is not None):
        return [(None, None)]
    hess, fs = results[2 * n + 1:-n], results[-n:]
    gx, cv, hvals = results[1:n + 1], results[n + 1:2 * n + 1], lits[2 * n + 1:-n]
    literal = None not in hvals
    if literal:
        adj, det = _adjugate(hvals, n)
        if not (sys.float_info.min <= abs(det) < math.inf
                and _condition(hvals, adj, abs(det), n) <= MAX_CONDITION):
            return [(None, None)]
    screen = [atom for atom, lit in dict(zip(results, lits)).items() if lit is None]
    if screen:
        statements.append((None, d.finite.format(" + ".join(screen))))
    for i, (g, c, f) in enumerate(zip(gx, cv, fs)):
        lg, lc = _lit(g), _lit(c)
        if lg is not None and lc is not None:
            g = d.num(lg - lc)
        else:
            g = d.atom(g) if c == _ZERO else f"{d.atom(g)} - {d.atom(c)}"
        statements.append((f"r{i}", g if f == _ZERO else f"{g} - {d.atom(f)}"))
    if literal:
        adj = [_Text(d.num(a), d, a) for a in adj]
        over = None if det == 1.0 else d.num(det)
    else:
        def bind(entries):
            names = [f"j{i}" for i in range(len(entries))]
            statements.extend((name, d.num(e) if isinstance(e, float) else e.text)
                              for name, e in zip(names, entries))
            return [_Text(name, d) for name in names]

        hess = [_Text(d.atom(atom), d) for atom in hess]
        adj, det = _adjugate(hess, n, bind)
        ad = _Text("ad", d)

        def top(*cols):
            return _Text(d.max([c.text for c in cols]), d)

        statements += [
            ("det", det.text),
            ("ad", abs(_Text("det", d)).text),
            (None, d.chain.format(d.num(sys.float_info.min), "<=", "ad", "<", d.inf)),
            (None, f"{_condition(hess, adj, ad, n, top)} <= {d.num(MAX_CONDITION)}"),
        ]
        over = "det"
    rows = _times(adj, [_Text(f"r{i}", d) for i in range(n)], n)
    statements += [(a, row.text if over is None else f"({row}) / {over}")
                   for a, row in zip(acc, rows)]
    return statements


def generate_step_source(ast: ExprAst, varnames, forcing=(), dialect: _Dialect = PYTHON) -> str:
    """Source of the whole classical RK4 loop for a Lagrangian over
    varnames = (x1..xn, v1..vn) with n <= 3 forced by the n expressions
    `forcing` (none: unforced), in Python, or in C for the dialect
    lowering.C (native.compile_step),

        _run(x0, .., v0, .., h, steps, lo0, hi0, .., xs, vs)
        long av_run(double x0, .., double h, long steps, .., double *xm, double *vm)

    from the position x and velocity v, with step size h, the chart box
    lo_i <= x_i <= hi_i (its tolerance included), and C-contiguous
    (steps + 1, n) float arrays xs and vs whose row 0 holds the start
    (in C, the addresses xm and vm of their data).
    The state stays in scalar locals.  Each stage is the straight-line
    body of the fused terms and forcing (_fused_terms, walked once) on
    that stage's position and velocity, then the solve by the adjugate,
    refusing n * cond_1(H) > MAX_CONDITION; a velocity Hessian of
    literals is adjugated and guarded once, here (see _stage).  Every
    language is written from the same statements through a table of its
    differences from Python (_Dialect).  Every operation is that of
    dynamics' RK4 step and its acceleration solve, in the same order, so
    the results are bit-identical.  Step k writes rows k + 1 of xs and
    vs once the new position lies in the box.

    Returns `steps` when every step succeeds.  Otherwise it returns the
    index k of the step that failed, with rows 0..k good: when a term
    (or forcing value) raises ValueError or ArithmeticError, when the
    screen finds one not finite, when det H is zero, subnormal or not
    finite, when the condition guard fails, or when the new position
    leaves the box.  A dialect that checks operations (_Dialect.checked)
    also returns k wherever one of them gives a value that is not
    finite.  The caller repeats step k on its own path, which raises the
    error or takes the solve this loop does not."""
    n = len(varnames) // 2
    if not 1 <= n <= 3:
        raise ValueError(f"the generated RK4 loop needs 1 <= n <= 3, got {n}")
    idx = range(n)
    x = [f"x{i}" for i in idx]
    v = [f"v{i}" for i in idx]
    stage_x = [x] + [[f"x{i}_{s}" for i in idx] for s in (2, 3, 4)]
    stage_v = [v] + [[f"v{i}_{s}" for i in idx] for s in (2, 3, 4)]
    acc = [[f"a{i}_{s}" for i in idx] for s in (1, 2, 3, 4)]
    terms = _fused_terms(ast, varnames, forcing or [Number(0.0)] * n)
    body = []
    for s in range(4):
        if s:
            step = "hh" if s < 3 else "h"
            body += [(stage_x[s][i], f"x{i} + {step} * {stage_v[s - 1][i]}") for i in idx]
            body += [(stage_v[s][i], f"v{i} + {step} * {acc[s - 1][i]}") for i in idx]
        body += _stage(terms, stage_x[s] + stage_v[s], acc[s], dialect)
    body += [(f"x{i}", f"x{i} + h6 * (v{i} + 2.0 * v{i}_2 + 2.0 * v{i}_3 + v{i}_4)") for i in idx]
    body += [(f"v{i}", f"v{i} + h6 * (a{i}_1 + 2.0 * a{i}_2 + 2.0 * a{i}_3 + a{i}_4)") for i in idx]
    inside = dialect.conj.join(dialect.chain.format(f"lo{i}", "<=", f"x{i}", "<=", f"hi{i}")
                               for i in idx)
    body += [(None, f"({inside})"), ("at", "k + 1" if n == 1 else f"{n} * k + {n}")]
    body += [(f"{rows}[at{f' + {i}' if i else ''}]", f"{name}{i}")
             for rows, name in (("xm", "x"), ("vm", "v")) for i in idx]
    parameters = [*x, *v, "h", "steps", *(f"{b}{i}" for i in idx for b in ("lo", "hi"))]
    local = [name for names in stage_x[1:] + stage_v[1:] + acc for name in names]
    return step_loop(parameters, local, body, dialect)


def compile_step(ast: ExprAst, varnames, forcing=()):
    """Compile the RK4 loop of generate_step_source for a Lagrangian
    over varnames = (x1..xn, v1..vn) with n <= 3 and its forcing."""
    src = generate_step_source(ast, varnames, forcing)
    return kernels._build(src, "_run", _isfinite=math.isfinite, _inf=math.inf)
