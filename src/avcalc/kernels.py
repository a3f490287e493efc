"""Compiled evaluation kernels for expression fields.

An expression over named variables is compiled once into straight-line
code that propagates second-order forward-mode components
(val, d1, d2, d12).  Every rendering comes from one seeded walk
(_seeded) of a table of probes, each seeding every variable with a
literal 0 or 1, which folds, or an input atom.  There are four:

  * a table's records as an op tape over a batch of rows (see below),
    with no Python compile: compile_field's one probe whose seeds are
    the columns of d1 and d2 (_batched), one row per probe, or the
    library's tables of literal seeds, one row per point;
  * the same tape's records as a C loop over rows, which a kernel
    takes once it has served NATIVE_PROBES rows, where each of them
    gives numpy's bits in C (native.compile_probes);
  * the same walk as one scalar function (compile_solve) that returns
    everything a Euler-Lagrange acceleration solve needs at one point
    (_fused_terms);
  * the whole classical RK4 loop for n <= 3, with that function's
    straight-line body inlined into each stage (rk4loop.py, in Python
    and, through the same statements, in C built by native.py).

This module knows no language's syntax: the emitter writes one op set,
Python on scalars (math.sin(t), abs(t), math.pow(t, p): the templates
of lowering.py), and lowering.py writes each program in its language
and frame.  Every rendering takes the emitter's lines as records (name,
template, operands) from one backward pass (_render): it drops the
lines nothing reads and reuses a temporary's name once its value's last
reader has run, so the code holds only the values still live, not one
per line.  The acceleration solve after the terms is written once
(_adjugate, _condition, _times), run on floats by dynamics and on text
atoms by rk4loop.
The batched kernel runs them as an op tape (Griewank & Walther,
Evaluating Derivatives, ch. 3): per record, the numpy ufunc that its
template's numpy text calls (_UFUNCS), on the same operands in order,
writing into the register of its name, f(x, y, reg).  The registers
are the rows of one (names, rows) array allocated per call, so no
array is allocated per line, and the literals are 0-d arrays made
once; generate_source is the text of the same operations.  The outputs
equal those of that text run by exec bit for bit, with one exception
numpy makes: on a single row, an add whose output register is its
first operand runs numpy's reduction loop, which can return the other
operand's NaN, with the other sign bit.

Kernel signature: kernel(vals, d1, d2, out) with vals/d1/d2 of shape
(rows, nvars) and out of shape (rows, outputs).  For compile_field,
row p evaluates the expression at point vals[p] with first-order seeds
d1[p], d2[p]; out[p] = (value, directional derivative 1, directional
derivative 2, mixed second derivative).  A table's kernel reads vals
alone, one row per point, and the library passes None for d1 and d2:

  * _lagrangian, over the columns (x, v, a): L, dL/dx_i, dL/dv_i and
    d/dt dL/dv_i, for values, momenta and Euler-Lagrange covectors;
  * _gradient: the value and d/dw_j, for geometry's eval_rows, and
    read back as expression trees by gradient_exprs for the couplings
    <d(chi), v> of dynamics.velocity_coupling: the emitter's rules are
    the library's one set of derivative rules;
  * _jet, over t: x, x' and x'', for jets_in_t.

A caller that reads only some of these outputs asks for them when it
compiles: compile_field(ast, varnames, reads=r), for increasing columns
r of FULL = (0, 1, 2, 3) or of a table's outputs, gives a kernel with
the same signature whose out has len(r) columns, column c holding
output r[c].  It runs only the records those outputs depend on (one
backward liveness pass, _Tape.live), in the same order on the same
registers and operands, so each column is the full kernel's bit for
bit; it reads only the arguments they need (a kernel of
compile_field's (0,) reads neither d1 nor d2, one of (0, 1) no d2, and
the caller may pass None for them).

compile_field's cache is the one place that keeps kernels and decides
their reuse and memory: no library object holds one, each caller asks
compile_field where it runs it.  The cache holds one walk of the
expression per table, text and variable layout (its tape; a jet
table's text is its shape's, see the end), and that tape's kernel per
reads: a second reads costs one tape filter, not a second walk.  The
key holds the text each node renders once and
keeps (exprlang._Node), so a hit is a dict probe ("hit us" in
benchmarks/kernel_batch.py) and a gauge twin renders only the nodes the
shift adds.  The charged particle's gauge twin retains about 3.2 KB for
its tape of compile_field with its cache entry, and 1.2 KB (reads (0,))
to 2.9 KB (FULL) per kernel built from it, measured by tracemalloc as
that script does.

The library evaluates expressions through these kernels, forcing
expressions included; its batched callers read a table only through
read_table, which runs its kernel in calls of at most BATCH rows
(eval_chunked) and raises DomainError for a non-finite output.  The
folds are exact: a literal 0 times or over u is 0, and u^0 is 1, for
any u; so 1^u, exp(u * log 1), is 1 too.  A table's literal zero seeds
fold the same way, as they do in the RK4 loop: a derivative no output
needs is never computed, so its 0 * inf makes no NaN.  The emitter's
add and mul fold the seed atom _ZERO itself, most of a walk's calls,
before any lookup; another zero literal folds by its value, the same way.
The product and sum rules skip those calls on _ZERO operands, with the
same folds.

The walk of a table's probes visits a subtree whose variables all have
a zero d1 seed in a probe (passive in its direction) once per d2 seed
list, not once per probe (_seeded's memo).  Such a walk makes only calls
the first one made, so it emits no line: the records, their order and
every rendering stay those of a walk without the memo, while a gauge
twin's coupling in x costs one walk for all of its velocity probes.

A jet table is keyed by its coordinate's shape, not its text
(read_table): each literal operand of + - * / beside a subtree holding
t, outside exponents and call arguments and other than 0, 1 and a
non-finite one, is a parameter _k, seeded 0, whose column of vals
holds its value (_shape).  The coordinates of one shape share one tape,
its kernels and its C loop.  The walk of the literals folds where the
shape's tape computes from parameters and literals alone; a binding
that makes such a record 0, 1 or non-finite, the values the emitter
folds on, takes the text key instead (_folds), so outputs and
DomainErrors, which name the coordinate's text, are the literal
kernel's.  The Lagrangian and gradient tables keep their text keys: a
gauge function's shape recurs too seldom to pay (ROADMAP, direction 6).
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from array import array

import numpy as np

from .autodiff import Hyperdual
from .errors import DomainError
from .exprlang import (
    _REAL_UNARY, Binary, Call, ExprAst, Number, Unary, Var, evaluate, free_variables, parse,
    to_text,
)
from .lowering import _CALLS, _MATH, _ONE, _SIGN, _ZERO, _lit, _num, numpy_kernel, solve_function

# There is one kernel backend.  BACKENDS, default_backend and the
# `backend` parameters checked by require_numpy_backend are kept for the
# avbench harness, which reads or passes them.
BACKENDS = ("numpy",)


def default_backend() -> str:
    """The one kernel backend, "numpy"."""
    return "numpy"


def require_numpy_backend(backend: str) -> None:
    """Accept the avbench harness's "numpy" argument; any other value
    is a ValueError."""
    if backend != "numpy":
        raise ValueError(f"unknown backend {backend!r}: the only one is 'numpy'")


# ---------------------------------------------------------------------------
# Code generation

class _Emitter:
    """Straight-line code over atoms (literals or names), in the one op
    set of every rendering: Python on scalars, which each target writes
    through its dialect (lowering.py; the batched kernel runs it as ufuncs,
    _UFUNCS).  Line i assigns the temporary t{i} one operation: a
    `template` filled with the atoms it reads, both kept as the line's
    key in `names`.  Every line is a pure function of its atoms, so an
    operation already emitted on the same atoms (the same expression
    text) is not emitted again: its temporary is reused.  `lits` maps
    each literal atom the emitter makes (num) to its value, so the folds
    read it back without parsing the atom."""

    def __init__(self):
        self.names = {}  # (template, atoms) -> temporary, in line order
        self.lits = {_ZERO: 0.0, _ONE: 1.0, "2.0": 2.0, "0.5": 0.5}

    def tmp(self, template: str, *atoms: str) -> str:
        op = (template, atoms)
        name = self.names.get(op)
        if name is None:
            name = self.names[op] = f"t{len(self.names)}"
        return name

    def num(self, value: float) -> str:
        """The literal atom of `value` (_num), its value kept in `lits`;
        every NaN is the one atom math.nan, read back as math.nan."""
        atom = _num(value)
        self.lits[atom] = math.nan if atom == "math.nan" else value
        return atom

    # folding arithmetic on atoms (literals or temp names)

    def neg(self, x):
        lx = self.lits.get(x)
        if lx is not None:
            return self.num(-lx)
        return self.tmp("-{}", x)

    def add(self, x, y):
        if x is _ZERO:  # the walk's most common folds, before the lookups
            return y
        lx, ly = self.lits.get(x), self.lits.get(y)
        if lx == 0.0:
            return y
        if ly == 0.0:
            return x
        if lx is not None and ly is not None:
            return self.num(lx + ly)
        return self.tmp("{} + {}", x, y)

    def sub(self, x, y):
        lx, ly = self.lits.get(x), self.lits.get(y)
        if ly == 0.0:
            return x
        if lx == 0.0:
            return self.neg(y)
        if lx is not None and ly is not None:
            return self.num(lx - ly)
        return self.tmp("{} - {}", x, y)

    def mul(self, x, y):
        if x is _ZERO or y is _ZERO:
            return _ZERO
        lx, ly = self.lits.get(x), self.lits.get(y)
        if lx == 0.0 or ly == 0.0:
            return _ZERO
        if lx == 1.0:
            return y
        if ly == 1.0:
            return x
        if lx is not None and ly is not None:
            return self.num(lx * ly)
        return self.tmp("{} * {}", x, y)

    def div(self, x, y):
        lx, ly = self.lits.get(x), self.lits.get(y)
        if lx == 0.0:
            return _ZERO
        if ly == 1.0:
            return x
        if lx is not None and ly is not None:  # x / +-0 is x * +-inf, as in IEEE
            return self.num(lx / ly if ly != 0.0 else lx * math.copysign(math.inf, ly))
        return self.tmp("{} / {}", x, y)

    def powc(self, x, p: float):
        """x**p for a compile-time real exponent."""
        if p == 0.0:
            return _ONE
        if p == 1.0:
            return x
        lx = self.lits.get(x)
        if lx is not None:
            # a constant power with no real value is NaN, one too large
            # is +-inf; checked callers turn either into a DomainError
            try:
                return self.num(math.pow(lx, p))
            except ValueError:
                return self.num(math.nan)
            except OverflowError:
                return self.num(-math.inf if lx < 0.0 and p % 2.0 == 1.0 else math.inf)
        if p == 2.0:
            return self.tmp("{} * {}", x, x)
        # every other power is math.pow, which raises ValueError where x ** p is complex
        return self.tmp("math.pow({}, {})", x, self.num(p))


def _quad_is_const(q):
    return q[1] == _ZERO and q[2] == _ZERO and q[3] == _ZERO


def _apply_unary(name, u, em: _Emitter):
    uv, ua, ub, uc = u
    lv = em.lits.get(uv)
    if lv is not None and _quad_is_const(u):
        try:
            return (em.num(float(_REAL_UNARY[name](lv))), _ZERO, _ZERO, _ZERO)
        except (ValueError, OverflowError):
            pass  # leave the domain error to runtime
    if name == "sign":  # its derivatives vanish, at 0 too
        return (em.tmp(_SIGN, uv), _ZERO, _ZERO, _ZERO)
    v = em.tmp(_CALLS[name], uv)
    if _quad_is_const(u):
        return (v, _ZERO, _ZERO, _ZERO)
    need_dd = ua != _ZERO and ub != _ZERO
    if name == "sin":
        d = em.tmp(_CALLS["cos"], uv)
        dd = em.neg(v) if need_dd else _ZERO
    elif name == "cos":
        d = em.neg(em.tmp(_CALLS["sin"], uv))
        dd = em.neg(v) if need_dd else _ZERO
    elif name == "tan":
        d = em.add(_ONE, em.mul(v, v))
        dd = em.mul("2.0", em.mul(v, d)) if need_dd else _ZERO
    elif name == "exp":
        d = v
        dd = v
    elif name == "log":
        d = em.div(_ONE, uv)
        dd = em.neg(em.mul(d, d)) if need_dd else _ZERO
    elif name == "sqrt":
        d = em.div("0.5", v)
        dd = em.neg(em.div(em.mul("0.5", d), uv)) if need_dd else _ZERO
    elif name == "abs":
        d = em.tmp(_SIGN, uv)
        dd = _ZERO
    else:  # pragma: no cover
        raise ValueError(f"no kernel rule for '{name}'")
    a = em.mul(d, ua)
    b = em.mul(d, ub)
    c = em.add(em.mul(d, uc), em.mul(em.mul(dd, ua), ub))
    return (v, a, b, c)


def _apply_pow_const(u, p: float, em: _Emitter):
    uv, ua, ub, uc = u
    v = em.powc(uv, p)
    if p == 0.0 or _quad_is_const(u):
        return (v, _ZERO, _ZERO, _ZERO)
    d = em.mul(em.num(p), em.powc(uv, p - 1.0))
    a = em.mul(d, ua)
    b = em.mul(d, ub)
    # p*(p-1) vanishes for p = 1 (a user's x^1): emitting x**(p-2)
    # there would compute a dead, possibly infinite value
    if ua != _ZERO and ub != _ZERO and p != 1.0:
        dd = em.mul(em.num(p * (p - 1.0)), em.powc(uv, p - 2.0))
        c = em.add(em.mul(d, uc), em.mul(em.mul(dd, ua), ub))
    else:
        c = em.mul(d, uc)
    return (v, a, b, c)


def _plus(em: _Emitter, x, y):
    """em.add(x, y), with no call where x or y is _ZERO: add's folds
    return y for x _ZERO, and for y _ZERO return y where x is another
    zero literal and x otherwise."""
    if x is _ZERO:
        return y
    if y is _ZERO:
        return y if em.lits.get(x) == 0.0 else x
    return em.add(x, y)


def _combine_mul(u, w, em: _Emitter):
    """The product rule.  A term with a _ZERO factor is the _ZERO that
    mul folds it to, and a sum with a _ZERO term folds as add does
    (_plus), so neither calls the emitter; every line is mul and add's."""
    uv, ua, ub, uc = u
    wv, wa, wb, wc = w
    mul = em.mul
    v = mul(uv, wv)
    a = _plus(em, _ZERO if wa is _ZERO else mul(uv, wa), _ZERO if ua is _ZERO else mul(ua, wv))
    b = _plus(em, _ZERO if wb is _ZERO else mul(uv, wb), _ZERO if ub is _ZERO else mul(ub, wv))
    c = _plus(em, _plus(em, _ZERO if wc is _ZERO else mul(uv, wc),
                        _ZERO if ua is _ZERO or wb is _ZERO else mul(ua, wb)),
              _plus(em, _ZERO if ub is _ZERO or wa is _ZERO else mul(ub, wa),
                    _ZERO if uc is _ZERO else mul(uc, wv)))
    return (v, a, b, c)


def _combine_div(u, w, em: _Emitter):
    uv, ua, ub, uc = u
    wv, wa, wb, wc = w
    qv = em.div(uv, wv)
    qa = em.div(em.sub(ua, em.mul(qv, wa)), wv)
    qb = em.div(em.sub(ub, em.mul(qv, wb)), wv)
    qc = em.div(
        em.sub(em.sub(em.sub(uc, em.mul(qa, wb)), em.mul(qb, wa)), em.mul(qv, wc)),
        wv,
    )
    return (qv, qa, qb, qc)


def _power(left, right, em: _Emitter, slots: dict, reuse):
    """The quad of left^right (a Binary ^ or a Call of pow)."""
    u = _walk(left, em, slots, reuse)
    if isinstance(right, Number):
        return _apply_pow_const(u, float(right.value), em)
    w = _walk(right, em, slots, reuse)
    if _quad_is_const(w) and w[0] in em.lits:
        return _apply_pow_const(u, em.lits[w[0]], em)
    # general exponent: exp(w * log(u))
    return _apply_unary("exp", _combine_mul(w, _apply_unary("log", u, em), em), em)


def _walk(ast: ExprAst, em: _Emitter, slots: dict, reuse):
    """The quad (val, d1, d2, d12) of ast, each variable's taken from
    `slots`, its lines emitted through em.  `reuse` is (memo, active),
    or None where every variable is active: a node none of whose
    variables is in `active`, those with a d1 seed other than _ZERO, is
    passive; it is looked up in `memo`, id(node) -> (node, quad) for
    the probe's d2 seed list, and stored there once walked (_seeded)."""
    kind = type(ast)
    if kind is Var:
        return slots[ast.name]
    if kind is Number:
        return (em.num(float(ast.value)), _ZERO, _ZERO, _ZERO)
    passive = reuse is not None and ast.variables.isdisjoint(reuse[1])
    if passive:
        kept = reuse[0].get(id(ast))
        if kept is not None:
            return kept[1]
    if kind is Unary:
        quad = tuple([em.neg(c) if c != _ZERO else _ZERO
                      for c in _walk(ast.child, em, slots, reuse)])
    elif kind is Call:
        if ast.func == "pow":
            quad = _power(*ast.args, em, slots, reuse)
        else:
            quad = _apply_unary(ast.func, _walk(ast.args[0], em, slots, reuse), em)
    elif ast.op == "^":
        quad = _power(ast.left, ast.right, em, slots, reuse)
    else:
        u = _walk(ast.left, em, slots, reuse)
        w = _walk(ast.right, em, slots, reuse)
        if ast.op == "+":
            quad = tuple([_plus(em, a, b) for a, b in zip(u, w)])
        elif ast.op == "-":
            quad = tuple([a if b is _ZERO else em.sub(a, b) for a, b in zip(u, w)])
        elif ast.op == "*":
            quad = _combine_mul(u, w, em)
        else:
            quad = _combine_div(u, w, em)
    if passive:
        reuse[0][id(ast)] = (ast, quad)  # the node is kept, so its id is not reused
    return quad


def check_declared(ast: ExprAst, varnames) -> set:
    """The variables `ast` uses; ValueError if one is not in varnames."""
    used = free_variables(ast)
    missing = used - set(varnames)
    if missing:
        raise ValueError(f"expression uses undeclared variables {sorted(missing)}")
    return used


def _render(names, results, inputs=()):
    """(records, results) of the lines of an _Emitter's `names` that the
    `results` need, read at the end, with every slot atom w{j} replaced
    by inputs[j] if `inputs` are given.  A record (name, template, args)
    assigns to `name` the operation `template` on the atoms `args`
    (lowering writes it as a line of source).  The kept lines,
    their order and their operands are unchanged, so the values are too,
    but a line nothing reads is dropped and a temporary's name is reused
    once the last line reading its value has run: the code holds only
    its live temporaries instead of one value per line.

    One backward pass: a temporary takes a name at its last reader (the
    name freed last, or a new one) and gives it back at its own line,
    where the line's operands may take it; a line whose temporary has
    no name is dead.  Names are t0, t1, .. in the order the pass first
    takes them, so records with k names use exactly t0..t{k-1} (the
    op tape's registers).  Temporaries are the
    atoms that start with "t"; slots start with "w" and literals with a
    digit, "-", "(" or "math."."""
    fresh = map("t{}".format, itertools.count())
    # atom -> its text: a slot's input, or an emitted temporary's name
    # from its last reader back to its line
    live = {f"w{j}": atom for j, atom in enumerate(inputs)}
    for atom in results:
        if atom[0] == "t" and atom not in live:
            live[atom] = next(fresh)
    results = [live.get(atom, atom) for atom in results]
    free = []
    records = []
    for (template, atoms), temp in reversed(names.items()):
        name = live.pop(temp, None)
        if name is None:
            continue  # nothing reads it
        free.append(name)
        args = []
        for atom in atoms:
            if atom[0] == "t" and atom not in live:
                live[atom] = free.pop() if free else next(fresh)
            args.append(live.get(atom, atom))
        records.append((name, template, args))
    records.reverse()
    return records, results


def _unit_seeds(m: int) -> list:
    """The seeds e_0..e_{m-1} of m variables as literal atoms and then
    0, one list each, so that the probes that share a seed vector share
    its list (the key of _seeded's memo)."""
    return [[_ONE if j == i else _ZERO for j in range(m)] for i in (*range(m), None)]


def _seeded(probes, varnames, picks):
    """(names, results) of one seeded walk: one _Emitter walks each probe
    (expr, d1, d2) in order, variable j of varnames carrying (w{j},
    d1[j], d2[j], 0), and results are component c of probe p for each
    (p, c) of picks.  A seed is an atom: a literal 0 or 1, which folds,
    or an input column's.  Every value and derivative the probes share is
    emitted once (the vector forward mode of Griewank & Walther,
    Evaluating Derivatives, ch. 3); a component nothing picks is emitted,
    and _render drops it.

    A subtree none of whose variables has a d1 seed other than _ZERO is
    passive in the probe's direction (ibid., ch. 6): its walk reads only
    the values and d2 seeds.  So a walk of it in a later probe with the
    same d2 seed list makes the same emitter calls on the same atoms,
    emits no line and returns the same quad.  One memo per call, keyed
    by the id of the node and of the probe's d2 list, keeps that quad
    (with the node and, through probes, the list, so neither id is
    reused), and the walk returns it instead: every line, its order and
    so every rendering are those of the walk without the memo.  A gauge
    twin's coupling in x is walked once for all velocity probes."""
    em = _Emitter()
    memos = {}  # id of a d2 seed list -> its memo (_walk)
    quads = []
    for expr, d1, d2 in probes:
        slots = {name: (f"w{j}", d1[j], d2[j], _ZERO) for j, name in enumerate(varnames)}
        active = {name for name, seed in zip(varnames, d1) if seed != _ZERO}
        # where every variable is active only constants would be passive,
        # and their walk folds at once (a single probe's case: _batched, _jet)
        quads.append(_walk(expr, em, slots, (memos.setdefault(id(d2), {}), active)
                           if len(active) < len(varnames) else None))
    return em.names, [quads[p][c] for p, c in picks]


def _batched(ast: ExprAst, varnames):
    """(inputs, records, results) of the batched kernel: its slot atoms,
    each mapped to (k, j) for column j of the k-th argument (vals, d1,
    d2), in order of variable; the records of the second-order rules its
    outputs read (_render); and its four output atoms.  Its one probe's
    seeds are the columns of d1 and d2."""
    used = check_declared(ast, varnames)
    inputs = {f"w{j}{s}": (k, j) for j, name in enumerate(varnames) if name in used
              for k, s in enumerate(("", "a", "b"))}
    m = len(varnames)
    probe = (ast, [f"w{j}a" for j in range(m)], [f"w{j}b" for j in range(m)])
    return (inputs, *_render(*_seeded([probe], varnames, [(0, c) for c in FULL])))


def _table(ast: ExprAst, varnames, width: int, probes, picks):
    """(inputs, records, results) of a kernel of one row per point: the
    seeded walk of `probes` of ast, whose seeds are literals or columns
    of vals, which has `width` columns."""
    check_declared(ast, varnames)
    return ({f"w{j}": (0, j) for j in range(width)}, *_render(*_seeded(probes, varnames, picks)))


def _unit_probes(ast: ExprAst, seeds: list, n: int, velocity=None) -> list:
    """The probes of ast over m variables (e_i, 0) for i < n and
    (e_i, velocity) for n <= i < m, from seeds = _unit_seeds(m)."""
    return [(ast, e, seeds[-1] if i < n else velocity) for i, e in enumerate(seeds[:-1])]


def _gradient(ast: ExprAst, varnames):
    """The gradient table: the value and d/dw_j for each of the m >= 1
    variables, the value read from the first probe."""
    m = len(varnames)
    return _table(ast, varnames, m, _unit_probes(ast, _unit_seeds(m), m),
                  [(0, 0), *[(j, 1) for j in range(m)]])


def _lagrangian(ast: ExprAst, varnames):
    """The Lagrangian table over the 3n columns (x, v, a) of vals, for
    varnames (x1..xn, v1..vn): L, dL/dx_i, p_i = dL/dv_i and
    d/dt p_i = (d2L/dv_i dx) . v + (d2L/dv_i dv) . a: the gradient
    table's probes, but (e_{n+i}, (v, a)) for the velocities, whose
    first component is p_i and whose mixed one is d/dt p_i."""
    m = len(varnames)
    n = m // 2
    velocity = [f"w{j}" for j in range(n, 3 * n)]
    return _table(ast, varnames, 3 * n, _unit_probes(ast, _unit_seeds(m), n, velocity),
                  [(0, 0), *[(i, 1) for i in range(m)], *[(n + i, 3) for i in range(n)]])


def _jet(ast: ExprAst, varnames):
    """The jet table of a curve coordinate in t: (x, x', x''), the probe
    seeding each variable 1 and 1, but a shape's parameters _0, _1, ..
    (read_table) 0."""
    seeds = [_ZERO if name[0] == "_" else _ONE for name in varnames]
    return _table(ast, varnames, len(varnames), [(ast, seeds, seeds)], [(0, 0), (0, 1), (0, 3)])


def generate_source(ast: ExprAst, varnames, backend: str = "numpy") -> str:
    """Source text of the batched kernel of compile_field, which runs
    the same operations as an op tape: the lines of the second-order
    rules that its outputs read, with their temporaries' names reused
    (_render).  `backend` must be "numpy" (see require_numpy_backend)."""
    require_numpy_backend(backend)
    return numpy_kernel(*_batched(ast, varnames))


def _fused_terms(ast: ExprAst, varnames, forcing=()):
    """(names, atoms) of the straight-line terms

        (L, dL/dx_i for each i, ((d2L/dv_i dx) . v) for each i,
         d2L/dv_i dv_j row-major, f for each expression f of `forcing`)

    of a Lagrangian over varnames = (x1..xn, v1..vn) (None: the f alone)
    at the point w0..w{2n-1}: the seeded walk (_seeded) of one probe per
    term, for _render.  The seeds are literals (the velocity seed of the
    C.v probes is the velocity itself; an f's are zero), so zero seeds
    fold away."""
    for expr in forcing if ast is None else (ast, *forcing):
        check_declared(expr, varnames)
    m = len(varnames)
    n = m // 2
    seeds = _unit_seeds(m)
    zero = seeds[-1]
    probes, components = [], []
    if ast is not None:
        velocity = [f"w{n + j}" for j in range(n)] + zero[n:]
        probes = [(ast, zero, zero), *_unit_probes(ast, seeds, n, velocity),
                  *[(ast, seeds[n + i], seeds[n + j]) for i in range(n) for j in range(n)]]
        components = [0, *[1] * n, *[3] * (n + n * n)]
    probes += [(f, zero, zero) for f in forcing]
    return _seeded(probes, varnames, [*enumerate(components + [0] * len(forcing))])


def generate_solve_source(ast: ExprAst, varnames, forcing=()) -> str:
    """Source of `_terms(w0, .., w{2n-1})` returning the tuple of the
    terms of _fused_terms."""
    return solve_function(len(varnames), *_render(*_fused_terms(ast, varnames, forcing)))


def _adjugate(h, n, bind=tuple):
    """(bind(adjugate), determinant) of the n x n matrix h (row-major
    sequence), for n <= 3; bind names the adjugate's entries, and the
    determinant reads them.  This, _condition and _times are the one
    acceleration solve: dynamics._accelerations runs them on floats, and
    rk4loop._stage on floats at codegen time for a literal velocity
    Hessian, otherwise on atoms that write each operation as text."""
    if n == 1:
        return bind((1.0,)), h[0]
    if n == 2:
        a, b, c, d = h
        return bind((d, -b, -c, a)), a * d - b * c
    a, b, c, d, e, f, g, k, m = h
    adj = bind((e * m - f * k, c * k - b * m, b * f - c * e,
                f * g - d * m, a * m - c * g, c * d - a * f,
                d * k - e * g, b * g - a * k, a * e - b * d))
    return adj, a * adj[0] + b * adj[3] + c * adj[6]


def _norm1(h, n, top=max):
    """Largest absolute column sum of the n x n matrix h (row-major
    sequence), for n <= 3, the largest picked by `top`."""
    h = [*map(abs, h)]
    if n == 1:
        return h[0]
    if n == 2:
        return top(h[0] + h[2], h[1] + h[3])
    return top(h[0] + h[3] + h[6], h[1] + h[4] + h[7], h[2] + h[5] + h[8])


MAX_CONDITION = 1e12  # the largest velocity-Hessian condition an acceleration solve accepts


def _condition(h, adj, ad, n, top=max):
    """n * cond_1(h) from h's adjugate and ad = |det h|.  The callers
    take it only for a det that is normal and finite; otherwise the
    solve needs LU."""
    return n * _norm1(h, n, top) * _norm1(adj, n, top) / ad


def _times(h, r, n):
    """h r for the n x n matrix h (row-major sequence), for n <= 3."""
    if n == 1:
        return [h[0] * r[0]]
    if n == 2:
        return [h[0] * r[0] + h[1] * r[1], h[2] * r[0] + h[3] * r[1]]
    r0, r1, r2 = r
    return [h[0] * r0 + h[1] * r1 + h[2] * r2,
            h[3] * r0 + h[4] * r1 + h[5] * r2,
            h[6] * r0 + h[7] * r1 + h[8] * r2]


def _build(src: str, name: str, **env):
    """The function `name` defined by generated scalar source, with the
    names `env` in its globals."""
    ns = {"math": math, **env}
    exec(compile(src, "<avcalc kernel>", "exec"), ns)
    return ns[name]


# The ufunc each template calls on arrays (the text of lowering._NUMPY).
# An operator on an ndarray calls its ufunc on the operands in their
# order (2.0 * t is np.multiply(2.0, t)), and t ** (p) is np.power(t, p)
# bit for bit.
_UFUNCS = {
    "-{}": np.negative, "{} + {}": np.add, "{} - {}": np.subtract,
    "{} * {}": np.multiply, "{} / {}": np.divide, "math.pow({}, {})": np.power,
    "abs({})": np.abs, _SIGN: np.sign,
    **{f"math.{name}({{}})": getattr(np, name) for name in _MATH},
}
_UNARY = 0xFFFF  # the second operand slot of a one-operand op
# a tape stores each op's ufunc as its index in _OPS
_OPS = tuple(_UFUNCS.values())
_CODES = {template: code for code, template in enumerate(_UFUNCS)}


# The output columns of a kernel of compile_field: value, d1, d2, d12.
# A kernel of compile_field(..., reads=r) writes column c of its `out`
# from output r[c]; FULL is every output, the full contract.
FULL = (0, 1, 2, 3)

# A kernel runs its records as a C loop over probes (native.compile_probes)
# once it has served NATIVE_PROBES probes, this call's included, where
# that loop gives the tape's bits and a C compiler builds it.  A build
# costs 50-120 ms, the time C saves on 0.6-2.3e6 probes of the bundled
# kernels at 300-800 probes a call: a kernel tiers up once its tape has
# cost about what the build will.  `check-all` stays below (its hottest
# kernel serves 199 920 probes), and so do avbench's gauge_scan kernels.
NATIVE_PROBES = 1_000_000


class _Tape:
    """The records of a table (_batched, _lagrangian, _gradient, _jet) as
    an op tape, and the kernel of each tuple of output columns asked of
    it (kernel).

    Per record a kernel runs its ufunc on its operands' slots into its
    name's register, f(x, y, reg), in the records' order.  A call's
    slots are the registers, one row each of a (registers, probes)
    array allocated per call (a name t{r} is register r); then the
    column views of vals, d1 and d2 that the records read; then the
    literals, each once, as read-only 0-d float64 arrays made when the
    tape is built.  A ufunc turns a Python float operand into such an
    array on every call, so the values are the same and the tape saves
    that conversion.  A kernel keeps its ops as parallel sequences: a
    tuple of ufuncs and uint16 arrays of operand and register slots;
    the tape keeps the ufuncs as one byte each (their index in _OPS).
    The outputs are written as the text writes them, out[:, c] = slot."""

    __slots__ = ("key", "registers", "sources", "columns", "literals", "outputs",
                 "codes", "first", "second", "dest", "kernels")

    def __init__(self, key, inputs, records, results):
        self.key = key  # (table, text, variables) of the kernel cache
        registers = self.registers = len({name for name, _template, _args in records})
        slot = {f"t{r}": r for r in range(registers)}
        atoms = dict.fromkeys(itertools.chain.from_iterable(args for _n, _t, args in records))
        atoms.update(dict.fromkeys(results))
        views = [a for a in atoms if a in inputs]
        literals = [a for a in atoms if a not in inputs and a not in slot]
        slot.update(zip(views + literals, itertools.count(registers)))
        if len(slot) > _UNARY:
            raise ValueError(f"an op tape has at most {_UNARY} slots, this one needs {len(slot)}")
        self.sources = array("H", [inputs[a][0] for a in views])
        self.columns = array("H", [inputs[a][1] for a in views])
        self.literals = tuple(map(np.array, map(_lit, literals)))
        for value in self.literals:
            value.flags.writeable = False
        slot[None] = _UNARY
        first = [slot[args[0]] for _name, _template, args in records]
        second = [slot[args[1] if len(args) > 1 else None] for _name, _template, args in records]
        dest = [slot[name] for name, _template, _args in records]
        self.outputs = tuple([slot[a] for a in results])
        self.codes = bytes([_CODES[template] for _name, template, _args in records])
        self.first, self.second, self.dest = (array("H", a) for a in (first, second, dest))
        self.kernels = {}  # reads -> kernel

    def kernel(self, reads):
        """kernel(vals, d1, d2, out) writing out[:, c] = output reads[c],
        for increasing columns `reads` of the table's outputs, built at
        its first use."""
        fn = self.kernels.get(reads)
        if fn is None:
            if not reads or list(reads) != sorted(set(reads).intersection(range(len(self.outputs)))):
                raise ValueError(f"reads must be increasing columns of the {len(self.outputs)} "
                                 f"outputs, got {reads!r}")
            fn = self.kernels[reads] = self._build(reads)
        return fn

    def live(self, reads) -> bytearray:
        """Per record, 1 if the outputs `reads` depend on it, else 0
        (activity analysis, Griewank & Walther, Evaluating Derivatives,
        ch. 6): one backward pass, a record being live if an output or a
        later live record reads its register before it is written again.
        A byte per slot says whether one of them reads it next."""
        pending = bytearray(_UNARY + 1)
        for c in reads:
            pending[self.outputs[c]] = 1
        kept = bytearray(len(self.dest))
        for i, r, a, b in zip(range(len(kept) - 1, -1, -1),
                              *map(reversed, (self.dest, self.first, self.second))):
            if pending[r]:
                kept[i] = 1
                pending[r] = 0
                pending[a] = pending[b] = 1
        return kept

    def _build(self, reads):
        """The kernel of the records live for `reads`, with their order,
        registers and operands, so each column it writes is bit-identical
        to the full kernel's.  It allocates the registers up to the
        highest it writes, and reads only the views and literals its
        records or outputs read: a kernel of the value alone reads no
        seed column, and one of the value and d1 reads no d2."""
        kept = self.live(reads)
        first = list(itertools.compress(self.first, kept))
        second = list(itertools.compress(self.second, kept))
        dest = array("H", itertools.compress(self.dest, kept))
        outputs = [self.outputs[c] for c in reads]
        registers = 1 + max(dest, default=-1)
        # a register keeps its slot; the views and literals read move
        # down to follow the registers, in order
        other = sorted({*first, *second, *outputs}.difference(range(self.registers), (_UNARY,)))
        slot = dict(zip(other, itertools.count(registers)))
        nviews = len(self.sources)
        views = [s - self.registers for s in other if s < self.registers + nviews]
        sources = array("H", [self.sources[v] for v in views])
        columns = array("H", [self.columns[v] for v in views])
        literals = tuple([self.literals[s - self.registers - nviews] for s in other[len(views):]])
        ufuncs = tuple(map(_OPS.__getitem__, itertools.compress(self.codes, kept)))
        first = array("H", map(slot.get, first, first))
        second = array("H", map(slot.get, second, second))
        outputs = tuple(map(slot.get, outputs, outputs))
        return _Kernel(self.key, reads, registers, sources, columns, literals, ufuncs, first,
                       second, dest, outputs)


class _Kernel:
    """kernel(vals, d1, d2, out) of _Tape._build: the records live for its
    reads as a tape of its own, in the layout of _Tape's (registers
    t0..t{registers-1}, then the views of vals, d1 and d2 it reads, then
    its literals), and its `outputs`' slots.

    It counts the probes it serves.  The call that brings them to
    NATIVE_PROBES asks native for the C loop of these records, once
    (native is imported then); from then on every call that loop serves
    skips the tape (the loop returns False for arrays it does not take,
    and where it hands back).  A kernel holds no reference to its tape or
    its expression, only to its tape's `key` (table, text, variables) and
    its `reads`, from which native walks the table again and writes the
    loop."""

    __slots__ = ("key", "reads", "registers", "sources", "columns", "literals", "ufuncs", "first",
                 "second", "dest", "outputs", "arguments", "served", "loop")

    def __init__(self, key, reads, registers, sources, columns, literals, ufuncs, first, second,
                 dest, outputs):
        self.key, self.reads = key, reads
        self.registers, self.sources, self.columns, self.literals = (
            registers, sources, columns, literals)
        self.ufuncs, self.first, self.second, self.dest = ufuncs, first, second, dest
        self.outputs = outputs
        self.arguments = 1 + max(sources, default=-1)  # of vals, d1, d2, those read
        self.served = 0
        self.loop = None  # the C loop once asked for; False where there is none

    def __call__(self, vals, d1, d2, out):
        if self.loop is None:
            self.served += vals.shape[0]
            if self.served >= NATIVE_PROBES:
                from . import native

                self.loop = native.compile_probes(self) or False
        if self.loop and self.loop(vals, d1, d2, out):
            return
        arrays = [a.T for a in (vals, d1, d2)[:self.arguments]]
        x = [*np.empty((self.registers, vals.shape[0])),
             *[arrays[k][j] for k, j in zip(self.sources, self.columns)], *self.literals]
        for f, a, b, r in zip(self.ufuncs, self.first, self.second, self.dest):
            if b == _UNARY:
                f(x[a], x[r])
            else:
                f(x[a], x[b], x[r])
        for c, i in enumerate(self.outputs):
            out[:, c] = x[i]


# The cache keeps the tapes of at most CACHE_SIZE (table, expression)
# pairs and evicts the least recently used.  Measured on the avbench
# workloads, a pass adds 6 entries (gauge_scan's fresh twins), action
# none after its first (its fresh variation fields share their shapes'
# jet tapes, read_table), orbit and cloud none after set-up, and every
# pass uses each entry used again: no eviction takes a tape in use.
CACHE_SIZE = 256
_CACHE = {}  # (table, text, variables) -> _Tape, in order of last use


def _tape(table: str, ast, varnames) -> _Tape:
    """The cached tape of the table `table` (the name of a table's
    function in this module, looked up at each walk) of ast over
    varnames.  The cache holds one walk per (table, text, variable
    layout), at most CACHE_SIZE of them; the text is the node's kept
    one, so a hit renders nothing.  ast may be given as its text (a jet
    shape's, read_table), parsed only on a miss."""
    text = ast if type(ast) is str else to_text(ast)
    key = (table, text, tuple(varnames))
    tape = _CACHE.pop(key, None)
    if tape is None:
        tape = _Tape(key, *globals()[table](parse(ast) if type(ast) is str else ast, varnames))
        if len(_CACHE) >= CACHE_SIZE:
            del _CACHE[next(iter(_CACHE))]  # the least recently used
    _CACHE[key] = tape  # now the most recently used
    return tape


def compile_field(ast: ExprAst, varnames, *, reads=FULL, _table="_batched"):
    """Compile an expression into a batched second-order evaluator.

    Returns kernel(vals, d1, d2, out) writing out[:, c] = output
    reads[c] of the module docstring's contract, so `out` has
    len(reads) columns; it runs only the records those outputs depend
    on.  The library passes _table, the name of a table's function in
    this module (_lagrangian, _gradient, _jet), for the kernel of that
    table's outputs `reads`.  The tape comes from the cache (_tape), with
    its kernel per `reads`.
    """
    return _tape(_table, ast, varnames).kernel(reads)


# The expression node each template's record reads back as (gradient_exprs)
_NODES = {
    "-{}": functools.partial(Unary, "-"),
    **{f"{{}} {op} {{}}": functools.partial(Binary, op) for op in "+-*/"},
    "math.pow({}, {})": functools.partial(Binary, "^"),
    **{template: lambda a, f=name: Call(f, (a,))
       for name, template in {**_CALLS, "sign": _SIGN}.items()},
}
_READBACK = tuple(map(_NODES.__getitem__, _UFUNCS))  # by op code


def _literal(value: float) -> ExprAst:
    """The node of a literal that the emitter folds back to `value`.  A
    non-finite Number's text (inf, nan) would re-parse as a variable, so
    +-inf is +-1/0, and NaN is (-1)^0.5, since the emitter folds 0/u to 0."""
    if math.isnan(value):
        return Binary("^", Number(-1.0), Number(0.5))
    if math.isinf(value):
        return Binary("/", Number(math.copysign(1.0, value)), Number(0.0))
    return Number(value)


def gradient_exprs(ast: ExprAst, varnames) -> list:
    """d(ast)/d(x_j) for each name x_j of varnames, as expression trees:
    the records of ast's gradient table (_gradient), from the cache
    (_tape), each read back as the node of its template (_NODES) on its
    operands' nodes.  A register's node is that of the record that last
    wrote it, a column's is its variable and a literal's is _literal.
    A record t * t, the emitter's x^2, reads back as t^2.0, so that a
    walk of the tree emits it as the same one record."""
    tape = _tape("_gradient", ast, varnames)
    nodes = [None] * tape.registers + [Var(varnames[j]) for j in tape.columns]
    nodes += [_literal(float(value)) for value in tape.literals]
    for code, a, b, r in zip(tape.codes, tape.first, tape.second, tape.dest):
        if b == _UNARY:
            nodes[r] = _READBACK[code](nodes[a])
        elif a == b and code == _CODES["{} * {}"]:
            nodes[r] = Binary("^", nodes[a], Number(2.0))
        else:
            nodes[r] = _READBACK[code](nodes[a], nodes[b])
    return [nodes[s] for s in tape.outputs[1:]]


def compile_solve(ast: ExprAst, varnames, forcing=()):
    """Compile the function of generate_solve_source: called with the
    2n coordinates of a point as floats, it returns the tuple of floats
    described there.  Outside the real domain it returns non-finite
    entries or raises ValueError or ArithmeticError (Python's math
    functions raise where numpy returns NaN)."""
    return _build(generate_solve_source(ast, varnames, forcing), "_terms")


def eval_batch(kernel, vals, d1, d2, width: int = 4) -> np.ndarray:
    """Convenience wrapper allocating the output array, of `width`
    columns: len(reads) of the kernel's compile_field."""
    vals, d1, d2 = (a if a is None else np.ascontiguousarray(a, dtype=float)
                    for a in (vals, d1, d2))
    out = np.empty((vals.shape[0], width))
    kernel(vals, d1, d2, out)
    return out


# Rows per kernel call on the batched paths.  A kernel holds one array
# per live temporary, so a call's working set grows with its batch; this
# caps it.  A schedule integral calls its integrand on spans of at most
# BATCH nodes, a whole number of its 512-node chunks (geometry.CHUNK), so
# a span is one call; benchmarks/kernel_batch.py measures the cost per
# row against the batch size.
BATCH = 4096


def eval_chunked(kernel, vals, d1, d2, width: int = 4) -> np.ndarray:
    """eval_batch in calls of at most BATCH rows.  A seed argument is an
    array with a row per row of vals, or None where the kernel reads no
    seed.  Floating-point warnings are silenced: read_table checks the
    outputs and raises DomainError for a non-finite one (see
    require_finite)."""
    rows = vals.shape[0]
    out = np.empty((rows, width))
    with np.errstate(all="ignore"):
        for lo in range(0, rows, BATCH):
            part = slice(lo, lo + BATCH)
            kernel(vals[part], *[None if s is None else s[part] for s in (d1, d2)], out[part])
    return out


def require_finite(results, ast: ExprAst, varnames, vals):
    """Raise DomainError for the first point with a non-finite entry in
    one of `results` (arrays with one row per point, the rows of vals).
    One flat check passes finite results; only a failure looks for the
    point."""
    if all(np.isfinite(r).all() for r in results):
        return
    finite = np.logical_and.reduce([np.isfinite(r.reshape(len(r), -1)).all(axis=1)
                                    for r in results])
    raise domain_error(ast, varnames, vals[int(np.argmin(finite))])


def _shape(ast: ExprAst, params: list) -> str:
    """The text of ast with each literal operand of + - * / beside a
    subtree holding a variable, other than 0, 1 and a non-finite one,
    written as the parameter _k, k its index in `params`, to which its
    value is appended.  A literal in an exponent or a call's argument
    stays: a subtree with no variable, a call and an exponent are their
    kept texts, and the rest is written as exprlang renders it."""
    kind = type(ast)
    if kind is Var or kind is Call or not ast.variables:
        return ast.text
    if kind is Unary:
        return f"(-{_shape(ast.child, params)})"
    if ast.op == "^":
        return f"({_shape(ast.left, params)}^{ast.right.text})"
    sides = []
    for side, other in ((ast.left, ast.right), (ast.right, ast.left)):
        if (type(side) is Number and other.variables and side.value != 0.0
                and side.value != 1.0 and math.isfinite(side.value)):
            sides.append(f"_{len(params)}")
            params.append(side.value)
        else:
            sides.append(_shape(side, params))
    return f"({sides[0]}{ast.op}{sides[1]})"


# The operator of each op whose parameter-only records _folds evaluates
_ARITH = {_CODES[template]: f for template, f in (
    ("-{}", operator.neg), ("{} + {}", operator.add), ("{} - {}", operator.sub),
    ("{} * {}", operator.mul), ("{} / {}", operator.truediv))}


def _folds(tape: _Tape, params) -> bool:
    """Whether the walk of a jet shape's literals, bound to `params` (the
    last columns of vals), folds where the shape's tape computes: at a
    record whose operands are all parameters or literals, run here in
    order, that is 0, 1 or non-finite (the emitter folds on its
    literal), or a square, a power or a call (math computes the literal
    where the tape runs x * x or numpy).  Its + - * / and negation give
    the tape's bits, so where none folds both tapes compute the same
    values."""
    nviews = len(tape.sources)
    first = len(tape.key[2]) - len(params)  # the column of params[0]
    value = {tape.registers + i: params[j - first]
             for i, j in enumerate(tape.columns) if j >= first}
    value.update({tape.registers + nviews + i: float(v) for i, v in enumerate(tape.literals)})
    for code, a, b, r in zip(tape.codes, tape.first, tape.second, tape.dest):
        if a not in value or b != _UNARY and b not in value:
            value.pop(r, None)  # r now holds a value of t
            continue
        f = _ARITH.get(code)
        if f is None or a == b and f is operator.mul:
            return True
        try:
            v = f(value[a]) if b == _UNARY else f(value[a], value[b])
        except ZeroDivisionError:
            return True
        if v == 0.0 or v == 1.0 or not math.isfinite(v):
            return True
        value[r] = v
    return False


def _jet_binding(ast: ExprAst, varnames) -> tuple:
    """(shape text, variables, parameter values) of ast's jet table over
    varnames: its _shape, varnames and then the parameters _0.._{k-1},
    and their values; or () where ast's own text keys the table, as no
    literal lifts or the binding folds (_folds).  Kept on the node, as
    its text is: the library reads a jet table over ("t",) alone."""
    binding = ast.__dict__.get("jet_binding")
    if binding is None:
        params = []
        text = _shape(ast, params)
        layout = (*varnames, *[f"_{k}" for k in range(len(params))])
        binding = ()
        if params and not _folds(_tape("_jet", text, layout), params):
            binding = (text, layout, params)
        ast.__dict__["jet_binding"] = binding
    return binding


def read_table(table: str, ast: ExprAst, varnames, vals, reads) -> np.ndarray:
    """The outputs `reads` of the table `table` (compile_field's _table)
    of ast at the rows of vals, one row per point; DomainError for the
    first point where one is not finite (require_finite).  A jet table
    runs its shape's kernel (_jet_binding) on vals with a column per
    parameter, or, where nothing lifts or the binding folds, the kernel
    of ast's text: the same bits and the same DomainError."""
    binding = _jet_binding(ast, varnames) if table == "_jet" else ()
    if binding:
        text, layout, params = binding
        kernel = _tape(table, text, layout).kernel(reads)
        bound = np.empty((vals.shape[0], len(layout)))
        bound[:, :len(varnames)] = vals
        bound[:, len(varnames):] = params
    else:
        kernel, bound = compile_field(ast, varnames, reads=reads, _table=table), vals
    out = eval_chunked(kernel, bound, None, None, len(reads))
    require_finite((out,), ast, varnames, vals)
    return out


def domain_error(ast: ExprAst, varnames, point) -> DomainError:
    """The DomainError for one point whose kernel outputs are not all
    finite; point holds the values of varnames (and may hold more, such
    as a Lagrangian table's accelerations, which are not named).

    The interpreter evaluates ast again there on hyper-dual scalars; the
    first domain error it meets is the reason, else the kernel output is
    reported as non-finite.  Whether and where Hyperdual raises depends
    on the values alone, never on the seeds, so one unseeded evaluation
    finds the reason of every probe of the point.  The message names the
    expression and the point."""
    reason = "non-finite kernel output"
    try:
        evaluate(ast, {name: Hyperdual(float(x)) for name, x in zip(varnames, point)})
    except (DomainError, ArithmeticError) as exc:
        reason = str(exc)
    point = ", ".join(f"{name}={float(x)!r}" for name, x in zip(varnames, point))
    return DomainError(f"{reason} in {to_text(ast)} at {point}")
