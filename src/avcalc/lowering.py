"""The syntax of every generated program: the one module that knows
Python, numpy and C.

The kernel emitter (kernels._Emitter) writes one op set, Python on
scalars: the operators and the templates here (_SIGN, _CALLS) on atoms
that are names or literals (_num); kernels._render turns its lines into
records (name, template, operands).  A language is a table of its
differences from Python (_Dialect: PYTHON, _NUMPY and C), through which
_assignments and _lines write records and statements.  Every operation
keeps its operands and their order, so every language computes the
same doubles.  Each program has one frame per language: the batched
kernel in numpy (numpy_kernel) and as a C loop over probes
(probe_loop), the fused solve terms in Python (solve_function), and the
RK4 loop in Python and in C (step_loop); the C frames share one
(_c_function).  Besides its syntax C differs in three rules that keep
every double and every hand-back of the Python or numpy rendering:

  * every libm call, division and power is followed by a check that
    returns the step or probe index k unless its value is finite.
    Python's math functions, / and ** raise only where their value
    would not be finite, so the C loop hands back wherever the Python
    loop does; it also hands back where such an operation passes on an
    infinity or a NaN without a raise, and the caller repeats that step
    or call on its own path.  IEEE arithmetic thus never absorbs one of
    C's infinities later (1/exp(1000) would be 0, where math.exp raises);
  * both powers, x ** (p) and math.pow(x, p), are libm's pow: its
    C99 Annex F special cases give Python's value wherever that is
    finite, and the check above hands back wherever Python raises
    (tests/test_dynamics.py::TestLibmPow pins this on ctypes' libm);
  * max and sign compare as Python's max and the scalar sign do
    (av_max, not fmax).
"""
from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

_ZERO = "0.0"
_ONE = "1.0"
# sign on scalars, as np.sign computes it
_SIGN = "(1.0 if {0} > 0.0 else (-1.0 if {0} < 0.0 else {0} + 0.0))"
# the math functions of the rules, called as math.{name}
_MATH = ("sin", "cos", "tan", "exp", "log", "sqrt")
_CALLS = {"abs": "abs({})", **{name: f"math.{name}({{}})" for name in _MATH}}

_NONFINITE = {"math.inf": math.inf, "(-math.inf)": -math.inf, "math.nan": math.nan}


def _lit(atom):
    """The value of a literal atom; None for a temporary or slot name.
    Finite literals are `repr` of a float, so they start with a digit
    or a minus sign, and no name does."""
    if atom[0].isdigit() or atom[0] == "-":
        return float(atom)
    return _NONFINITE.get(atom)


def _num(value: float) -> str:
    """Source text of a float literal; `repr` of inf or nan is not a
    Python expression."""
    if math.isfinite(value):
        return repr(value)
    if math.isnan(value):
        return "math.nan"
    return "math.inf" if value > 0 else "(-math.inf)"


def _c_num(value: float) -> str:
    """C text of a float literal: `repr` of a finite float is one, which
    a C compiler rounds to the same double; a negative one is
    parenthesized, so no operator before it makes `--`."""
    if math.isnan(value):
        return "NAN"
    if math.isinf(value):
        return "INFINITY" if value > 0 else "(-INFINITY)"
    text = repr(value)
    return f"({text})" if text[0] == "-" else text


class _Dialect(NamedTuple):
    """How one language writes the emitter's op set and the statements
    of a program's body."""

    ops: dict  # record template -> its text here, where it differs from Python's
    checked: frozenset  # record templates whose value must be finite, else return k
    num: Callable  # float -> its literal
    assign: str  # statement assigning {1} to {0}
    guard: str  # statement returning k unless the condition {} holds
    handback: str  # statement returning k
    finite: str  # whether {} is finite
    max: Callable  # texts -> their largest, picked as Python's max picks it
    chain: str  # the comparisons {0} {1} {2} {3} {4}, as Python chains them
    conj: str  # joins conditions that must all hold
    inf: str  # +infinity

    def text(self, template: str) -> str:
        """A Python template (a record's, or abs({}) of the guards) in
        this language."""
        return self.ops.get(template, template)

    def atom(self, atom: str) -> str:
        """An atom of _render (a name, or a literal as _num writes it) in
        this language."""
        value = _lit(atom)
        return atom if value is None else self.num(value)


PYTHON = _Dialect(
    ops={}, checked=frozenset(), num=_num, assign="{} = {}", guard="if not {}:\n    return k",
    handback="return k", finite="_isfinite({})",
    max=lambda texts: f"max({', '.join(texts)})", chain="{0} {1} {2} {3} {4}", conj=" and ",
    inf="_inf")
# numpy on arrays: the ufunc that kernels._UFUNCS gives each template, as text
_NUMPY = PYTHON._replace(ops={
    "math.pow({}, {})": "{} ** ({})", "abs({})": "np.abs({})", _SIGN: "np.sign({})",
    **{f"math.{name}({{}})": f"np.{name}({{}})" for name in _MATH}})
# libm's functions, as the emitter calls them through math; both its
# powers are libm's pow, whose C99 Annex F special cases are those of
# Python's float ** float and math.pow wherever their value is finite
_LIBM = {f"math.{name}({{}})": f"{name}({{}})" for name in _MATH}
_POWERS = ("{} ** ({})", "math.pow({}, {})")
C = _Dialect(
    ops={**_LIBM, "abs({})": "__builtin_fabs({})", **dict.fromkeys(_POWERS, "pow({}, {})"),
         _SIGN: "({0} > 0.0 ? 1.0 : ({0} < 0.0 ? -1.0 : {0} + 0.0))"},
    checked=frozenset([*_LIBM, *_POWERS, "{} / {}"]), num=_c_num, assign="{} = {};",
    guard="if (!({})) return k;", handback="return k;", finite="isfinite({})",
    max=lambda texts: functools.reduce("av_max({}, {})".format, texts),
    chain="{0} {1} {2} && {2} {3} {4}", conj=" && ", inf="INFINITY")


def _assignments(records, d) -> list:
    """The statements of the records of _render in the dialect d (see
    _lines): each record's name assigned its operation, and in a dialect
    that checks the record's operation (d.checked: C checks every libm
    call, division and power), the check that hands back unless the
    value is finite."""
    statements = []
    for name, template, args in records:
        statements.append((name, d.text(template).format(*map(d.atom, args))))
        if template in d.checked:
            statements.append((None, d.finite.format(name)))
    return statements


def _lines(statements, d) -> list:
    """The source lines of `statements` in the dialect d: (name, text)
    assigns text to name, (None, condition) returns k unless the
    condition holds, and (None, None) returns k."""
    lines = []
    for name, text in statements:
        if name is not None:
            lines.append(d.assign.format(name, text))
        else:
            lines += (d.handback if text is None else d.guard.format(text)).split("\n")
    return lines


def _indented(lines, depth: int) -> str:
    return "".join(" " * depth + line + "\n" for line in lines)


def _def(signature: str, lines) -> str:
    """The Python function `signature` whose body is `lines`."""
    return f"def {signature}:\n" + _indented(lines, 4)


_ARRAYS = ("vals", "d1", "d2")  # the batched kernel's arguments that records read


def numpy_kernel(inputs, records, results) -> str:
    """The batched kernel of kernels._batched's (inputs, records,
    results) in numpy: each input atom bound to its column j of the k-th
    argument, inputs[atom] = (k, j), then the records, then the outputs
    written into out's columns."""
    preamble = [f"{atom} = {_ARRAYS[k]}[:,{j}]" for atom, (k, j) in inputs.items()]
    body = (preamble + _lines(_assignments(records, _NUMPY), _NUMPY)
            + [f"out[:,{k}] = {atom}" for k, atom in enumerate(results)])
    return _def("_kernel(vals, d1, d2, out)", body)


def solve_function(arguments: int, records, results) -> str:
    """The Python function _terms(w0, .., w{arguments-1}) that runs the
    records and returns the tuple of the atoms `results`."""
    args = ", ".join(f"w{j}" for j in range(arguments))
    return _def(f"_terms({args})", _lines(_assignments(records, PYTHON), PYTHON)
                + [f"return ({', '.join(results)},)"])


_HELPERS = """\
#include <math.h>

/* Python's max(a, b): b only if it compares greater than a. */
static double av_max(double a, double b)
{
    return b > a ? b : a;
}
"""
# the IEEE exceptions numpy reports after a ufunc, as np.errstate says
_RAISED = "FE_DIVBYZERO | FE_INVALID | FE_OVERFLOW | FE_UNDERFLOW"


def _c_function(head: str, signature: str, declarations, count: str, lines, result: str) -> str:
    """C source: `head`, then the function `signature` that runs its
    `declarations`, then the C `lines` for k = 0 .. count - 1, and
    returns `result`."""
    return (f"{head}\n{signature}\n{{\n" + _indented(declarations, 4)
            + f"    for (long k = 0; k < {count}; k++) {{\n" + _indented(lines, 8)
            + f"    }}\n    return {result};\n}}\n")


_DIFFER = """\

/* Whether the doubles at a and b differ in a bit (-0.0 and 0.0 do),
   without a library call. */
static int av_differ(const double *a, const double *b)
{
    unsigned long long x, y;
    __builtin_memcpy(&x, a, sizeof x);
    __builtin_memcpy(&y, b, sizeof y);
    return x != y;
}
"""


def _point_records(loads, records):
    """(point, rest, rename): the records of probe_loop split into the
    point records, whose operands are only atoms of vals, literals or
    earlier point records, each renamed p{i} so that no later record
    that reuses its register overwrites it; and the other records, in
    their order, reading the point records by those names.  rename maps
    an atom that holds a point value after the last record to its name."""
    rename = {atom: atom for atom, (a, _j) in loads.items() if a == 0}
    point, rest = [], []
    for name, template, args in records:
        held = all(arg in rename or _lit(arg) is not None for arg in args)
        args = [rename.get(arg, arg) for arg in args]
        if held:
            rename[name] = f"p{len(point)}"
            point.append((rename[name], template, args))
        else:
            rename.pop(name, None)
            rest.append((name, template, args))
    return point, rest, rename


def probe_loop(loads, records, outputs) -> str:
    """The C function

        long av_probes(long probes, const double *vals, long vals_n,
                       const double *d1, long d1_n, const double *d2, long d2_n,
                       double *out, long out_n)

    over C-contiguous rows of vals_n, d1_n, d2_n and out_n doubles.
    Probe k loads the atoms `loads` (atom -> (a, j): column j of the
    a-th of vals, d1 and d2), runs the records (with C's checks),
    checks that the atoms `outputs` are finite and writes them to row k
    of out.  It returns the first probe k whose check fails, with rows
    0..k-1 written; otherwise 0 if the call raised one of the IEEE
    exceptions numpy reports (tested once, after the last probe: a test
    per probe made the charged particle's loop half as slow again),
    else `probes`.

    The library sends a point's derivatives in several directions as
    probes that repeat its vals row (2n for an Euler-Lagrange covector,
    n for a momentum), so the loads of vals and the point records
    (_point_records), which read nothing else, run once per run of
    equal rows: at k = 0 and wherever row k differs from row k - 1 in a
    bit of a column loaded (-0.0 is not 0.0: sin keeps the sign).  The
    vector forward mode of Griewank & Walther, Evaluating Derivatives,
    ch. 3: avbench cloud's twin of the charged particle runs 36 of its
    174 records there, its four libm calls among them, and its loop
    takes 26 ns a probe on cloud_large's rows against 54-56 when every
    probe ran every record (shared 2-vCPU Xeon, best of 30 calls).
    Equal operands compute equal doubles and raise equal IEEE flags, and
    a point record's check fails first on the first probe of its run,
    so the loop returns what it returned with every record run per
    probe.  A kernel with no point record, or none that is not one (a
    kernel of the value alone), runs every record per probe."""
    point, rest, rename = _point_records(loads, records)
    if not (point and rest):
        point, rest, rename = [], records, {}
    names = [*loads, *[name for name, _template, _args in point],
             *dict.fromkeys(name for name, _template, _args in rest)]
    outputs = [rename.get(a, a) for a in outputs]

    def load(atom):
        k, j = loads[atom]
        return atom, f"{_ARRAYS[k]}[k * {_ARRAYS[k]}_n + {j}]"

    hoisted = [atom for atom, (k, _j) in loads.items() if point and k == 0]
    lines = []
    if point:
        lines = ["if (k == 0", *[f"    || av_differ(&vals[k * vals_n + {j}], "
                                 f"&vals[(k - 1) * vals_n + {j}])"
                                 for j in (loads[atom][1] for atom in hoisted)]]
        lines[-1] += ") {"
        lines += ["    " + line for line in _lines([*map(load, hoisted),
                                                     *_assignments(point, C)], C)]
        lines.append("}")
    lines += _lines([*[load(atom) for atom in loads if atom not in hoisted],
                     *_assignments(rest, C),
                     (None, C.conj.join(C.finite.format(C.atom(a)) for a in outputs)),
                     *[(f"out[k * out_n + {c}]", C.atom(a)) for c, a in enumerate(outputs)]], C)
    return _c_function(
        "#include <fenv.h>\n#include <math.h>\n" + (_DIFFER if point else ""),
        "long av_probes(long probes, const double *vals, long vals_n,\n"
        "               const double *d1, long d1_n, const double *d2, long d2_n,\n"
        "               double *out, long out_n)",
        ([f"double {', '.join(names)};"] if names else []) + [f"feclearexcept({_RAISED});"],
        "probes", lines, f"fetestexcept({_RAISED}) ? 0 : probes")


def step_loop(parameters, local_names, body, d) -> str:
    """The RK4 loop of rk4loop.generate_step_source around the statements
    `body` of one step, in Python (d = PYTHON: the function _run) or in
    C (d = C: the function av_run, with the helpers it calls)."""
    if d is C:
        typed = ", ".join(("long " if p == "steps" else "double ") + p for p in parameters)
        assigned = (name for name, _text in body if name is not None and name.isidentifier())
        local = [name for name in dict.fromkeys([*local_names, *assigned])
                 if name not in parameters and name != "at"]
        return _c_function(
            _HELPERS, f"long av_run({typed}, double *xm, double *vm)",
            ["double hh = 0.5 * h;", "double h6 = h / 6.0;", f"double {', '.join(local)};",
             "long at;"], "steps", _lines(body, C), "steps")
    return _def(f"_run({', '.join(parameters)}, xs, vs)", [
        # flat views of the C-contiguous rows: a float stored through
        # a memoryview costs a third of a numpy item assignment
        "xm = memoryview(xs).cast('B').cast('d')",
        "vm = memoryview(vs).cast('B').cast('d')",
        "hh = 0.5 * h",
        "h6 = h / 6.0",
        "for k in range(steps):",
        "    try:",
        *("        " + line for line in _lines(body, d)),
        "    except (ValueError, ArithmeticError):",
        "        return k",
        "return steps"])
