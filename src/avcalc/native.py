"""Generated C for the two hot loops: the RK4 loop of a long orbit, and
the probe loop of a batched kernel that has served enough probes.

Both are written from lists of statements through a table of one
language's differences from Python (kernels._Dialect); C, below, is the
table for C, for the emitter's one op set.  Besides its syntax it
differs in three rules that keep every double and every hand-back of
the Python or numpy rendering:

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

generate_step_source writes rk4loop's RK4 loop (compile_step).
generate_probe_source writes a batched kernel's live records
(kernels._Tape.live) as a loop over probes (compile_probes): the same
operations on the same operands in the same order, on the doubles of
one probe at a time.  Only a kernel whose every record gives libm's
bits in numpy may be written (_EXACT): IEEE's + - * / and sqrt, abs and
sign, and numpy's sin and cos, which equal libm's on every argument
(tests/test_native_kernels.py pins this).  numpy's exp, log, tan and
power differ from libm's on some arguments, so a kernel with one of
them stays on its tape.  Besides the checks above, the probe loop
checks each output, and hands back if the call raised an IEEE exception
that numpy reports (divide, invalid, overflow, underflow), so that the
tape, run again on the whole call, gives every NaN, infinity, warning
and error.

A loop is compiled by `cc` with CC_FLAGS in a temporary directory,
loaded by ctypes, and the directory is deleted: nothing stays on disk,
and no compiler process outlives the build.  Loops are kept by their C
text for the life of the process.  dynamics imports this module at an
engine's first build (dynamics.NATIVE_STEPS), a kernel at its first
tier-up (kernels.NATIVE_PROBES), so importing avcalc starts neither this
module nor subprocess.
"""
from __future__ import annotations

import ctypes
import functools
import math
import os
import shutil
import subprocess
import tempfile

import numpy as np

from . import rk4loop
from .exprlang import ExprAst
from .kernels import _MATH, _SIGN, _UFUNCS, _UNARY, _assignments, _Dialect, _lines
from .kernels import _num as _python_num

_HELPERS = """\
#include <math.h>

/* Python's max(a, b): b only if it compares greater than a. */
static double av_max(double a, double b)
{
    return b > a ? b : a;
}
"""


def _loop(parameters, local_names, body):
    """The C function av_run around the statements `body` of one step,
    with the helpers it calls: the loop of generate_step_source."""
    typed = ", ".join(("long " if p == "steps" else "double ") + p for p in parameters)
    assigned = (name for name, _text in body if name is not None and name.isidentifier())
    local = [name for name in dict.fromkeys([*local_names, *assigned])
             if name not in parameters and name != "at"]
    return (_HELPERS + f"\nlong av_run({typed}, double *xm, double *vm)\n{{\n"
            "    double hh = 0.5 * h;\n"
            "    double h6 = h / 6.0;\n"
            f"    double {', '.join(local)};\n"
            "    long at;\n"
            "    for (long k = 0; k < steps; k++) {\n"
            + "\n".join(" " * 8 + ln for ln in _lines(body, C)) + "\n"
            "    }\n"
            "    return steps;\n"
            "}\n")


def _num(value: float) -> str:
    """C text of a float literal: `repr` of a finite float is one, which
    a C compiler rounds to the same double; a negative one is
    parenthesized, so no operator before it makes `--`."""
    if math.isnan(value):
        return "NAN"
    if math.isinf(value):
        return "INFINITY" if value > 0 else "(-INFINITY)"
    text = repr(value)
    return f"({text})" if text[0] == "-" else text


# libm's functions, as the emitter calls them through math; both its
# powers are libm's pow, whose C99 Annex F special cases are those of
# Python's float ** float and math.pow wherever their value is finite
_LIBM = {f"math.{name}({{}})": f"{name}({{}})" for name in _MATH}
_POWERS = ("{} ** ({})", "math.pow({}, {})")
C = _Dialect(
    ops={**_LIBM, "abs({})": "__builtin_fabs({})", **dict.fromkeys(_POWERS, "pow({}, {})"),
         _SIGN: "({0} > 0.0 ? 1.0 : ({0} < 0.0 ? -1.0 : {0} + 0.0))"},
    checked=frozenset([*_LIBM, *_POWERS, "{} / {}"]), num=_num, assign="{} = {};",
    guard="if (!({})) return k;", handback="return k;", finite="isfinite({})",
    max=lambda texts: functools.reduce("av_max({}, {})".format, texts),
    chain="{0} {1} {2} && {2} {3} {4}", conj=" && ", inf="INFINITY", loop=_loop)

# The C compiler's flags, besides those that build a shared object
# (-shared -fPIC): -O2, as -O0 halves the loop's speed; -fno-fast-math,
# so no operation is reassociated or assumed finite; -ffp-contract=off,
# so no a * b + c is fused into one rounding (an FMA); -fno-builtin, so
# every libm call runs at run time in the libm Python's math module
# calls, never folded by the compiler.
CC_FLAGS = ("-O2", "-fno-fast-math", "-ffp-contract=off", "-fno-builtin", "-shared", "-fPIC")
CC_TIMEOUT_S = 60
_LOOPS = {}  # C text of an RK4 loop -> its loaded loop
_PROBE_LOOPS = {}  # C text of a probe loop -> its loaded loop


def _compiler():
    """The path of the C compiler `cc` on PATH, or None."""
    return shutil.which("cc")


def generate_step_source(ast: ExprAst, varnames, forcing=()) -> str:
    """rk4loop.generate_step_source in C: the function

        long av_run(double x0, .., double h, long steps, .., double *xm, double *vm)

    with the Python loop's arguments in its order (xm and vm the data of
    xs and vs) and its return value."""
    return rk4loop.generate_step_source(ast, varnames, forcing, C)


def compile_step(ast: ExprAst, varnames, forcing=()):
    """The loop of generate_step_source compiled and loaded, called
    with the Python loop's arguments (xs and vs the caller's own
    C-contiguous float arrays of steps + 1 rows, passed by address); None
    when there is no C compiler or the build fails.  Loops are kept by
    their C text, so a Lagrangian and forcing whose text is another's
    share its loop, and a loaded loop stays for the life of the process."""
    src = generate_step_source(ast, varnames, forcing)
    run = _LOOPS.get(src)
    if run is None:
        n = len(varnames) // 2
        loop = _build(src, "av_run", [ctypes.c_double] * (2 * n + 1) + [ctypes.c_long]
                      + [ctypes.c_double] * (2 * n) + [ctypes.c_void_p] * 2)
        if loop is None:
            return None

        def run(*args):
            return loop(*args[:-2], _address(args[-2]), _address(args[-1]))

        _LOOPS[src] = run
    return run


def _build(src: str, name: str, argtypes):
    """The function `name` of the C source `src`, compiled and loaded,
    taking `argtypes` and returning a C long; None if that fails."""
    cc = _compiler()
    if cc is None:
        return None
    try:
        with tempfile.TemporaryDirectory(prefix="avcalc-") as tmp:
            source, library = os.path.join(tmp, "loop.c"), os.path.join(tmp, "loop.so")
            with open(source, "w", encoding="ascii") as fh:
                fh.write(src)
            built = subprocess.run([cc, *CC_FLAGS, source, "-o", library, "-lm"],
                                   stdin=subprocess.DEVNULL, capture_output=True,
                                   timeout=CC_TIMEOUT_S)
            if built.returncode != 0:
                return None
            loop = getattr(ctypes.CDLL(library), name)
    except (OSError, subprocess.SubprocessError):  # no temporary directory, a hung cc, ...
        return None
    loop.argtypes = argtypes
    loop.restype = ctypes.c_long
    return loop


# The ops whose numpy ufunc gives libm's bits on every argument, by
# ufunc, with their template: IEEE's + - * / and sqrt, abs, sign, and
# numpy's sin and cos
_EXACT = {_UFUNCS[t]: t for t in ("-{}", "{} + {}", "{} - {}", "{} * {}", "{} / {}", "abs({})",
                                   _SIGN, "math.sqrt({})", "math.sin({})", "math.cos({})")}
# the array of each argument of a kernel, and the atom of its column j (kernels._batched)
_ARGUMENTS = ("vals", "d1", "d2")
_VIEWS = ("w{}", "w{}a", "w{}b")
# the IEEE exceptions numpy reports after a ufunc, as np.errstate says
_RAISED = "FE_DIVBYZERO | FE_INVALID | FE_OVERFLOW | FE_UNDERFLOW"


def _probe_source(kernel):
    """(generate_probe_source's text, the least number of columns of
    vals, d1, d2 and out it reads), or None."""
    templates = [_EXACT.get(f) for f in kernel.ufuncs]
    if None in templates:
        return None
    nviews = len(kernel.sources)
    widths = [0, 0, 0, len(kernel.outputs)]
    loads = {}  # the atom of each column read -> its load

    def atom(slot):
        """The atom of a slot as _render writes it: a register t{r}; column
        j of vals, d1 and d2, w{j}, w{j}a and w{j}b; or a literal."""
        if slot < kernel.registers:
            return f"t{slot}"
        view = slot - kernel.registers
        if view >= nviews:
            return _python_num(float(kernel.literals[view - nviews]))
        k, j = kernel.sources[view], kernel.columns[view]
        widths[k] = max(widths[k], j + 1)
        name = _VIEWS[k].format(j)
        loads[name] = f"{_ARGUMENTS[k]}[k * {_ARGUMENTS[k]}_n + {j}]"
        return name

    records = [(atom(r), template, [atom(a)] if b == _UNARY else [atom(a), atom(b)])
               for template, a, b, r in zip(templates, kernel.first, kernel.second, kernel.dest)]
    outputs = [atom(slot) for slot in kernel.outputs]
    body = [*loads.items(), *_assignments(records, C),
            (None, C.conj.join(C.finite.format(C.atom(a)) for a in outputs)),
            *[(f"out[k * out_n + {c}]", C.atom(a)) for c, a in enumerate(outputs)]]
    local = ", ".join([*loads, *dict.fromkeys(name for name, _t, _a in records)])
    src = ("#include <fenv.h>\n#include <math.h>\n\n"
           "long av_probes(long probes, const double *vals, long vals_n,\n"
           "               const double *d1, long d1_n, const double *d2, long d2_n,\n"
           "               double *out, long out_n)\n{\n"
           + (f"    double {local};\n" if local else "")
           + f"    feclearexcept({_RAISED});\n"
           "    for (long k = 0; k < probes; k++) {\n"
           + "\n".join(" " * 8 + ln for ln in _lines(body, C)) + "\n"
           "    }\n"
           f"    return fetestexcept({_RAISED}) ? 0 : probes;\n"
           "}\n")
    return src, widths


def generate_probe_source(kernel):
    """A kernel of compile_field (kernels._Kernel: the live records of
    its tape, _Tape.live) as the C function

        long av_probes(long probes, const double *vals, long vals_n,
                       const double *d1, long d1_n, const double *d2, long d2_n,
                       double *out, long out_n)

    over C-contiguous rows of vals_n, d1_n, d2_n and out_n doubles, of
    which it reads and writes the kernel's columns.  Probe k loads the
    columns it reads, runs the kernel's records (with C's checks),
    checks that its outputs are finite and writes row k of out.  Returns
    the first probe k whose check fails, with rows 0..k-1 written;
    otherwise 0 if the call raised one of the IEEE exceptions numpy
    reports (tested once, after the last probe: a test per probe made
    the charged particle's loop half as slow again), else `probes`.  None
    when a live record's ufunc does not give libm's bits (_EXACT)."""
    found = _probe_source(kernel)
    return None if found is None else found[0]


_PROBE_ARGTYPES = [ctypes.c_long] + [ctypes.c_void_p, ctypes.c_long] * 4
_FLOAT = np.dtype(np.float64)
_NOTHING = ctypes.c_char * 0  # a ctypes view of none of a buffer's bytes, at its address


def _address(a) -> int:
    """The data address of the C-contiguous ndarray `a`; for a writeable
    one read from a ctypes view of it, a third of the cost of a.ctypes.data."""
    return ctypes.addressof(_NOTHING.from_buffer(a)) if a.flags.writeable else a.ctypes.data


def _fits(a, probes, width):
    """Whether `a` is a C-contiguous float64 ndarray of `probes` rows of
    at least `width` columns."""
    return (type(a) is np.ndarray and a.dtype is _FLOAT and a.ndim == 2
            and a.shape[0] == probes and a.shape[1] >= width and a.flags.c_contiguous)


def compile_probes(kernel):
    """The probe loop of generate_probe_source compiled and loaded, as
    run(vals, d1, d2, out) -> whether it served that kernel call.  It
    returns False with nothing written unless each array the kernel
    reads is a C-contiguous float64 ndarray of the call's probes and
    enough columns, and out also writeable; and False where the loop
    hands back.  None when a live record's ufunc does not give libm's
    bits, or there is no C compiler, or the build fails."""
    found = _probe_source(kernel)
    if found is None:
        return None
    src, widths = found
    loop = _PROBE_LOOPS.get(src)
    if loop is None:
        loop = _build(src, "av_probes", _PROBE_ARGTYPES)
        if loop is None:
            return None
        _PROBE_LOOPS[src] = loop
    read = [k for k in range(3) if widths[k]]

    def run(vals, d1, d2, out):
        if type(vals) is not np.ndarray or vals.ndim != 2:
            return False
        probes = vals.shape[0]
        arrays = (vals, d1, d2)
        args = [None, 0] * 3
        for k in read:
            a = arrays[k]
            if not _fits(a, probes, widths[k]):
                return False
            args[2 * k:2 * k + 2] = _address(a), a.shape[1]
        if not (_fits(out, probes, widths[3]) and out.flags.writeable):
            return False
        return loop(probes, *args, _address(out), out.shape[1]) == probes

    return run
