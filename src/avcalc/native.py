"""The generated RK4 loop in C, for orbits long enough to pay for the
compiler.

rk4loop.generate_step_source writes the loop from one list of
statements through a table of one language's differences from Python
(kernels._Dialect); C, below, is the table for C, for the emitter's
one op set.  Besides its syntax it differs in three rules that keep
every double and every hand-back of the Python loop:

  * every libm call, division and power is followed by a check that
    returns the step index k unless its value is finite.  Python's
    math functions, / and ** raise only where their value would not be
    finite, so the C loop hands back wherever the Python loop does; it
    also hands back where such an operation passes on an infinity or a
    NaN without a raise, and the caller's numpy loop repeats that step
    as it would.  IEEE arithmetic thus never absorbs one of C's
    infinities later (1/exp(1000) would be 0, where math.exp raises);
  * both powers, x ** (p) and math.pow(x, p), are libm's pow: its
    C99 Annex F special cases give Python's value wherever that is
    finite, and the check above hands back wherever Python raises
    (tests/test_dynamics.py::TestLibmPow pins this on ctypes' libm);
  * max and sign compare as Python's max and the scalar sign do
    (av_max, not fmax).

The loop is compiled by `cc` with CC_FLAGS in a temporary directory,
loaded by ctypes, and the directory is deleted: nothing stays on disk,
and no compiler process outlives the build.  dynamics imports this
module at an engine's first build (dynamics.NATIVE_STEPS), so importing
avcalc starts neither this module nor subprocess.
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
from .kernels import _MATH, _SIGN, _Dialect, _lines

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
_LOOPS = {}  # C text -> its loaded loop


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
    with the Python loop's arguments (xs and vs as arrays); None when
    there is no C compiler or the build fails.  Loops are kept by their
    C text, so a Lagrangian and forcing whose text is another's share
    its loop, and a loaded loop stays for the life of the process."""
    src = generate_step_source(ast, varnames, forcing)
    loop = _LOOPS.get(src)
    if loop is None:
        loop = _build(src, len(varnames) // 2)
        if loop is not None:
            _LOOPS[src] = loop
    return loop


def _build(src: str, n: int):
    """The function av_run of the C source `src` of an RK4 loop in n
    dimensions, compiled and loaded; None if that fails."""
    cc = _compiler()
    if cc is None:
        return None
    try:
        with tempfile.TemporaryDirectory(prefix="avcalc-") as tmp:
            source, library = os.path.join(tmp, "rk4.c"), os.path.join(tmp, "rk4.so")
            with open(source, "w", encoding="ascii") as fh:
                fh.write(src)
            built = subprocess.run([cc, *CC_FLAGS, source, "-o", library, "-lm"],
                                   stdin=subprocess.DEVNULL, capture_output=True,
                                   timeout=CC_TIMEOUT_S)
            if built.returncode != 0:
                return None
            loop = ctypes.CDLL(library).av_run
    except (OSError, subprocess.SubprocessError):  # no temporary directory, a hung cc, ...
        return None
    rows = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS,WRITEABLE")
    loop.argtypes = ([ctypes.c_double] * (2 * n + 1) + [ctypes.c_long]
                     + [ctypes.c_double] * (2 * n) + [rows, rows])
    loop.restype = ctypes.c_long
    return loop
