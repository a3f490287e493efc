"""Compiling, loading and calling the generated C of the two hot loops,
and the policy of which batched kernels tier up: the RK4 loop of a long
orbit (compile_step), and the probe loop of a batched kernel that has
served enough probes (compile_probes).  lowering.py writes both.

The probe loop runs a kernel's live records (kernels._Tape.live): the
same operations on the same operands in the same order, on the doubles
of one row at a time.  Only a kernel whose every record gives libm's
bits in numpy may be written (_EXACT): IEEE's + - * / and sqrt, abs and
sign, and numpy's sin and cos, which equal libm's on every argument
(tests/test_native_kernels.py pins this).  numpy's exp, log, tan and
power differ from libm's on some arguments, so a kernel with one of
them stays on its tape.  Besides C's checks, the probe loop checks each
output, and hands back if the call raised an IEEE exception that numpy
reports (divide, invalid, overflow, underflow), so that the tape, run
again on the whole call, gives every NaN, infinity, warning and error.
The records that read only vals (a point's value, its libm calls among
them) run once per run of bit-identical vals rows (lowering.probe_loop)
for a raw caller of compile_field whose rows repeat a point for several
seeds, such as avbench's cloud.  The library's tables send one row per
point and read only vals, so their loops run every record per row.

A loop is compiled by `cc` with CC_FLAGS in a temporary directory,
loaded by ctypes, and the directory is deleted: nothing stays on disk,
and no compiler process outlives the build.  Loops are kept by their C
text (_LOOPS) for the life of the process.  dynamics imports this
module at an engine's first build (dynamics.NATIVE_STEPS), a kernel at
its first tier-up (kernels.NATIVE_PROBES), so importing avcalc starts
neither this module nor subprocess.
"""
from __future__ import annotations

import ctypes
import itertools
import os
import shutil
import subprocess
import tempfile

import numpy as np

from . import rk4loop
from .exprlang import ExprAst, parse
from . import kernels
from .lowering import _SIGN, C, probe_loop

# The C compiler's flags, besides those that build a shared object
# (-shared -fPIC): -O2, as -O0 halves the loop's speed; -fno-fast-math,
# so no operation is reassociated or assumed finite; -ffp-contract=off,
# so no a * b + c is fused into one rounding (an FMA); -fno-builtin, so
# every libm call runs at run time in the libm Python's math module
# calls, never folded by the compiler.
CC_FLAGS = ("-O2", "-fno-fast-math", "-ffp-contract=off", "-fno-builtin", "-shared", "-fPIC")
CC_TIMEOUT_S = 60
_LOOPS = {}  # C text of a loop -> its loaded function


def _compiler():
    """The path of the C compiler `cc` on PATH, or None."""
    return shutil.which("cc")


def compile_step(ast: ExprAst, varnames, forcing=()):
    """rk4loop.generate_step_source's loop in C compiled and loaded,
    called with the Python loop's arguments (xs and vs the caller's own
    C-contiguous float arrays of steps + 1 rows, passed by address); None
    when there is no C compiler or the build fails.  A Lagrangian and
    forcing whose text is another's share its loaded loop."""
    n = len(varnames) // 2
    loop = _build(rk4loop.generate_step_source(ast, varnames, forcing, C), "av_run",
                  [ctypes.c_double] * (2 * n + 1) + [ctypes.c_long]
                  + [ctypes.c_double] * (2 * n) + [ctypes.c_void_p] * 2)
    if loop is None:
        return None

    def run(*args):
        return loop(*args[:-2], _address(args[-2]), _address(args[-1]))

    return run


def _build(src: str, name: str, argtypes):
    """The function `name` of the C source `src`, compiled and loaded
    once per text (_LOOPS), taking `argtypes` and returning a C long;
    None if that fails."""
    loop = _LOOPS.get(src)
    if loop is not None:
        return loop
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
    _LOOPS[src] = loop
    return loop


# The templates whose numpy ufunc gives libm's bits on every argument:
# IEEE's + - * / and sqrt, abs, sign, and numpy's sin and cos
_EXACT = {"-{}", "{} + {}", "{} - {}", "{} * {}", "{} / {}", "abs({})", _SIGN, "math.sqrt({})",
          "math.sin({})", "math.cos({})"}


def _probe_loop(table: str, ast: ExprAst, varnames, reads):
    """(the probe loop's text of the outputs `reads` of kernels' table
    `table` for ast, the least number of columns of vals, d1, d2 and
    out it reads), or None."""
    inputs, records, results = getattr(kernels, table)(ast, varnames)
    live = kernels._Tape(None, inputs, records, results).live(reads)
    records = [*itertools.compress(records, live)]
    if any(template not in _EXACT for _name, template, _args in records):
        return None
    outputs = [results[c] for c in reads]
    atoms = itertools.chain(*[args for _name, _template, args in records], outputs)
    loads = {atom: inputs[atom] for atom in atoms if atom in inputs}
    widths = [1 + max((j for k, j in loads.values() if k == arg), default=-1) for arg in range(3)]
    return probe_loop(loads, records, outputs), [*widths, len(outputs)]


def generate_probe_source(ast: ExprAst, varnames, reads):
    """The C probe loop (lowering.probe_loop) of the kernel of
    compile_field(ast, varnames, reads=reads), which reads and writes
    that kernel's columns; None when a live record's ufunc does not give
    libm's bits (_EXACT)."""
    found = _probe_loop("_batched", ast, varnames, reads)
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
    """The probe loop of a kernel of the kernel cache compiled and
    loaded, as run(vals, d1, d2, out) -> whether it served that kernel
    call.  The kernel keeps only its table, its expression's text and
    variables (kernels._Kernel.key) and its reads: its records are
    walked again by the same table from the text, which parses to the
    same expression (exprlang.to_text), in 0.5-0.8 ms for the charged
    particle's L and its twin against a build's 50-120.  run
    returns False with nothing written unless each array the kernel
    reads is a C-contiguous float64 ndarray of the call's probes and
    enough columns, and out also writeable; and False where the loop
    hands back.  None when a live record's ufunc does not give libm's
    bits, or there is no C compiler, or the build fails."""
    table, text, varnames = kernel.key
    found = _probe_loop(table, parse(text), varnames, kernel.reads)
    if found is None:
        return None
    src, widths = found
    loop = _build(src, "av_probes", _PROBE_ARGTYPES)
    if loop is None:
        return None
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
