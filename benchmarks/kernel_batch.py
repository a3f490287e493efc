"""Batched kernel cost per probe at batch sizes 1, 16, 512 and 10^4,
and the cost of building one.

For the charged particle's Lagrangian and its twin shifted by its first
configured gauge function chi, the batched kernels of
kernels.compile_field are called on one seeded batch of probes per size
(x and v uniform in [-1, 1], both seeds uniform in [-1, 1]): the full
kernel (reads "all") and those of the columns the library reads, (0, 1,
3) for Euler-Lagrange covectors and curve jets, (0, 1) for momenta and
(0,) for values.  Each row gives, for one kernel and one batch size:

  * us/call:    microseconds per kernel call, best of --repeats;
  * ns/probe:   the same per probe;
  * peak B/probe: bytes allocated at the peak of one call, traced by
    tracemalloc, per probe: the temporaries the kernel keeps alive.

The header line of each kernel gives its generated lines and the
distinct temporaries they use (names are reused once a value's last
reader has run, see kernels._render), the records each kernel of the
rows runs, two figures of building the full kernel,
each over fresh expressions of its shape (compile_field misses its
cache on each): the Lagrangian plus a seeded constant, and the
Lagrangian shifted by c times the configured chi for a seeded c,
and one of finding it:

  * build us:   microseconds of one compile_field call, best of
                BUILDS;
  * retained B: bytes that stay allocated per kernel built, traced by
                tracemalloc over 20 builds: the kernel and its cache
                entry, key included, and the text that the fresh
                expression's nodes render for the key and keep;
  * hit us:     microseconds of one compile_field call that finds its
                cache entry, the mean over HITS calls on the kernel's
                own expression, best of --repeats.

These rows run the op tape (kernels.NATIVE_PROBES is set out of reach).
The native rows after them run each kernel as its C probe loop
(native.compile_probes), as a kernel does once it has served
NATIVE_PROBES probes, called through the same kernel: us/call and
ns/probe as above, and whether the outputs have the tape's bits.  They
come in two layouts of the probes (the "rows" column):

  * uniform: every probe's vals, d1 and d2 uniform in [-1, 1], as above,
    so no vals row repeats the one before it;
  * el:      the layout of _ChartEngine.el_covectors, each point's vals
             row (uniform in [-1, 1]) repeated 2n times, d1 = e_j and
             d2 = (v, a) on the last n, a uniform in [-1, 1].

The loop runs a point's records that read vals alone once per run of
equal rows (lowering.probe_loop), so the el rows show what that saves
per probe, and the uniform rows what comparing the rows costs where
they never repeat.  Their header gives each loop's build time:

  * build ms:   milliseconds of native.compile_probes for the kernel of
                each reads, C compiler included (once: a loop is kept).

Without a C compiler the native rows say so and are left out.

The script exits 1 if a column differs from the Hyperdual interpreter
(exprlang.evaluate on autodiff.Hyperdual scalars, probe by probe) by
more than 1e-12 relative to max(1, |reference|), or a native row's
outputs differ from the tape's in a bit or the C loop hands the call
back; the test suite runs it with --sizes 1 16 --repeats 1 for that
check.

Run:  PYTHONPATH=src python benchmarks/kernel_batch.py [--sizes N ...] [--repeats N]
"""
import argparse
import math
import re
import shutil
import sys
import time
import tracemalloc

import numpy as np

from avcalc import exprlang, kernels, native
from avcalc.autodiff import Hyperdual
from avcalc.dynamics import gauge_shift, lagrangian_varnames
from avcalc.systems import bundled_system

TOLERANCE = 1e-12
BUILDS = 30  # fresh expressions built per kernel for the build time
HITS = 1000  # cache hits per timed block
READS = (kernels.FULL, (0, 1, 3), (0, 1), (0,))


def label(reads) -> str:
    return "all" if reads == kernels.FULL else ",".join(map(str, reads))


def cases():
    """(label, expression, variable names, fresh) of the charged
    particle's Lagrangian and of its twin; fresh(c) is a new expression
    of the same shape for the number c."""
    system = bundled_system("charged")
    chart = system.default_chart()
    names = lagrangian_varnames(system.dim)
    lagrangian = system.lagrangian.expr(chart)
    yield ("charged", lagrangian, names,
           lambda c: exprlang.Binary("+", lagrangian, exprlang.Number(c)))
    chi = system.chis[0]
    yield ("charged twin", gauge_shift(system.lagrangian, chi).expr(chart), names,
           lambda c: gauge_shift(system.lagrangian, f"{c!r}*({chi})").expr(chart))


def interpreter(ast, names, vals, d1, d2):
    """Kernel outputs computed probe by probe on Hyperdual scalars."""
    out = np.empty((vals.shape[0], 4))
    for p in range(vals.shape[0]):
        env = {name: Hyperdual(vals[p, j], d1[p, j], d2[p, j]) for j, name in enumerate(names)}
        r = exprlang.evaluate(ast, env)
        out[p] = (r.val, r.d1, r.d2, r.d12) if isinstance(r, Hyperdual) else (r, 0.0, 0.0, 0.0)
    return out


def best_seconds_per_call(kernel, args, repeats: int) -> float:
    """Best over `repeats` of the mean time of a block of calls holding
    about 2000 probes (at least 3 calls)."""
    calls = max(3, 2000 // args[0].shape[0])
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            kernel(*args)
        best = min(best, (time.perf_counter() - t0) / calls)
    return best


def best_build_seconds(asts, names) -> float:
    """Best time of one compile_field call over the fresh `asts`."""
    best = float("inf")
    for ast in asts:
        t0 = time.perf_counter()
        kernels.compile_field(ast, names)
        best = min(best, time.perf_counter() - t0)
    return best


def best_hit_seconds(ast, names, repeats: int) -> float:
    """Best over `repeats` of the mean time of HITS compile_field calls
    that find the full kernel of `ast` in the cache."""
    kernels.compile_field(ast, names)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(HITS):
            kernels.compile_field(ast, names)
        best = min(best, (time.perf_counter() - t0) / HITS)
    return best


def retained_bytes(asts, names) -> float:
    """Traced bytes still allocated per compile_field call over the
    fresh `asts`, once every call has returned."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for ast in asts:
            kernels.compile_field(ast, names)
        return (tracemalloc.get_traced_memory()[0] - before) / len(asts)
    finally:
        tracemalloc.stop()


def traced_peak_bytes(kernel, args) -> int:
    """Bytes allocated at the peak of one call."""
    tracemalloc.start()
    try:
        kernel(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def layouts(rng, size, m):
    """(label, vals, d1, d2) of `size` probes over m = 2n variables in
    each layout of the native rows."""
    yield ("uniform", *(rng.uniform(-1.0, 1.0, (size, m)) for _ in range(3)))
    n = m // 2
    points = -(-size // m)
    rows = rng.uniform(-1.0, 1.0, (points, m))
    d2 = np.zeros((points, m, m))
    d2[:, n:] = np.hstack([rows[:, n:], rng.uniform(-1.0, 1.0, (points, n))])[:, None]
    yield ("el", rows.repeat(m, axis=0)[:size], np.tile(np.eye(m), (points, 1))[:size],
           d2.reshape(-1, m)[:size])


def native_rows(ast, names, sizes, repeats: int, rng) -> bool:
    """Print the native rows of the kernels of `ast`; whether every
    one's outputs have the tape's bits and C served every call."""
    key = (exprlang.to_text(ast), tuple(names))  # compile_field's, from which C is written
    reference, tape = (kernels._Tape(key, *kernels._batched(ast, names)) for _ in range(2))
    build = []
    for reads in READS:
        kernel = tape.kernel(reads)
        t0 = time.perf_counter()
        kernel.loop = native.compile_probes(kernel)  # the kernel's hand-off at NATIVE_PROBES
        build.append(time.perf_counter() - t0)
    print(f"  native: build {' / '.join(f'{1e3 * b:.0f}' for b in build)} ms "
          f"for reads {' / '.join(map(label, READS))}")
    print(f"{'probes':>8} {'reads':>6} {'rows':>8} {'us/call':>10} {'ns/probe':>10}  vs tape")
    agree = True
    for size in sizes:
        for rows, vals, d1, d2 in layouts(rng, size, len(names)):
            for reads in READS:
                kernel = tape.kernel(reads)
                if not kernel.loop:
                    print(f"{size:8d} {label(reads):>6} {rows:>8}  no loop: a record stays on the tape")
                    agree = False
                    continue
                want = np.empty((size, len(reads)))
                reference.kernel(reads)(vals, d1, d2, want)
                out = np.empty((size, len(reads)))
                served = kernel.loop(vals, d1, d2, out)
                same = served and out.tobytes() == want.tobytes()
                agree &= same
                seconds = best_seconds_per_call(kernel, (vals, d1, d2, out), repeats)
                verdict = "identical" if same else "DIFFER" if served else "HANDED BACK"
                print(f"{size:8d} {label(reads):>6} {rows:>8} {1e6 * seconds:10.2f} "
                      f"{1e9 * seconds / size:10.1f}  {verdict}")
    return agree


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[1, 16, 512, 10_000],
                    help="probes per kernel call")
    ap.add_argument("--repeats", type=int, default=7, help="timed blocks; the best is reported")
    args = ap.parse_args()

    rng = np.random.default_rng(2026)
    agree = True
    kernels.NATIVE_PROBES = math.inf  # no kernel takes its C loop by itself
    print(f"batched kernel, best of {args.repeats}")
    for name, ast, names, fresh in cases():
        src = kernels.generate_source(ast, names)
        temps = len(set(re.findall(r"\bt\d+\b", src)))
        asts = [fresh(float(c)) for c in rng.uniform(0.5, 1.5, BUILDS + 20)]
        build = best_build_seconds(asts[:BUILDS], names)
        kept = retained_bytes(asts[BUILDS:], names)
        hit = best_hit_seconds(ast, names, args.repeats)
        tape = kernels._Tape(None, *kernels._batched(ast, names))
        records = " / ".join(str(sum(tape.live(reads))) for reads in READS)
        print(f"{name}: {len(src.splitlines()) - 1} lines, {temps} temporaries, records "
              f"{records} for reads {' / '.join(map(label, READS))}, "
              f"build {1e6 * build:.0f} us, retained {kept:.0f} B, hit {1e6 * hit:.2f} us")
        print(f"{'probes':>8} {'reads':>6} {'us/call':>10} {'ns/probe':>10} {'peak B/probe':>13}  "
              f"vs interpreter")
        compiled = [(reads, kernels.compile_field(ast, names, reads=reads)) for reads in READS]
        for size in args.sizes:
            vals, d1, d2 = (rng.uniform(-1.0, 1.0, (size, len(names))) for _ in range(3))
            ref = interpreter(ast, names, vals, d1, d2)
            for reads, kernel in compiled:
                out = np.empty((size, len(reads)))
                call = (vals, d1, d2, out)
                kernel(*call)
                want = ref[:, reads]
                err = float(np.max(np.abs(out - want) / np.maximum(1.0, np.abs(want))))
                ok = err <= TOLERANCE
                agree &= ok
                seconds = best_seconds_per_call(kernel, call, args.repeats)
                peak = traced_peak_bytes(kernel, call)
                print(f"{size:8d} {label(reads):>6} {1e6 * seconds:10.2f} "
                      f"{1e9 * seconds / size:10.1f} {peak / size:13.0f}  "
                      f"{'ok' if ok else 'DIFFER'} ({err:.1e})")
        if shutil.which("cc") is None:
            print("  native: no C compiler")
        else:
            agree &= native_rows(ast, names, args.sizes, args.repeats, rng)
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
