"""The batched kernels' C probe loop (native.compile_probes) against
the op tape it replaces once a kernel has served kernels.NATIVE_PROBES
probes: the same outputs bit for bit on every bundled Lagrangian and
configured twin, for every reads the library asks for, on random rows
and on the rows the library repeats for a point's seeded probes; the
tape's outputs, errors and warnings wherever a call leaves the real
domain, in a record that reads only vals too; the tape alone, after
one attempt, wherever no loop can be built; no build below the
threshold, in `check-all` or for a tape numpy's bits keep on the tape;
and numpy's sin, cos and sqrt equal to libm's, the assumption all of
this rests on, checked without a compiler."""
import concurrent.futures
import ctypes
import ctypes.util
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from avcalc import kernels, native
from avcalc.dynamics import gauge_shift, lagrangian_varnames
from avcalc.errors import DomainError
from avcalc.exprlang import parse, to_text
from avcalc.systems import bundled_system, bundled_system_names

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))
from kernel_batch import READS  # noqa: E402

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
NAMES = lagrangian_varnames(2)
SIZES = (1, 16, 512, 4096)


def lagrangians():
    """(label, expression, system) of every bundled Lagrangian in each
    of its charts and of its twin under each configured chi."""
    for name in bundled_system_names():
        system = bundled_system(name)
        for chart in system.atlas.charts:
            yield f"{name}[{chart.id}]", system.lagrangian.expr(chart.id), system
        for k, chi in enumerate(system.chis):
            twin = gauge_shift(system.lagrangian, chi)
            yield f"{name}+chi{k}", twin.expr(system.default_chart()), system


def kernel_of(ast, names, reads=kernels.FULL):
    """A fresh kernel of `ast`, which has served no probe, with
    compile_field's key."""
    key = ("_batched", to_text(ast), tuple(names))
    return kernels._Tape(key, *kernels._batched(ast, names)).kernel(reads)


def seeds_read(reads):
    """How many of d1 and d2 a kernel of `reads` reads (the module
    docstring of kernels): none for the value alone, d1 for (0, 1)."""
    return 0 if reads == (0,) else 1 if reads == (0, 1) else 2


def arguments(rng, size, n, halfwidth, reads):
    """vals inside the charts and the velocity range, seeds uniform in
    [-1, 1], None for a seed the kernel of `reads` does not read."""
    x = rng.uniform(-0.5, 0.5, (size, n))
    v = rng.uniform(-0.5, 0.5, (size, n)) * halfwidth
    seeds = [rng.uniform(-1.0, 1.0, (size, 2 * n)) for _ in range(seeds_read(reads))]
    arrays = [np.hstack([x, v]), *seeds]
    for a in arrays[1:]:
        a.flags.writeable = False  # as the library's unit seeds are
    return (*arrays, *[None] * (2 - len(seeds)))


def repeated(rng, size, n, halfwidth, layout, reads):
    """vals, d1 and d2 of `size` probes laid out as the library lays out
    a point's probes, each point's vals row repeated: 2n times with
    d1 = e_j and d2 = (v, a) on the last n (_ChartEngine.el_covectors),
    or n times with d1 = e_{n+i} (momenta, whose d2, read by the kernels
    that read one, is uniform in [-1, 1] here).  A third of the
    coordinates are zeros, and every second point is the one before it
    with the sign of one of its zeros flipped (-0.0 against 0.0)."""
    m = 2 * n
    first = 0 if layout == "el_covectors" else n
    period = m - first
    points = -(-size // period)
    rows = np.hstack([rng.uniform(-0.5, 0.5, (points, n)),
                      rng.uniform(-0.5, 0.5, (points, n)) * halfwidth])
    rows[rng.random(rows.shape) < 1 / 3] = 0.0
    for i in range(1, points, 2):
        j = rng.integers(m)
        rows[i - 1, j] = math.copysign(0.0, rng.choice([-1.0, 1.0]))
        rows[i] = rows[i - 1]
        rows[i, j] = -rows[i - 1, j]
    vals = rows.repeat(period, axis=0)[:size]
    d1 = np.tile(np.eye(m)[first:], (points, 1))[:size]
    if layout == "el_covectors":
        d2 = np.zeros((points, period, m))
        d2[:, n:] = np.hstack([rows[:, n:], rng.uniform(-1.0, 1.0, (points, n))])[:, None]
        d2 = d2.reshape(-1, m)[:size]
    else:
        d2 = rng.uniform(-1.0, 1.0, (size, m))
    seeds = [d1, d2][:seeds_read(reads)]
    for a in seeds:
        a.flags.writeable = False
    return (vals, *seeds, *[None] * (2 - len(seeds)))


def on_tape(kernel, vals, d1, d2, width):
    """The outputs of a kernel that has not taken its C loop, computed
    by its tape whatever it has served."""
    assert kernel.loop is None
    out = np.empty((len(vals), width))
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(kernels, "NATIVE_PROBES", math.inf)
        kernel(vals, d1, d2, out)
    return out


@pytest.fixture(scope="module")
def probe_loops():
    """label -> (expression, system, {reads: (a fresh kernel, its loaded
    loop or None)}), built two at a time: the C compiler's start-up
    dominates a build."""
    cases = list(lagrangians())
    jobs = [(label, reads, kernel_of(ast, lagrangian_varnames(system.dim), reads))
            for label, ast, system in cases for reads in READS]
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        built = list(pool.map(lambda job: native.compile_probes(job[2]), jobs))
    loops = {label: (ast, system, {}) for label, ast, system in cases}
    for (label, reads, kernel), run in zip(jobs, built):
        loops[label][2][reads] = (kernel, run)
    return loops


class TestBitIdentity:
    @needs_cc
    @pytest.mark.parametrize("label", [label for label, _ast, _system in lagrangians()])
    def test_every_bundled_kernel_matches_its_tape(self, label, probe_loops):
        ast, system, loops = probe_loops[label]
        names = lagrangian_varnames(system.dim)
        exact = "exp(" not in kernels.generate_source(ast, names)
        rng = np.random.default_rng(37)
        for reads, (kernel, run) in loops.items():
            assert (run is not None) == exact, reads  # only a configured exp chi stays a tape
            if run is None:
                continue
            # the loop built from the kernel's text is the one of its expression
            assert native.generate_probe_source(ast, names, reads) in native._LOOPS, reads
            for size in SIZES:
                vals, d1, d2 = arguments(rng, size, system.dim, system.v_halfwidth, reads)
                want = on_tape(kernel, vals, d1, d2, len(reads))
                out = np.full((size, len(reads)), np.nan)
                assert run(vals, d1, d2, out), (reads, size)  # C served the whole call
                assert out.tobytes() == want.tobytes(), (reads, size)

    @needs_cc
    @pytest.mark.parametrize("layout", ["el_covectors", "momenta"])
    @pytest.mark.parametrize("label", [label for label, _ast, _system in lagrangians()])
    def test_repeated_rows_match_the_tape(self, label, layout, probe_loops):
        # the loop runs a point's value-only records once per run of
        # bit-identical vals rows: every probe of the run reads them
        _ast, system, loops = probe_loops[label]
        rng = np.random.default_rng(43)
        for reads, (kernel, run) in loops.items():
            if run is None:
                continue
            for size in SIZES:
                vals, d1, d2 = repeated(rng, size, system.dim, system.v_halfwidth, layout, reads)
                want = on_tape(kernel, vals, d1, d2, len(reads))
                out = np.full((size, len(reads)), np.nan)
                assert run(vals, d1, d2, out), (reads, size)
                assert out.tobytes() == want.tobytes(), (reads, size)

    def test_the_sign_of_a_zero_reaches_the_outputs(self):
        # the repeated layouts above can tell -0.0 from 0.0: on the
        # charged particle's L and its twins some adjacent points differ
        # only in the sign of a zero and in the tape's outputs
        differ = 0
        for label, ast, system in lagrangians():
            if not label.startswith("charged"):
                continue
            rng = np.random.default_rng(43)
            n = system.dim
            size = 4096 - 4096 % (4 * n)  # whole pairs of points
            vals, d1, d2 = repeated(rng, size, n, system.v_halfwidth, "el_covectors", kernels.FULL)
            out = on_tape(kernel_of(ast, lagrangian_varnames(n)), vals, d1, d2, 4)
            pairs = out.reshape(-1, 2, 2 * n * 4)
            differ += int(np.sum(np.any(pairs[:, 0].view(np.uint64) != pairs[:, 1].view(np.uint64),
                                        axis=1)))
        assert differ

    @needs_cc
    def test_a_kernel_hands_off_to_its_loop(self, monkeypatch):
        monkeypatch.setattr(kernels, "NATIVE_PROBES", 0)
        system = bundled_system("charged")
        twin = gauge_shift(system.lagrangian, system.chis[0]).expr("0")
        kernel, reference = (kernel_of(twin, lagrangian_varnames(3)) for _ in range(2))
        vals, d1, d2 = arguments(np.random.default_rng(5), 700, 3, 1.0, kernels.FULL)
        served = []
        real = native.compile_probes

        def spy(kernel):
            run = real(kernel)
            return lambda *args: served.append(run(*args)) or served[-1]

        monkeypatch.setattr(native, "compile_probes", spy)
        out = np.empty((700, 4))
        kernel(vals, d1, d2, out)
        assert served == [True]
        assert out.tobytes() == on_tape(reference, vals, d1, d2, 4).tobytes()

    @needs_cc
    def test_a_literal_that_overflows_to_inf(self, monkeypatch):
        # native re-parses the kernel's key text, where an inf literal
        # must not read as a variable (exprlang writes it 1e999)
        monkeypatch.setattr(kernels, "NATIVE_PROBES", 1)
        monkeypatch.setattr(kernels, "_CACHE", {})
        ast = parse("x1/1e400 + x1*x1")
        kernel = kernels.compile_field(ast, ["x1"])
        reference = kernel_of(ast, ["x1"])
        served = []
        real = native.compile_probes

        def spy(kernel):
            run = real(kernel)
            return lambda *args: served.append(run(*args)) or served[-1]

        monkeypatch.setattr(native, "compile_probes", spy)
        rng = np.random.default_rng(7)
        vals, d1, d2 = (rng.uniform(-2.0, 2.0, (64, 1)) for _ in range(3))
        for _ in range(2):
            out = np.empty((64, 4))
            kernel(vals, d1, d2, out)
            assert out.tobytes() == on_tape(reference, vals, d1, d2, 4).tobytes()
        assert served == [True, True]


@needs_cc
@pytest.mark.parametrize("layout", ["fortran", "float32", "strided out", "broadcast seed"])
def test_arrays_the_loop_does_not_take_run_on_the_tape(layout, monkeypatch):
    monkeypatch.setattr(kernels, "NATIVE_PROBES", 0)
    ast = parse("0.5*(v1^2 + v2^2) + sin(x1)*v2 - x1*x2")
    kernel, reference = kernel_of(ast, NAMES), kernel_of(ast, NAMES)
    rng = np.random.default_rng(11)
    vals, d1, d2 = (rng.uniform(-1.0, 1.0, (64, 4)) for _ in range(3))
    out, want = np.zeros((64, 8)), np.zeros((64, 8))
    if layout == "fortran":
        vals = np.asfortranarray(vals)
    elif layout == "float32":
        d1 = d1.astype(np.float32)
    elif layout == "broadcast seed":
        d2 = d2[:1]  # numpy broadcasts one row to every probe
    args = (vals, d1, d2, out[:, ::2] if layout == "strided out" else out[:, :4])
    with pytest.MonkeyPatch.context() as tape_only:
        tape_only.setattr(kernels, "NATIVE_PROBES", math.inf)
        reference(*args[:3], want[:, ::2] if layout == "strided out" else want[:, :4])
    kernel(*args)
    assert kernel.loop and not kernel.loop(*args)  # the loop refuses the call
    assert out.tobytes() == want.tobytes()


def raw_loop(text, reads=kernels.FULL):
    """The loaded C function av_probes of `text` over NAMES, called with
    arrays; it returns the probe it hands back at, or the probes."""
    kernel = kernel_of(parse(text), NAMES, reads)
    assert native.compile_probes(kernel) is not None
    loop = native._LOOPS[native.generate_probe_source(parse(text), NAMES, reads)]

    def call(vals, d1, d2, out):
        m = vals.shape[1]
        return loop(len(vals), vals.ctypes.data, m, d1.ctypes.data, m, d2.ctypes.data, m,
                    out.ctypes.data, out.shape[1])

    return call


def column(*x1):
    """Probes at x1 = the given values, x2 = v1 = v2 = 0.5 and seeds 1."""
    vals = np.full((len(x1), 4), 0.5)
    vals[:, 0] = x1
    return vals, np.ones((len(x1), 4)), np.ones((len(x1), 4)), np.empty((len(x1), 4))


@needs_cc
class TestHandBacks:
    """The C loop returns the index of the first probe whose check
    fails, and 0 for a call that raised an IEEE exception numpy reports,
    so that the tape runs the call again."""

    def test_a_libm_value_that_is_not_finite(self):
        # sign absorbs sqrt(inf) = inf, and no IEEE exception is raised:
        # only sqrt's own check sees it
        assert raw_loop("sign(sqrt(x1))")(*column(1.0, 4.0, math.inf, 9.0)) == 2

    def test_a_division_that_is_not_finite(self):
        assert raw_loop("x2 - sign(1/(x1 - 0.25))")(*column(1.0, 0.25, 3.0)) == 1

    def test_an_output_that_is_not_finite(self):
        # inf * 2 raises no exception: only the output's check sees it
        assert raw_loop("2*x1*x2")(*column(1.0, -math.inf, 3.0)) == 1

    def test_an_overflow_that_sign_absorbs(self):
        # every value and output is finite; the overflow flag is not
        assert raw_loop("sign(x1*x1)")(*column(1.0, 1e200, 3.0)) == 0

    def test_finite_probes_are_all_served(self):
        assert raw_loop("sign(sqrt(x1)) + 1/x1 + 2*x1*x2")(*column(1.0, 2.0, 3.0)) == 3


def tape_or_loop(monkeypatch, threshold, ast, vals, d1, d2):
    """Outputs, warnings and require_finite's error of a fresh full
    kernel of `ast` over NAMES that tiers up once it has served
    `threshold` probes."""
    monkeypatch.setattr(kernels, "NATIVE_PROBES", threshold)
    out = np.empty((len(vals), 4))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kernel_of(ast, NAMES)(vals, d1, d2, out)
    try:
        kernels.require_finite([out], ast, NAMES, vals)
    except DomainError as exc:
        return out.tobytes(), [str(w.message) for w in caught], str(exc)
    return out.tobytes(), [str(w.message) for w in caught], None


@needs_cc
@pytest.mark.parametrize("text", ["sqrt(x1)", "x1/(x1 - x1)", "1e308*10*x1", "sign(x1*x1)*v1",
                                  "sqrt(x1)*sin(1/x2)"])
def test_domain_leaving_calls_give_the_tapes_outputs(text, monkeypatch):
    ast = parse(text)
    vals = np.array([[0.5, 1.0, 0.25, 0.0], [-1.0, 0.0, 1.0, 2.0], [1e200, 1.0, 0.0, 0.0],
                     [0.0, -0.0, 1.0, 1.0], [4.0, 2.0, -1.0, 0.5]])
    d1, d2 = np.ones((5, 4)), np.full((5, 4), 0.5)
    want = tape_or_loop(monkeypatch, math.inf, ast, vals, d1, d2)
    assert want[1]  # every case warns; all but the sign's absorbed overflow raise
    assert (want[2] is None) == text.startswith("sign")
    assert tape_or_loop(monkeypatch, 0, ast, vals, d1, d2) == want


@needs_cc
def test_a_point_record_leaving_the_domain_hands_back_at_its_points_first_probe(monkeypatch):
    # the relativistic L's sqrt(1 - v1^2 - v2^2) reads vals alone, so it
    # runs once per point of the Euler-Lagrange layout: at the third
    # point |v| > 1, and its check fails on that point's first probe
    ast = bundled_system("relativistic").lagrangian.expr("0")
    vals, d1, d2 = repeated(np.random.default_rng(19), 20, 2, 0.5, "el_covectors", kernels.FULL)
    vals[8:12, 2:] = (0.9, 0.8)
    out = np.full((20, 4), np.nan)
    assert raw_loop(to_text(ast))(vals, d1, d2, out) == 8
    with np.errstate(invalid="ignore"):
        want = on_tape(kernel_of(ast, NAMES), vals, d1, d2, 4)
    assert out[:8].tobytes() == want[:8].tobytes()  # the earlier points' rows are written
    assert np.isnan(out[8:]).all()
    tape = tape_or_loop(monkeypatch, math.inf, ast, vals, d1, d2)
    assert tape[1] and "sqrt" in tape[2] and "v1=0.9" in tape[2]
    assert tape_or_loop(monkeypatch, 0, ast, vals, d1, d2) == tape


def spy_popen(monkeypatch):
    """The argument lists of every process started from now on."""
    started = []

    class Spy(subprocess.Popen):
        def __init__(self, args, *rest, **kwargs):
            started.append(args)
            super().__init__(args, *rest, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", Spy)
    return started


def serve(kernel, probes, reads=kernels.FULL):
    """Call `kernel` on `probes` probes in calls of at most 10^4."""
    rng = np.random.default_rng(3)
    vals, d1, d2 = (rng.uniform(-1.0, 1.0, (min(probes, 10_000), 4)) for _ in range(3))
    out = np.empty((len(vals), len(reads)))
    with np.errstate(all="ignore"):
        for lo in range(0, probes, 10_000):
            size = min(10_000, probes - lo)
            kernel(vals[:size], d1[:size], d2[:size], out[:size])
    return vals, d1, d2, out


@needs_cc
def test_the_call_that_reaches_the_threshold_builds_once(monkeypatch, tmp_path):
    monkeypatch.setattr(native, "_LOOPS", {})
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    started = spy_popen(monkeypatch)
    ast = parse("0.5*(v1^2 + v2^2) + sin(x1)*v2 - x1*x2")
    kernel = kernel_of(ast, NAMES)
    serve(kernel, kernels.NATIVE_PROBES - 1)
    assert started == [] and kernel.loop is None
    # one more probe reaches the threshold: that call builds and runs the C loop
    vals, d1, d2, out = serve(kernel, 1)
    assert [args[0] for args in started] == [shutil.which("cc")]
    assert kernel.loop and len(native._LOOPS) == 1
    assert out.tobytes() == on_tape(kernel_of(ast, NAMES), vals, d1, d2, 4).tobytes()
    assert list(tmp_path.iterdir()) == []  # the build directory is gone
    serve(kernel, 10_000)
    assert len(started) == 1


@needs_cc
@pytest.mark.parametrize("broken", ["no compiler", "failed build", "no temporary directory"])
def test_without_a_probe_loop_the_tape_runs(broken, monkeypatch, tmp_path):
    monkeypatch.setattr(native, "_LOOPS", {})
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    if broken == "no compiler":
        monkeypatch.setattr(native, "_compiler", lambda: None)
    elif broken == "failed build":
        monkeypatch.setattr(native, "CC_FLAGS", (*native.CC_FLAGS, "-fno-such-option"))
    else:
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    attempts = []
    real = native._build
    monkeypatch.setattr(native, "_build", lambda *args: attempts.append(args) or real(*args))
    ast = parse("0.5*(v1^2 + v2^2) + cos(x2)*v1")
    reference = kernel_of(ast, NAMES)
    monkeypatch.setattr(kernels, "NATIVE_PROBES", 0)
    kernel = kernel_of(ast, NAMES)
    for _ in range(3):
        vals, d1, d2, out = serve(kernel, 100)
        assert out.tobytes() == on_tape(reference, vals, d1, d2, 4).tobytes()
    assert len(attempts) == 1 and native._LOOPS == {}
    assert list(tmp_path.iterdir()) == []  # the failed build left nothing


@pytest.mark.parametrize("text", ["exp(x1)*v1", "log(1 + x1^2)*v2", "tan(x2)*v1^2",
                                  "x1^1.5*v1", "abs(x1)^1.5 + v1^2"])
def test_a_tape_that_numpy_keeps_on_the_tape_builds_nothing(text, monkeypatch, tmp_path):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    started = spy_popen(monkeypatch)
    kernel = kernel_of(parse(text), NAMES)
    assert native.generate_probe_source(parse(text), NAMES, kernels.FULL) is None
    serve(kernel, kernels.NATIVE_PROBES + 10_000)
    assert kernel.loop is False  # asked once, and stays on its tape
    assert started == [] and list(tmp_path.iterdir()) == []


def test_check_all_builds_no_probe_loop():
    # in a fresh process: the suites' hottest kernel serves 199 920
    # probes, below NATIVE_PROBES, so no kernel asks for its C loop;
    # the Lorentz orbits build their RK4 loops, which share the cache
    probe = ("import sys\n"
             "from avcalc import native, suites\n"
             "asked = []\n"
             "native.compile_probes = lambda *args: asked.append(args)\n"
             "results = suites.run_all()\n"
             "probe_loops = [src for src in native._LOOPS if 'av_probes' in src]\n"
             "sys.exit(bool(asked or probe_loops) or len(results) != 107)\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    assert subprocess.run([sys.executable, "-c", probe], env=env, timeout=300).returncode == 0


class TestLibmBits:
    """The probe loop writes sin, cos and sqrt as libm's, on the
    assumption that numpy's ufuncs give libm's bits: on every argument,
    contiguous, strided or alone, numpy's value has the bits of libm's
    that ctypes loads, or both are not finite (where C's check hands
    back).  Checked without a compiler."""

    SPECIAL = (0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, -sys.float_info.min,
               sys.float_info.max, -sys.float_info.max, 1e300, -1e300, 1e-300, math.inf,
               -math.inf, math.nan, 1.0, -1.0, 0.5, math.pi, -math.pi, math.pi / 2, 2.0 ** 52,
               1e22, 2.0 ** 1000, 1.0 + 2.0 ** -52, 1.0 - 2.0 ** -53)
    RANDOM = 60_000

    def arguments(self):
        rng = np.random.default_rng(41)
        third = self.RANDOM // 3
        sign = rng.choice([-1.0, 1.0], 2 * third)
        return np.concatenate([self.SPECIAL, rng.uniform(-10.0, 10.0, third),
                               sign[:third] * 10.0 ** rng.uniform(-8.0, 8.0, third),
                               sign[third:] * 10.0 ** rng.uniform(-300.0, 300.0, third)])

    @pytest.mark.parametrize("name", ["sin", "cos", "sqrt"])
    def test_numpy_gives_libms_bits(self, name):
        library = ctypes.util.find_library("m")
        if library is None:
            pytest.skip("no libm for ctypes to load")
        f = getattr(ctypes.CDLL(library), name)
        f.argtypes = [ctypes.c_double]
        f.restype = ctypes.c_double
        x = self.arguments()
        c = np.array([f(a) for a in x.tolist()])
        wide = np.empty((len(x), 3))
        wide[:, 1] = x
        with np.errstate(all="ignore"):
            forms = {"contiguous": getattr(np, name)(x),
                     "strided": getattr(np, name)(wide[:, 1]),
                     "alone": np.array([getattr(np, name)(x[i:i + 1])[0]
                                        for i in range(0, len(x), 97)])}
        for form, values in forms.items():
            want = c if form != "alone" else c[::97]
            finite = np.isfinite(want)
            assert np.array_equal(np.isfinite(values), finite), form
            assert values[finite].tobytes() == want[finite].tobytes(), form
