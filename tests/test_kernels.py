import hashlib
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from avcalc import exprlang, kernels
from avcalc.autodiff import Hyperdual
from avcalc.dynamics import (
    GaugeClassLagrangian,
    SecondOrderPoint,
    euler_lagrange,
    gauge_shift,
    lagrangian_varnames,
)
from avcalc.errors import DomainError
from avcalc.geometry import euclidean_atlas
from avcalc.kernels import (
    BACKENDS,
    compile_field,
    default_backend,
    eval_batch,
    generate_solve_source,
    generate_source,
)
from avcalc.rk4loop import generate_step_source
from avcalc.systems import bundled_system, bundled_system_names

from helpers_reference import hyperdual_reference, random_cases

VARNAMES = ["x1", "x2", "x3"]
AGREE_EXPR = "sin(x1)*cos(x2) + exp(-x3^2)*x1 + sqrt(x2)/x3"


def probe_batch(rng, k):
    return (
        rng.uniform(0.2, 1.8, (k, 3)),  # positive, clear of kinks and poles
        rng.uniform(-1.0, 1.0, (k, 3)),
        rng.uniform(-1.0, 1.0, (k, 3)),
    )


class TestAgainstHyperdual:
    def test_matches_hyperdual_reference(self):
        rng = np.random.default_rng(42)
        checked = 0
        for ast, _env in random_cases(60, varnames=VARNAMES, depth=4, seed=11):
            vals, d1, d2 = probe_batch(rng, 6)
            try:
                expected = hyperdual_reference(ast, VARNAMES, vals, d1, d2)
            except Exception:
                continue
            if not np.all(np.isfinite(expected)) or np.max(np.abs(expected)) > 1e8:
                continue
            kernel = compile_field(ast, VARNAMES)
            got = eval_batch(kernel, vals, d1, d2)
            scale = np.maximum(1.0, np.abs(expected))
            assert np.max(np.abs(got - expected) / scale) < 1e-12
            checked += 1
            if checked >= 25:
                break
        assert checked >= 25


class TestCompilation:
    def test_cache_returns_same_kernel(self):
        ast = exprlang.parse("x1^2 + x2")
        k1 = compile_field(ast, VARNAMES)
        k2 = compile_field(exprlang.parse("x1^2 + x2"), VARNAMES)
        assert k1 is k2

    def test_unit_exponent_emits_no_power(self):
        # _symdiff differentiates x1^2 into 2*x1^1.0; p*(p-1) = 0 there,
        # so no x1**(p-2) may be computed (it is infinite at x1 = 0)
        ast = exprlang.parse("x1^1.0*v1")
        assert "**" not in generate_source(ast, ["x1", "v1"])
        vals = np.array([[0.0, 2.0]])
        with np.errstate(all="raise"):
            out = eval_batch(compile_field(ast, ["x1", "v1"]), vals, np.ones((1, 2)), np.ones((1, 2)))
        assert out[0].tolist() == [0.0, 2.0, 2.0, 2.0]

    def test_non_finite_constant(self):
        # 1e400 parses to inf; the source must spell it so that it executes
        ast = exprlang.parse("1e400*x1 - 1e400")
        text = exec_kernel(generate_source(ast, ["x1"]))
        vals, seeds = np.array([[2.0], [-1.0]]), np.ones((2, 1))
        with np.errstate(invalid="ignore"):  # inf - inf at x1 = 2
            out = eval_batch(text, vals, seeds, seeds)
            compiled = eval_batch(compile_field(ast, ["x1"]), vals, seeds, seeds)
            assert np.array_equal(compiled, out, equal_nan=True)
        assert math.isnan(out[0, 0]) and out[1, 0] == -math.inf
        assert out[0, 1] == math.inf and out[1, 1] == math.inf

    @pytest.mark.parametrize("expr, value, reason", [
        ("(-2)^0.5*x1", math.nan, "fractional power of a negative base"),
        ("10^400*x1", math.inf, "math range error"),
        ("(1/0)*x1", math.inf, "division by zero"),
    ])
    def test_constant_power_without_real_value(self, expr, value, reason):
        # folded to NaN / inf at compile time, not left to Python's ** or
        # / (a complex number, or OverflowError or ZeroDivisionError
        # inside the kernel)
        kernel = compile_field(exprlang.parse(expr), ["x1"])
        with np.errstate(invalid="ignore"):
            out = eval_batch(kernel, np.ones((1, 1)), np.ones((1, 1)), np.zeros((1, 1)))
        assert np.array_equal(out[0, :1], [value], equal_nan=True)
        lam = GaugeClassLagrangian.from_exprs(euclidean_atlas(1), f"0.5*v1^2 + {expr}")
        q = SecondOrderPoint.of([1.0], [0.0], [0.0])
        with pytest.raises(DomainError, match=rf"{reason} in .* at x1=1\.0, v1=0\.0"):
            euler_lagrange(lam, q, "0")

    def test_constant_expression(self):
        kernel = compile_field(exprlang.parse("2.5"), VARNAMES)
        out = eval_batch(kernel, np.zeros((3, 3)), np.ones((3, 3)), np.ones((3, 3)))
        assert np.allclose(out[:, 0], 2.5)
        assert np.allclose(out[:, 1:], 0.0)


def fused_cases():
    """(id, expression, dim) for every bundled system's default-chart
    Lagrangian and its shift by its first configured chi."""
    cases = []
    for name in bundled_system_names():
        system = bundled_system(name)
        chart = system.default_chart()
        cases.append((name, system.lagrangian.expr(chart), system.dim))
        shifted = gauge_shift(system.lagrangian, system.chis[0])
        cases.append((f"{name}+chi", shifted.expr(chart), system.dim))
    return cases


def build_terms(src):
    ns = {"math": math}
    exec(src, ns)
    return ns["_terms"]


TEMP = re.compile(r"\bt\d+\b")


def temporaries(src):
    return set(TEMP.findall(src))


def prune(records, results):
    """`records` without those whose temporary no later record and no
    atom of `results` reads: a liveness pass independent of
    kernels._render."""
    live = set(results)
    kept = []
    for name, template, args in reversed(records):
        if name in live:
            kept.append((name, template, args))
            live.update(args)
    return kept[::-1]


def oracle_source(generate, ast, varnames, *args, dead_lines=False):
    """generate(ast, varnames, *args) with kernels._render replaced by
    the oracle: one temporary per _Emitter line, as the emitter numbers
    them, the slot atoms w{j} replaced by the inputs, and the dead lines
    dropped by `prune` unless dead_lines."""
    def one_name_per_line(names, results, inputs=()):
        slots = {f"w{j}": atom for j, atom in enumerate(inputs)}
        records = [(name, template, [slots.get(a, a) for a in atoms])
                   for (template, atoms), name in names.items()]
        results = [slots.get(a, a) for a in results]
        return (records if dead_lines else prune(records, results)), results

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_render", one_name_per_line)
        return generate(ast, varnames, *args)


def exec_kernel(src):
    """The batched kernel `_kernel` that generated source text defines,
    run by exec: the oracle of the op tape."""
    ns = {"math": math, "np": np}
    exec(src, ns)
    return ns["_kernel"]


def plain_source(ast, varnames):
    """generate_source with one temporary per _Emitter line and no dead
    line (the oracle of TestReusedNames)."""
    return oracle_source(generate_source, ast, varnames)


def unread_values(src):
    """(line, name) of every value assigned to a temporary in the body
    of generated source `src` that no line reads before its name is
    assigned again or the body ends."""
    unread = {}  # temporary -> the line of its value not yet read
    found = []
    for i, line in enumerate(src.splitlines()[1:], 1):
        target, assigns, expr = line.strip().partition(" = ")
        for name in TEMP.findall(expr if assigns else target):
            unread.pop(name, None)
        if assigns and TEMP.fullmatch(target):
            if target in unread:
                found.append((unread[target], target))
            unread[target] = i
    return found + sorted((i, name) for name, i in unread.items())


class TestFusedSourcePruning:
    """No rendering emits a line that nothing reads, and dropping the
    dead lines changes none of the fused function's outputs."""

    @pytest.mark.parametrize("case", fused_cases(), ids=lambda c: c[0])
    def test_every_temporary_is_read(self, case):
        # names are reused, so each value must be read before its name
        # is assigned again: the batched kernel, the fused function and
        # the generated RK4 loop
        _name, ast, dim = case
        names = lagrangian_varnames(dim)
        for src in (generate_source(ast, names), generate_solve_source(ast, names),
                    generate_step_source(ast, names)):
            assert unread_values(src) == []

    @pytest.mark.parametrize("case", fused_cases(), ids=lambda c: c[0])
    def test_outputs_bit_identical_to_unpruned(self, case):
        _name, ast, dim = case
        names = lagrangian_varnames(dim)
        pruned_src = generate_solve_source(ast, names)
        full_src = oracle_source(generate_solve_source, ast, names, dead_lines=True)
        assert len(pruned_src.splitlines()) <= len(full_src.splitlines())
        pruned, full = build_terms(pruned_src), build_terms(full_src)
        rng = np.random.default_rng(29)
        for _ in range(50):
            point = [*rng.uniform(-1.0, 1.0, dim), *rng.uniform(-0.5, 0.5, dim)]
            assert [*map(float.hex, pruned(*point))] == [*map(float.hex, full(*point))]

    def test_charged_twin_loses_its_dead_lines(self):
        (_name, ast, dim), = [c for c in fused_cases() if c[0] == "charged+chi"]
        names = lagrangian_varnames(dim)
        pruned = generate_solve_source(ast, names)
        full = oracle_source(generate_solve_source, ast, names, dead_lines=True)
        assert len(pruned.splitlines()) < len(full.splitlines())

    def test_batched_kernel_loses_its_dead_lines(self):
        # u^0.0 is 1.0 whatever u is: sqrt(-x2) is dead, and at x2 = 1
        # computing it would warn of an invalid value
        ast = exprlang.parse("sqrt(-x2)^0.0 + x1")
        names = ["x1", "x2"]
        assert "sqrt" not in generate_source(ast, names)
        assert "sqrt" in oracle_source(generate_source, ast, names, dead_lines=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = eval_batch(compile_field(ast, names), [[0.5, 1.0]], [[1.0, 0.0]], [[0.0, 1.0]])
        assert out[0].tolist() == [1.5, 1.0, 0.0, 0.0]


def most_live(plain):
    """The fewest names a kernel with the lines of the one-name-per-line
    source `plain` can use: at each line, the values it reads, and the
    value it assigns beside every earlier one read later."""
    lines = [line.strip().split(" = ", 1) for line in plain.splitlines()[1:]]
    last = {name: i for i, (_target, expr) in enumerate(lines) for name in TEMP.findall(expr)}
    defs = [(i, target) for i, (target, _expr) in enumerate(lines) if TEMP.fullmatch(target)]
    most = 0
    for i, _target in defs:
        earlier = [last.get(name, -1) for d, name in defs if d < i]
        most = max(most, sum(r >= i for r in earlier), 1 + sum(r > i for r in earlier))
    return most


class TestReusedNames:
    """The batched kernel reuses a temporary's name once its value's last
    reader has run; the operations, their order and their operands are
    those of the emitter's live lines, so the outputs are too."""

    @pytest.mark.parametrize("case", fused_cases(), ids=lambda c: c[0])
    def test_outputs_identical_to_one_name_per_line(self, case):
        _name, ast, dim = case
        names = lagrangian_varnames(dim)
        plain_src = plain_source(ast, names)
        assert len(temporaries(generate_source(ast, names))) < len(temporaries(plain_src))
        plain = exec_kernel(plain_src)
        rng = np.random.default_rng(61)
        vals = np.hstack([rng.uniform(-1.0, 1.0, (600, dim)), rng.uniform(-0.5, 0.5, (600, dim))])
        d1, d2 = rng.uniform(-1.0, 1.0, (2, 600, 2 * dim))
        got = eval_batch(compile_field(ast, names), vals, d1, d2)
        assert got.tobytes() == eval_batch(plain, vals, d1, d2).tobytes()

    @pytest.mark.parametrize("case", fused_cases() + [
        (f"random{k}", ast, None) for k, (ast, _env) in enumerate(
            random_cases(40, varnames=VARNAMES, depth=5, seed=83))
    ], ids=lambda c: c[0])
    def test_no_value_read_after_its_name_is_reassigned(self, case):
        # line by line the two sources hold the same operation; each name
        # a renamed line reads must still hold the value that the plain
        # source's temporary at that place holds
        _name, ast, dim = case
        names = VARNAMES if dim is None else lagrangian_varnames(dim)
        renamed = generate_source(ast, names).splitlines()[1:]
        plain = plain_source(ast, names).splitlines()[1:]
        assert len(renamed) == len(plain)
        holds = {}  # name in the renamed source -> plain temporary
        for line, oracle in zip(renamed, plain):
            target, expr = line.strip().split(" = ", 1)
            plain_target, plain_expr = oracle.strip().split(" = ", 1)
            assert TEMP.sub("t", expr) == TEMP.sub("t", plain_expr)
            for name, value in zip(TEMP.findall(expr), TEMP.findall(plain_expr), strict=True):
                assert holds.get(name) == value, f"{line.strip()!r}: {name} no longer holds {value}"
            if TEMP.fullmatch(target):
                holds[target] = plain_target

    @pytest.mark.parametrize("case", fused_cases(), ids=lambda c: c[0])
    def test_peak_memory_is_the_live_temporaries(self, case):
        # the kernel uses the fewest names its values allow, and at 4096
        # probes, where every temporary is a 32 KiB array, one call's
        # traced peak is at most one array per live value plus four
        _name, ast, dim = case
        names = lagrangian_varnames(dim)
        live = most_live(plain_source(ast, names))
        assert len(temporaries(generate_source(ast, names))) == live
        kernel = compile_field(ast, names)
        rng = np.random.default_rng(5)
        probes = 4096
        vals = np.hstack([rng.uniform(-1.0, 1.0, (probes, dim)),
                          rng.uniform(-0.5, 0.5, (probes, dim))])
        d1, d2 = rng.uniform(-1.0, 1.0, (2, probes, 2 * dim))
        out = np.empty((probes, 4))
        kernel(vals, d1, d2, out)  # first call: nothing left to set up
        tracemalloc.start()
        try:
            kernel(vals, d1, d2, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (live + 4) * 8 * probes


def gauge_cases():
    """(id, expression, system) for the Lagrangian of every bundled
    system and each of its gauge twins (one per configured chi), in
    every chart."""
    cases = []
    for name in bundled_system_names():
        system = bundled_system(name)
        twins = [gauge_shift(system.lagrangian, chi) for chi in system.chis]
        for chart in system.atlas.charts:
            for k, lam in enumerate([system.lagrangian] + twins):
                cases.append((f"{name}/{chart.id}/{f'chi{k}' if k else 'L'}",
                              lam.expr(chart.id), system))
    return cases


class TestOpTape:
    """compile_field runs the records that generate_source formats as
    text: its outputs are those of the text run by exec, bit for bit."""

    @staticmethod
    def both(ast, names, vals, d1, d2):
        """The outputs of compile_field's kernel and of exec of
        generate_source's text on the same probes."""
        tape, text = np.empty((2, vals.shape[0], 4))
        compile_field(ast, names)(vals, d1, d2, tape)
        exec_kernel(generate_source(ast, names))(vals, d1, d2, text)
        return tape, text

    @pytest.mark.parametrize("case", gauge_cases(), ids=lambda c: c[0])
    @pytest.mark.parametrize("probes", [1, 16, 4096])
    def test_bitwise_equal_to_the_text(self, case, probes):
        _name, ast, system = case
        n = system.dim
        names = lagrangian_varnames(n)
        rng = np.random.default_rng(probes)
        vals = np.hstack([rng.uniform(-1.0, 1.0, (probes, n)),
                          rng.uniform(-system.v_halfwidth, system.v_halfwidth, (probes, n))])
        d1, d2 = rng.uniform(-1.0, 1.0, (2, probes, 2 * n))
        tape, text = self.both(ast, names, vals, d1, d2)
        assert np.isfinite(text).all()
        assert tape.tobytes() == text.tobytes()

    @pytest.mark.parametrize("p", [0.5, -1.0, 2.0, 3.0, 1.0 / 3.0])
    def test_power_at_zeros_infinities_and_nan(self, p):
        # x^p is np.power(x, p), the ufunc that the text's ** calls,
        # in one call on every point and in one call per point
        ast = exprlang.expression(f"x1^{p!r}", ["x1"])
        x = np.array([[0.0], [-0.0], [math.inf], [-math.inf], [math.nan], [2.0], [-2.0]])
        seeds = np.ones_like(x)
        with np.errstate(all="ignore"):
            tape, text = self.both(ast, ["x1"], x, seeds, seeds)
            assert tape[:, 0].tobytes() == np.power(x[:, 0], p).tobytes()
            assert tape.tobytes() == text.tobytes()
            for row in range(len(x)):
                one = slice(row, row + 1)
                tape, text = self.both(ast, ["x1"], x[one], seeds[one], seeds[one])
                assert tape.tobytes() == text.tobytes()

    @pytest.mark.parametrize("text, expected", [
        ("2.5", [2.5, 0.0, 0.0, 0.0]),  # every output a literal
        ("x2", [3.0, 0.5, -2.0, 0.0]),  # outputs the bare slots w1, w1a, w1b
    ])
    def test_outputs_without_an_op(self, text, expected):
        ast = exprlang.parse(text)
        vals, d1, d2 = (np.array([row] * 3) for row in ([1.0, 3.0], [1.0, 0.5], [0.0, -2.0]))
        assert kernels._batched(ast, ["x1", "x2"])[1] == []
        tape, text_out = self.both(ast, ["x1", "x2"], vals, d1, d2)
        assert tape.tolist() == [expected] * 3
        assert tape.tobytes() == text_out.tobytes()

    def test_output_register_shared_with_an_operand(self):
        # t0 = t0 * x reads and writes one register, in place on the tape
        ast = exprlang.parse("sin(x1)*x2 + cos(x1)/x2")
        _inputs, records, _results = kernels._batched(ast, ["x1", "x2"])
        assert any(name in args for name, _template, args in records)
        rng = np.random.default_rng(3)
        for probes in (1, 16, 4096):
            vals, d1, d2 = rng.uniform(0.5, 2.0, (3, probes, 2))
            tape, text = self.both(ast, ["x1", "x2"], vals, d1, d2)
            assert tape.tobytes() == text.tobytes()

    def test_in_place_add_on_one_probe_keeps_nan(self):
        # the one difference numpy makes: an add into its first
        # operand's register runs numpy's reduction loop on a single
        # probe, which can return the other operand's NaN (here +NaN for
        # the text's -NaN, on numpy 2.4); on two probes it does not
        ast = exprlang.parse("sqrt(x1)*x2 + x2*x2")
        _inputs, records, _results = kernels._batched(ast, ["x1", "x2"])
        assert ("t0", "{} + {}", ["t0", "t7"]) in records
        vals, seeds = np.array([[-1.0, math.nan]] * 2), np.zeros((2, 2))
        with np.errstate(all="ignore"):
            tape, text = self.both(ast, ["x1", "x2"], vals, seeds, seeds)
            assert tape.tobytes() == text.tobytes()
            tape, text = self.both(ast, ["x1", "x2"], vals[:1], seeds[:1], seeds[:1])
        assert np.isnan(tape[0, 0]) and np.isnan(text[0, 0])
        assert np.array_equal(tape, text, equal_nan=True)


# the columns the library reads: values, momenta, Euler-Lagrange
# covectors and jets_in_t, and gradients (eval_rows)
LIBRARY_READS = [(0,), (0, 1), (0, 1, 3), (1,)]


def probes_with_non_finite_rows(rng, system, probes):
    """vals, d1, d2 of `probes` seeded probes of a system's Lagrangian;
    from 16 probes on, every fourth row holds a NaN or an infinity, and
    every seventh a velocity off the domain of the relativistic L."""
    n = system.dim
    vals = np.hstack([rng.uniform(-1.0, 1.0, (probes, n)),
                      rng.uniform(-system.v_halfwidth, system.v_halfwidth, (probes, n))])
    d1, d2 = rng.uniform(-1.0, 1.0, (2, probes, 2 * n))
    if probes >= 16:
        bad = np.arange(0, probes, 4)
        vals[bad, rng.integers(0, 2 * n, bad.size)] = rng.choice([math.nan, math.inf, -math.inf],
                                                                  bad.size)
        vals[np.arange(3, probes, 7), n] = 2.0
    return vals, d1, d2


class TestReads:
    """compile_field(..., reads=r) runs only the records the outputs r
    depend on, and each column it writes is the full kernel's, bit for
    bit."""

    @pytest.mark.parametrize("case", gauge_cases(), ids=lambda c: c[0])
    @pytest.mark.parametrize("probes", [1, 16, 4096])
    def test_bitwise_equal_to_the_full_kernel(self, case, probes):
        _name, ast, system = case
        names = lagrangian_varnames(system.dim)
        rng = np.random.default_rng(probes + 7)
        batches = [probes_with_non_finite_rows(rng, system, probes)]
        if probes == 1:  # one probe on its own, off the domain
            vals, d1, d2 = probes_with_non_finite_rows(rng, system, 1)
            vals[0, 0] = math.nan
            batches.append((vals, d1, d2))
        for vals, d1, d2 in batches:
            full = np.empty((probes, 4))
            with np.errstate(all="ignore"):
                compile_field(ast, names)(vals, d1, d2, full)
                for reads in LIBRARY_READS:
                    out = np.empty((probes, len(reads)))
                    compile_field(ast, names, reads=reads)(vals, d1, d2, out)
                    assert out.tobytes() == np.ascontiguousarray(full[:, reads]).tobytes(), reads

    @pytest.mark.parametrize("system, chi, counts", [
        ("charged", None, [62, 47, 29, 11]),
        ("charged", "(-0.745873181125018)*sin((-0.32868146675533627)*x2)*cos(x3)"
                    " + (-0.4888506996347092)*x2*x3", [174, 151, 76, 30]),
        ("relativistic", None, [67, 56, 29, 11]),
        ("circle", None, [34, 28, 15, 5]),
    ])
    def test_records_kept(self, system, chi, counts):
        # the full kernel, then the columns of el_covectors, momenta
        # and values
        system = bundled_system(system)
        lam = system.lagrangian if chi is None else gauge_shift(system.lagrangian, chi)
        ast = lam.expr(system.default_chart())
        names = lagrangian_varnames(system.dim)
        tape = kernels._Tape(None, *kernels._batched(ast, names))
        all_reads = [kernels.FULL, (0, 1, 3), (0, 1), (0,)]
        assert [sum(tape.live(reads)) for reads in all_reads] == counts
        # the same counts from prune on the emitter's lines, one name each
        lines = {}

        def capture(emitted, results, inputs=()):
            lines["records"] = [(name, template, atoms)
                                for (template, atoms), name in emitted.items()]
            lines["results"] = results
            return [], results

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_render", capture)
            kernels._batched(ast, names)
        assert [len(prune(lines["records"], [lines["results"][c] for c in reads]))
                for reads in all_reads] == counts

    def test_value_kernel_reads_no_seed(self):
        # a kernel of the value reads neither seed argument, and one of
        # the value and d1 does not read d2
        ast = exprlang.parse(AGREE_EXPR)
        vals = np.array([[0.5, 1.5, 2.0], [1.0, 0.25, -1.0]])
        d1 = np.array([[1.0, 0.0, 0.5], [0.0, 2.0, 1.0]])
        full = eval_batch(compile_field(ast, VARNAMES), vals, d1, d1)
        value = eval_batch(compile_field(ast, VARNAMES, reads=(0,)), vals, None, None, 1)
        first = eval_batch(compile_field(ast, VARNAMES, reads=(0, 1)), vals, d1, None, 2)
        assert value.tobytes() == np.ascontiguousarray(full[:, :1]).tobytes()
        assert first.tobytes() == np.ascontiguousarray(full[:, :2]).tobytes()

    def test_one_walk_per_text(self, monkeypatch):
        # every reads of one text shares its tape: the expression is
        # walked once, and each reads is built once
        monkeypatch.setattr(kernels, "_CACHE", {})
        walks = []
        real = kernels._batched
        monkeypatch.setattr(kernels, "_batched", lambda *a: walks.append(a) or real(*a))
        ast = exprlang.parse(AGREE_EXPR)
        kernel = compile_field(ast, VARNAMES, reads=(0, 1))
        compile_field(exprlang.parse(AGREE_EXPR), VARNAMES, reads=(0,))
        assert compile_field(ast, VARNAMES, reads=(0, 1)) is kernel
        assert compile_field(ast, VARNAMES) is not kernel
        assert len(walks) == 1

    @pytest.mark.parametrize("reads", [(), (1, 0), (0, 0), (4,), (0, 1, 2, 3, 4)])
    def test_reads_must_be_increasing_columns(self, reads):
        with pytest.raises(ValueError, match="reads must be increasing columns"):
            compile_field(exprlang.parse("x1"), ["x1"], reads=reads)


class TestSign:
    """sign(x): 1.0, -1.0, 0.0 at either zero and NaN at NaN, with zero
    derivatives, from the interpreter on reals and on Hyperdual scalars,
    the batched kernel and the fused function."""

    @pytest.mark.parametrize("x, expected", [
        (-1.0, -1.0), (-0.0, 0.0), (0.0, 0.0), (2.0, 1.0), (math.nan, math.nan),
    ])
    def test_one_answer(self, x, expected):
        ast = exprlang.parse("sign(x1)")
        interpreted = exprlang.evaluate(ast, {"x1": x})
        dual = exprlang.evaluate(ast, {"x1": Hyperdual(x, 1.0, 1.0)})
        out = eval_batch(compile_field(ast, ["x1"]), [[x]], [[1.0]], [[1.0]])
        terms = kernels.compile_solve(exprlang.parse("sign(x1)*v1"), ["x1", "v1"])(x, 1.0)
        quads = [(interpreted, 0.0, 0.0, 0.0), (dual.val, dual.d1, dual.d2, dual.d12),
                 tuple(out[0]), terms]  # terms: L, dL/dx1, C.v, d2L/dv1^2
        for quad in quads:
            assert [*map(float.hex, quad)] == [*map(float.hex, (expected, 0.0, 0.0, 0.0))]

    def test_folds_a_constant(self):
        ast = exprlang.parse("sign(-3)*x1")
        assert "sign" not in generate_source(ast, ["x1"])
        out = eval_batch(compile_field(ast, ["x1"]), [[2.0]], [[1.0]], [[0.0]])
        assert out[0].tolist() == [-2.0, -1.0, 0.0, 0.0]


class TestKernelBatchScript:
    def test_agrees_with_the_interpreter(self):
        # benchmarks/kernel_batch.py exits 1 if a column of a kernel of
        # any reads differs from the Hyperdual interpreter by more than
        # 1e-12 relative, or its C probe loop's from the tape in a bit
        root = Path(__file__).resolve().parents[1]
        run = subprocess.run(
            [sys.executable, str(root / "benchmarks" / "kernel_batch.py"),
             "--sizes", "1", "16", "--repeats", "1"],
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stdout + run.stderr
        assert run.stdout.count(" ok (") == 16  # 2 kernels, 2 sizes, 4 reads
        if shutil.which("cc") is not None:
            assert run.stdout.count("  identical") == 32  # and 2 layouts


class TestTextsScript:
    def test_one_digest_per_text(self):
        # benchmarks/texts.py prints "label text sha256" for every
        # Lagrangian and each of its four generated texts, then its
        # probe loop where it has one, and for the forced charged
        # particle its two loops
        root = Path(__file__).resolve().parents[1]
        run = subprocess.run(
            [sys.executable, str(root / "benchmarks" / "texts.py")],
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stdout + run.stderr
        # every generated text is byte-identical to the committed record
        expected = (root / "benchmarks" / "texts.expected").read_text().splitlines()
        assert run.stdout.splitlines() == expected
        rows = [line.split(" ") for line in run.stdout.splitlines()]
        probes = [label for label, text, _digest in rows if text == "probes"]
        assert {"charged[0]", "charged+chi0", "relativistic[0]", "circle[1]",
                "sign-abs"} <= set(probes)
        assert not {"charged+chi2", "powers", "general-exponent", "tan-log"} & set(probes)
        assert all(prev[1] == "c" for prev, row in zip(rows, rows[1:]) if row[1] == "probes")
        rows = [row for row in rows if row[1] != "probes"]
        labels = list(dict.fromkeys(label for label, _text, _digest in rows))
        texts = ["batched", "solve", "python", "c"]
        # the forced charged particle has its two loops, the last rows
        assert [text for _label, text, _digest in rows] == texts * (len(labels) - 1) + texts[2:]
        assert labels[-1] == "charged-forced"
        assert all(re.fullmatch("[0-9a-f]{64}", digest) for _label, _text, digest in rows)
        assert {"charged[0]", "charged+chi0", "circle[1]", "full-3"} <= set(labels)
        charged = bundled_system("charged").lagrangian.expr("0")
        digest = hashlib.sha256(generate_step_source(charged, lagrangian_varnames(3)).encode())
        assert ["charged[0]", "python", digest.hexdigest()] in rows


class TestStepSource:
    """The generated RK4 loop inlines the fused terms, and a velocity
    Hessian of literals is adjugated and guarded at codegen time."""

    @pytest.mark.parametrize("n", [0, 4])
    def test_only_small_dimensions(self, n):
        with pytest.raises(ValueError, match="1 <= n <= 3"):
            generate_step_source(exprlang.parse("1"), lagrangian_varnames(n))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_compiles_without_a_terms_call(self, n):
        names = lagrangian_varnames(n)
        text = " + ".join(f"(1 + x{i}^2)*v{i}^2 - cos(x{i})*v1" for i in range(1, n + 1))
        src = generate_step_source(exprlang.parse(text), names)
        compile(src, "<step>", "exec")
        assert "_terms(" not in src

    @pytest.mark.parametrize("case, literal", [
        ("charged", True), ("charged+chi", True), ("free", True), ("relativistic", False),
    ])
    def test_literal_hessian_has_no_runtime_guard(self, case, literal):
        (_name, ast, dim), = [c for c in fused_cases() if c[0] == case]
        src = generate_step_source(ast, lagrangian_varnames(dim))
        guarded = [bool(re.search(r"\bdet\b", src)), "abs(" in src]
        assert guarded == [not literal] * 2


class TestCacheBound:
    @pytest.fixture
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(kernels, "_CACHE", {})

    def test_least_recently_used_is_evicted(self, empty_cache):
        size = kernels.CACHE_SIZE
        asts = [exprlang.parse(f"x1 + {k}") for k in range(size + 3)]
        first, second = (compile_field(ast, ["x1"]) for ast in asts[:2])
        for ast in asts[2:size]:
            compile_field(ast, ["x1"])
        assert compile_field(asts[0], ["x1"]) is first  # a hit is a use
        for ast in asts[size:]:
            compile_field(ast, ["x1"])
        assert len(kernels._CACHE) == size
        assert compile_field(asts[0], ["x1"]) is first
        again = compile_field(asts[1], ["x1"])  # evicted: compiled anew
        assert again is not second
        for kernel in (second, again):
            out = eval_batch(kernel, [[2.0]], [[1.0]], [[0.0]])
            assert out[0].tolist() == [3.0, 1.0, 0.0, 0.0]

    def test_evicted_engine_tape_is_rebuilt(self, empty_cache, monkeypatch):
        # no engine holds a kernel: after an eviction its operators walk
        # the expression again, once for all their reads, and give the
        # same bytes
        walks = []
        real = kernels._batched
        monkeypatch.setattr(kernels, "_batched", lambda *a: walks.append(a) or real(*a))
        system = bundled_system("charged")
        eng = gauge_shift(system.lagrangian, system.chis[0]).engine(system.default_chart())
        rng = np.random.default_rng(17)
        x, v, a = (rng.uniform(-1.0, 1.0, (700, 3)) for _ in range(3))

        def outputs():
            return [eng.values(x, v).tobytes(), eng.momenta(x, v).tobytes(),
                    eng.el_covectors(x, v, a).tobytes()]

        first = outputs()
        assert walks == [(eng.ast, eng.varnames)]
        kernels._CACHE.clear()
        assert outputs() == first
        assert walks == [(eng.ast, eng.varnames)] * 2


def nodes(ast):
    """Every node of the tree, the root first."""
    yield ast
    for child in (getattr(ast, "child", None), getattr(ast, "left", None),
                  getattr(ast, "right", None), *getattr(ast, "args", ())):
        if child is not None:
            yield from nodes(child)


class TestCacheKey:
    """The cache key is the expression's text, which each node renders
    once and keeps."""

    def test_a_hit_renders_no_text(self, monkeypatch):
        monkeypatch.setattr(kernels, "_CACHE", {})
        rendered = []
        real = exprlang._render
        monkeypatch.setattr(exprlang, "_render", lambda ast: rendered.append(id(ast)) or real(ast))
        system = bundled_system("charged")  # a fresh tree, never rendered
        names = lagrangian_varnames(system.dim)
        lagrangian = system.lagrangian.expr(system.default_chart())
        own = {id(node) for node in nodes(lagrangian)}
        kernel = compile_field(lagrangian, names, reads=(0, 1))
        assert sorted(rendered) == sorted(own)  # each node once
        rendered.clear()
        assert compile_field(lagrangian, names, reads=(0, 1)) is kernel
        compile_field(lagrangian, names)
        assert rendered == []
        # the twin L + <d(chi), v> renders the nodes the shift adds, and
        # reads the Lagrangian's kept text for its subtree
        twin = gauge_shift(system.lagrangian, system.chis[0]).expr(system.default_chart())
        compile_field(twin, names)
        assert any(node is lagrangian for node in nodes(twin))
        assert rendered and own.isdisjoint(rendered)

    def test_text_is_no_field(self):
        ast = exprlang.parse("sin(x1)*x2 - 2")
        fresh = exprlang.parse("sin(x1)*x2 - 2")
        exprlang.to_text(ast)
        assert "text" in vars(ast) and "text" not in vars(fresh)
        assert ast == fresh and hash(ast) == hash(fresh) and repr(ast) == repr(fresh)
        assert exprlang.to_text(fresh) == exprlang.to_text(ast) == "((sin(x1)*x2)-2.0)"


class TestAvbenchSurface:
    """The backend names the avbench harness still reads: one backend,
    "numpy", whatever the environment says, and any other name is a
    ValueError."""

    LAM = GaugeClassLagrangian.from_exprs(euclidean_atlas(1), "0.5*v1^2 - cos(x1)")
    Q = SecondOrderPoint.of([0.3], [0.5], [0.1])

    def test_one_backend(self, monkeypatch):
        monkeypatch.setenv("AVCALC_BACKEND", "numba")
        assert BACKENDS == ("numpy",)
        assert default_backend() == "numpy"

    def test_numpy_argument_changes_nothing(self):
        ast = exprlang.parse(AGREE_EXPR)
        assert generate_source(ast, VARNAMES, "numpy") == generate_source(ast, VARNAMES)
        el = euler_lagrange(self.LAM, self.Q, "0")
        assert euler_lagrange(self.LAM, self.Q, "0", "numpy") == el

    def test_other_backend_rejected(self):
        with pytest.raises(ValueError, match="numba"):
            generate_source(exprlang.parse("x1"), ["x1"], "numba")
        with pytest.raises(ValueError, match="numba"):
            euler_lagrange(self.LAM, self.Q, "0", "numba")
