"""The library's kernels of one row per point, built from literal-seeded
tables by the one seeded walk (kernels._lagrangian, _gradient, _jet):

  * a differential fuzz of each table's columns against the interpreter
    on Hyperdual scalars at the same seeds, as test_engine_fuzz does for
    compile_field, and against compile_field's kernel at those seeds
    given at run time (the layout every operator used before the tables);
  * E, p, the gradient and the jets against that run-time-seeded layout
    on every bundled Lagrangian per chart and every configured twin: bit
    for bit, but for the sign of a zero where the point has a zero
    coordinate or the table folds the output to a literal;
  * one named case per operator whose domain behaviour the folds change:
    a literal 0 seed drops a 0 * inf that a run-time 0 made a NaN.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings

from avcalc import exprlang, kernels
from avcalc.dynamics import (
    GaugeClassLagrangian,
    SecondOrderPoint,
    euler_lagrange,
    gauge_shift,
    lagrangian_varnames,
    legendre,
)
from avcalc.errors import DomainError
from avcalc.geometry import euclidean_atlas, eval_rows, jets_in_t
from avcalc.kernels import compile_field, eval_chunked
from avcalc.lowering import _lit
from avcalc.systems import bundled_system, bundled_system_names
from test_engine_fuzz import COORDS, VARNAMES, drops_an_operand, oracle, trees, unchecked_raise

# rows (x1, x2, a): as a Lagrangian's point, n = 1 with x = x1, v = x2
ROWS = np.array([(x1, x2, a) for x1 in COORDS for x2 in COORDS for a in (0.5, -1.0)])
ZERO, E1, E2 = (0.0, 0.0), (1.0, 0.0), (0.0, 1.0)
# table -> (vals columns, the probes (d1, d2) of a row, the (probe,
# component) of each output), written out apart from kernels
TABLES = {
    "_lagrangian": (3, lambda r: [(ZERO, ZERO), (E1, ZERO), (E2, (r[1], r[2]))],
                    [(0, 0), (1, 1), (2, 1), (2, 3)]),
    "_gradient": (2, lambda r: [(ZERO, ZERO), (E1, ZERO), (E2, ZERO)], [(0, 0), (1, 1), (2, 1)]),
    "_jet": (2, lambda r: [((1.0, 1.0), (1.0, 1.0))], [(0, 0), (0, 1), (0, 3)]),
}


def table_outputs(ast, table, names, vals, reads):
    """The outputs `reads` of the table's kernel at the rows vals."""
    kernel = compile_field(ast, names, reads=reads, _table=table)
    return eval_chunked(kernel, vals, None, None, len(reads))


@settings(max_examples=150, database=None, derandomize=True, deadline=None)
@given(trees)
def tables_match_hyperdual_interpreter(ast):
    text = exprlang.to_text(ast)
    for table, (width, probes, picks) in TABLES.items():
        got = table_outputs(ast, table, VARNAMES, ROWS[:, :width], tuple(range(len(picks))))
        # the same probes with their seeds given at run time
        seeds = np.array([[(*row[:2], *d1, *d2) for d1, d2 in probes(row)] for row in ROWS])
        flat = seeds.reshape(-1, 6)
        field = eval_chunked(compile_field(ast, VARNAMES), flat[:, :2], flat[:, 2:4],
                             flat[:, 4:]).reshape(len(ROWS), -1, 4)
        # the value's records are compile_field's, bit for bit
        assert got[:, 0].tobytes() == field[:, 0, 0].tobytes(), (text, table)
        for row, out, probe_rows, fields in zip(ROWS, got, seeds, field):
            refs = [oracle(ast, r) for r in probe_rows]
            for k, (p, c) in enumerate(picks):
                ref, f = refs[p], fields[p, c]
                # a literal seed folds only what run-time seeds make non-finite
                assert not np.isfinite(f) or np.isfinite(out[k]), (text, table, row, k)
                if drops_an_operand(ast):
                    continue
                if ref is not None and math.isfinite(ref[c]):
                    scale = max(1.0, abs(ref[c]))
                    assert abs(out[k] - ref[c]) <= 1e-12 * scale, (text, table, row, k, ref, out)
                else:
                    assert (not np.isfinite(out[k]) or not np.isfinite(f)
                            or unchecked_raise(ast, probe_rows[p])), (text, table, row, k, out)


def test_tables_match_hyperdual_interpreter():
    # run from a plain test function, as test_engine_fuzz does
    tables_match_hyperdual_interpreter()


def lagrangians():
    """(label, Lagrangian, chart, system) of every bundled Lagrangian in
    each of its charts and of its twin under each configured chi."""
    for name in bundled_system_names():
        system = bundled_system(name)
        for chart in system.atlas.charts:
            yield f"{name}[{chart.id}]", system.lagrangian, chart.id, system
        for k, chi in enumerate(system.chis):
            yield f"{name}+chi{k}", gauge_shift(system.lagrangian, chi), system.default_chart(), system


def run_time_seeded(ast, names, vals, seeds, reads, d2=None):
    """compile_field's outputs `reads` at every row of vals repeated once
    per row of seeds (d1), with d2 zero or the given rows: the layout
    of the operators before the tables, (points, seeds, reads)."""
    points, k = len(vals), len(seeds)
    d1 = np.tile(seeds, (points, 1))
    out = eval_chunked(compile_field(ast, names, reads=reads), vals.repeat(k, axis=0), d1,
                       np.zeros_like(d1) if d2 is None else d2, len(reads))
    return out.reshape(points, k, len(reads))


def signed_zeros(got, want, allowed):
    """Assert that got and want differ in a bit only in the sign of a
    zero, and only where `allowed` (broadcast to their shape)."""
    differ = got.view(np.uint64) != want.view(np.uint64)
    assert not (differ & ~((got == 0) & (want == 0))).any(), "a value differs"
    assert not (differ & ~np.broadcast_to(allowed, got.shape)).any(), "a zero's sign differs"


def folded(ast, names):
    """Per gradient-table output, whether the walk folds it to a literal."""
    return np.array([_lit(atom) is not None for atom in kernels._gradient(ast, names)[2]])


@pytest.mark.parametrize("label", [label for label, *_rest in lagrangians()])
def test_operators_equal_the_run_time_seeded_layout(label):
    _label, lam, chart, system = next(case for case in lagrangians() if case[0] == label)
    n, m = system.dim, 2 * system.dim
    names = lagrangian_varnames(n)
    ast, eng = lam.expr(chart), lam.engine(chart)
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.5, 0.5, (600, n))
    v = rng.uniform(-0.5, 0.5, (600, n)) * system.v_halfwidth
    a = rng.uniform(-1.0, 1.0, (600, n))
    for arr in (x, v, a):  # a third of the coordinates are zeros of either sign
        zeros = rng.random(arr.shape) < 1 / 3
        arr[zeros] = np.copysign(0.0, rng.uniform(-1.0, 1.0, zeros.sum()))
    xv = np.hstack([x, v])
    zero_point = (np.hstack([x, v, a]) == 0.0).any(axis=1)[:, None]
    d2 = np.zeros((600, m, m))
    d2[:, n:] = np.hstack([v, a])[:, None]
    el = run_time_seeded(ast, names, xv, np.eye(m), (0, 1, 3), d2.reshape(-1, m))
    with np.errstate(invalid="ignore"):
        e = el[:, :n, 1] - el[:, n:, 2]
    p = run_time_seeded(ast, names, xv, np.eye(m)[n:], (0, 1))[:, :, 1]
    g = run_time_seeded(ast, names, xv, np.eye(m), (1,))[:, :, 0]
    signed_zeros(eng.el_covectors(x, v, a), e, zero_point)
    signed_zeros(eng.momenta(x, v), p, zero_point)
    signed_zeros(eval_rows([ast], names, xv, grad=True)[:, 0], g,
                 zero_point | folded(ast, names)[1:])
    assert eng.values(x, v).tobytes() == el[:, 0, 0].tobytes()


@pytest.mark.parametrize("name", bundled_system_names())
def test_jets_equal_the_run_time_seeded_layout(name):
    for segment in bundled_system(name).curve.segments:
        t = np.linspace(segment.t0, segment.t1, 257)
        t[::16] = np.copysign(0.0, np.cos(t[::16]))
        ones = np.ones((len(t), 1))
        want = [run_time_seeded(e, ("t",), t[:, None], np.ones((1, 1)), (0, 1, 3), ones)[:, 0]
                for e in segment.exprs]
        got = jets_in_t(segment.exprs, t)
        for k, e in enumerate(segment.exprs):
            folds = [_lit(atom) is not None for atom in kernels._jet(e, ("t",))[2]]
            signed_zeros(got[:, :, k].T, want[k], (t == 0.0)[:, None] | folds)


# The named cases: each operator gives a finite answer where the
# run-time seeds made a NaN of a 0 seed times an infinite derivative
# that no output needs, and the interpreter raises on that derivative.

FREE_2D = "0.5*(v1^2 + v2^2)"


def test_legendre_folds_a_position_term_singular_at_zero():
    # sqrt(x1) is singular at x1 = 0, and its derivative along a
    # velocity seed is 0: the momenta are those of the free particle
    lam = GaugeClassLagrangian.from_exprs(euclidean_atlas(2), f"sqrt(x1) + {FREE_2D}")
    ast = lam.expr("0")
    before = run_time_seeded(ast, lagrangian_varnames(2), np.array([[0.0, 0.5, 0.3, -0.2]]),
                             np.eye(4)[2:], (0, 1))
    assert np.isnan(before[0, :, 1]).all()
    assert legendre(lam, [0.0, 0.5], [0.3, -0.2], "0").p == (0.3, -0.2)
    with pytest.raises(DomainError, match="sqrt"):
        euler_lagrange(lam, SecondOrderPoint.of([0.0, 0.5], [0.3, -0.2], [0.0, 0.0]), "0")


def test_euler_lagrange_folds_a_second_derivative_that_overflows():
    # at x1 = 1e-250, sqrt(x1)'s second derivative overflows to -inf; the
    # velocity probes' 0 seed in x1 multiplied it into d/dt p
    lam = GaugeClassLagrangian.from_exprs(euclidean_atlas(2), f"sqrt(x1) + {FREE_2D}")
    x, v, acc = [1e-250, 0.5], [0.3, -0.2], [0.1, 0.4]
    d2 = np.zeros((4, 4))
    d2[2:] = [*v, *acc]
    before = run_time_seeded(lam.expr("0"), lagrangian_varnames(2), np.array([[*x, *v]]),
                             np.eye(4), (0, 1, 3), d2)
    assert np.isnan(before[0, 2:, 2]).all()
    e = euler_lagrange(lam, SecondOrderPoint.of(x, v, acc), "0").p
    assert e == (0.5 / math.sqrt(1e-250) - 0.1, -0.4)


def test_gradient_folds_a_literal_zero_difference_of_seeds():
    # d(x1 - x1)/dx1 is the literal 1 - 1 = 0, and 0 / 0 folds to 0;
    # the value itself, 0 / 0, is still not finite
    ast = exprlang.parse("(x1 - x1)/0")
    before = run_time_seeded(ast, ["x1"], np.array([[1.0]]), np.eye(1), (1,))
    assert np.isnan(before).all()
    assert eval_rows([ast], ["x1"], [[1.0]], grad=True).tolist() == [[[0.0]]]
    with pytest.raises(DomainError):
        eval_rows([ast], ["x1"], [[1.0]])


def test_jets_fold_a_literal_zero_difference_of_seeds():
    # sqrt(t - t) is sqrt(0) = 0, whose infinite derivative meets the
    # literal 1 - 1 = 0 of the seeds
    ast = exprlang.parse("sqrt(t - t)")
    ones = np.ones((1, 1))
    before = run_time_seeded(ast, ("t",), np.array([[0.5]]), ones, (0, 1, 3), ones)
    assert np.isnan(before[0, 0, 1:]).all()
    assert jets_in_t([ast], [0.5]).tolist() == [[[0.0]], [[0.0]], [[0.0]]]
