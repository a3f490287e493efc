"""Differential fuzz of the library's one evaluation engine, the batched
kernels of compile_field, against its oracle, the interpreter on
Hyperdual scalars (McKeeman, "Differential Testing for Software", 1998).

Each drawn tree's kernel also gives the same bits as exec of
generate_source's text, the operations the kernel runs as an op tape,
and its kernels of the columns (0,), (0, 1) and (0, 1, 3) give the same
bits as those columns of its full kernel.

Contract: where the interpreter returns finite (value, d1, d2, d12),
the kernel returns the same within 1e-12 of max(1, |reference|); where
the interpreter raises DomainError or ArithmeticError, or returns a
non-finite component, some kernel output is not finite, which every
library caller turns into a DomainError (kernels.require_finite),
unless one of the two rules of unchecked_raise applies.

One rule is excluded and pinned instead: the emitter's exact folds drop
an operand, so a literal 0 times or over u is 0 and u^0 and 1^u are 1
even where u has no real value, and the interpreter, which evaluates
u, raises there.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avcalc import exprlang
from avcalc.autodiff import Hyperdual
from avcalc.errors import DomainError
from avcalc.exprlang import Binary, Call, Number, Unary, Var, free_variables
from avcalc.geometry import eval_rows
from avcalc.kernels import compile_field, eval_chunked, generate_source

VARNAMES = ("x1", "x2")
# domain edges: zero, negatives, and +-1 (the edge of sqrt(1 - v^2))
COORDS = (0.5, -1.0, 1.0, 0.0, -0.5, 2.0, -2.0)
# every tree is evaluated at every point, seeded, and unseeded
ROWS = np.array([(x1, x2, *seeds) for x1 in COORDS for x2 in COORDS
                 for seeds in ((1.0, -0.5, 0.5, 1.0), (0.0,) * 4)])
UNARY = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs", "sign")

leaves = st.one_of(
    st.sampled_from([Var(v) for v in VARNAMES]),
    st.sampled_from([0.0, 1.0, -1.0, 2.0, 0.5, 3.0]).map(Number),
)


def _extend(children):
    return st.one_of(
        children.map(lambda c: Unary("-", c)),
        st.builds(Binary, st.sampled_from("+-*/^"), children, children),
        st.builds(lambda f, c: Call(f, (c,)), st.sampled_from(UNARY), children),
        st.builds(lambda a, b: Call("pow", (a, b)), children, children),
    )


trees = st.recursive(leaves, _extend, max_leaves=8)


def _constant(node, value: float) -> bool:
    """Whether `node` is a constant subtree the emitter folds to the
    literal `value`: no variables, and `value` on floats."""
    if free_variables(node):
        return False
    try:
        return exprlang.evaluate(node, {}) == value
    except (DomainError, ArithmeticError):
        return False


def drops_an_operand(node) -> bool:
    """The excluded rule: somewhere in the tree a literal 0 is multiplied
    by or divides an operand, an operand is raised to the literal 0, or
    the literal 1 is raised to an operand (exp(u log 1) is exp(0 * u))."""
    if isinstance(node, Unary):
        return drops_an_operand(node.child)
    if isinstance(node, Binary):
        if node.op in "*/" and _constant(node.left, 0.0):
            return True
        if node.op == "*" and _constant(node.right, 0.0):
            return True
        if node.op == "^" and (_constant(node.right, 0.0) or _constant(node.left, 1.0)):
            return True
        return drops_an_operand(node.left) or drops_an_operand(node.right)
    if isinstance(node, Call):
        if node.func == "pow" and (_constant(node.args[1], 0.0) or _constant(node.args[0], 1.0)):
            return True
        return any(drops_an_operand(a) for a in node.args)
    return False


def _subtrees(node):
    yield node
    for child in (node.child,) if isinstance(node, Unary) else (
            (node.left, node.right) if isinstance(node, Binary) else getattr(node, "args", ())):
        yield from _subtrees(child)


def unchecked_raise(ast, row) -> bool:
    """Whether a raise of the interpreter at the probe `row` may meet a
    finite kernel output, by one of two rules:

    * sign's derivative is the literal 0, so the kernel differentiates
      sign(u) as a constant and never reads u's derivatives, where the
      interpreter evaluates them and can raise (a singular sqrt at 0);
    * the kernel of a subexpression is not finite at `row`, and IEEE
      arithmetic absorbs it into a finite output (x/inf = 0, exp(-inf) =
      0), where the interpreter raised on that subexpression: the
      kernels check only their outputs (ROADMAP, known defects)."""
    subs = list(_subtrees(ast))
    if any(isinstance(sub, Call) and sub.func == "sign" and free_variables(sub) for sub in subs):
        return True
    return any(not np.isfinite(eval_chunked(compile_field(sub, VARNAMES), row[None, :2],
                                            row[None, 2:4], row[None, 4:])).all()
               for sub in subs)


def oracle(ast, row):
    """(value, d1, d2, d12) of the interpreter on Hyperdual seeds, or
    None where it raises a domain or arithmetic error."""
    env = {name: Hyperdual(row[j], row[2 + j], row[4 + j]) for j, name in enumerate(VARNAMES)}
    try:
        r = exprlang.evaluate(ast, env)
    except (DomainError, ArithmeticError):
        return None
    return (r.val, r.d1, r.d2, r.d12) if isinstance(r, Hyperdual) else (float(r), 0.0, 0.0, 0.0)


@settings(max_examples=150, database=None, derandomize=True, deadline=None)
@given(trees)
# found by this fuzz: Hyperdual took an unseeded exponent for a constant
@example(Call("pow", (Var("x1"), Var("x1"))))
# found by this fuzz: a literal over a literal 0 raised ZeroDivisionError
@example(Binary("+", Var("x1"), Binary("/", Number(1.0), Number(0.0))))
def kernel_matches_hyperdual_interpreter(ast):
    got = eval_chunked(compile_field(ast, VARNAMES), ROWS[:, :2], ROWS[:, 2:4], ROWS[:, 4:])
    # the op tape runs the operations of generate_source's text: the
    # same bits as that text run by exec, NaNs and infinities included
    ns = {"math": math, "np": np}
    exec(generate_source(ast, VARNAMES), ns)
    text = eval_chunked(ns["_kernel"], ROWS[:, :2], ROWS[:, 2:4], ROWS[:, 4:])
    assert got.tobytes() == text.tobytes(), exprlang.to_text(ast)
    # a kernel of some columns writes the full kernel's, bit for bit
    for reads in ((0,), (0, 1), (0, 1, 3)):
        part = eval_chunked(compile_field(ast, VARNAMES, reads=reads),
                            ROWS[:, :2], ROWS[:, 2:4], ROWS[:, 4:], len(reads))
        assert part.tobytes() == np.ascontiguousarray(got[:, reads]).tobytes(), (
            exprlang.to_text(ast), reads)
    if drops_an_operand(ast):
        return
    for row, out in zip(ROWS, got):
        ref = oracle(ast, row)
        if ref is None or not all(map(math.isfinite, ref)):
            assert not np.isfinite(out).all() or unchecked_raise(ast, row), (
                exprlang.to_text(ast), row, ref, out)
        else:
            scale = np.maximum(1.0, np.abs(ref))
            assert np.all(np.abs(out - ref) <= 1e-12 * scale), (exprlang.to_text(ast), row, ref, out)


def test_kernel_matches_hyperdual_interpreter():
    # run from a plain test function: for a failing @given test, the
    # hypothesis pytest plugin imports a module (for its patch file) whose
    # import-time DeprecationWarning, an error in this suite, aborts the
    # whole pytest session with an INTERNALERROR
    kernel_matches_hyperdual_interpreter()


@pytest.mark.parametrize("text, x1, expected", [
    ("0*log(x1)", -1.0, 0.0),
    ("0/x1", 0.0, 0.0),
    ("sqrt(-x1)^0.0", 1.0, 1.0),
    ("1^log(x1)", -1.0, 1.0),
])
def test_exact_folds_drop_the_operand(text, x1, expected):
    """Each fold gives its literal where the interpreter raises on the
    dropped operand, through the kernel and the library's route."""
    ast = exprlang.parse(text)
    with pytest.raises(DomainError):
        exprlang.evaluate(ast, {"x1": x1})
    out = eval_chunked(compile_field(ast, ["x1"]), np.array([[x1]]), np.ones((1, 1)), np.ones((1, 1)))
    assert out.tolist() == [[expected, 0.0, 0.0, 0.0]]
    assert eval_rows([ast], ["x1"], [[x1]]).tolist() == [[expected]]
    assert eval_rows([ast], ["x1"], [[x1]], grad=True).tolist() == [[[0.0]]]
