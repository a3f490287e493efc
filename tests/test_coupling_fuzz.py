"""Differential fuzz of the gauge couplings.  gauge_shift's <d(chi), v>
and systems.exact_lagrangian's <d(phi), v> are built from chi's gradient
table: kernels.gradient_exprs reads its records back as expression
trees, which the twin's kernels then walk and evaluate.  Their values
are held to v . grad(chi), the table's own gradient
(geometry.eval_rows(grad=True)), for chi drawn from test_engine_fuzz's
trees over x1..x3 (McKeeman, "Differential Testing for Software",
1998).  So this test guards the read-back and the twin's evaluation;
the emitter's derivative rules are guarded against the Hyperdual oracle
(test_engine_fuzz, test_kernels).

Contract, at every point: the free particle's twin L1 - L0 and the exact
Lagrangian <d(phi), v> of the section phi = chi both equal
v . grad(chi) within 1e-9 of max(1, |v . grad(chi)|); where one side
raises DomainError, so does the other.  Each gradient tree re-parses
from its text to an equal tree, as native.compile_probes re-parses a
kernel's key text.  The examples give one tree per construct of the
language, so every record template is read back, and one per non-finite
literal a fold makes, which the read-back writes so that the emitter
folds it back to its value: NaN as (-1)^0.5, not 0/0, which folds to 0.
"""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avcalc import exprlang
from avcalc.dynamics import GaugeClassLagrangian, gauge_shift
from avcalc.errors import DomainError
from avcalc.exprlang import Binary, Call, Number, Unary, Var
from avcalc.geometry import AVSection, eval_rows, euclidean_atlas
from avcalc.kernels import gradient_exprs
from avcalc.systems import exact_lagrangian
from test_engine_fuzz import _extend

COORDS = ("x1", "x2", "x3")
ATLAS = euclidean_atlas(3)
FREE = GaugeClassLagrangian.from_exprs(ATLAS, "0.5*(v1^2 + v2^2 + v3^2)")
# domain edges (0 and -1) and ordinary values, with a non-zero velocity
# in every direction
XS = np.array([(a, b, c) for a in (0.5, -1.0, 0.0, 2.0) for b in (1.5, 0.0, -0.5)
               for c in (0.25, -2.0, 1.0)])
VS = np.random.default_rng(12).uniform(0.5, 1.5, XS.shape) * np.where(
    np.arange(XS.size).reshape(XS.shape) % 2, 1.0, -1.0)

leaves = st.one_of(
    st.sampled_from([Var(v) for v in COORDS]),
    st.sampled_from([0.0, 1.0, -1.0, 2.0, 0.5, 3.0]).map(Number),
)
trees = st.recursive(leaves, _extend, max_leaves=8)


def _rows(fn, *args):
    """fn(*args) at one point, or None where it raises DomainError."""
    try:
        return fn(*args)
    except DomainError:
        return None


def _agree(got, want, what):
    assert (got is None) == (want is None), what
    if want is not None:
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (what, got, want)


@settings(max_examples=300, database=None, derandomize=True, deadline=None)
@given(trees)
# a number, a variable, a negation, + - * /, a power of a number, of a
# constant expression, and of a varying exponent (as ^ and as pow), each
# function, and the non-finite literals NaN, inf and an overflow
@example(Binary("+", Number(2.0), Var("x1")))
@example(Unary("-", Var("x2")))
@example(Binary("+", Var("x1"), Var("x2")))
@example(Binary("-", Var("x1"), Var("x3")))
@example(Binary("*", Var("x1"), Var("x2")))
@example(Binary("/", Var("x1"), Var("x2")))
@example(Binary("^", Var("x1"), Number(3.0)))
@example(Binary("^", Var("x2"), Binary("*", Number(2.0), Number(0.5))))
@example(Binary("^", Var("x1"), Var("x2")))
@example(Call("pow", (Var("x3"), Var("x1"))))
@example(Call("sin", (Var("x1"),)))
@example(Call("cos", (Var("x2"),)))
@example(Call("tan", (Var("x1"),)))
@example(Call("exp", (Var("x3"),)))
@example(Call("log", (Var("x1"),)))
@example(Call("sqrt", (Var("x2"),)))
@example(Call("abs", (Var("x1"),)))
@example(Call("sign", (Var("x1"),)))
@example(Binary("*", Binary("^", Number(-2.0), Number(0.5)), Var("x1")))
@example(Binary("*", Binary("/", Number(1.0), Number(0.0)), Var("x1")))
@example(Binary("*", Binary("^", Number(10.0), Number(400.0)), Var("x1")))
def couplings_match_the_kernels_gradient(chi):
    text = exprlang.to_text(chi)
    for g in gradient_exprs(chi, COORDS):
        assert exprlang.parse(exprlang.to_text(g)) == g, (text, exprlang.to_text(g))
    twin = gauge_shift(FREE, chi).engine("0")
    exact = exact_lagrangian(AVSection(ATLAS, {"0": chi})).engine("0")
    free = FREE.engine("0")
    for x, v in zip(XS, VS):
        grad = _rows(eval_rows, [chi], COORDS, x[None], True)
        want = None if grad is None else float(grad[0, 0] @ v)
        shifted = _rows(twin.values, x[None], v[None])
        _agree(None if shifted is None else float(shifted[0] - free.values(x[None], v[None])[0]),
               want, (text, x, v, "twin"))
        coupling = _rows(exact.values, x[None], v[None])
        _agree(None if coupling is None else float(coupling[0]), want, (text, x, v, "exact"))


def test_couplings_match_the_kernels_gradient():
    # run from a plain test function, as test_engine_fuzz does
    couplings_match_the_kernels_gradient()
