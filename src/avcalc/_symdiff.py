"""Internal: exact partial derivatives of expression trees.

Used only to materialize derived expressions the library needs as
first-class ASTs -- gauge coupling terms <d(chi), v> and Lagrangians of
the form <d(phi), v> built from a section phi.  Not a public symbolic
differentiation API; numeric values and derivatives everywhere else
come from the compiled kernels (kernels.py).
"""
from __future__ import annotations

from .errors import DomainError
from .exprlang import Binary, Call, ExprAst, Number, Unary, Var

_ZERO = Number(0.0)
_ONE = Number(1.0)


def _is_num(a, value=None):
    return isinstance(a, Number) and (value is None or a.value == value)


def add(a, b):
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    if _is_num(a) and _is_num(b):
        return Number(a.value + b.value)
    return Binary("+", a, b)


def sub(a, b):
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return Unary("-", b)
    if _is_num(a) and _is_num(b):
        return Number(a.value - b.value)
    return Binary("-", a, b)


def mul(a, b):
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return _ZERO
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if _is_num(a) and _is_num(b):
        return Number(a.value * b.value)
    return Binary("*", a, b)


def div(a, b):
    if _is_num(a, 0.0):
        return _ZERO
    if _is_num(b, 1.0):
        return a
    return Binary("/", a, b)


def partial(ast: ExprAst, name: str) -> ExprAst:
    """d(ast)/d(name) as an expression tree, lightly simplified."""
    if isinstance(ast, Number):
        return _ZERO
    if isinstance(ast, Var):
        return _ONE if ast.name == name else _ZERO
    if isinstance(ast, Unary):
        inner = partial(ast.child, name)
        return _ZERO if _is_num(inner, 0.0) else Unary("-", inner)
    if isinstance(ast, Binary):
        u, w = ast.left, ast.right
        du, dw = partial(u, name), partial(w, name)
        if ast.op == "+":
            return add(du, dw)
        if ast.op == "-":
            return sub(du, dw)
        if ast.op == "*":
            return add(mul(du, w), mul(u, dw))
        if ast.op == "/":
            return sub(div(du, w), div(mul(u, dw), mul(w, w)))
        # power
        if _is_num(dw, 0.0):
            if isinstance(w, Number):
                c = w.value
                return mul(mul(Number(c), Binary("^", u, Number(c - 1.0))), du)
            return mul(mul(w, Binary("^", u, sub(w, _ONE))), du)
        # general exponent: u^w * (dw*log(u) + w*du/u)
        return mul(
            Binary("^", u, w),
            add(mul(dw, Call("log", (u,))), div(mul(w, du), u)),
        )
    # Call
    if ast.func == "pow":
        return partial(Binary("^", ast.args[0], ast.args[1]), name)
    (u,) = ast.args
    du = partial(u, name)
    if _is_num(du, 0.0):
        return _ZERO
    if ast.func == "sin":
        outer = Call("cos", (u,))
    elif ast.func == "cos":
        outer = Unary("-", Call("sin", (u,)))
    elif ast.func == "tan":
        outer = add(_ONE, Binary("^", Call("tan", (u,)), Number(2.0)))
    elif ast.func == "exp":
        outer = Call("exp", (u,))
    elif ast.func == "log":
        return div(du, u)
    elif ast.func == "sqrt":
        return div(du, mul(Number(2.0), Call("sqrt", (u,))))
    elif ast.func == "abs":
        # sign(u) * du, defined at u = 0 too: abs'(0) = 0, as in the
        # interpreter and the kernels
        outer = Call("sign", (u,))
    elif ast.func == "sign":
        return _ZERO
    else:
        raise DomainError(f"cannot differentiate call to '{ast.func}'")
    return mul(outer, du)


def velocity_coupling(chi: ExprAst, dim: int) -> ExprAst:
    """The term <d(chi), v> = sum_j d(chi)/dx_j * v_j as an AST."""
    out = _ZERO
    for j in range(1, dim + 1):
        out = add(out, mul(partial(chi, f"x{j}"), Var(f"v{j}")))
    return out
