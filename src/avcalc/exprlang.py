"""Scalar expression language: parser, evaluator, canonical printer.
`expression` is the front door for user text: it parses, folds named
constants and rejects undeclared variables.

Grammar, loosest binding first:

    expr   :=  term  (("+" | "-") term)*          left associative
    term   :=  unary (("*" | "/") unary)*         left associative
    unary  :=  "-" unary | power
    power  :=  atom ("^" unary)?                  right associative
    atom   :=  NUMBER | NAME | NAME "(" expr ("," expr)* ")" | "(" expr ")"

Numbers are decimal literals with optional fraction and exponent.
Identifiers match [A-Za-z_][A-Za-z0-9_]*.  Builtins are sin, cos, tan,
exp, log, sqrt, abs, sign (unary) and pow (binary).  sign(x) is 1 or -1
by the sign of x and 0 at either zero; its derivative is 0 everywhere,
as it is abs' with abs'(0) = 0.

`evaluate` is generic over the scalar type: floats use math.*, other
scalars (autodiff.Hyperdual) provide the functions, sign and arithmetic.
It serves, as the kernels' oracle, the tests and kernels.domain_error;
the library evaluates through compiled kernels.
"""
from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Union

from .errors import (
    DomainError,
    ExprSyntaxError,
    UnboundVariableError,
    UnknownFunctionError,
)

BUILTIN_ARITY = {
    "sin": 1,
    "cos": 1,
    "tan": 1,
    "exp": 1,
    "log": 1,
    "sqrt": 1,
    "abs": 1,
    "sign": 1,
    "pow": 2,
}


class _Node:
    """An AST node renders its canonical text (to_text) at its first use,
    from its children's kept texts, and keeps it; so too the names of its
    free variables (free_variables), from its children's kept sets.  So
    a tree whose nodes share subtrees costs one visit per distinct node.
    Neither is a field, so == and hash are unchanged."""

    @cached_property
    def text(self) -> str:
        return _render(self)

    @cached_property
    def variables(self) -> frozenset:
        return _variables(self)


@dataclass(frozen=True)
class Number(_Node):
    value: float


@dataclass(frozen=True)
class Var(_Node):
    name: str


@dataclass(frozen=True)
class Unary(_Node):
    op: str  # only "-"
    child: "ExprAst"


@dataclass(frozen=True)
class Binary(_Node):
    op: str  # one of + - * / ^
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Call(_Node):
    func: str
    args: tuple


ExprAst = Union[Number, Var, Unary, Binary, Call]


# ---------------------------------------------------------------------------
# Lexing / parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(src):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.end() == pos:
            # skip pure whitespace tail
            if src[pos:].strip() == "":
                break
            bad = pos + len(src[pos:]) - len(src[pos:].lstrip())
            raise ExprSyntaxError(f"unexpected character {src[bad]!r}", bad)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected '{op}', found {text or 'end of input'!r}", off)
        self.next()

    def parse(self):
        ast = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"expected end of input, found {text!r}", off)
        return ast

    def expr(self):
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                node = Binary(text, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                node = Binary(text, node, self.unary())
            else:
                return node

    def unary(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.next()
            node = self.unary()
            # fold a negated literal so "-1.5" round-trips as Number(-1.5)
            if isinstance(node, Number):
                return Number(-node.value)
            return Unary("-", node)
        return self.power()

    def power(self):
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.next()
            # right associative; exponent may carry a unary minus
            return Binary("^", base, self.unary())
        return base

    def atom(self):
        kind, text, off = self.next()
        if kind == "num":
            return Number(float(text))
        if kind == "name":
            k2, t2, _ = self.peek()
            if k2 == "op" and t2 == "(":
                if text not in BUILTIN_ARITY:
                    raise UnknownFunctionError(text, off)
                self.next()
                args = [self.expr()]
                while True:
                    k3, t3, o3 = self.peek()
                    if k3 == "op" and t3 == ",":
                        self.next()
                        args.append(self.expr())
                    else:
                        break
                self.expect_op(")")
                if len(args) != BUILTIN_ARITY[text]:
                    raise ExprSyntaxError(
                        f"'{text}' expects {BUILTIN_ARITY[text]} argument(s), got {len(args)}",
                        off,
                    )
                return Call(text, tuple(args))
            return Var(text)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(
            f"expected a number, name or '(', found {text or 'end of input'!r}", off
        )


def parse(src: str) -> ExprAst:
    """Parse expression text into an AST."""
    return _Parser(src).parse()


def expression(src, variables, constants=None) -> ExprAst:
    """The checked AST of `src`, text (parsed) or an AST, with the named
    `constants` (name -> number) folded in as literals.  Raises
    UnboundVariableError naming the first free variable, in sorted
    order, that is not in `variables`."""
    ast = parse(src) if isinstance(src, str) else src
    if constants:
        ast = substitute(ast, {k: Number(float(c)) for k, c in constants.items()})
    unbound = sorted(free_variables(ast) - set(variables))
    if unbound:
        raise UnboundVariableError(unbound[0])
    return ast


# ---------------------------------------------------------------------------
# Evaluation


def sign(x: float) -> float:
    """1.0 or -1.0 by the sign of x, 0.0 at either zero, NaN at NaN (as
    np.sign)."""
    if x > 0.0:
        return 1.0
    if x < 0.0:
        return -1.0
    return x + 0.0  # -0.0 + 0.0 is 0.0


_REAL_UNARY = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
    "sign": sign,
}


def _is_real(x):
    return isinstance(x, (int, float))


def _pow(base, exponent):
    if _is_real(base) and _is_real(exponent):
        if base == 0.0 and exponent < 0:
            raise DomainError("zero raised to a negative power")
        if base < 0 and not float(exponent).is_integer():
            raise DomainError("fractional power of a negative base")
        try:
            return math.pow(base, exponent)
        except (ValueError, OverflowError) as exc:
            raise DomainError(str(exc)) from exc
    # autodiff (or mixed) scalars implement their own domain checks
    try:
        return base ** exponent
    except OverflowError as exc:
        raise DomainError(f"pow: {exc}") from exc


def _apply(name, args):
    if name == "pow":
        return _pow(args[0], args[1])
    x = args[0]
    if name == "abs":
        return abs(x)
    try:
        if _is_real(x):
            return _REAL_UNARY[name](x)
        return getattr(x, name)()
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"{name}: {exc}") from exc


def evaluate(ast: ExprAst, env: dict):
    """Evaluate `ast` in `env` (name -> scalar).

    The scalar type is whatever the environment holds; plain reals and
    autodiff scalars are both fine.
    """
    if isinstance(ast, Number):
        return ast.value
    if isinstance(ast, Var):
        try:
            return env[ast.name]
        except KeyError:
            raise UnboundVariableError(ast.name) from None
    if isinstance(ast, Unary):
        return -evaluate(ast.child, env)
    if isinstance(ast, Binary):
        a = evaluate(ast.left, env)
        b = evaluate(ast.right, env)
        op = ast.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if _is_real(a) and _is_real(b):
                if b == 0.0:
                    raise DomainError("division by zero")
                return a / b
            return a / b
        return _pow(a, b)
    return _apply(ast.func, [evaluate(arg, env) for arg in ast.args])


def free_variables(ast: ExprAst) -> set:
    """Names of all Var nodes in the tree, as a new set.  Collected once
    per node (_Node)."""
    return set(ast.variables)


def _variables(ast: ExprAst) -> frozenset:
    """The free variables of one node, from its children's kept sets; a
    child's own set where it holds the others'."""
    if isinstance(ast, Number):
        return frozenset()
    if isinstance(ast, Var):
        return frozenset((ast.name,))
    if isinstance(ast, Unary):
        return ast.child.variables
    out = frozenset()
    children = (ast.left, ast.right) if isinstance(ast, Binary) else ast.args
    for child in children:
        more = child.variables
        if not more <= out:
            out = more if out <= more else out | more
    return out


def to_text(ast: ExprAst) -> str:
    """Canonical, fully parenthesized rendering; re-parsing it yields a
    structurally identical AST.  Rendered once per node (_Node)."""
    return ast.text


def _render(ast: ExprAst) -> str:
    """The text of one node, from its children's kept texts."""
    if isinstance(ast, Number):
        value = ast.value
        # repr(inf) is "inf", which would re-parse as a variable; 1e999
        # parses back to inf
        text = ("-1e999" if value < 0 else "1e999") if math.isinf(value) else repr(value)
        # parenthesize so a negative base binds correctly under '^'
        return f"({text})" if value < 0 else text
    if isinstance(ast, Var):
        return ast.name
    if isinstance(ast, Unary):
        return f"(-{ast.child.text})"
    if isinstance(ast, Binary):
        return f"({ast.left.text}{ast.op}{ast.right.text})"
    return f"{ast.func}({','.join(a.text for a in ast.args)})"


def substitute(ast: ExprAst, mapping: dict) -> ExprAst:
    """Replace Var nodes by expression trees (name -> ExprAst).  A node
    under which nothing is replaced is returned itself, with the text
    it keeps."""
    if isinstance(ast, Var):
        return mapping.get(ast.name, ast)
    if isinstance(ast, Unary):
        child = substitute(ast.child, mapping)
        return ast if child is ast.child else Unary(ast.op, child)
    if isinstance(ast, Binary):
        left, right = substitute(ast.left, mapping), substitute(ast.right, mapping)
        return ast if left is ast.left and right is ast.right else Binary(ast.op, left, right)
    if isinstance(ast, Call):
        args = tuple(substitute(a, mapping) for a in ast.args)
        return ast if all(map(operator.is_, args, ast.args)) else Call(ast.func, args)
    return ast
