import math

import pytest
from hypothesis import given, settings

from avcalc import exprlang
from avcalc.autodiff import Hyperdual
from avcalc.dynamics import velocity_coupling
from avcalc.errors import (
    DomainError,
    ExprSyntaxError,
    UnboundVariableError,
    UnknownFunctionError,
)
from avcalc.exprlang import Binary, Call, Number, Unary, Var

from helpers_reference import random_cases, reference_eval
from test_engine_fuzz import trees


def ev(text, **env):
    return exprlang.evaluate(exprlang.parse(text), env)


def reference_free_variables(ast) -> set:
    """Names of all Var nodes, by a walk of every path of the tree."""
    if isinstance(ast, Number):
        return set()
    if isinstance(ast, Var):
        return {ast.name}
    if isinstance(ast, Unary):
        return reference_free_variables(ast.child)
    children = (ast.left, ast.right) if isinstance(ast, Binary) else ast.args
    return set().union(*map(reference_free_variables, children))


@settings(max_examples=200, database=None, derandomize=True, deadline=None)
@given(trees)
def free_variables_equal_a_recursive_walk(tree):
    got = exprlang.free_variables(tree)
    assert got == reference_free_variables(tree) and type(got) is set
    got.add("not a variable")  # a new set each call: the kept one is unchanged
    assert exprlang.free_variables(tree) == reference_free_variables(tree)


def distinct_nodes(ast):
    """(the distinct node objects of a tree, the number of its paths)."""
    seen, paths, stack = {}, 0, [ast]
    while stack:
        node = stack.pop()
        paths += 1
        seen[id(node)] = node
        if isinstance(node, Unary):
            stack.append(node.child)
        elif isinstance(node, Binary):
            stack += [node.left, node.right]
        elif isinstance(node, Call):
            stack += node.args
    return list(seen.values()), paths


class TestParsing:
    def test_precedence(self):
        assert ev("1+2*3") == 7.0
        assert ev("1+2*3^2") == 19.0
        assert ev("(1+2)*3") == 9.0
        assert ev("6/3/2") == 1.0  # left associative
        assert ev("2-3-4") == -5.0

    def test_power_right_associative(self):
        assert ev("2^3^2") == 512.0
        assert ev("2^-3") == 0.125
        # unary minus binds looser than the power
        assert ev("-2^2") == -4.0

    def test_unary_minus(self):
        assert ev("--3") == 3.0
        assert ev("2*-3") == -6.0

    def test_functions(self):
        assert ev("sin(0)") == 0.0
        assert ev("pow(2, 10)") == 1024.0
        assert abs(ev("exp(log(5))") - 5.0) < 1e-14
        assert ev("abs(-3)") == 3.0

    def test_sign(self):
        signs = [ev("sign(x1)", x1=x) for x in (-2.5, -0.0, 0.0, 3.0)]
        assert [*map(float.hex, signs)] == [*map(float.hex, (-1.0, 0.0, 0.0, 1.0))]
        assert exprlang.to_text(exprlang.parse("sign(x1 - 1)")) == "sign((x1-1.0))"
        with pytest.raises(ExprSyntaxError):
            exprlang.parse("sign(x1, x2)")

    def test_variables(self):
        assert ev("x1 + 2*v1", x1=1.0, v1=2.5) == 6.0

    def test_number_formats(self):
        assert ev("1e-3") == 1e-3
        assert ev("2.5E2") == 250.0
        assert ev(".5") == 0.5


class TestErrors:
    @pytest.mark.parametrize("bad", ["", "1 +", "(1", "1)", "sin(1,2)", "pow(1)", "1 2", "@"])
    def test_syntax_error(self, bad):
        with pytest.raises(ExprSyntaxError) as exc:
            exprlang.parse(bad)
        assert exc.value.offset >= 0

    def test_syntax_error_offset_points_at_problem(self):
        with pytest.raises(ExprSyntaxError) as exc:
            exprlang.parse("1 + @")
        assert exc.value.offset == 4

    def test_unknown_function(self):
        with pytest.raises(UnknownFunctionError):
            exprlang.parse("sinh(1)")

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            ev("x1 + y")

    @pytest.mark.parametrize("expr", ["log(-1)", "log(0)", "sqrt(-2)", "1/0", "0^-1", "(-2)^0.5"])
    def test_domain_errors(self, expr):
        with pytest.raises(DomainError):
            ev(expr)


    @pytest.mark.parametrize("expr", ["exp(x1)", "exp(x1)^2", "10^x1"])
    def test_overflow_is_a_domain_error(self, expr):
        with pytest.raises(DomainError):
            ev(expr, x1=1000.0)
        with pytest.raises(DomainError):
            exprlang.evaluate(exprlang.parse(expr), {"x1": Hyperdual(1000.0, 1.0)})


class TestIntrospection:
    def test_free_variables(self):
        ast = exprlang.parse("sin(x1)*v2 + pow(q, 2)")
        assert exprlang.free_variables(ast) == {"x1", "v2", "q"}

    def test_free_variables_equal_a_recursive_walk(self):
        # run from a plain test function, as test_engine_fuzz does
        free_variables_equal_a_recursive_walk()

    # chi whose gradients share subtrees, such as exp(sin(x1*x2)) and cos(x1*x2)
    CHIS = ("exp(sin(x1*x2))*x3", "sqrt(1 + x1^2 + x2^2)*log(2 + x3^2)", "x1^x2/(1 + x3^2)")

    @pytest.mark.parametrize("chi", CHIS + ("sin(x1)*cos(x2)", "x1*x2*x3"))
    def test_free_variables_of_read_back_couplings(self, chi, monkeypatch):
        # the coupling <d(chi), v> read back from chi's gradient table is a
        # DAG: the variables of each distinct node are collected once,
        # from its children's, however many paths lead to it
        coupling = velocity_coupling(exprlang.parse(chi), 3)
        nodes, paths = distinct_nodes(coupling)
        fresh = [n for n in nodes if "variables" not in vars(n)]
        calls = []
        real = exprlang._variables
        monkeypatch.setattr(exprlang, "_variables", lambda ast: calls.append(ast) or real(ast))
        assert exprlang.free_variables(coupling) == reference_free_variables(coupling)
        assert sorted(map(id, calls)) == sorted(map(id, fresh))
        if chi in self.CHIS:
            assert paths > len(nodes)

    def test_substitute_constants(self):
        folded = exprlang.expression("m*v1^2 + g", ("v1",), {"m": 2.0, "g": 9.8})
        assert exprlang.free_variables(folded) == {"v1"}
        assert exprlang.evaluate(folded, {"v1": 3.0}) == pytest.approx(2.0 * 9.0 + 9.8)

    def test_expression_takes_text_or_ast(self):
        ast = exprlang.parse("k*x1 + x2")
        assert exprlang.expression("k*x1 + x2", ("x1", "x2", "k")) == ast
        assert exprlang.expression(ast, ("x1", "x2", "k")) is ast
        folded = exprlang.expression(ast, ("x1", "x2"), {"k": 3})
        assert folded == exprlang.parse("3.0*x1 + x2")

    def test_expression_names_first_unbound_variable(self):
        with pytest.raises(UnboundVariableError, match="'b'") as exc:
            exprlang.expression("c + b*x1 + a", ("x1", "a"))
        assert exc.value.name == "b"
        with pytest.raises(UnboundVariableError, match="'k'"):
            exprlang.expression("sin(k*x1)", ("x1",), {"m": 1.0})

    def test_substitute_expressions(self):
        ast = exprlang.parse("x1 + x1^2")
        swapped = exprlang.substitute(ast, {"x1": exprlang.parse("t-1")})
        assert exprlang.evaluate(swapped, {"t": 3.0}) == pytest.approx(2.0 + 4.0)

    def test_substitute_shares_what_it_does_not_replace(self):
        ast = exprlang.parse("-sin(x1)*pow(x2, 3) + exp(-x1)")
        assert exprlang.substitute(ast, {}) is ast
        assert exprlang.substitute(ast, {"k": Number(2.0)}) is ast
        # a replaced leaf rebuilds only the nodes above it
        swapped = exprlang.substitute(ast, {"x2": Number(2.0)})
        assert swapped == exprlang.parse("-sin(x1)*pow(2.0, 3) + exp(-x1)")
        assert swapped.right is ast.right
        product = swapped.left
        assert product is not ast.left and product.left is ast.left.left
        assert product.right is not ast.left.right
        assert product.right.args[1] is ast.left.right.args[1]


class TestRoundTrip:
    def test_canonical_text_parses_back_to_same_tree(self):
        for ast, _env in random_cases(200, seed=999):
            text = exprlang.to_text(ast)
            assert exprlang.parse(text) == ast

    def test_to_text_is_fully_parenthesized(self):
        ast = Binary("*", Binary("+", Var("x1"), Number(1.0)), Var("x2"))
        text = exprlang.to_text(ast)
        reparsed = exprlang.parse(text)
        assert reparsed == ast

    @pytest.mark.parametrize("text, canonical", [
        ("x1/1e400 + x1*x1", "((x1/1e999)+(x1*x1))"),
        ("(-1e400)^x1 - 2", "(((-1e999)^x1)-2.0)"),
    ])
    def test_literal_that_overflows_to_inf(self, text, canonical):
        # repr(inf) is "inf", which re-parses as a variable
        ast = exprlang.parse(text)
        assert exprlang.to_text(ast) == canonical
        assert exprlang.parse(canonical) == ast
        for value in (math.inf, -math.inf):
            assert exprlang.parse(exprlang.to_text(Number(value))) == Number(value)


class TestReferenceAgreement:
    def test_matches_independent_evaluator(self):
        for ast, env in random_cases(500, seed=777):
            expected = reference_eval(ast, env)
            got = exprlang.evaluate(ast, env)
            assert got == pytest.approx(expected, rel=1e-14, abs=1e-300)

    def test_specific_values(self):
        assert ev("sin(x1)^2 + cos(x1)^2", x1=0.37) == pytest.approx(1.0, rel=1e-15)
        assert ev("pow(x1, 0.5)", x1=9.0) == pytest.approx(3.0)
        assert ev("tan(0.3)") == pytest.approx(math.tan(0.3), rel=1e-15)
