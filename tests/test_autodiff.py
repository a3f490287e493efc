import math

import numpy as np
import pytest

from avcalc import exprlang
from avcalc.autodiff import Hyperdual, gradient, hessian_vector
from avcalc.errors import DomainError

from helpers_reference import fd_gradient, random_cases, reference_eval


def expr_fn(ast, varnames):
    def f(args):
        return exprlang.evaluate(ast, dict(zip(varnames, args)))

    return f


class TestArithmetic:
    def test_seed_slots(self):
        x = Hyperdual(2.0, 1.0, 3.0)
        assert (x.val, x.d1, x.d2, x.d12) == (2.0, 1.0, 3.0, 0.0)
        c = Hyperdual(5.0)
        assert (c.val, c.d1, c.d2, c.d12) == (5.0, 0.0, 0.0, 0.0)

    def test_product_rule(self):
        # f(x) = x * x with both seeds on x: d12 = f''(x) = 2
        x = Hyperdual(3.0, 1.0, 1.0)
        y = x * x
        assert y.val == 9.0
        assert y.d1 == 6.0 and y.d2 == 6.0
        assert y.d12 == 2.0

    def test_quotient_rule(self):
        x = Hyperdual(2.0, 1.0, 1.0)
        y = 1.0 / x
        assert y.val == pytest.approx(0.5)
        assert y.d1 == pytest.approx(-0.25)
        assert y.d12 == pytest.approx(2.0 / 8.0)  # d2/dx2 (1/x) = 2/x^3

    def test_mixed_scalar_ops(self):
        x = Hyperdual(1.5, 1.0)
        y = 2.0 * x + 1.0 - x / 2.0
        assert y.val == pytest.approx(2.0 * 1.5 + 1.0 - 0.75)
        assert y.d1 == pytest.approx(1.5)

    def test_chain_rule_second_order(self):
        # f(x) = sin(x^2): f'' = 2cos(x^2) - 4x^2 sin(x^2)
        t = 0.7
        x = Hyperdual(t, 1.0, 1.0)
        y = (x * x).sin()
        assert y.val == pytest.approx(math.sin(t * t))
        assert y.d1 == pytest.approx(2 * t * math.cos(t * t))
        assert y.d12 == pytest.approx(2 * math.cos(t * t) - 4 * t * t * math.sin(t * t))


class TestPowers:
    def test_integer_powers(self):
        x = Hyperdual(2.0, 1.0, 1.0)
        y = x**3
        assert (y.val, y.d1, y.d12) == (8.0, 12.0, 12.0)

    def test_square_at_zero_keeps_second_order_jet(self):
        # x^2 at x=0: value and gradient vanish, the mixed second
        # derivative is 2*d1*d2
        x = Hyperdual(0.0, 1.0, 2.0)
        y = x**2
        assert (y.val, y.d1, y.d2) == (0.0, 0.0, 0.0)
        assert y.d12 == 4.0

    def test_linear_at_zero_passes_jet(self):
        x = Hyperdual(0.0, 1.0, 2.0, 3.0)
        y = x**1
        assert (y.val, y.d1, y.d2, y.d12) == (0.0, 1.0, 2.0, 3.0)

    def test_cube_at_zero_vanishes(self):
        y = Hyperdual(0.0, 1.0, 2.0) ** 3
        assert (y.val, y.d1, y.d2, y.d12) == (0.0, 0.0, 0.0, 0.0)

    def test_zero_base_errors(self):
        with pytest.raises(DomainError):
            Hyperdual(0.0, 1.0) ** (-1)
        with pytest.raises(DomainError):
            Hyperdual(0.0, 1.0) ** 1.5

    def test_fractional_power_of_negative_base_errors(self):
        with pytest.raises(DomainError):
            Hyperdual(-2.0, 1.0) ** 0.5

    def test_varying_exponent(self):
        # x^x: derivative x^x (log x + 1)
        t = 1.3
        x = Hyperdual(t, 1.0)
        y = x**x
        assert y.val == pytest.approx(t**t)
        assert y.d1 == pytest.approx(t**t * (math.log(t) + 1.0))

    def test_varying_exponent_with_zero_seeds(self):
        # a Hyperdual exponent varies whatever its seeds, as in the
        # kernels: x^x at 0 has no real derivative, even unseeded
        with pytest.raises(DomainError, match="varying exponent"):
            Hyperdual(0.0) ** Hyperdual(0.0)


class TestFunctions:
    def test_abs_convention_at_zero(self):
        y = abs(Hyperdual(0.0, 1.0, 1.0))
        assert (y.val, y.d1, y.d2, y.d12) == (0.0, 0.0, 0.0, 0.0)

    def test_abs_negative(self):
        y = abs(Hyperdual(-2.0, 1.0))
        assert (y.val, y.d1) == (2.0, -1.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            Hyperdual(-1.0, 1.0).log()
        with pytest.raises(DomainError):
            Hyperdual(-1.0, 1.0).sqrt()
        with pytest.raises(DomainError):
            Hyperdual(0.0, 1.0).sqrt()  # derivative singular

    def test_tan(self):
        t = 0.4
        y = Hyperdual(t, 1.0, 1.0).tan()
        sec2 = 1.0 + math.tan(t) ** 2
        assert y.d1 == pytest.approx(sec2)
        assert y.d12 == pytest.approx(2.0 * math.tan(t) * sec2)


class TestGradientOracle:
    def test_gradients_match_finite_differences(self):
        varnames = ["x1", "x2", "x3"]
        checked = 0
        for ast, env in random_cases(400, varnames=varnames, depth=5, seed=31):
            p = [env[n] for n in varnames]
            f = expr_fn(ast, varnames)
            try:
                fd = fd_gradient(lambda q: reference_eval(ast, dict(zip(varnames, q))), p)
            except (ValueError, ZeroDivisionError, OverflowError):
                continue
            if any(abs(g) > 1e4 for g in fd):
                continue  # too stiff for a meaningful FD comparison
            try:
                ad = gradient(f, p)
            except DomainError:
                continue  # derivative singular where the value is fine
            for ga, gf in zip(ad, fd):
                assert ga == pytest.approx(gf, rel=1e-6, abs=1e-6)
            checked += 1
            if checked >= 100:
                break
        assert checked >= 100

    def test_hessian_vector_symmetry(self):
        # w . (H u) computed as u-seeded HVP dotted with w must equal
        # the w-seeded HVP dotted with u
        varnames = ["x1", "x2", "x3"]
        rng = np.random.default_rng(5)
        checked = 0
        for ast, env in random_cases(200, varnames=varnames, depth=5, seed=67):
            p = [env[n] for n in varnames]
            f = expr_fn(ast, varnames)
            u = rng.uniform(-1, 1, 3)
            w = rng.uniform(-1, 1, 3)
            try:
                hu = hessian_vector(f, p, u)
                hw = hessian_vector(f, p, w)
            except DomainError:
                continue
            if max(np.max(np.abs(hu)), np.max(np.abs(hw))) > 1e6:
                continue
            assert float(w @ hu) == pytest.approx(float(u @ hw), rel=1e-10, abs=1e-10)
            checked += 1
            if checked >= 50:
                break
        assert checked >= 50

    def test_constant_function_collapses(self):
        assert np.allclose(gradient(lambda args: 4.2, [1.0, 2.0]), 0.0)
        assert np.allclose(hessian_vector(lambda args: 4.2, [1.0, 2.0], [1.0, 1.0]), 0.0)

    def test_hessian_vector_quadratic(self):
        # f = x1^2 + 3 x1 x2: H = [[2, 3], [3, 0]]
        def f(args):
            x, y = args
            return x * x + 3.0 * x * y

        hv = hessian_vector(f, [0.4, -0.7], [1.0, 2.0])
        assert np.allclose(hv, [2.0 * 1.0 + 3.0 * 2.0, 3.0 * 1.0])
