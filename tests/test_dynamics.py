import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from avcalc import dynamics, kernels
from avcalc.dynamics import (
    GaugeClassLagrangian,
    SecondOrderPoint,
    euler_lagrange,
    gauge_shift,
    integrate_trajectory,
    lagrangian_varnames,
    legendre,
    solve_accelerations,
)
from avcalc.errors import (
    ChartDisjointError,
    ChartExitError,
    DomainError,
    SingularLagrangianError,
    UnboundVariableError,
    ValidationError,
)
from avcalc.exprlang import parse
from avcalc.geometry import Atlas, Chart, ScalarFunction, circle_atlas, euclidean_atlas
from avcalc.systems import bundled_system, bundled_system_names, charged_particle

from helpers_reference import hyperdual_reference



def q_of(x, v, a):
    return SecondOrderPoint.of(x, v, a)


class TestEulerLagrange:
    def test_free_particle(self):
        lam = GaugeClassLagrangian.from_exprs(euclidean_atlas(2), "0.5*(v1^2+v2^2)")
        e = euler_lagrange(lam, q_of([0.3, 0.1], [1.0, -2.0], [0.5, 0.25]), "0")
        assert np.allclose(e.p, [-0.5, -0.25])

    def test_uniform_field(self):
        # L = v^2/2 - x: E = -1 - a; at rest the covector is the force
        lam = GaugeClassLagrangian.from_exprs(euclidean_atlas(1), "0.5*v1^2 - x1")
        e = euler_lagrange(lam, q_of([0.0], [0.0], [0.0]), "0")
        assert e.p[0] == pytest.approx(-1.0)
        e = euler_lagrange(lam, q_of([0.2], [0.7], [0.3]), "0")
        assert e.p[0] == pytest.approx(-1.0 - 0.3)

    def test_velocity_position_cross_terms(self):
        # L = x1 * v1^2: E = v1^2 - d/dt(2 x1 v1) = v1^2 - 2 v1^2 - 2 x1 a1
        lam = GaugeClassLagrangian.from_exprs(euclidean_atlas(1), "x1*v1^2")
        x, v, a = 0.8, 1.3, -0.4
        e = euler_lagrange(lam, q_of([x], [v], [a]), "0")
        assert e.p[0] == pytest.approx(-v * v - 2 * x * a)

    def test_gauge_shift_preserves_el(self):
        lam = GaugeClassLagrangian.from_exprs(euclidean_atlas(2), "0.5*(v1^2+v2^2) - x1*x2")
        shifted = gauge_shift(lam, "sin(x1)*cos(x2)")
        q = q_of([0.4, -0.3], [1.1, 0.2], [-0.6, 0.9])
        e0 = euler_lagrange(lam, q, "0")
        e1 = euler_lagrange(shifted, q, "0")
        assert np.allclose(e0.p, e1.p, atol=1e-14)


class TestLegendre:
    def test_charged_particle_momenta(self):
        # p = v + 0.5 * b * (-x2, x1, 0) for the symmetric gauge
        lam = GaugeClassLagrangian.from_exprs(
            euclidean_atlas(3), "0.5*(v1^2+v2^2+v3^2) + 0.5*(x1*v2-x2*v1)"
        )
        x = [1.0, 2.0, 0.5]
        v = [0.3, -0.1, 0.8]
        p = legendre(lam, x, v, "0")
        assert np.allclose(p.p, [0.3 - 1.0, -0.1 + 0.5, 0.8])

    def test_gauge_shift_moves_momenta_by_dchi(self):
        lam = GaugeClassLagrangian.from_exprs(euclidean_atlas(2), "0.5*(v1^2+v2^2)")
        shifted = gauge_shift(lam, "x1*x2")
        x, v = [0.7, -0.4], [1.0, 2.0]
        p0 = np.asarray(legendre(lam, x, v, "0").p)
        p1 = np.asarray(legendre(shifted, x, v, "0").p)
        assert np.allclose(p1 - p0, [-0.4, 0.7])  # d(x1*x2) = (x2, x1)

    def test_abs_shift_at_its_kink(self):
        # d|x1| = sign(x1) dx1, with abs'(0) = 0 as ScalarFunction.grad
        # takes it; u/abs(u) divided by zero here
        lam = GaugeClassLagrangian.from_exprs(euclidean_atlas(1), "0.5*v1^2 - cos(x1)")
        shifted = gauge_shift(lam, "abs(x1)")
        dchi = ScalarFunction.from_common(euclidean_atlas(1), "abs(x1)").grad([0.0], "0")
        assert dchi.tolist() == [0.0]
        for x in (0.0, -0.0):
            q = q_of([x], [0.7], [0.2])
            assert euler_lagrange(shifted, q, "0") == euler_lagrange(lam, q, "0")
            p0 = legendre(lam, [x], [0.7], "0").p
            assert legendre(shifted, [x], [0.7], "0").p == (p0[0] + dchi[0],)
        x, v = [-0.5], [0.7]
        assert legendre(shifted, x, v, "0").p == (legendre(lam, x, v, "0").p[0] - 1.0,)
        # sign itself differentiates to 0
        assert gauge_shift(lam, "sign(x1) + x1").expr("0") == gauge_shift(lam, "x1").expr("0")

    def test_affine_covector_conversion_on_circle(self):
        # identity coordinate change on the primary component:
        # p_1 = p_0 - d g_01 = p_0 - cos(x)
        atlas = circle_atlas("sin(x1)", winding=1.0)
        lam = GaugeClassLagrangian.from_exprs(
            atlas, {"0": "0.5*v1^2 + cos(x1)*v1", "1": "0.5*v1^2"}
        )
        x, v = [0.5], [1.2]
        p0 = legendre(lam, x, v, "0")
        p1_direct = legendre(lam, x, v, "1")
        p1_converted = p0.convert(atlas, "1")
        assert p1_converted.p[0] == pytest.approx(p0.p[0] - math.cos(0.5))
        assert p1_converted.p[0] == pytest.approx(p1_direct.p[0], abs=1e-14)


class TestBatchedOperators:
    """el_covectors and momenta over a seeded cloud.  The cloud needs
    more than kernels.BATCH probes in each layout, also at n = 1, so
    each call crosses a boundary between two kernel calls; a call holds
    whole points, so at n = 3 one holds fewer than BATCH probes.  Every
    output equals, bit for bit, the same operator
    called on blocks of points that fit one kernel call each, and equals
    a point-by-point evaluation of the same derivatives by the
    interpreter on Hyperdual scalars at every STRIDE-th point and at the
    points on each side of every batch boundary."""

    POINTS = kernels.BATCH + 100
    STRIDE = 8

    @staticmethod
    def blockwise(op, size, *arrays):
        """op over blocks of `size` points, concatenated."""
        points = arrays[0].shape[0]
        return np.concatenate([op(*(arr[lo:lo + size] for arr in arrays))
                               for lo in range(0, points, size)])

    def reference_points(self, n):
        """Every STRIDE-th point, and the points beside each boundary
        between two kernel calls in the EL (2n probes per point) and the
        momentum (n per point) layouts."""
        rows = set(range(0, self.POINTS, self.STRIDE)) | {self.POINTS - 1}
        for probes in (2 * n, n):
            step = kernels.BATCH - kernels.BATCH % probes
            for edge in range(step, probes * self.POINTS, step):
                rows |= {(edge - 1) // probes, edge // probes}
        return sorted(rows)

    @pytest.mark.parametrize("name", bundled_system_names())
    def test_match_hyperdual_reference(self, name):
        system = bundled_system(name)
        n, chart = system.dim, system.default_chart()
        assert n * self.POINTS > kernels.BATCH
        ast = system.lagrangian.expr(chart)
        rng = np.random.default_rng(5)
        x = rng.uniform(-1.0, 1.0, (self.POINTS, n))
        v = rng.uniform(-system.v_halfwidth, system.v_halfwidth, (self.POINTS, n))
        a = rng.uniform(-1.0, 1.0, (self.POINTS, n))
        eng = system.lagrangian.engine(chart)
        e, p = eng.el_covectors(x, v, a), eng.momenta(x, v)
        e_blocks = self.blockwise(eng.el_covectors, kernels.BATCH // (2 * n), x, v, a)
        p_blocks = self.blockwise(eng.momenta, kernels.BATCH // n, x, v)
        assert e.tobytes() == e_blocks.tobytes()
        assert p.tobytes() == p_blocks.tobytes()
        rows = self.reference_points(n)
        ref_e, ref_p = [], []
        for xi, vi, ai in zip(x[rows], v[rows], a[rows]):
            # E_i: d/dx_i, minus the mixed derivative along (v, a) of d/dv_i
            d2 = np.zeros((2 * n, 2 * n))
            d2[n:] = np.concatenate([vi, ai])
            vals = np.tile(np.concatenate([xi, vi]), (2 * n, 1))
            out = hyperdual_reference(ast, lagrangian_varnames(n), vals, np.eye(2 * n), d2)
            ref_e.append(out[:n, 1] - out[n:, 3])
            ref_p.append(out[n:, 1])
        assert np.max(np.abs(e[rows] - ref_e)) <= 1e-12
        assert np.max(np.abs(p[rows] - ref_p)) <= 1e-12


class TestDomainContract:
    """Leaving the real domain raises DomainError naming the reason, the
    expression and the point, on every operator."""

    SQRT = GaugeClassLagrangian.from_exprs(euclidean_atlas(1), "0.5*v1^2 + sqrt(x1)")
    SQRT_MESSAGE = r"sqrt of a negative value in .*sqrt\(x1\)\) at x1=-1\.0, v1=0\.5"

    def test_euler_lagrange(self):
        with pytest.raises(DomainError, match=self.SQRT_MESSAGE):
            euler_lagrange(self.SQRT, q_of([-1.0], [0.5], [0.0]), "0")

    def test_legendre(self):
        with pytest.raises(DomainError, match=self.SQRT_MESSAGE):
            legendre(self.SQRT, [-1.0], [0.5], "0")

    def test_solve_accelerations(self):
        with np.errstate(invalid="ignore"), pytest.raises(DomainError, match=self.SQRT_MESSAGE):
            solve_accelerations(self.SQRT, [-1.0], [0.5])

    def test_relativistic_beyond_light_speed(self):
        # sqrt(1 - |v|^2) has no real value at |v| = 1.2: a domain error,
        # not a singular velocity Hessian
        lam = bundled_system("relativistic").lagrangian
        with np.errstate(invalid="ignore"), pytest.raises(
            DomainError, match=r"sqrt of a negative value in .* at x1=0\.0, x2=0\.0, v1=1\.2, v2=0\.0"
        ):
            solve_accelerations(lam, [0.0, 0.0], [1.2, 0.0])


class TestDomainContractValue:
    """Every operator also requires L's own value to be real, though
    the derivatives it reads may be finite (the derivative of log(x1)
    is) or folded to zero (those of a constant term are)."""

    @pytest.mark.parametrize("term, reason", [
        ("log(x1)", "log of a non-positive value"),
        ("(-2)^0.5", "fractional power of a negative base"),
        ("x1^1.5", "fractional power of a negative base"),
    ])
    @pytest.mark.parametrize("operator", ["euler_lagrange", "legendre", "solve_accelerations"])
    def test_no_real_value(self, term, reason, operator):
        lam = GaugeClassLagrangian.from_exprs(euclidean_atlas(1), f"0.5*v1^2 + {term}")
        x, v = [-1.0], [0.5]
        call = {
            "euler_lagrange": lambda: euler_lagrange(lam, q_of(x, v, [0.0]), "0"),
            "legendre": lambda: legendre(lam, x, v, "0"),
            "solve_accelerations": lambda: solve_accelerations(lam, x, v),
        }[operator]
        with pytest.raises(DomainError, match=rf"{reason} in .* at x1=-1\.0, v1=0\.5"):
            call()

    @pytest.mark.parametrize("lagrangian, x, v", [
        # sqrt(1 - |v|^2) has no real value
        (bundled_system("relativistic").lagrangian, [0.0, 0.0], [1.2, 0.0]),
        # L is finite, its x1-derivatives overflow: inf - inf in the EL covector
        (gauge_shift(bundled_system("free").lagrangian, "exp(1000*x1)"), [0.7, 0.0], [0.5, 0.0]),
    ], ids=["relativistic", "exp-shift"])
    @pytest.mark.parametrize("operator", ["euler_lagrange", "solve_accelerations"])
    def test_no_runtime_warning_first(self, lagrangian, x, v, operator):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r" in .* at x1="):
                if operator == "euler_lagrange":
                    euler_lagrange(lagrangian, q_of(x, v, [0.0, 0.0]), "0")
                else:
                    solve_accelerations(lagrangian, x, v)


class TestFiniteCheck:
    """The batched operators check their outputs by one flat test and
    look for the point only when it fails: a single non-finite entry,
    in the last point's last column read, still raises DomainError
    naming that point, and of several bad points the first is named."""

    @pytest.mark.parametrize("bad", [[6], [3, 6]], ids=["last", "first-of-two"])
    @pytest.mark.parametrize("operator, term, v2, reason", [
        ("values", "log(x2)", 0.5, "log of a non-positive value"),  # L itself
        ("momenta", "sqrt(v2)", 0.0, "sqrt derivative singular at zero"),  # p2
        ("el_covectors", "sqrt(x2)", 0.5, "sqrt derivative singular at zero"),  # E2
    ])
    def test_names_the_first_bad_point(self, operator, term, v2, reason, bad):
        eng = GaugeClassLagrangian.from_exprs(
            euclidean_atlas(2), f"0.5*v1^2 + 0.5*v2^2 + {term}").engine("0")
        points = 7
        xs = np.column_stack([np.linspace(-0.6, 0.6, points), np.linspace(2.0, 1.0, points)])
        vs = np.column_stack([np.linspace(0.1, 0.7, points), np.full(points, 0.5)])
        xs[bad, 1], vs[bad, 1] = 0.0, v2
        args = (xs, vs, np.ones_like(xs)) if operator == "el_covectors" else (xs, vs)
        good = getattr(eng, operator)(*(a[:bad[0]] for a in args))
        assert np.isfinite(good).all()
        x1, v1 = float(xs[bad[0], 0]), float(vs[bad[0], 0])
        point = re.escape(f"x1={x1!r}, x2=0.0, v1={v1!r}, v2={v2!r}")
        with pytest.raises(DomainError, match=rf"{reason} in .* at {point}$"):
            getattr(eng, operator)(*args)


def solve_cases():
    """(id, Lagrangian, chart, velocity half-width) for every bundled
    system and its shift by its first configured chi, and a 4-D
    Lagrangian, which takes the n > 3 solve."""
    cases = []
    for name in bundled_system_names():
        system = bundled_system(name)
        chart = system.default_chart()
        cases.append((name, system.lagrangian, chart, system.v_halfwidth))
        cases.append((f"{name}+chi", gauge_shift(system.lagrangian, system.chis[0]), chart,
                      system.v_halfwidth))
    four = GaugeClassLagrangian.from_exprs(
        euclidean_atlas(4),
        "0.5*(v1^2 + 2*v2^2 + 3*v3^2 + 4*v4^2) + 0.3*v1*v4 + 0.5*(x1*v2 - x2*v1)"
        " + cos(x3)*v4 - 0.5*x1^2*x4^2",
    )
    cases.append(("four-dim", four, "0", 1.0))
    return cases


class TestFusedSolve:
    """The fused acceleration terms against a probe-by-probe Hyperdual
    evaluation, and the small closed-form solve against numpy."""

    POINTS = 200

    @pytest.mark.parametrize("case", solve_cases(), ids=lambda c: c[0])
    def test_terms_match_hyperdual_reference(self, case):
        _name, lam, chart, halfwidth = case
        eng = lam.engine(chart)
        n, names = eng.n, lagrangian_varnames(eng.n)
        eye = np.eye(2 * n)
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(self.POINTS):
            x = rng.uniform(-1.0, 1.0, n)
            v = rng.uniform(-halfwidth, halfwidth, n)
            # probes: d/dx_i; d/dv_i along (v, 0); d/dv_i along v_j
            d1 = np.vstack([eye[:n], eye[n:]] + [eye[n:]] * n)
            d2 = np.zeros_like(d1)
            d2[n: 2 * n, :n] = v
            for j in range(n):
                d2[(2 + j) * n: (3 + j) * n, n + j] = 1.0
            vals = np.tile(np.concatenate([x, v]), (d1.shape[0], 1))
            ref = hyperdual_reference(lam.expr(chart), names, vals, d1, d2)
            expected = np.concatenate([ref[:n, 1], ref[n:, 3]])
            got = np.concatenate([np.ravel(t) for t in eng.solve_terms(x, v)])
            # the reference's Hessian blocks are columns; the terms are row-major
            got[2 * n:] = got[2 * n:].reshape(n, n).T.ravel()
            worst = max(worst, np.max(np.abs(got - expected)))
        assert worst <= 1e-12

    @pytest.mark.parametrize("case", solve_cases(), ids=lambda c: c[0])
    def test_accelerations_match_numpy_solve(self, case):
        _name, lam, chart, halfwidth = case
        eng = lam.engine(chart)
        n = eng.n
        rng = np.random.default_rng(19)
        for _ in range(self.POINTS):
            x = rng.uniform(-1.0, 1.0, n)
            v = rng.uniform(-halfwidth, halfwidth, n)
            f = rng.uniform(-1.0, 1.0, n)
            gx, cv, hess = eng.solve_terms(x, v)
            ref = np.linalg.solve(np.reshape(hess, (n, n)), np.subtract(gx, cv) - f)
            a = solve_accelerations(lam, x, v, f, chart)
            assert np.max(np.abs(a - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("dim, lagrangian", [
        (2, "0.5*v1^2 + 0.5*1e-13*v2^2"),  # n * cond_1 = 2e13
        (3, "0.5*(v1^2 + v2^2) + 0.5*1e-12*v3^2 + x1*v3"),  # 3e12
        (4, "0.5*(v1^2 + v2^2 + v3^2)"),  # exactly singular, n > 3
    ])
    def test_ill_conditioned_hessian_rejected(self, dim, lagrangian):
        lam = GaugeClassLagrangian.from_exprs(euclidean_atlas(dim), lagrangian)
        with pytest.raises(SingularLagrangianError, match="numerically singular"):
            solve_accelerations(lam, np.zeros(dim), np.ones(dim))

    def test_undeclared_variable_rejected_at_construction(self):
        # an AST built in code reaches the engine unchecked; kernels
        # compile at first use, the variables are checked before
        lam = GaugeClassLagrangian(euclidean_atlas(1), {"0": parse("0.5*v1^2 + x2")})
        with pytest.raises(ValueError, match=r"undeclared variables \['x2'\]"):
            lam.engine("0")
        with pytest.raises(UnboundVariableError, match="'x2'"):
            GaugeClassLagrangian.from_exprs(euclidean_atlas(1), "0.5*v1^2 + x2")

    def test_gauge_function_variables_checked(self):
        lam = GaugeClassLagrangian.from_exprs(euclidean_atlas(2), "0.5*(v1^2+v2^2)")
        with pytest.raises(UnboundVariableError, match="'y'"):
            gauge_shift(lam, "y")

    def test_moderately_conditioned_hessian_solved(self):
        # n * cond_1 = 2e11 is within MAX_CONDITION = 1e12
        lam = GaugeClassLagrangian.from_exprs(euclidean_atlas(2), "0.5*v1^2 + 0.5*1e-11*v2^2 - x2")
        a = solve_accelerations(lam, [0.0, 0.0], [0.0, 0.0])
        assert a[0] == 0.0 and a[1] == pytest.approx(-1e11, rel=1e-12)


class TestSolve:
    def test_lorentz_force(self):
        lam = GaugeClassLagrangian.from_exprs(
            euclidean_atlas(3), "0.5*(v1^2+v2^2+v3^2) + 0.5*(x1*v2-x2*v1)"
        )
        v = np.array([0.4, -0.2, 0.9])
        a = solve_accelerations(lam, [0.3, 0.1, -0.5], v)
        b = np.array([0.0, 0.0, 1.0])
        assert np.allclose(a, np.cross(v, b), atol=1e-13)

    def test_forcing(self):
        lam = GaugeClassLagrangian.from_exprs(euclidean_atlas(2), "0.5*(v1^2+v2^2)")
        f = np.array([0.3, -0.7])
        a = solve_accelerations(lam, [0.0, 0.0], [0.0, 0.0], f)
        # E = -a, so E = f means a = -f
        assert np.allclose(a, -f)

    def test_singular_lagrangian_rejected(self):
        lam = GaugeClassLagrangian.from_exprs(euclidean_atlas(1), "v1")
        with pytest.raises(SingularLagrangianError):
            solve_accelerations(lam, [0.0], [1.0])

    def test_partially_degenerate_rejected(self):
        lam = GaugeClassLagrangian.from_exprs(euclidean_atlas(2), "0.5*v1^2")
        with pytest.raises(SingularLagrangianError):
            solve_accelerations(lam, [0.0, 0.0], [1.0, 1.0])


class TestTrajectories:
    def test_free_particle_exact(self):
        lam = GaugeClassLagrangian.from_exprs(euclidean_atlas(2), "0.5*(v1^2+v2^2)")
        tr = integrate_trajectory(lam, [0.0, 1.0], [1.0, -0.5], 0.0, 2.0, 50)
        assert np.allclose(tr.positions[-1], [2.0, 0.0], atol=1e-12)
        assert np.allclose(tr.velocities[-1], [1.0, -0.5], atol=1e-12)

    def test_uniform_field_closed_form(self):
        lam = GaugeClassLagrangian.from_exprs(euclidean_atlas(1), "0.5*v1^2 - x1")
        tr = integrate_trajectory(lam, [0.2], [0.8], 0.0, 1.0, 100)
        exact = 0.2 + 0.8 * tr.times - 0.5 * tr.times**2
        assert np.max(np.abs(tr.positions[:, 0] - exact)) < 1e-10

    def test_chart_exit_detected(self):
        atlas = Atlas(dim=1, charts=[Chart("0", ((-1.0, 1.0),))], transitions={})
        lam = GaugeClassLagrangian.from_exprs(atlas, "0.5*v1^2")
        with pytest.raises(ChartExitError):
            integrate_trajectory(lam, [0.0], [1.0], 0.0, 2.0, 100)

    @pytest.mark.parametrize("t0, t1", [(0.0, math.nan), (math.nan, 1.0), (0.0, math.inf)])
    def test_non_finite_interval_rejected(self, t0, t1):
        lam = GaugeClassLagrangian.from_exprs(euclidean_atlas(1), "0.5*v1^2")
        with pytest.raises(ValueError, match="must be finite"):
            integrate_trajectory(lam, [0.0], [1.0], t0, t1, 10)

    def test_forcing_callable(self):
        lam = GaugeClassLagrangian.from_exprs(euclidean_atlas(1), "0.5*v1^2")
        # E = -a = f  =>  a = -f; constant f = -1 gives uniform acceleration 1
        tr = integrate_trajectory(
            lam, [0.0], [0.0], 0.0, 1.0, 100,
            forcing=lambda x, v: np.array([-1.0]),
        )
        assert tr.positions[-1, 0] == pytest.approx(0.5, abs=1e-12)


    def test_overflowing_step_size_rejected(self):
        lam = GaugeClassLagrangian.from_exprs(euclidean_atlas(1), "0.5*v1^2")
        with pytest.raises(ValueError, match=r"step size \(t1 - t0\)/steps must be finite"):
            integrate_trajectory(lam, [0.0], [1.0], -1e308, 1e308, 2)


class TestUnknownChart:
    """A chart id the atlas lacks is a ChartDisjointError naming it."""

    def test_euler_lagrange(self):
        lam = bundled_system("free").lagrangian
        with pytest.raises(ChartDisjointError, match="no chart '7' in atlas"):
            euler_lagrange(lam, q_of([0.0, 0.0], [1.0, 0.0], [0.0, 0.0]), "7")

    def test_integrate_trajectory(self):
        lam = bundled_system("circle").lagrangian
        with pytest.raises(ChartDisjointError, match="no chart '9' in atlas"):
            integrate_trajectory(lam, [0.0], [1.0], 0.0, 1.0, 10, chart_id="9")


class TestOutsideChart:
    """A point outside the chart it is given in, by more than the box
    tolerance, is a ChartDisjointError naming the point and the chart."""

    LAM = bundled_system("circle").lagrangian  # chart "0" covers (-pi, pi)
    CALLS = {
        "euler_lagrange": lambda lam, x: euler_lagrange(lam, q_of(x, [-1.0], [0.0]), "0"),
        "legendre": lambda lam, x: legendre(lam, x, [-1.0], "0"),
        "solve_accelerations": lambda lam, x: solve_accelerations(lam, x, [-1.0], chart_id="0"),
        "integrate_trajectory": lambda lam, x: integrate_trajectory(lam, x, [-1.0], 0.0, 1.0, 3),
    }

    @pytest.mark.parametrize("operator", list(CALLS))
    def test_refused_naming_point_and_chart(self, operator):
        name = "x0" if operator == "integrate_trajectory" else "x"
        with pytest.raises(ChartDisjointError, match=rf"^{name}=\[3\.5\] is outside chart 0$"):
            self.CALLS[operator](self.LAM, [3.5])

    @pytest.mark.parametrize("operator", list(CALLS))
    def test_box_tolerance_is_inside(self, operator):
        self.CALLS[operator](self.LAM, [math.pi + 1e-10])


class TestNonFiniteInputs:
    """A non-finite input is a ValueError naming the argument, not a
    result computed from it or an error of the computation."""

    LAM = GaugeClassLagrangian.from_exprs(euclidean_atlas(2), "0.5*(v1^2 + v2^2)")
    GOOD = {"x": [0.0, 0.0], "v": [1.0, 0.0], "a": [0.0, 0.0], "f": [0.0, 0.0]}
    CALLS = {
        "euler_lagrange": lambda lam, x, v, a, f: euler_lagrange(lam, q_of(x, v, a), "0"),
        "legendre": lambda lam, x, v, a, f: legendre(lam, x, v, "0"),
        "solve_accelerations": lambda lam, x, v, a, f: solve_accelerations(
            lam, x, v, f),
        "integrate_trajectory": lambda lam, x, v, a, f: integrate_trajectory(
            lam, x, v, 0.0, 1.0, 10, forcing=f),
    }
    ARGS = {"euler_lagrange": ("x", "v", "a"), "legendre": ("x", "v"),
            "solve_accelerations": ("x", "v", "f"), "integrate_trajectory": ("x0", "v0", "forcing")}

    @pytest.mark.parametrize("operator, arg", [
        (op, arg) for op, args in ARGS.items() for arg in args
    ])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejected_naming_the_argument(self, operator, arg, bad):
        values = dict(self.GOOD)
        key = {"x0": "x", "v0": "v", "forcing": "f"}.get(arg, arg)
        values[key] = [0.0, bad]
        with pytest.raises(ValueError, match=rf"^{arg} must be finite"):
            self.CALLS[operator](self.LAM, **values)


class TestWrongLength:
    """An argument without n components is a ValueError naming it and n,
    not a result read from the wrong entries; f and a constant forcing
    may also be one number, applied to every component."""

    LAM = TestNonFiniteInputs.LAM  # n = 2
    GOOD = TestNonFiniteInputs.GOOD
    CALLS = {**TestNonFiniteInputs.CALLS,
             "value": lambda lam, x, v, a, f: lam.value(x, v, "0")}
    ARGS = {**TestNonFiniteInputs.ARGS, "value": ("x", "v")}

    @pytest.mark.parametrize("operator, arg", [
        (op, arg) for op, args in ARGS.items() for arg in args
    ])
    @pytest.mark.parametrize("bad", [[0.0], [0.0, 0.0, 99.0], [[0.0, 0.0]]])
    def test_rejected_naming_the_argument(self, operator, arg, bad):
        values = dict(self.GOOD)
        key = {"x0": "x", "v0": "v", "forcing": "f"}.get(arg, arg)
        values[key] = bad
        with pytest.raises(ValueError, match=rf"^{arg} must be a vector of dimension 2, got"):
            self.CALLS[operator](self.LAM, **values)

    def test_scalar_forcing_applies_to_every_component(self):
        x, v = [0.1, 0.2], [1.0, -0.5]
        assert np.array_equal(solve_accelerations(self.LAM, x, v, 0.5),
                              solve_accelerations(self.LAM, x, v, [0.5, 0.5]))
        one = integrate_trajectory(self.LAM, x, v, 0.0, 1.0, 10, forcing=0.5)
        both = integrate_trajectory(self.LAM, x, v, 0.0, 1.0, 10, forcing=[0.5, 0.5])
        assert np.array_equal(one.positions, both.positions)
        free = integrate_trajectory(self.LAM, x, v, 0.0, 1.0, 10)
        assert one.positions[-1, 0] != free.positions[-1, 0]  # the forcing acts


def orbit_cases():
    """(id, Lagrangian, chart, velocity half-width, dim) for every bundled
    system and its shift by its first configured chi; all have n <= 3."""
    return [(*case, case[1].atlas.dim) for case in solve_cases() if case[0] != "four-dim"]


@pytest.fixture
def existing_loop_starts(monkeypatch):
    """The steps at which integrate_trajectory entered its existing
    loop (dynamics._rk4_steps), call by call."""
    starts = []
    real = dynamics._rk4_steps

    def spy(*args):
        starts.append(args[-1])
        return real(*args)

    monkeypatch.setattr(dynamics, "_rk4_steps", spy)
    return starts


def zero_forcing(x, v):
    """A callable forcing always takes the existing loop: the oracle."""
    return np.zeros(len(x))


def outcome(call):
    """The trajectory arrays of call(), or its exception's class and text."""
    try:
        tr = call()
    except Exception as exc:  # compared between the two loops
        return type(exc), str(exc)
    return tr.positions, tr.velocities


class TestGeneratedLoop:
    """The generated RK4 loop (n <= 3, no callable forcing) against the
    existing loop: the same bits, and on every hand-back the same error."""

    STEPS = 300

    @pytest.mark.parametrize("forced", [False, True], ids=["unforced", "constant-forcing"])
    @pytest.mark.parametrize("case", orbit_cases(), ids=lambda c: c[0])
    def test_bit_identical_to_existing_loop(self, case, forced, existing_loop_starts):
        _name, lam, chart, halfwidth, n = case
        rng = np.random.default_rng(23)
        x0 = rng.uniform(-0.5, 0.5, n)
        v0 = rng.uniform(-0.5, 0.5, n) * halfwidth
        f = rng.uniform(-0.5, 0.5, n) if forced else None
        fast = integrate_trajectory(lam, x0, v0, 0.0, 1.0, self.STEPS, forcing=f,
                                    chart_id=chart)
        assert existing_loop_starts == []  # the generated loop took every step
        oracle = integrate_trajectory(lam, x0, v0, 0.0, 1.0, self.STEPS,
                                      forcing=zero_forcing if f is None else (lambda x, v: f),
                                      chart_id=chart)
        assert existing_loop_starts == [0]
        assert fast.positions.tobytes() == oracle.positions.tobytes()
        assert fast.velocities.tobytes() == oracle.velocities.tobytes()
        assert fast.times.tobytes() == oracle.times.tobytes()

    @pytest.mark.parametrize("lagrangian, dim, x0, v0, t1, steps, forcing, error, handback", [
        # the relativistic particle driven past |v| = 1
        (bundled_system("relativistic").lagrangian, 2, [0.0, 0.0], [0.0, 0.0], 1.0, 10,
         [-11.0, 0.0], DomainError, 1),
        # the circle leaving chart "0" at x1 = pi
        (bundled_system("circle").lagrangian, 1, [0.0], [1.0], 10.0, 1000, None,
         ChartExitError, 314),
        # L itself is infinite; its derivatives are finite
        ("0.5*v1^2 + 1e308*10", 1, [0.0], [1.0], 1.0, 10, None, DomainError, 0),
        # a zero velocity Hessian
        ("0.5*v1^2*0 + x1*v1", 1, [0.0], [1.0], 1.0, 10, None, SingularLagrangianError, 0),
        # n * cond_1 grows past MAX_CONDITION as x1 falls from 2e-6 to 1e-6
        ("0.5*v1^2 + 0.5*x1^2*v2^2", 2, [2e-6, 0.0], [-1e-6, 0.0], 1.0, 10, None,
         SingularLagrangianError, 5),
        # a literal Hessian with n * cond_1 = 2e13, refused at codegen time
        ("0.5*v1^2 + 0.5e-13*v2^2", 2, [0.0, 0.0], [1.0, 1.0], 1.0, 10, None,
         SingularLagrangianError, 0),
        # a literal infinite Hessian
        ("0.5*1e308*10*v1^2", 1, [0.0], [1.0], 1.0, 10, None, DomainError, 0),
    ], ids=["relativistic-past-light", "circle-chart-exit", "infinite-value", "zero-hessian",
        "condition-guard", "literal-condition-guard", "literal-infinite-hessian"])
    def test_hand_back_raises_the_existing_error(self, lagrangian, dim, x0, v0, t1, steps,
                                                 forcing, error, handback, existing_loop_starts):
        if isinstance(lagrangian, str):
            lagrangian = GaugeClassLagrangian.from_exprs(euclidean_atlas(dim), lagrangian)
        fast = outcome(lambda: integrate_trajectory(lagrangian, x0, v0, 0.0, t1, steps,
                                                    forcing=forcing))
        assert existing_loop_starts == [handback]
        oracle_forcing = zero_forcing if forcing is None else (lambda x, v: np.array(forcing))
        oracle = outcome(lambda: integrate_trajectory(lagrangian, x0, v0, 0.0, t1, steps,
                                                      forcing=oracle_forcing))
        assert fast[0] is error and fast == oracle

    @pytest.mark.parametrize("forced", [False, True], ids=["unforced", "signed-zero-forcing"])
    @pytest.mark.parametrize("system", ["free", "charged"])
    def test_signed_zeros_bit_identical(self, system, forced, existing_loop_starts):
        # the literal-Hessian solve keeps every 0.0 * r term: on the
        # charged particle, dropping them changes sign bits here
        lam = bundled_system(system).lagrangian
        n = lam.atlas.dim
        x0 = [-0.0, -0.0, -0.0][:n]
        v0 = [0.0, -0.0, -0.0][:n]
        f = [-0.0] + [0.0] * (n - 1) if forced else None
        fast = integrate_trajectory(lam, x0, v0, 0.0, 1.0, 10, forcing=f)
        oracle = integrate_trajectory(lam, x0, v0, 0.0, 1.0, 10,
                                      forcing=zero_forcing if f is None
                                      else (lambda x, v: np.array(f)))
        assert existing_loop_starts == [0]
        assert fast.positions.tobytes() == oracle.positions.tobytes()
        assert fast.velocities.tobytes() == oracle.velocities.tobytes()

    def test_rk4_step_script_finds_bit_identical_trajectories(self):
        # benchmarks/rk4_step.py exits 1 if the generated and the existing
        # loop differ in one bit on any of its four orbits
        root = Path(__file__).resolve().parents[1]
        run = subprocess.run(
            [sys.executable, str(root / "benchmarks" / "rk4_step.py"),
             "--steps", "50", "--repeats", "1"],
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stdout + run.stderr
        assert run.stdout.count("bit-identical") == 4

    def test_subnormal_determinant_takes_the_existing_solve(self, existing_loop_starts):
        # det H = 1e-310 is subnormal: the existing loop solves by LU
        lam = GaugeClassLagrangian.from_exprs(
            euclidean_atlas(2), "0.5e-155*(v1^2 + v2^2) - 0.3e-155*(x1^2 + x1*x2)")
        runs = [integrate_trajectory(lam, [0.3, -0.2], [0.1, 0.4], 0.0, 1.0, 20,
                                     forcing=forcing)
                for forcing in (None, zero_forcing)]
        assert existing_loop_starts == [0, 0]
        assert runs[0].positions.tobytes() == runs[1].positions.tobytes()
        assert runs[0].velocities.tobytes() == runs[1].velocities.tobytes()

    def test_four_dimensions_take_the_existing_loop(self, existing_loop_starts):
        (_name, lam, chart, _halfwidth), = [c for c in solve_cases() if c[0] == "four-dim"]
        x0, v0 = np.full(4, 0.1), np.array([0.2, -0.1, 0.3, 0.05])
        tr = integrate_trajectory(lam, x0, v0, 0.0, 0.5, 50, chart_id=chart)
        assert existing_loop_starts == [0]
        assert "rk4" not in vars(lam.engine(chart))  # never compiled
        a0 = solve_accelerations(lam, x0, v0, chart_id=chart)
        # RK4 is exact to second order: x(h) = x0 + h v0 + h^2 a0 / 2 + O(h^3)
        h = 0.01
        assert np.allclose(tr.positions[1], x0 + h * v0 + 0.5 * h * h * a0, atol=1e-5)


class TestEnergy:
    """The energy h = <p, v> - L along the Lorentz orbit (|B| = 1, one
    period in 1000 steps) is |v0|^2/2 up to the RK4 error, and a gauge
    shift leaves it unchanged, since p -> p + d(chi) and
    L -> L + <d(chi), v>.  Dropping C.v from the acceleration solve keeps
    |v| constant for the symmetric gauge but not for the shifted one."""

    STEPS = 1000
    DRIFT_BOUND = 1e-12  # drift measured before the fused solve: 4.26e-13 on both

    def test_conserved_and_gauge_invariant(self):
        lam = charged_particle().lagrangian
        x0, v0 = np.zeros(3), np.array([1.0, 0.0, 0.0])
        energies = []
        for l in (lam, gauge_shift(lam, "sin(x1)*cos(x2)")):
            tr = integrate_trajectory(l, x0, v0, 0.0, 2.0 * math.pi, self.STEPS)
            eng = l.engine("0")
            p = eng.momenta(tr.positions, tr.velocities)
            h = np.sum(p * tr.velocities, axis=1) - eng.values(tr.positions, tr.velocities)
            assert np.max(np.abs(h - 0.5 * v0 @ v0)) <= self.DRIFT_BOUND
            energies.append(h)
        assert np.max(np.abs(energies[1] - energies[0])) <= 1e-9


class TestValidation:
    def test_compatible_circle_lagrangian(self):
        atlas = circle_atlas("sin(x1)", winding=1.0)
        lam = GaugeClassLagrangian.from_exprs(
            atlas, {"0": "0.5*v1^2 + cos(x1)*v1", "1": "0.5*v1^2"}
        )
        lam.validate()

    def test_missing_chart_representative(self):
        atlas = circle_atlas("sin(x1)", winding=1.0)
        with pytest.raises(ValidationError,
                           match="lagrangian coverage at no Lagrangian for chart '1'"):
            GaugeClassLagrangian.from_exprs(atlas, {"0": "0.5*v1^2"})

    def test_unknown_chart_representative(self):
        atlas = circle_atlas("sin(x1)", winding=1.0)
        with pytest.raises(ValidationError, match="lagrangian chart at no chart '7' in atlas"):
            GaugeClassLagrangian.from_exprs(
                atlas, {"0": "0.5*v1^2", "1": "0.5*v1^2", "7": "0.5*v1^2"})

    def test_incompatible_circle_lagrangian(self):
        atlas = circle_atlas("sin(x1)", winding=1.0)
        lam = GaugeClassLagrangian.from_exprs(atlas, {"0": "0.5*v1^2", "1": "0.5*v1^2"})
        with pytest.raises(ValidationError):
            lam.validate()

    def test_nan_defect_fails(self):
        # inf*x1 - inf*x1 is NaN at every x1
        lam = GaugeClassLagrangian.from_exprs(
            circle_atlas("0"), "0.5*v1^2 + 1e308*10*x1 - 1e308*10*x1")
        with pytest.raises(DomainError, match=r"non-finite kernel output in \(\(\(0\.5\*"
                                               r".* at x1=.*, v1="):
            lam.validate()
