"""Command-line front end.

Subcommands: el, legendre, integrate, action, variation, check-gauge,
check-all.  Systems come from config files (see config.py for the
format) or from the bundled names (free, uniform, charged,
relativistic, boosted, circle).  Exit codes: 0 success, 1 check or
numerical failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import suites
from .action import (
    VariationField,
    action_lift,
    action_quadrature,
    gauge_fixed_value,
    variation_derivative,
    variation_pairing,
)
from .affine import affine_scalar_diff
from .config import load_config, parse_segment, split_top_level
from .dynamics import SecondOrderPoint, euler_lagrange, integrate_trajectory, legendre
from .errors import AvcalcError, DomainError
from .exprlang import evaluate, to_text
from .geometry import CurveSpec, ScalarFunction
from .systems import System, bundled_system, bundled_system_names, chi_set


def _fmt(x: float) -> str:
    return "%.17g" % x


def _fmt_vec(v) -> str:
    return " ".join(_fmt(float(c)) for c in v)


def _load_system(name_or_path: str) -> System:
    if os.path.exists(name_or_path):
        return load_config(name_or_path).system
    if name_or_path in bundled_system_names():
        return bundled_system(name_or_path)
    raise AvcalcError(
        f"'{name_or_path}' is neither a config file nor a bundled system "
        f"({', '.join(bundled_system_names())})"
    )


def _vector(text: str, dim: int, what: str) -> np.ndarray:
    parts = split_top_level(text)
    if len(parts) != dim:
        raise AvcalcError(f"{what} needs {dim} components, got {len(parts)}")
    try:
        vec = np.array([float(p) for p in parts])
    except ValueError:
        vec = None
    if vec is None or not np.all(np.isfinite(vec)):
        raise AvcalcError(f"{what} components must be numbers: {text!r}")
    return vec


def _curve_from_args(args, system: System) -> CurveSpec:
    if args.curve:
        curve = CurveSpec(tuple(parse_segment(text, system.constants, "--curve")
                                for text in args.curve))
    elif system.curve is not None:
        curve = system.curve
    else:
        raise AvcalcError("no curve: pass --curve or add a [curve] section to the config")
    curve.validate(system.atlas)
    return curve


def _forcing_callable(system: System):
    if system.forcing is None:
        return None
    n = system.dim
    exprs = system.forcing

    def force(x, v):
        env = {f"x{j + 1}": float(x[j]) for j in range(n)}
        env.update({f"v{j + 1}": float(v[j]) for j in range(n)})
        out = []
        for e in exprs:
            try:
                value = float(evaluate(e, env))
                if not math.isfinite(value):
                    raise DomainError(f"non-finite forcing value {value}")
            except DomainError as exc:
                point = ", ".join(f"{name}={value!r}" for name, value in env.items())
                raise DomainError(f"{exc} in {to_text(e)} at {point}") from None
            out.append(value)
        return np.array(out)

    return force


def _print_results(results) -> int:
    ok = True
    for r in results:
        print(r.line())
        ok = ok and r.passed
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Subcommands

def cmd_el(args) -> int:
    system = _load_system(args.system)
    n = system.dim
    q = SecondOrderPoint.of(
        _vector(args.x, n, "--x"), _vector(args.v, n, "--v"), _vector(args.a, n, "--a")
    )
    cov = euler_lagrange(system.lagrangian, q, args.chart or system.default_chart())
    print(_fmt_vec(cov.p))
    return 0


def cmd_legendre(args) -> int:
    system = _load_system(args.system)
    n = system.dim
    cov = legendre(
        system.lagrangian,
        _vector(args.x, n, "--x"),
        _vector(args.v, n, "--v"),
        args.chart or system.default_chart(),
    )
    print(_fmt_vec(cov.p))
    return 0


def cmd_integrate(args) -> int:
    system = _load_system(args.system)
    n = system.dim
    x0, v0 = _vector(args.x0, n, "--x0"), _vector(args.v0, n, "--v0")
    try:
        tr = integrate_trajectory(
            system.lagrangian,
            x0,
            v0,
            args.t0,
            args.t1,
            args.steps,
            forcing=_forcing_callable(system),
            chart_id=args.chart or system.default_chart(),
        )
    except ValueError as e:  # an input it refuses, e.g. an overflowing step size
        raise AvcalcError(str(e)) from None
    header = "t," + ",".join(f"x{j}" for j in range(1, n + 1)) + "," + ",".join(
        f"v{j}" for j in range(1, n + 1)
    )
    row = ",".join(["%.17g"] * (1 + 2 * n))  # _fmt of each value
    table = np.column_stack([tr.times, tr.positions, tr.velocities]).tolist()
    text = "\n".join([header, *(row % tuple(r) for r in table)]) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_action(args) -> int:
    system = _load_system(args.system)
    curve = _curve_from_args(args, system)
    quad = action_quadrature(system.lagrangian, curve, args.panels)
    lift = action_lift(system.lagrangian, curve, args.steps)
    gap = abs(affine_scalar_diff(quad, lift, system.atlas))
    print(f"action_quadrature = {_fmt(gauge_fixed_value(quad))}")
    print(f"action_lift       = {_fmt(gauge_fixed_value(lift))}")
    print(f"difference        = {_fmt(gap)}")
    return 0 if gap <= suites.INTEGRAL_TOL else 1


def cmd_variation(args) -> int:
    system = _load_system(args.system)
    curve = _curve_from_args(args, system)
    exprs = split_top_level(args.w)
    if len(exprs) != system.dim:
        raise AvcalcError(f"--w needs {system.dim} component expressions")
    w = VariationField.from_strings(exprs, system.constants)
    fd = variation_derivative(system.lagrangian, curve, w, args.eps, args.panels)
    pair = variation_pairing(system.lagrangian, curve, w, args.panels)
    gap = abs(fd - pair)
    print(f"variation_derivative = {_fmt(fd)}")
    print(f"variation_pairing    = {_fmt(pair)}")
    print(f"gap                  = {_fmt(gap)}")
    return 0 if gap <= suites.VARIATION_TOL else 1


def cmd_check_gauge(args) -> int:
    system = _load_system(args.system)
    chis = (args.chi,) if args.chi else (system.chis or tuple(chi_set(system.dim)))
    for chi in chis:  # each must be one function on M
        ScalarFunction.from_common(system.atlas, chi, system.constants).validate()
    probe = dataclasses.replace(system, chis=tuple(chis))
    results = suites.gauge_el_suite(probe) + suites.legendre_suite(probe)
    code = _print_results(results)  # shown even if the trajectory suite raises
    traj = suites.trajectory_gauge_suite(probe)
    return max(code, _print_results(traj))


def cmd_check_all(args) -> int:
    if args.system:
        system = _load_system(args.system)
        results = suites.run_system_suites(system)
    else:
        results = suites.run_all()
    return _print_results(results)


# ---------------------------------------------------------------------------
# Argument plumbing

def _checked(convert, ok, what: str):
    """argparse `type=` that rejects, as a usage error, text that does
    not convert or whose value fails `ok`."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_finite_float = _checked(float, math.isfinite, "a finite number")
_positive_float = _checked(float, lambda v: math.isfinite(v) and v > 0.0, "a positive number")


def _add_system(p, required=True, chart=True):
    """--system, and --chart for a command that reads it."""
    p.add_argument("--system", required=required, help="config file or bundled system name")
    if chart:
        p.add_argument("--chart", default=None, help="chart id (default: first chart)")


_CURVE_HELP = ("curve segment 'chart : t0 : t1 : e1; e2; ...' in t; repeat for a chart "
               "schedule (default: the system's curve)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avcalc",
        description="Affine-values variational calculus: gauge-class Lagrangians, "
        "Euler-Lagrange covectors, Legendre momenta, affine actions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("el", help="evaluate the Euler-Lagrange covector at (x, v, a)")
    _add_system(p)
    p.add_argument("--x", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--a", required=True)
    p.set_defaults(run=cmd_el)

    p = sub.add_parser("legendre", help="evaluate the momentum covector at (x, v)")
    _add_system(p)
    p.add_argument("--x", required=True)
    p.add_argument("--v", required=True)
    p.set_defaults(run=cmd_legendre)

    p = sub.add_parser("integrate", help="integrate a trajectory, write CSV")
    _add_system(p)
    p.add_argument("--x0", required=True)
    p.add_argument("--v0", required=True)
    p.add_argument("--t0", type=_finite_float, default=0.0)
    p.add_argument("--t1", type=_finite_float, default=1.0)
    p.add_argument("--steps", type=_positive_int, default=1000)
    p.add_argument("--output", default=None, help="CSV path (default: stdout)")
    p.set_defaults(run=cmd_integrate)

    p = sub.add_parser("action", help="both action constructions and their difference")
    _add_system(p, chart=False)
    p.add_argument("--curve", action="append", help=_CURVE_HELP)
    p.add_argument("--panels", type=_positive_int, default=suites.PANELS)
    p.add_argument("--steps", type=_positive_int, default=suites.STEPS)
    p.set_defaults(run=cmd_action)

    p = sub.add_parser("variation", help="FD action derivative vs the boundary+bulk pairing")
    _add_system(p, chart=False)
    p.add_argument("--curve", action="append", help=_CURVE_HELP)
    p.add_argument("--w", required=True, help="variation field expressions in t, ';'-separated")
    p.add_argument("--eps", type=_positive_float, default=suites.EPS)
    p.add_argument("--panels", type=_positive_int, default=suites.PANELS)
    p.set_defaults(run=cmd_variation)

    p = sub.add_parser("check-gauge", help="gauge-invariance suite for a gauge function")
    _add_system(p, chart=False)
    p.add_argument("--chi", default=None, help="gauge function of x1..xn")
    p.set_defaults(run=cmd_check_gauge)

    p = sub.add_parser("check-all", help="run every invariant suite")
    _add_system(p, required=False, chart=False)
    p.set_defaults(run=cmd_check_all)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except AvcalcError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
