"""Seeded workloads that drive avcalc through its public API.

Every workload is a closed loop: one client in one process runs its
operations back to back.  ``setup()`` builds everything the first
operation needs (configs, parsed expressions, first kernel compiles);
``run_pass(log)`` runs one pass of operations of a fixed shape, so that
per-pass counts repeat exactly, and gates every result.

Calls go through module attributes (``av.integrate_trajectory``,
``kernels.compile_field``, ``suites.gauge_el_suite``) so that a traced
run, which rebinds those attributes, sees them.
"""
from __future__ import annotations

import contextlib
import math
import os
import time
import traceback

import numpy as np

import avcalc as av
from avcalc import kernels, suites

import gates

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_system(name: str):
    return av.load_config(os.path.join(ROOT, "configs", f"{name}.cfg")).system


def kernel_footprint(ast, varnames, backend: str):
    """(generated source lines, computed bytes per probe) of one kernel.
    Bytes count the probe's rows of vals, d1 and d2 read and of out
    written; the numpy backend also allocates one float64 temporary per
    generated line, all live until the kernel returns."""
    lines = kernels.generate_source(ast, list(varnames), backend).splitlines()
    words = 3 * len(varnames) + 4
    if backend == "numpy":
        words += sum(1 for ln in lines if ln.lstrip().startswith("t") and " = " in ln)
    return len(lines), 8 * words


def _num(c) -> str:
    return f"({float(c)!r})"


def fixed_chi(rng, dim: int, periodic: bool) -> str:
    """A gauge function of one fixed shape: the seed picks coefficients
    and axes, not the operation count, so kernel cost does not depend on
    the seed.  Periodic ones (the circle) are 2*pi-periodic in x1."""
    c = rng.uniform(0.3, 1.0, 3) * rng.choice([-1.0, 1.0], 3)
    if periodic:
        k = rng.integers(1, 4, 2)
        return (f"{_num(c[0])}*sin({k[0]}*x1)*cos({k[1]}*x1)"
                f" + {_num(c[1])}*exp({_num(c[2])}*cos(x1))")
    i, j = rng.permutation(dim)[:2] + 1
    return (f"{_num(c[0])}*sin({_num(c[2])}*x{i})*cos(x{j})"
            f" + {_num(c[1])}*x{i}*x{j}")


def random_chi(rng, dim: int, periodic: bool) -> str:
    """A fresh gauge function from a sin/cos/exp/polynomial grammar: two
    terms, each a seeded coefficient times two factors drawn from the
    grammar.  The fixed term and factor counts keep the cost of a check
    from depending much on the seed.  Periodic ones use integer
    frequencies and functions of sin/cos only, so they pass
    ScalarFunction.validate on the circle."""

    def factor() -> str:
        x = f"x{rng.integers(1, dim + 1)}"
        c = [_num(v) for v in rng.uniform(-1.0, 1.0, 3)]
        if periodic:
            k = rng.integers(1, 4)
            return (f"sin({k}*{x})", f"cos({k}*{x})",
                    f"exp({c[0]}*sin({x}))", f"exp({c[0]}*cos({x}))")[rng.integers(4)]
        return (f"sin({c[0]}*{x})", f"cos({c[0]}*{x})", f"exp({c[0]}*{x})",
                f"({c[0]}+{c[1]}*{x}+{c[2]}*{x}^2)")[rng.integers(4)]

    return " + ".join(
        f"{_num(rng.uniform(-1.0, 1.0))}*{factor()}*{factor()}" for _ in range(2)
    )


class OpFailed(Exception):
    """An operation raised; the failure is already recorded."""


class OpLog:
    """Times operations, applies gates, counts attempts and failures.

    An operation is one timed call into avcalc.  A gate that fails, or
    an exception, marks the operations it covers as failed.  With a
    meter (reference.SpeedMeter), every completed operation is also
    recorded there, for the throughput at reference machine speed.
    """

    def __init__(self, tracer=None, meter=None):
        self.tracer = tracer
        self.meter = meter
        self.times = []
        self.op_items = []
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def op(self, items: int, fn):
        """Run fn() as one operation of `items` work units; returns its
        result, or records the failure and raises OpFailed."""
        self.attempted += 1
        tracer = self.tracer
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.op_span(self.attempted):
                    out = fn()
            else:
                out = fn()
        except Exception:
            self.failed += 1
            self.failures.append(traceback.format_exc(limit=4))
            raise OpFailed from None
        dt = time.perf_counter() - t0
        self.times.append(dt)
        self.op_items.append(items)
        if self.meter is not None:
            self.meter.add(dt, items)
        return out

    def rate(self) -> float:
        """Work units completed per second of operation time."""
        return sum(self.op_items) / sum(self.times) if self.times else 0.0

    def norm_rate(self) -> float:
        """rate() at reference machine speed; needs a meter."""
        self.meter.close()
        return self.meter.rate()

    def gate(self, checks, ops: int = 1):
        """Record a gate over the last `ops` operations."""
        bad = gates.failing(checks)
        if bad:
            self.failed += ops
            self.failures.extend(f"{n}: defect {d:.3e} > tol {t:.0e}" for n, d, t in bad)
        return not bad

    def untraced(self):
        """Context in which avcalc calls (the gates) are not traced."""
        return self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()


class Workload:
    name = ""
    # the names the generic end-to-end metrics carry on this workload
    aliases = {}
    # peak_rss_mb is read after this many passes, so that it does not
    # depend on how many passes the run's seconds allow
    RSS_PASSES = 1

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def setup(self):
        raise NotImplementedError

    def run_pass(self, log: OpLog):
        raise NotImplementedError


class Orbit(Workload):
    """Long RK4 orbits of the charged particle (one Lorentz period, v0
    perpendicular to B) and of the relativistic particle (|v0| < 1), each
    next to its gauge-shifted twin.  One operation is one whole
    trajectory: a period in STEPS steps (the step count `avcalc
    integrate` uses by default) in a single integrate_trajectory call."""

    name = "orbit"
    aliases = {"work_per_s": "rk4_steps_per_s"}
    STEPS = 1000
    RSS_PASSES = 2

    def setup(self):
        charged = load_system("charged")
        rel = load_system("relativistic")
        k = charged.constants
        self.omega_c = k["q"] * k["b"] / k["m"]
        k = rel.constants
        self.rel_qb_over_m = k["q"] * k["b"] / k["m"]
        self.systems = []
        for sys_ in (charged, rel):
            lam, n = sys_.lagrangian, sys_.dim
            twin = av.gauge_shift(lam, fixed_chi(self.rng, n, periodic=False))
            for l in (lam, twin):  # first compiles
                av.solve_accelerations(l, np.zeros(n), np.full(n, 0.1))
            self.systems.append((lam, twin))

    def _initial(self):
        rng = self.rng
        x0c = rng.uniform(-0.5, 0.5, 3)
        s, phi = rng.uniform(0.5, 1.0), rng.uniform(0.0, 2.0 * math.pi)
        v0c = np.array([s * math.cos(phi), s * math.sin(phi), 0.0])
        x0r = rng.uniform(-0.5, 0.5, 2)
        s, phi = rng.uniform(0.2, 0.6), rng.uniform(0.0, 2.0 * math.pi)
        v0r = np.array([s * math.cos(phi), s * math.sin(phi)])
        gamma = 1.0 / math.sqrt(1.0 - s * s)
        period_c = 2.0 * math.pi / self.omega_c
        period_r = 2.0 * math.pi * gamma / self.rel_qb_over_m
        return [(x0c, v0c, period_c), (x0r, v0r, period_r)]

    def run_pass(self, log: OpLog):
        init = self._initial()
        out = []
        for (lam, twin), (x0, v0, period) in zip(self.systems, init):
            for l in (lam, twin):
                out.append(log.op(self.STEPS, lambda: av.integrate_trajectory(
                    l, x0, v0, 0.0, period, self.STEPS)))
        (x0c, v0c, _), _ = init
        checks = gates.lorentz(out[0].positions, out[0].velocities, x0c, v0c, self.omega_c)
        checks += gates.twins("charged", out[0].positions, out[0].velocities,
                              out[1].positions, out[1].velocities)
        checks += gates.twins("relativistic", out[2].positions, out[2].velocities,
                              out[3].positions, out[3].velocities)
        log.gate(checks, ops=len(out))


def schedule_nodes(curve, panels: int) -> int:
    """Simpson integrand nodes along a chart schedule, split as
    geometry.schedule_integral splits panels between segments."""
    span = curve.t_end - curve.t_start
    return sum(3 * max(1, round(panels * (s.t1 - s.t0) / span)) for s in curve.segments)


class Action(Workload):
    """Action quadrature, lift, finite-difference derivative and
    variational pairing on the charged, relativistic and two-chart
    circle curves, at the panel count the CLI and the suites use.  One
    operation is one of these calls.  Per system a pass runs quadrature
    and lift of L, derivative and pairing of L for one endpoint-vanishing
    and one general seeded variation field, and the pairing of L shifted
    by a seeded gauge function chi with the endpoint-vanishing field."""

    name = "action"
    aliases = {"work_per_s": "nodes_per_s"}
    PANELS = 1000
    EPS = 1e-5
    RSS_PASSES = 1

    def setup(self):
        self.systems = []
        for name in ("charged", "relativistic", "circle"):
            sys_ = load_system(name)
            lam, curve, atlas = sys_.lagrangian, sys_.curve, sys_.atlas
            chi = fixed_chi(self.rng, sys_.dim, periodic=bool(atlas.transitions))
            shifted = av.gauge_shift(lam, chi)
            for seg in curve.segments:  # first compiles, one per chart
                t = seg.t0
                q = av.SecondOrderPoint.of(curve.position(t), curve.velocity(t), curve.acceleration(t))
                for l in (lam, shifted):
                    av.euler_lagrange(l, q, seg.chart_id)
            self.systems.append((name, lam, shifted, curve, atlas))

    def _field(self, curve, dim: int, vanishing: bool):
        a, b = curve.t_start, curve.t_end
        exprs = []
        for _ in range(dim):
            c = self.rng.uniform(-0.3, 0.3, 3)
            poly = f"({_num(c[0])}+{_num(c[1])}*t+{_num(c[2])}*t^2)"
            exprs.append(f"(t-{_num(a)})*({_num(b)}-t)*{poly}" if vanishing else poly)
        return av.VariationField.from_strings(exprs)

    def run_pass(self, log: OpLog):
        p = self.PANELS
        for name, lam, shifted, curve, atlas in self.systems:
            fields = [self._field(curve, atlas.dim, v) for v in (True, False)]
            nodes = schedule_nodes(curve, p)
            quad = log.op(nodes, lambda: av.action_quadrature(lam, curve, p))
            lift = log.op(nodes, lambda: av.action_lift(lam, curve, p))
            pairs = [  # the derivative is a central difference of two quadratures
                (log.op(2 * nodes, lambda: av.variation_derivative(lam, curve, w, self.EPS, p)),
                 log.op(nodes, lambda: av.variation_pairing(lam, curve, w, p)))
                for w in fields
            ]
            pair_chi = log.op(nodes, lambda: av.variation_pairing(shifted, curve, fields[0], p))
            with log.untraced():
                checks = gates.action_equality(name, quad, lift, atlas)
            for fd, pair in pairs:
                checks += gates.variation(name, fd, pair)
            checks += gates.pairing_gauge(name, pairs[0][1], pair_chi)
            log.gate(checks, ops=7)


class GaugeScan(Workload):
    """`avcalc check-gauge` over fresh seeded gauge functions: one
    operation verifies one new chi on one system (ScalarFunction
    validation, gauge_el_suite, legendre_suite), paying parse,
    gauge_shift, codegen and compile every time."""

    name = "gauge_scan"
    aliases = {"work_per_s": "checks_per_s", "op_ms_p50": "check_ms_p50",
               "op_ms_p90": "check_ms_p90"}
    RSS_PASSES = 20

    def setup(self):
        self.systems = []
        for name in ("charged", "relativistic", "circle"):
            sys_ = load_system(name)
            chart = sys_.default_chart()
            n = sys_.dim
            q = av.SecondOrderPoint.of(np.zeros(n), np.full(n, 0.1), np.zeros(n))
            av.euler_lagrange(sys_.lagrangian, q, chart, "numpy")  # first compile
            self.systems.append(sys_)

    def run_pass(self, log: OpLog):
        for sys_ in self.systems:
            chi = random_chi(self.rng, sys_.dim, periodic=bool(sys_.atlas.transitions))
            results = log.op(1, lambda: check_gauge(sys_, chi))
            log.gate(gates.suite_results(f"{sys_.name} chi={chi}", results))


def check_gauge(sys_, chi: str):
    """What `avcalc check-gauge --chi` runs for a gauge function, minus
    the trajectory suite: chi must be a global function, and the EL and
    Legendre suites run at their own tolerances."""
    av.ScalarFunction.from_common(sys_.atlas, chi).validate()
    probe = av.System(
        name=sys_.name,
        atlas=sys_.atlas,
        lagrangian=sys_.lagrangian,
        constants=sys_.constants,
        curve=sys_.curve,
        chis=(chi,),
        v_halfwidth=sys_.v_halfwidth,
    )
    return suites.gauge_el_suite(probe) + suites.legendre_suite(probe)


class Cloud(Workload):
    """The charged-particle Lagrangian and one gauge shift, compiled once,
    evaluated over seeded point clouds in single eval_batch calls.  Probe
    rows are laid out as _ChartEngine.el_covector lays them out (n
    gradient-in-x rows, then n velocity rows carrying (v, a) as second
    seed).  One operation is the EL gauge difference over one cloud: two
    kernel calls of POINTS * 2n probes."""

    name = "cloud"
    aliases = {"work_per_s": "probes_per_s"}
    POINTS = 128
    CLOUDS = 4
    CHECKS_PER_OP = 2
    RSS_PASSES = 100

    def setup(self):
        sys_ = load_system("charged")
        self.n = n = sys_.dim
        self.chart = sys_.default_chart()
        self.lam = sys_.lagrangian
        self.twin = av.gauge_shift(self.lam, fixed_chi(self.rng, n, periodic=False))
        names = av.dynamics.lagrangian_varnames(n)
        self.kernel0 = kernels.compile_field(self.lam.expr(self.chart), names)
        self.kernel1 = kernels.compile_field(self.twin.expr(self.chart), names)
        eye = np.eye(2 * n)
        self.clouds = []
        for _ in range(self.CLOUDS):
            pts = self.POINTS
            x = self.rng.uniform(-1.0, 1.0, (pts, n))
            v = self.rng.uniform(-sys_.v_halfwidth, sys_.v_halfwidth, (pts, n))
            a = self.rng.uniform(-1.0, 1.0, (pts, n))
            vals = np.repeat(np.hstack([x, v]), 2 * n, axis=0)
            d1 = np.tile(eye, (pts, 1))
            d2 = np.zeros((pts, 2 * n, 2 * n))
            d2[:, n:, :] = np.hstack([v, a])[:, None, :]
            self.clouds.append((x, v, a, vals, d1, d2.reshape(pts * 2 * n, 2 * n)))
        self._el(self.kernel0, self.clouds[0])  # first call allocates

    def working_set_bytes(self) -> int:
        """Computed bytes one kernel call touches, for the costlier of the
        two kernels."""
        names = av.dynamics.lagrangian_varnames(self.n)
        backend = kernels.default_backend()
        per_probe = max(kernel_footprint(lam.expr(self.chart), names, backend)[1]
                        for lam in (self.lam, self.twin))
        return per_probe * self.POINTS * 2 * self.n

    def _el(self, kernel, cloud):
        _x, _v, _a, vals, d1, d2 = cloud
        n = self.n
        out = kernels.eval_batch(kernel, vals, d1, d2).reshape(-1, 2 * n, 4)
        return out[:, :n, 1] - out[:, n:, 3]

    def run_pass(self, log: OpLog):
        cloud = self.clouds[self.rng.integers(self.CLOUDS)]
        probes = 2 * cloud[3].shape[0]
        e0, e1 = log.op(probes, lambda: (self._el(self.kernel0, cloud), self._el(self.kernel1, cloud)))
        checks = gates.el_gauge(e0, e1)
        x, v, a = cloud[:3]
        with log.untraced():
            for i in self.rng.integers(x.shape[0], size=self.CHECKS_PER_OP):
                q = av.SecondOrderPoint.of(x[i], v[i], a[i])
                ref = [av.euler_lagrange(l, q, self.chart).p for l in (self.lam, self.twin)]
                checks += gates.pointwise([e0[i], e1[i]], ref)
        log.gate(checks)


class CloudLarge(Cloud):
    name = "cloud_large"
    aliases = {"work_per_s": "probes_per_s_large"}
    POINTS = 2048
    RSS_PASSES = 20


WORKLOADS = {w.name: w for w in (Orbit, Action, GaugeScan, Cloud, CloudLarge)}
