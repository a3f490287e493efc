"""Span tracing around the calls into each avcalc layer.

Only a traced run installs a Tracer.  ``install()`` rebinds each traced
function in every avcalc module namespace that binds it (and the two
numpy.linalg routines the RK4 step calls), plus a few methods on their
classes; ``uninstall()`` puts every original back.  Kernels returned by
``compile_field`` are wrapped so each call is a span carrying its probe
count.

A span is (name, start, end, parent, operation id).  Spans are kept in
memory, up to SPAN_CAP of them, and written out at the end; self time
(duration minus the part covered by child spans) and per-name counts
are accumulated for every span, stored or not.
"""
from __future__ import annotations

import contextlib
import json
import sys
import time

import numpy as np

from avcalc import action, autodiff, config, dynamics, exprlang, geometry, kernels, suites

from workloads import kernel_footprint

SPAN_CAP = 50_000

# (span name, owner, attribute); owner is a module whose binding is the
# original, searched for in every avcalc module, or a class.
FUNCTIONS = (
    ("config.load", config, "load_config"),
    ("exprlang.parse", exprlang, "parse"),
    ("exprlang.evaluate", exprlang, "evaluate"),
    ("autodiff.gradient", autodiff, "gradient"),
    ("geometry.eval_vector", geometry, "eval_vector"),
    ("geometry.schedule_integral", geometry, "schedule_integral"),
    ("kernels.compile", kernels, "compile_field"),
    ("dynamics.gauge_shift", dynamics, "gauge_shift"),
    ("dynamics.el", dynamics, "euler_lagrange"),
    ("dynamics.legendre", dynamics, "legendre"),
    ("dynamics.integrate", dynamics, "integrate_trajectory"),
    ("dynamics.accel", dynamics, "_accelerations"),
    ("action.quadrature", action, "action_quadrature"),
    ("action.lift", action, "action_lift"),
    ("action.derivative", action, "variation_derivative"),
    ("action.pairing", action, "variation_pairing"),
    ("suites.gauge_el", suites, "gauge_el_suite"),
    ("suites.legendre", suites, "legendre_suite"),
)
METHODS = (
    ("dynamics.solve_terms", dynamics._ChartEngine, "solve_terms"),
    ("geometry.curve_deriv", geometry.CurveSpec, "velocity"),
    ("geometry.curve_deriv", geometry.CurveSpec, "acceleration"),
)
LINALG = (
    ("dynamics.cond", "cond"),
    ("dynamics.solve", "solve"),
)
# exprlang.evaluate recurses through its module global: only the
# outermost call of a nest is a span
TOP_LEVEL_ONLY = {"exprlang.evaluate"}


def avcalc_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "avcalc" or name.startswith("avcalc."))]


class Counters:
    """Per-name calls, inclusive seconds and self seconds, plus the
    kernel and RK4 counts measured at the same boundaries."""

    def __init__(self):
        self.calls = {}
        self.total = {}
        self.self_time = {}
        self.probes = 0
        self.accel_probes = 0
        self.steps = 0
        self.compile_misses = 0
        self.miss_seconds = 0.0

    def copy(self):
        c = Counters()
        c.__dict__.update({k: (dict(v) if isinstance(v, dict) else v)
                           for k, v in self.__dict__.items()})
        return c

    def minus(self, base):
        c = Counters()
        for key, value in self.__dict__.items():
            if isinstance(value, dict):
                old = getattr(base, key)
                setattr(c, key, {k: v - old.get(k, 0) for k, v in value.items()})
            else:
                setattr(c, key, value - getattr(base, key))
        return c


class Tracer:
    def __init__(self, span_cap: int = SPAN_CAP):
        self.span_cap = span_cap
        self.names = []
        self._name_ids = {}
        self.spans = []
        self.dropped = 0
        self.stack = []  # frames: [name, child seconds, span index]
        self.counters = Counters()
        self.operation = 0
        self._paused = 0
        self._top_depth = {}
        self._patches = []
        self._kernel_wrappers = {}
        self._seen_kernels = {}
        self.compiled = []  # (ast, varnames, backend) per distinct kernel

    # -- spans -------------------------------------------------------------

    def _name_id(self, name):
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _enter(self, name):
        parent = self.stack[-1][2] if self.stack else -1
        idx = -1
        if len(self.spans) < self.span_cap:
            idx = len(self.spans)
            self.spans.append([self._name_id(name), 0.0, 0.0, parent, self.operation])
        else:
            self.dropped += 1
        frame = [name, 0.0, idx]
        self.stack.append(frame)
        return frame

    def _exit(self, frame, t0, t1):
        self.stack.pop()
        dur = t1 - t0
        if self.stack:
            self.stack[-1][1] += dur
        name = frame[0]
        c = self.counters
        c.calls[name] = c.calls.get(name, 0) + 1
        c.total[name] = c.total.get(name, 0.0) + dur
        c.self_time[name] = c.self_time.get(name, 0.0) + dur - frame[1]
        if frame[2] >= 0:
            span = self.spans[frame[2]]
            span[1], span[2] = t0, t1
        return dur

    @contextlib.contextmanager
    def op_span(self, operation: int):
        """Root span of one benchmark operation."""
        self.operation = operation
        frame = self._enter("bench.op")
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._exit(frame, t0, time.perf_counter())

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the correctness gates) are not traced."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def _wrap(self, name, fn, after=None):
        clock = time.perf_counter
        top_only = name in TOP_LEVEL_ONLY

        def traced(*args, **kwargs):
            if self._paused or (top_only and self._top_depth.get(name)):
                return fn(*args, **kwargs)
            if top_only:
                self._top_depth[name] = 1
            frame = self._enter(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = self._exit(frame, t0, t1)
                if top_only:
                    self._top_depth[name] = 0
            if after is not None:
                result = after(args, kwargs, result, dur)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- layer-specific counts ---------------------------------------------

    def _after_compile(self, args, kwargs, kernel, dur):
        if id(kernel) not in self._seen_kernels:
            self._seen_kernels[id(kernel)] = kernel
            self.counters.compile_misses += 1
            self.counters.miss_seconds += dur
            ast, varnames = args[0], args[1]
            backend = args[2] if len(args) > 2 else kwargs.get("backend")
            self.compiled.append((ast, tuple(varnames), backend or kernels.default_backend()))
        wrapper = self._kernel_wrappers.get(id(kernel))
        if wrapper is None:
            call = self._wrap("kernels.call", kernel)

            def wrapper(vals, d1, d2, out):
                if not self._paused:
                    probes = vals.shape[0]
                    self.counters.probes += probes
                    if any(f[0] == "dynamics.accel" for f in self.stack):
                        self.counters.accel_probes += probes
                return call(vals, d1, d2, out)

            self._kernel_wrappers[id(kernel)] = wrapper
        return wrapper

    def _after_integrate(self, args, kwargs, result, dur):
        if not self._paused:
            self.counters.steps += args[5] if len(args) > 5 else kwargs["steps"]
        return result

    # -- install / uninstall -----------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        after = {"kernels.compile": self._after_compile,
                 "dynamics.integrate": self._after_integrate}
        for name, owner, attr in FUNCTIONS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, after.get(name))
            for mod in avcalc_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        for name, cls, attr in METHODS:
            self._set(cls, attr, self._wrap(name, cls.__dict__[attr]))
        for name, attr in LINALG:
            self._set(np.linalg, attr, self._wrap(name, getattr(np.linalg, attr)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent", "operation"],
                "names": self.names,
                "spans": self.spans,
                "dropped": self.dropped,
            }, fh)


def source_stats(compiled):
    """Mean generated source lines and computed bytes per probe over the
    distinct compiled kernels."""
    if not compiled:
        return 0.0, 0.0
    stats = np.array([kernel_footprint(*c) for c in compiled], dtype=float)
    return tuple(float(v) for v in stats.mean(axis=0))


LAYERS = ("exprlang", "autodiff", "geometry", "kernels", "dynamics", "action", "suites", "bench")


def layer_metrics(tracer: Tracer, loop: Counters, passes: int, overhead: float):
    """Per-layer metrics.  Counts and the *_self_s / per-pass seconds
    cover the traced measurement loop and are per pass; per-call times
    cover every traced call, set-up included."""
    tot = tracer.counters

    def per_pass(table, name):
        return table.get(name, 0) / passes

    def calls(name):
        return per_pass(loop.calls, name)

    def mean(name, scale):
        n = tot.calls.get(name, 0)
        return tot.total.get(name, 0.0) / n * scale if n else 0.0

    lines, bpp = source_stats(tracer.compiled)
    layer_self = {}
    for name, t in loop.self_time.items():
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + t
    compile_calls_total = tot.calls.get("kernels.compile", 0)
    kcalls = loop.calls.get("kernels.call", 0)
    kseconds = loop.total.get("kernels.call", 0.0)
    accel = loop.calls.get("dynamics.accel", 0)
    m = {
        "exprlang.parse_calls": calls("exprlang.parse"),
        "exprlang.parse_us": mean("exprlang.parse", 1e6),
        "exprlang.evaluate_calls": calls("exprlang.evaluate"),
        "exprlang.evaluate_s": per_pass(loop.total, "exprlang.evaluate"),
        "autodiff.gradient_calls": calls("autodiff.gradient"),
        "autodiff.gradient_s": per_pass(loop.total, "autodiff.gradient"),
        "geometry.curve_deriv_calls": calls("geometry.curve_deriv"),
        "geometry.curve_deriv_s": per_pass(loop.total, "geometry.curve_deriv"),
        "geometry.eval_vector_calls": calls("geometry.eval_vector"),
        "geometry.eval_vector_s": per_pass(loop.total, "geometry.eval_vector"),
        "geometry.schedule_integral_self_s": per_pass(loop.self_time, "geometry.schedule_integral"),
        "kernels.compile_calls": calls("kernels.compile"),
        "kernels.compile_misses": loop.compile_misses / passes,
        "kernels.compile_hit_ratio": (1.0 - tot.compile_misses / compile_calls_total
                                      if compile_calls_total else 0.0),
        "kernels.compile_ms": (tot.miss_seconds / tot.compile_misses * 1e3
                               if tot.compile_misses else 0.0),
        "kernels.calls": kcalls / passes,
        "kernels.probes_per_call": loop.probes / kcalls if kcalls else 0.0,
        "kernels.call_us": kseconds / kcalls * 1e6 if kcalls else 0.0,
        "kernels.ns_per_probe": kseconds / loop.probes * 1e9 if loop.probes else 0.0,
        "kernels.source_lines": lines,
        "kernels.bytes_per_probe": bpp,
        "dynamics.rk4_step_us": (loop.total.get("dynamics.integrate", 0.0) / loop.steps * 1e6
                                 if loop.steps else 0.0),
        "dynamics.accel_calls": calls("dynamics.accel"),
        "dynamics.accel_us": mean("dynamics.accel", 1e6),
        "dynamics.solve_terms_us": mean("dynamics.solve_terms", 1e6),
        "dynamics.probes_per_accel": loop.accel_probes / accel if accel else 0.0,
        "dynamics.cond_us": mean("dynamics.cond", 1e6),
        "dynamics.solve_us": mean("dynamics.solve", 1e6),
        "dynamics.el_calls": calls("dynamics.el"),
        "dynamics.el_us": mean("dynamics.el", 1e6),
        "dynamics.legendre_us": mean("dynamics.legendre", 1e6),
        "dynamics.gauge_shift_us": mean("dynamics.gauge_shift", 1e6),
        "action.quadrature_s": mean("action.quadrature", 1.0),
        "action.lift_s": mean("action.lift", 1.0),
        "action.derivative_s": mean("action.derivative", 1.0),
        "action.pairing_s": mean("action.pairing", 1.0),
        "suites.gauge_el_s": mean("suites.gauge_el", 1.0),
        "suites.legendre_s": mean("suites.legendre", 1.0),
        "config.load_s": mean("config.load", 1.0),
        "trace.overhead": overhead,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = per_pass(layer_self, layer)
    return m
