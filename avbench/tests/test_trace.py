"""Tracing: an untraced run rebinds nothing, a traced run restores every
binding and reports every per-layer metric, with the exact counts the
workloads are built to repeat."""
import json
import os
import sys

import numpy as np
import pytest

import avcalc
from avcalc import dynamics, geometry

import run
import tracing
import workloads as W

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def snapshot():
    """Identity of every attribute of every avcalc module, of the traced
    classes, and of numpy.linalg."""
    owners = [(m.__name__, m) for m in tracing.avcalc_modules()]
    owners += [("_ChartEngine", dynamics._ChartEngine), ("CurveSpec", geometry.CurveSpec),
               ("numpy.linalg", np.linalg)]
    return {(name, key): id(value) for name, owner in owners for key, value in vars(owner).items()}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_untraced_run_leaves_module_attributes_untouched(name):
    before = snapshot()
    wl = W.WORKLOADS[name](4)
    wl.setup()
    log, passes = run.measure(wl, 0.0)
    assert passes == 1 and log.attempted > 0 and log.failed == 0, log.failures
    assert snapshot() == before


@pytest.fixture(scope="module")
def traced():
    out = {}
    for name in ("orbit", "gauge_scan", "cloud"):
        before = snapshot()
        out[name] = run.per_layer(W.WORKLOADS[name], 6, 0.0)
        assert snapshot() == before, f"{name}: traced run left a binding replaced"
    return out


def test_traced_metrics_match_benchmark_spec(traced):
    names = {m["name"] for m in spec()["per_layer"]}
    for log, metrics, _detail, _tracer in traced.values():
        assert set(metrics) == names
        assert log.failed == 0, log.failures


def test_exact_counts(traced):
    m = traced["orbit"][1]
    # charged (n = 3) and relativistic (n = 2) steps alternate: mean of 2n + n^2
    assert m["dynamics.probes_per_accel"][0] == (15 + 8) / 2
    assert m["exprlang.evaluate_calls"][0] == 0
    steps = W.Orbit.STEPS * 4
    assert m["dynamics.accel_calls"][0] == 4 * steps
    assert m["kernels.calls"][0] == 4 * steps
    m = traced["gauge_scan"][1]
    assert m["kernels.compile_misses"][0] == 3  # one fresh chi per system per pass
    m = traced["cloud"][1]
    assert m["kernels.calls"][0] == 2
    assert m["kernels.probes_per_call"][0] == W.Cloud.POINTS * 6


def test_top_layers_by_self_time(traced):
    def top(metrics, k):
        layers = {n[:-len(".self_s")]: v for n, (v, _u, _n) in metrics.items()
                  if n.endswith(".self_s") and not n.startswith("bench")}
        return set(sorted(layers, key=layers.get, reverse=True)[:k])

    assert top(traced["orbit"][1], 2) == {"kernels", "dynamics"}
    assert top(traced["gauge_scan"][1], 2) == {"kernels", "dynamics"}
    assert top(traced["cloud"][1], 1) == {"kernels"}


def test_spans_form_a_tree(traced):
    tracer = traced["orbit"][3]
    spans = tracer.spans
    assert spans and tracer.dropped >= 0
    for i, (name, start, end, parent, op) in enumerate(spans):
        assert start <= end
        if parent >= 0:
            assert parent < i
            p = spans[parent]
            assert p[1] <= start and end <= p[2] and p[4] == op
        else:
            assert tracer.names[name] == "bench.op" or op == 0
    for name, t in tracer.counters.self_time.items():
        assert t <= tracer.counters.total[name] + 1e-12
