import os
import shutil
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from avcalc import action, geometry, kernels, native
from avcalc.action import (
    VariationField,
    _lagrangian_integrand,
    _rk4_nodes,
    action_lift,
    action_quadrature,
    gauge_fixed_value,
    variation_derivative,
    variation_pairing,
)
from avcalc.affine import affine_scalar_diff
from avcalc.dynamics import GaugeClassLagrangian, _ChartEngine, gauge_shift
from avcalc.errors import ChartScheduleError, DomainError
from avcalc.exprlang import to_text
from avcalc.geometry import CurveSpec, circle_atlas, euclidean_atlas, jets_in_t, simpson_nodes
from avcalc.kernels import compile_field
from avcalc.systems import bundled_system, bundled_system_names

from helpers_reference import (
    perturbed_curve,
    reference_derivative,
    reference_lift,
    reference_pairing,
    reference_quadrature,
)


@pytest.fixture(scope="module")
def free():
    atlas = euclidean_atlas(1)
    lam = GaugeClassLagrangian.from_exprs(atlas, "0.5*v1^2")
    curve = CurveSpec.single("0", ["t"], 0.0, 1.0)
    return atlas, lam, curve


class TestActionValues:
    def test_unit_speed_line(self, free):
        _atlas, lam, curve = free
        s = action_quadrature(lam, curve, panels=1000)
        assert gauge_fixed_value(s) == pytest.approx(0.5, abs=1e-10)
        s2 = action_lift(lam, curve, steps=1000)
        assert gauge_fixed_value(s2) == pytest.approx(0.5, abs=1e-10)

    def test_zero_lagrangian(self, free):
        atlas, _lam, curve = free
        zero = GaugeClassLagrangian.from_exprs(atlas, "0")
        a = action_quadrature(zero, curve, panels=10)
        b = action_lift(zero, curve, steps=10)
        assert gauge_fixed_value(a) == 0.0
        assert abs(affine_scalar_diff(a, b, atlas)) == 0.0

    def test_lift_shift_leaves_class_unchanged(self, free):
        atlas, lam, curve = free
        s = action_lift(lam, curve, steps=200)
        shifted = s.shift(3.0).shift(-3.0)
        assert abs(affine_scalar_diff(s, shifted, atlas)) < 1e-14

    def test_anchors(self, free):
        _atlas, lam, curve = free
        s = action_quadrature(lam, curve, panels=100)
        assert s.minus.base == (0.0,)
        assert s.plus.base == (1.0,)
        assert s.minus.value == 0.0

    def test_panel_validation(self, free):
        _atlas, lam, curve = free
        with pytest.raises(ValueError):
            action_quadrature(lam, curve, panels=0)
        with pytest.raises(ValueError):
            action_lift(lam, curve, steps=0)


class TestPerturbation:
    def test_perturbed_curve_positions(self, free):
        _atlas, _lam, curve = free
        w = VariationField.from_strings(["t*(1-t)"])
        moved = perturbed_curve(curve, w, 0.1)
        t = 0.5
        assert moved.position(t)[0] == pytest.approx(t + 0.1 * t * (1 - t))
        assert curve.position(t)[0] == pytest.approx(t)

    def test_zero_variation(self, free):
        _atlas, lam, curve = free
        w = VariationField.from_strings(["0"])
        assert variation_derivative(lam, curve, w) == pytest.approx(0.0, abs=1e-12)
        assert variation_pairing(lam, curve, w) == pytest.approx(0.0, abs=1e-12)


class TestStationarity:
    def test_el_solution_is_stationary(self, free):
        # straight line solves the free EL equation; endpoint-vanishing
        # variations see a critical point
        _atlas, lam, curve = free
        w = VariationField.from_strings(["t*(1-t)"])
        assert abs(variation_derivative(lam, curve, w)) < 1e-6
        assert abs(variation_pairing(lam, curve, w)) < 1e-8

    def test_identity_for_non_solution_curve(self):
        atlas = euclidean_atlas(1)
        lam = GaugeClassLagrangian.from_exprs(atlas, "0.5*v1^2 - sin(x1)")
        curve = CurveSpec.single("0", ["0.3*t + 0.2*t^2"], 0.0, 1.0)
        w = VariationField.from_strings(["0.1 + 0.2*t"])  # not endpoint-vanishing
        fd = variation_derivative(lam, curve, w, eps=1e-5, panels=1000)
        pair = variation_pairing(lam, curve, w, panels=1000)
        assert fd == pytest.approx(pair, abs=1e-8)

    def test_forced_uniform_field_boundary_term(self):
        # L = v^2/2 - x along the EL solution: only boundary terms remain
        atlas = euclidean_atlas(1)
        lam = GaugeClassLagrangian.from_exprs(atlas, "0.5*v1^2 - x1")
        curve = CurveSpec.single("0", ["0.2 + 0.8*t - 0.5*t^2"], 0.0, 1.0)
        w = VariationField.from_strings(["1"])
        pair = variation_pairing(lam, curve, w, panels=500)
        # <p(1), 1> - <p(0), 1> = (0.8 - 1.0) - 0.8 = -1.0
        assert pair == pytest.approx(-1.0, abs=1e-10)
        fd = variation_derivative(lam, curve, w, panels=500)
        assert fd == pytest.approx(-1.0, abs=1e-8)


class TestAgainstScalarOracle:
    """The batched action layer against the per-node scalar loop, on every
    bundled system (the circle's curve crosses its chart junction).  300
    panels give 900 nodes on a one-segment curve, more than one
    geometry.CHUNK of nodes."""

    PANELS = 300

    @pytest.fixture(scope="class", params=bundled_system_names())
    def system(self, request):
        return bundled_system(request.param)

    @staticmethod
    def fields(system):
        a, b = system.curve.t_start, system.curve.t_end
        poly = [f"(0.2 - {0.1 * (k + 1)}*t + 0.05*t^2)" for k in range(system.dim)]
        return [
            VariationField.from_strings([f"(t-({a}))*(({b})-t)*{p}" for p in poly]),
            VariationField.from_strings(poly),
        ]

    def test_quadrature_and_lift(self, system):
        lam, curve, p = system.lagrangian, system.curve, self.PANELS
        quad = gauge_fixed_value(action_quadrature(lam, curve, p))
        lift = gauge_fixed_value(action_lift(lam, curve, p))
        assert abs(quad - reference_quadrature(lam, curve, p)) <= 1e-12
        assert abs(lift - reference_lift(lam, curve, p)) <= 1e-12

    def test_pairing(self, system):
        curve, p = system.curve, self.PANELS
        shifted = gauge_shift(system.lagrangian, system.chis[0])
        for lam in (system.lagrangian, shifted):
            for w in self.fields(system):
                got = variation_pairing(lam, curve, w, p)
                assert abs(got - reference_pairing(lam, curve, w, p)) <= 1e-12

    def test_derivative(self, system):
        lam, curve, p = system.lagrangian, system.curve, self.PANELS
        for w in self.fields(system):
            got = variation_derivative(lam, curve, w, 1e-5, p)
            assert abs(got - reference_derivative(lam, curve, w, 1e-5, p)) <= 1e-9


class TestErrorPaths:
    def test_domain_error_from_every_action_function(self):
        # |v1| = 2 takes L = -sqrt(1 - v1^2) out of the real domain at every node
        atlas = euclidean_atlas(1)
        lam = GaugeClassLagrangian.from_exprs(atlas, "-sqrt(1 - v1^2)")
        curve = CurveSpec.single("0", ["2*t"], 0.0, 1.0)
        w = VariationField.from_strings(["t*(1-t)"])
        calls = [
            lambda: action_quadrature(lam, curve, 50),
            lambda: action_lift(lam, curve, 50),
            lambda: variation_derivative(lam, curve, w, 1e-5, 50),
            lambda: variation_pairing(lam, curve, w, 50),
        ]
        for call in calls:
            with pytest.raises(DomainError, match=r"sqrt.* at x1=0\.0, v1=2\.0"):
                call()

    def test_non_finite_value_without_a_domain_error(self, free):
        # the interpreter computes inf without complaint; the action may not
        atlas, _lam, curve = free
        lam = GaugeClassLagrangian.from_exprs(atlas, "1e400*v1^2")
        with pytest.raises(DomainError, match=r"non-finite kernel output in .* at x1=0\.0, v1=1\.0"):
            action_quadrature(lam, curve, 10)

    def test_domain_error_in_curve_derivative(self, free):
        _atlas, lam, _curve = free
        curve = CurveSpec.single("0", ["sqrt(t)"], 0.0, 1.0)
        with pytest.raises(DomainError, match=r"sqrt derivative singular at zero .* at t=0\.0"):
            action_quadrature(lam, curve, 10)

    def test_curve_leaving_its_chart_mid_segment(self):
        # chart "0" of the circle covers (-pi, pi); the segment runs on to 4
        circle = circle_atlas("sin(x1)", winding=1.0)
        lam = GaugeClassLagrangian.from_exprs(circle, "0.5*v1^2")
        curve = CurveSpec.single("0", ["t"], 0.0, 4.0)
        w = VariationField.from_strings(["t*(4-t)"])
        with pytest.raises(ChartScheduleError) as expected:
            reference_quadrature(lam, curve, 100)
        calls = [
            lambda: action_quadrature(lam, curve, 100),
            lambda: action_lift(lam, curve, 100),
            lambda: variation_pairing(lam, curve, w, 100),
        ]
        for call in calls:
            with pytest.raises(ChartScheduleError, match="curve leaves chart 0 at t=3.16") as got:
                call()
            assert str(got.value) == str(expected.value)
        # the finite difference meets gamma + eps*w first, which leaves at the same node
        with pytest.raises(ChartScheduleError) as expected:
            reference_quadrature(lam, perturbed_curve(curve, w, 1e-5), 100)
        with pytest.raises(ChartScheduleError, match="curve leaves chart 0 at t=3.16") as got:
            variation_derivative(lam, curve, w, 1e-5, 100)
        assert str(got.value) == str(expected.value)

    def test_only_the_perturbed_curve_leaving_its_chart(self):
        # gamma(t) = t stays in chart "0" = (-pi, pi) up to t = 3; gamma + 0.1*w
        # with w = 2t is 1.2t and leaves it between the nodes 2.61 and 2.625
        circle = circle_atlas("sin(x1)", winding=1.0)
        lam = GaugeClassLagrangian.from_exprs(circle, "0.5*v1^2")
        curve = CurveSpec.single("0", ["t"], 0.0, 3.0)
        w = VariationField.from_strings(["2*t"])
        action_quadrature(lam, curve, 100)
        variation_pairing(lam, curve, w, 100)
        with pytest.raises(ChartScheduleError) as expected:
            reference_quadrature(lam, perturbed_curve(curve, w, 0.1), 100)
        with pytest.raises(ChartScheduleError, match=r"curve leaves chart 0 at t=2\.625 ") as got:
            variation_derivative(lam, curve, w, 0.1, 100)
        assert str(got.value) == str(expected.value)


class TestNodePlan:
    """A curve evaluates its jets once per node rule and count, and
    every functional of it reads them from its cached plan."""

    @pytest.fixture
    def circle(self):
        """The two-chart circle system with a fresh curve (no plan yet)."""
        system = bundled_system("circle")
        return system.lagrangian, CurveSpec(system.curve.segments)

    @staticmethod
    def count_evaluations(monkeypatch):
        """The expressions handed to geometry.jets_in_t, and the
        (expression, variables) of each kernel walk (each table's,
        kernels._batched, _lagrangian, _gradient and _jet, one per
        expression a cache miss compiles), from here on, with the
        kernel cache emptied."""
        seen, walks = [], []
        real_jets = geometry.jets_in_t

        def jets(exprs, t):
            seen.append(exprs)
            return real_jets(exprs, t)

        monkeypatch.setattr(geometry, "jets_in_t", jets)
        monkeypatch.setattr(kernels, "_CACHE", {})
        for table in ("_batched", "_lagrangian", "_gradient", "_jet"):
            real_walk = getattr(kernels, table)
            monkeypatch.setattr(kernels, table,
                                lambda *a, walk=real_walk: walks.append(a) or walk(*a))
        return seen, walks

    def test_second_quadrature_evaluates_no_curve_jets(self, circle, monkeypatch):
        lam, curve = circle
        seen, walks = self.count_evaluations(monkeypatch)
        first = action_quadrature(lam, curve, 200)
        assert len(seen) == len(curve.segments) and walks
        seen.clear()
        walks.clear()
        again = action_quadrature(lam, curve, 200)
        assert seen == [] and walks == []
        assert again == first

    def test_derivative_and_pairing_evaluate_only_the_field(self, circle, monkeypatch):
        lam, curve = circle
        w = VariationField.from_strings(["(t+1)*(2.5-t)"])
        action_quadrature(lam, curve, 200)
        seen, _walks = self.count_evaluations(monkeypatch)
        variation_derivative(lam, curve, w, 1e-5, 200)
        variation_pairing(lam, curve, w, 200)
        # one evaluation of the field per segment, kept by the field for
        # both calls on the curve's one plan
        assert seen == [w.exprs] * len(curve.segments)

    def test_field_compiles_once(self, circle, monkeypatch):
        lam, curve = circle
        w = VariationField.from_strings(["(t+1)*(2.5-t)"])
        with pytest.raises(FrozenInstanceError):
            w.exprs = VariationField.from_strings(["t"]).exprs
        _seen, walks = self.count_evaluations(monkeypatch)
        first = variation_derivative(lam, curve, w, 1e-5, 200)
        pairing = variation_pairing(lam, curve, w, 200)
        # the field's jet table is walked once, as its shape, 2.5 lifted
        # to the parameter _0 (kernels.read_table)
        assert [(to_text(a[0]), a[1]) for a in walks if "_0" in a[1]] == [
            ("((t+1.0)*(_0-t))", ("t", "_0"))]
        assert [a for a in walks if a[0] in w.exprs] == []
        walks.clear()
        assert variation_derivative(lam, curve, w, 1e-5, 200) == first
        assert variation_pairing(lam, curve, w, 200) == pairing
        assert walks == []
        # a field of the same expressions compiles nothing either
        again = VariationField.from_strings(["(t+1)*(2.5-t)"])
        assert variation_pairing(lam, curve, again, 200) == pairing
        assert walks == []
        # nor does one of the same shape with a fresh coefficient
        other = VariationField.from_strings(["(t+1)*(3.5-t)"])
        variation_derivative(lam, curve, other, 1e-5, 200)
        variation_pairing(lam, curve, other, 200)
        assert walks == []

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    def test_fields_of_one_shape_share_a_tape_and_a_loop(self, circle, monkeypatch):
        lam, curve = circle
        _seen, walks = self.count_evaluations(monkeypatch)
        monkeypatch.setattr(native, "_LOOPS", {})
        loops = []
        real = native.compile_probes
        monkeypatch.setattr(native, "compile_probes", lambda k: loops.append(k.key) or real(k))
        rng = np.random.default_rng(11)

        def field():
            a, b, c = rng.uniform(-0.3, 0.3, 3).tolist()
            return VariationField.from_strings([f"(t+1)*(2.5-t)*({a!r}+{b!r}*t+{c!r}*t^2)"])

        variation_pairing(lam, curve, field(), 200)
        jets = {key for key in kernels._CACHE if key[0] == "_jet"}
        plan = curve.plan(200, simpson_nodes)
        nodes = sum(len(s.t) + 2 for s in plan.segments)
        # the field's kernel takes its C loop at the 100th field
        monkeypatch.setattr(kernels, "NATIVE_PROBES", 100 * nodes)
        fields = [field() for _ in range(199)]
        for w in fields:
            variation_pairing(lam, curve, w, 200)
        assert {key for key in kernels._CACHE if key[0] == "_jet"} == jets
        shape = "(((t+1.0)*(_0-t))*((_1+(_2*t))+(_3*(t^2.0))))"
        assert [key for key in jets if "_0" in key[2]] == [("_jet", shape, ("t", "_0", "_1", "_2", "_3"))]
        assert [key for key in loops if key[0] == "_jet"] == [("_jet", shape, ("t", "_0", "_1", "_2", "_3"))]
        # walked once for the tape and once more by native for the loop
        assert [to_text(a[0]) for a in walks].count(shape) == 2
        # each field's jets are its literal kernel's, on the tape or the loop
        for w in (fields[0], fields[-1]):
            t = np.concatenate([np.append(s.t, (s.segment.t0, s.segment.t1)) for s in plan.segments])
            literal = compile_field(w.exprs[0], ("t",), reads=(0, 1, 2), _table="_jet")
            want = kernels.eval_chunked(literal, t.reshape(-1, 1), None, None, 3)
            jets_of_w = np.concatenate([np.concatenate([j[:, :, 0], e[:, :, 0]], axis=1)
                                        for j, e in w.jets(plan)], axis=1)
            assert jets_of_w.T.tobytes() == want.tobytes()
        # a field of a new shape compiles once
        walks.clear()
        variation_pairing(lam, curve, VariationField.from_strings(["(t+1)*(2.5-t)*t"]), 200)
        assert [to_text(a[0]) for a in walks] == ["(((t+1.0)*(_0-t))*t)"]

    def test_one_plan_per_rule(self, circle):
        lam, curve = circle
        action_quadrature(lam, curve, 10)
        action_lift(lam, curve, 10)
        action_quadrature(lam, curve, 20)
        assert set(curve._plans) == {simpson_nodes, _rk4_nodes}
        assert curve._plans[simpson_nodes].count == 20
        assert curve._plans[_rk4_nodes].count == 10
        assert curve.plan(20, simpson_nodes) is curve._plans[simpson_nodes]

    def test_curve_and_plan_jets_are_read_only(self, circle):
        lam, curve = circle
        with pytest.raises(FrozenInstanceError):
            curve.segments = ()
        action_quadrature(lam, curve, 10)
        seg = curve.plan(10, simpson_nodes).segments[0]
        with pytest.raises(ValueError, match="read-only"):
            seg.jets[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            seg.ends[0, 0, 0] = 1.0

    def test_action_ops_script_finds_warm_calls_bit_identical(self):
        # benchmarks/action_ops.py exits 1 if a call on a cached plan and
        # one on a fresh curve differ in one bit
        root = Path(__file__).resolve().parents[1]
        run = subprocess.run(
            [sys.executable, str(root / "benchmarks" / "action_ops.py"), "--repeats", "1"],
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stdout + run.stderr
        assert run.stdout.count("bit-identical") == 12

    def test_jets_equal_a_chunk_by_chunk_evaluation(self):
        # the plan evaluates a segment's nodes in one call of more than
        # kernels.BATCH probes; jets are element-wise, so they equal an
        # evaluation chunk by chunk, as the integrals sum them
        curve = CurveSpec.single("0", ["sin(3*t)", "t^3 - t"], 0.0, 2.0)
        panels = kernels.BATCH // 3 + 7
        seg = curve.plan(panels, simpson_nodes).segments[0]
        assert seg.t.size > kernels.BATCH
        chunks = [jets_in_t(curve.segments[0].exprs, seg.t[lo:lo + geometry.CHUNK])
                  for lo in range(0, seg.t.size, geometry.CHUNK)]
        assert seg.jets.tobytes() == np.concatenate(chunks, axis=1).tobytes()
        ends = jets_in_t(curve.segments[0].exprs, [0.0, 2.0])
        assert seg.ends.tobytes() == ends.tobytes()


class TestKeptFieldJets:
    """A VariationField keeps its jets on the last plan it was evaluated
    on, so the derivative and every pairing along that plan share one
    evaluation, with the bits of a fresh field's."""

    circle = TestNodePlan.circle
    count_evaluations = staticmethod(TestNodePlan.count_evaluations)
    FIELD = ["(t+1)*(2.5-t)"]

    def test_derivative_and_both_pairings_evaluate_the_field_once(self, circle, monkeypatch):
        lam, curve = circle
        shifted = gauge_shift(lam, bundled_system("circle").chis[0])
        w = VariationField.from_strings(self.FIELD)
        action_quadrature(lam, curve, 200)
        seen, _walks = self.count_evaluations(monkeypatch)
        variation_derivative(lam, curve, w, 1e-5, 200)
        variation_pairing(lam, curve, w, 200)
        variation_pairing(shifted, curve, w, 200)
        assert seen == [w.exprs] * len(curve.segments)

    def test_another_plan_evaluates_the_field_again(self, circle, monkeypatch):
        lam, curve = circle
        w = VariationField.from_strings(self.FIELD)
        seen, _walks = self.count_evaluations(monkeypatch)
        first = variation_pairing(lam, curve, w, 200)
        assert list(w._jets) == [curve.plan(200, simpson_nodes)]
        # a fresh curve of the same segments has a plan of its own (and
        # evaluates its own jets for it)
        fresh = CurveSpec(curve.segments)
        seen.clear()
        assert variation_pairing(lam, fresh, w, 200) == first
        assert seen.count(w.exprs) == len(curve.segments)
        assert list(w._jets) == [fresh.plan(200, simpson_nodes)]
        # so has another panel count, on the first curve too
        for panels in (300, 200):
            seen.clear()
            variation_derivative(lam, curve, w, 1e-5, panels)
            assert seen.count(w.exprs) == len(curve.segments)
            assert list(w._jets) == [curve.plan(panels, simpson_nodes)]
        assert variation_pairing(lam, curve, w, 200) == first

    def test_a_field_that_raises_keeps_nothing(self, free):
        _atlas, lam, curve = free
        w = VariationField.from_strings(["log(t - 10)"])
        texts = set()
        for call in (lambda: variation_derivative(lam, curve, w, 1e-5, 50),
                     lambda: variation_pairing(lam, curve, w, 50),
                     lambda: variation_pairing(lam, curve, w, 50)):
            with pytest.raises(DomainError, match=r"log .* at t=0\.0") as got:
                call()
            texts.add(str(got.value))
            assert w._jets == {}
        assert len(texts) == 1

    def test_equality_hash_and_repr_ignore_the_kept_jets(self, free):
        _atlas, lam, curve = free
        w = VariationField.from_strings(["t*(1-t)"])
        before = (hash(w), repr(w))
        variation_pairing(lam, curve, w, 50)
        assert w._jets
        fresh = VariationField.from_strings(["t*(1-t)"])
        assert w == fresh and (hash(w), repr(w)) == before == (hash(fresh), repr(fresh))
        assert "_jets" not in repr(w)
        copy = replace(w)
        assert copy == w and copy._jets == {}
        copy = replace(w, exprs=VariationField.from_strings(["t"]).exprs)
        assert copy._jets == {}

    @pytest.mark.parametrize("name", bundled_system_names())
    def test_kept_jets_give_a_fresh_fields_bits(self, name):
        system = bundled_system(name)
        lam, curve = system.lagrangian, CurveSpec(system.curve.segments)
        shifted = system.gauge_twin(system.chis[0])
        kept = TestAgainstScalarOracle.fields(system)[0]
        for panels in (300, 1000):
            def calls(field):
                return [variation_derivative(lam, curve, field(), 1e-5, panels),
                        variation_pairing(lam, curve, field(), panels),
                        variation_pairing(shifted, curve, field(), panels)]

            got = calls(lambda: kept)
            assert list(kept._jets) == [curve.plan(panels, simpson_nodes)]
            want = calls(lambda: TestAgainstScalarOracle.fields(system)[0])
            assert [x.hex() for x in got] == [x.hex() for x in want]


def per_chunk_integrals(plan, atlas, integrand):
    """The schedule integrals one integrand call per geometry.CHUNK of
    nodes, each chunk compared with the chart's box before its call: the
    reference for the spans of geometry._segment_integrals."""
    parts = []
    for seg in plan.segments:
        box = np.asarray(atlas.chart(seg.chart_id).box, dtype=float)
        part = 0.0
        for lo in range(0, seg.t.size, geometry.CHUNK):
            sl = slice(lo, lo + geometry.CHUNK)
            x = seg.jets[0, sl]
            tol = geometry._BOX_TOL
            if not ((x >= box[:, 0] - tol) & (x <= box[:, 1] + tol)).all():
                raise ChartScheduleError(f"curve leaves chart {seg.chart_id}")
            part += float(seg.weights[sl] @ integrand(seg, sl, *seg.jets[:, sl]))
        parts.append(part)
    return parts


class TestSpans:
    """geometry._segment_integrals calls the integrand once per span of at
    most kernels.BATCH nodes, a whole number of geometry.CHUNKs, and sums
    its values chunk by chunk: every integral keeps the bits of one call
    per chunk."""

    @staticmethod
    def spy_engines(monkeypatch):
        """The rows of every values and el_covectors call of a chart
        engine, from here on, as (method, rows)."""
        calls = []
        for method in ("values", "el_covectors"):
            real = getattr(_ChartEngine, method)

            def spy(self, xs, *rest, method=method, real=real):
                calls.append((method, len(xs)))
                return real(self, xs, *rest)

            monkeypatch.setattr(_ChartEngine, method, spy)
        return calls

    def test_whole_chunks_fit_a_batch(self):
        assert kernels.BATCH % geometry.CHUNK == 0

    @pytest.mark.parametrize("name", ["circle", "charged"])
    def test_one_integrand_call_per_segment(self, name, monkeypatch):
        system = bundled_system(name)
        lam, curve = system.lagrangian, CurveSpec(system.curve.segments)
        w = TestAgainstScalarOracle.fields(system)[0]
        sizes = [seg.t.size for seg in curve.plan(1000, simpson_nodes).segments]
        assert all(geometry.CHUNK < size <= kernels.BATCH for size in sizes)
        lift_sizes = [seg.t.size for seg in curve.plan(1000, _rk4_nodes).segments]
        calls = self.spy_engines(monkeypatch)
        action_quadrature(lam, curve, 1000)
        assert calls == [("values", size) for size in sizes]
        calls.clear()
        action_lift(lam, curve, 1000)
        assert calls == [("values", size) for size in lift_sizes]
        calls.clear()
        variation_derivative(lam, curve, w, 1e-5, 1000)
        assert calls == [("values", size) for size in sizes] * 2
        calls.clear()
        variation_pairing(lam, curve, w, 1000)
        assert calls == [("el_covectors", size) for size in sizes]

    def test_a_segment_longer_than_a_batch_goes_in_spans(self):
        atlas = euclidean_atlas(2)
        lam = GaugeClassLagrangian.from_exprs(atlas, "0.5*(v1^2 + v2^2) + sin(x1)*v2")
        curve = CurveSpec.single("0", ["sin(3*t)", "t^3 - t"], 0.0, 2.0)
        panels = (2 * kernels.BATCH + 300) // 3
        size = curve.plan(panels, simpson_nodes).segments[0].t.size
        assert size > 2 * kernels.BATCH
        spans = []
        engine = _lagrangian_integrand(lam)

        def integrand(seg, sl, x, v, a):
            spans.append((sl.start, sl.stop))
            assert len(x) == sl.stop - sl.start
            return engine(seg, sl, x, v, a)

        got = geometry.schedule_integral(curve, atlas, panels, integrand)
        assert spans == [(0, kernels.BATCH), (kernels.BATCH, 2 * kernels.BATCH),
                         (2 * kernels.BATCH, size)]
        assert all(lo % geometry.CHUNK == 0 for lo, _hi in spans)
        want = per_chunk_integrals(curve.plan(panels, simpson_nodes), atlas, engine)
        assert got.plus.value.hex() == want[0].hex()

    @pytest.mark.parametrize("name", bundled_system_names())
    def test_every_integral_equals_one_call_per_chunk(self, name, monkeypatch):
        system = bundled_system(name)
        lam, curve = gauge_shift(system.lagrangian, system.chis[0]), system.curve
        w = TestAgainstScalarOracle.fields(system)[0]

        def results():
            out = []
            for p in (300, 1500):
                out += [gauge_fixed_value(action_quadrature(lam, curve, p)),
                        gauge_fixed_value(action_lift(lam, curve, p)),
                        variation_derivative(lam, curve, w, 1e-5, p),
                        variation_pairing(lam, curve, w, p)]
            return [value.hex() for value in out]

        spans = results()
        monkeypatch.setattr(geometry, "_segment_integrals", per_chunk_integrals)
        monkeypatch.setattr(action, "_segment_integrals", per_chunk_integrals)
        assert spans == results()

    @staticmethod
    def leaving(t0, t1, panels):
        """The circle's chart "0", (-pi, pi), with the curve t on [t0, t1],
        which leaves it; the plan's segment, and the index of its first
        node outside the chart."""
        circle = circle_atlas("sin(x1)", winding=1.0)
        lam = GaugeClassLagrangian.from_exprs(circle, "0.5*v1^2")
        curve = CurveSpec.single("0", ["t"], t0, t1)
        seg = curve.plan(panels, simpson_nodes).segments[0]
        leaves = int(np.argmax(seg.t > np.pi + geometry._BOX_TOL))
        return circle, lam, curve, seg, leaves

    def test_a_curve_leaving_its_chart_in_its_first_chunk(self):
        circle, _lam, curve, seg, leaves = self.leaving(2.9, 3.2, 100)
        assert 0 < leaves < geometry.CHUNK
        seen = []
        with pytest.raises(ChartScheduleError, match=f"curve leaves chart 0 at t={seg.t[leaves]}"):
            geometry.schedule_integral(curve, circle, 100, lambda *args: seen.append(args))
        assert seen == []

    def test_a_curve_leaving_its_chart_later(self):
        circle, lam, curve, seg, leaves = self.leaving(0.0, 4.0, 1000)
        assert leaves > 2 * geometry.CHUNK and leaves % geometry.CHUNK
        seen = []
        engine = _lagrangian_integrand(lam)

        def integrand(seg, sl, x, v, a):
            seen.append(x)
            return engine(seg, sl, x, v, a)

        with pytest.raises(ChartScheduleError) as expected:
            reference_quadrature(lam, curve, 1000)
        with pytest.raises(ChartScheduleError) as got:
            geometry.schedule_integral(curve, circle, 1000, integrand)
        assert str(got.value) == str(expected.value)
        assert str(got.value).startswith(f"curve leaves chart 0 at t={seg.t[leaves]} ")
        seen = np.concatenate(seen)
        assert seen.tobytes() == seg.jets[0, :leaves - leaves % geometry.CHUNK].tobytes()

    def test_the_chart_check_runs_once_per_plan(self, monkeypatch):
        system = bundled_system("circle")
        lam, curve = system.lagrangian, CurveSpec(system.curve.segments)
        action_quadrature(lam, curve, 200)
        for seg in curve.plan(200, simpson_nodes).segments:
            assert seg._outside == {lam.atlas.chart(seg.chart_id).box: seg.t.size}
        system = bundled_system("charged")
        lam, curve = system.lagrangian, CurveSpec(system.curve.segments)
        w = TestAgainstScalarOracle.fields(system)[0]
        first, lift = action_quadrature(lam, curve, 200), action_lift(lam, curve, 200)
        # a tolerance that puts every node outside every box: a cached
        # plan's segment does not compare its nodes again ...
        monkeypatch.setattr(geometry, "_BOX_TOL", -np.inf)
        assert action_quadrature(lam, curve, 200) == first
        assert action_lift(lam, curve, 200) == lift
        # ... and a shifted plan's starts without the memo, so it does
        plan = curve.plan(200, simpson_nodes)
        shifted = plan.shifted(plan.field_jets(w.exprs), 1e-5)
        assert [seg._outside for seg in shifted.segments] == [{}]
        with pytest.raises(ChartScheduleError, match="curve leaves chart 0 at t=0.0 "):
            variation_derivative(lam, curve, w, 1e-5, 200)

    def test_output_check_comes_before_the_covector_check(self):
        # one segment of 900 nodes: E = dL/dx - d/dt(dL/dv) overflows from
        # finite terms near t = 0, in the first chunk, and sqrt's
        # derivative is not finite from t = 0.9 on, in the second.  The
        # outputs are checked over the whole call first, then E, so the
        # error names the second point
        atlas = euclidean_atlas(1)
        curve = CurveSpec.single("0", ["0.5*t^2"], 0.0, 1.0)
        w = VariationField.from_strings(["t*(1-t)"])
        overflow = "-0.5e308*v1^2 - 1e306*exp(-100*x1)"
        lam = GaugeClassLagrangian.from_exprs(atlas, overflow)
        with pytest.raises(DomainError, match=r"non-finite kernel output .* at x1=0\.0, v1=0\.0"):
            variation_pairing(lam, curve, w, 300)
        lam = GaugeClassLagrangian.from_exprs(atlas, overflow + " + sqrt(0.405 - x1)")
        assert curve.plan(300, simpson_nodes).segments[0].t.size > geometry.CHUNK
        with pytest.raises(DomainError, match=r"sqrt derivative singular .* at x1=0\.405, v1=0\.9"):
            variation_pairing(lam, curve, w, 300)
