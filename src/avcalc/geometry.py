"""Charted manifolds, value-bundle trivializations, sections, affine
1-forms and curves.

An Atlas stores, for every ordered pair of overlapping charts, the
coordinate change and the gauge cochain g_ij.  Overlaps may have
several connected components (the two-chart circle needs two), each
carrying its own coordinate box and expressions.

Sign convention (see also affine.py): g_ij is a function of chart-i
coordinates and

    section representative in chart i  =  representative in chart j  +  g_ij,
    theta_i - J^T theta_j              =  d g_ij        (affine 1-forms),
    L_i - L_j                          =  <d g_ij, v>   (Lagrangians).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import exprlang
from .affine import AffineScalar, FiberPoint
from .errors import ChartDisjointError, ChartScheduleError, ValidationError
from .exprlang import Binary, ExprAst, Number, Unary, Var
from .kernels import BATCH, read_table

_BOX_TOL = 1e-9
# The structural checks (validate) sample VALIDATION_SAMPLES points per
# overlap component; those here hold each defect, and each curve
# junction's, to VALIDATION_TOL.
VALIDATION_SAMPLES = 32
VALIDATION_TOL = 1e-12


def coord_names(dim: int) -> list:
    """The coordinate names x1..xn of an n-dimensional chart."""
    return [f"x{j}" for j in range(1, dim + 1)]


def _probe(table: str, exprs, names, vals, reads) -> np.ndarray:
    """The outputs `reads` of the expressions' tables `table` at the rows
    of vals, of shape (reads, rows, exprs), each checked by read_table."""
    out = np.empty((len(reads), vals.shape[0], len(exprs)))
    for k, e in enumerate(exprs):
        out[:, :, k] = read_table(table, e, names, vals, reads).T
    return out


def eval_rows(exprs, names, xs, grad=False) -> np.ndarray:
    """The expressions over the variables `names` at every row of xs, of
    shape (rows, exprs), or with grad their gradients, (rows, exprs,
    names), through their gradient tables (kernels._gradient): the
    value, or with grad the derivatives.  With jets_in_t, geometry's one
    route to expression values."""
    xs = np.asarray(xs, dtype=float)
    if not grad:
        return _probe("_gradient", exprs, names, xs, (0,))[0]
    return _probe("_gradient", exprs, names, xs, tuple(range(1, len(names) + 1))).transpose(1, 2, 0)


def eval_vector(exprs, env) -> np.ndarray:
    """The expressions at the one point `env` (variable name -> value)."""
    return eval_rows(exprs, tuple(env), [list(env.values())])[0]


def _require_within(invariant: str, defects, tol: float, where) -> float:
    """The worst of the sampled defects; ValidationError(invariant, where(k),
    defect) at the first sample k whose defect is not <= tol (NaN too)."""
    bad = np.flatnonzero(~(defects <= tol))
    if bad.size:
        raise ValidationError(invariant, where(bad[0]), float(defects[bad[0]]))
    return float(np.max(defects, initial=0.0))


# ---------------------------------------------------------------------------
# Sampling

_ALPHAS = [math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13)]


def low_discrepancy_points(box, count: int) -> np.ndarray:
    """Deterministic quasi-random points in the interior of a box
    (additive-recurrence sequence, 5% margin off the faces)."""
    box = np.asarray(box, dtype=float)
    dim = box.shape[0]
    lo = box[:, 0] + 0.05 * (box[:, 1] - box[:, 0])
    width = 0.9 * (box[:, 1] - box[:, 0])
    pts = np.empty((count, dim))
    for d in range(dim):
        a = _ALPHAS[d % len(_ALPHAS)]
        pts[:, d] = lo[d] + width[d] * ((0.5 + a * np.arange(1, count + 1)) % 1.0)
    return pts


# ---------------------------------------------------------------------------
# Atlas

@dataclass(frozen=True)
class Chart:
    id: str
    box: tuple  # ((lo, hi), ...) per coordinate


@dataclass(frozen=True)
class OverlapComponent:
    """One connected component of a chart overlap, in source-chart
    coordinates."""

    box: tuple
    coord_map: tuple  # target coordinates as ExprAst over x1..xn
    gauge: ExprAst  # g_ij over source coordinates

    def transition(self, xs, grad=False) -> np.ndarray:
        """The target coordinates and g_ij at every row of xs, out[:, :n] and
        out[:, n], or with grad their gradients, of shape (rows, n + 1, n)."""
        exprs = self.coord_map + (self.gauge,)
        return eval_rows(exprs, coord_names(len(self.box)), xs, grad)


@dataclass
class Atlas:
    dim: int
    charts: list
    # (source_id, target_id) -> tuple of OverlapComponent
    transitions: dict = field(default_factory=dict)

    def chart(self, chart_id: str) -> Chart:
        for c in self.charts:
            if c.id == chart_id:
                return c
        raise ChartDisjointError(f"no chart '{chart_id}' in atlas")

    def contains(self, chart_id: str, x) -> bool:
        box = self.chart(chart_id).box
        return all(lo - _BOX_TOL <= xi <= hi + _BOX_TOL for xi, (lo, hi) in zip(x, box))

    def _transition(self, xs, src: str, dst: str, grad=False, strict=True) -> np.ndarray:
        """OverlapComponent.transition of src -> dst at every row of xs, by the
        first component holding it; ChartDisjointError, or NaN if not strict."""
        if (src, dst) not in self.transitions:
            raise ChartDisjointError(f"no transition {src} -> {dst}")
        xs = np.asarray(xs, dtype=float)
        out = np.full((len(xs), self.dim + 1) + ((self.dim,) if grad else ()), np.nan)
        todo = np.ones(len(xs), dtype=bool)
        for comp in self.transitions[src, dst]:
            box = np.asarray(comp.box, dtype=float)
            rows = todo & np.all((xs >= box[:, 0] - _BOX_TOL) & (xs <= box[:, 1] + _BOX_TOL), 1)
            if rows.any():
                out[rows] = comp.transition(xs[rows], grad)
                todo &= ~rows
        if strict and todo.any():
            raise ChartDisjointError(
                f"point {xs[todo][0]} outside every overlap component of {src} -> {dst}")
        return out

    def convert_point(self, x, src: str, dst: str) -> np.ndarray:
        if src == dst:
            return np.asarray(x, dtype=float)
        return self._transition([x], src, dst)[0, :-1]

    def gauge_offset(self, x, src: str, dst: str) -> float:
        """g_{src,dst} evaluated at x (source coordinates)."""
        if src == dst:
            return 0.0
        return float(self._transition([x], src, dst)[0, -1])

    def convert_fiber(self, x, value: float, src: str, dst: str):
        """(x in dst coordinates, value_dst = value_src - g_{src,dst}(x)), from
        one evaluation of the transition."""
        if src == dst:
            return np.asarray(x, dtype=float), value
        out = self._transition([x], src, dst)[0]
        return out[:-1], value - float(out[-1])

    def gauge_gradient(self, x, src: str, dst: str) -> np.ndarray:
        """d g_{src,dst} at x (source coordinates)."""
        if src == dst:
            return np.zeros(self.dim)
        return self._transition([x], src, dst, grad=True)[0, -1]

    def jacobian(self, x, src: str, dst: str) -> np.ndarray:
        """J[k, j] = d x'_k / d x_j of the coordinate change at x."""
        return self._transition([x], src, dst, grad=True)[0, :-1]

    # -- structural invariants ---------------------------------------------

    def validate(self) -> float:
        """Check antisymmetry and the cocycle identity at sampled overlap
        points.  Returns the worst defect; raises ValidationError above
        VALIDATION_TOL."""
        for i, j in self.transitions:
            if (j, i) not in self.transitions:
                raise ValidationError("transition antisymmetry", f"missing {j} -> {i}", math.inf)
        worst = 0.0
        for i, j, _comp, x, x_j, g_ij in _overlap_samples(self, VALIDATION_SAMPLES):
            sums = [("gauge antisymmetry g_ij + g_ji = 0", (i, j),
                     g_ij + self._transition(x_j, j, i)[:, -1])]
            for k in [c.id for c in self.charts]:  # the cocycle, on triple overlaps
                if k in (i, j) or (j, k) not in self.transitions or (k, i) not in self.transitions:
                    continue
                jk = self._transition(x_j, j, k, strict=False)
                total = g_ij + jk[:, -1] + self._transition(jk[:, :-1], k, i, strict=False)[:, -1]
                sums.append(("gauge cocycle g_ij + g_jk + g_ki = 0", (i, j, k),
                             np.where(np.isnan(total), 0.0, total)))  # NaN: x not in it
            for invariant, charts, total in sums:
                worst = max(worst, _require_within(
                    invariant, np.abs(total), VALIDATION_TOL,
                    lambda r: f"charts ({','.join(charts)}) at {x[r]}"))
        return worst


def euclidean_atlas(dim: int) -> Atlas:
    """Single global chart on R^n, the box |x_i| <= 1e6."""
    box = ((-1e6, 1e6),) * dim
    return Atlas(dim=dim, charts=[Chart("0", box)], transitions={})


_TWO_PI = 2.0 * math.pi


def circle_atlas(gauge="0", winding: float = 0.0) -> Atlas:
    """Two angle charts on the circle, validated (Atlas.validate).

    Chart "0" covers (-pi, pi), chart "1" covers (0, 2*pi).  The overlap
    has two components; on the primary one (angles in (0, pi), where the
    two coordinates agree) the cochain g_01 is the given expression, on
    the secondary one it is the same expression shifted by -2*pi*winding.
    A nonzero winding makes 1-forms like "d angle" exact in the affine
    sense while no global section exists chart-wise.  Both gauges are
    text or ASTs over x1.
    """
    g = exprlang.expression(gauge, ("x1",))
    shift = _TWO_PI * winding
    g_b = g if shift == 0.0 else Binary("-", g, Number(shift))

    x = Var("x1")
    plus2pi = (Binary("+", x, Number(_TWO_PI)),)
    minus2pi = (Binary("-", x, Number(_TWO_PI)),)
    identity = (x,)

    # g_10 on the secondary component lives on angles in (pi, 2*pi);
    # rewrite g_b in those coordinates and negate
    g_b_in_chart1 = exprlang.substitute(g_b, {"x1": minus2pi[0]})

    atlas = Atlas(
        dim=1,
        charts=[
            Chart("0", ((-math.pi, math.pi),)),
            Chart("1", ((0.0, _TWO_PI),)),
        ],
        transitions={
            ("0", "1"): (
                OverlapComponent(((0.0, math.pi),), identity, g),
                OverlapComponent(((-math.pi, 0.0),), plus2pi, g_b),
            ),
            ("1", "0"): (
                OverlapComponent(((0.0, math.pi),), identity, Unary("-", g)),
                OverlapComponent(((math.pi, _TWO_PI),), minus2pi, Unary("-", g_b_in_chart1)),
            ),
        },
    )
    atlas.validate()
    return atlas


# ---------------------------------------------------------------------------
# Sections and scalar functions

def _overlap_samples(atlas: Atlas, samples: int):
    """Yield (i, j, component, x_i, x_j, g_ij(x_i)) per overlap
    component, over its sampled points, one row each."""
    for (i, j), comps in atlas.transitions.items():
        for comp in comps:
            x = low_discrepancy_points(comp.box, samples)
            out = comp.transition(x)
            yield i, j, comp, x, out[:, :-1], out[:, -1]


@dataclass
class _ChartExprs:
    """One expression over x1..xn per chart."""

    atlas: Atlas
    chart_exprs: dict  # chart_id -> ExprAst

    def _rows(self, xs, chart_id: str, grad=False) -> np.ndarray:
        return eval_rows((self.chart_exprs[chart_id],), coord_names(self.atlas.dim), xs, grad)[:, 0]

    def _agreement(self, invariant: str, gauge: bool):
        """Validate f_i - f_j = g_ij (with gauge) or f_i = f_j on overlaps."""
        for i, j, _comp, x_i, x_j, g in _overlap_samples(self.atlas, VALIDATION_SAMPLES):
            defect = self._rows(x_i, i) - self._rows(x_j, j)
            _require_within(invariant, np.abs(defect - g if gauge else defect), VALIDATION_TOL,
                            lambda r: f"charts ({i},{j}) at {x_i[r]}")


@dataclass
class ScalarFunction(_ChartExprs):
    """A global real function, one representative expression per chart
    (representatives must agree on overlaps)."""

    @classmethod
    def from_common(cls, atlas: Atlas, expr, constants=None):
        ast = exprlang.expression(expr, coord_names(atlas.dim), constants)
        return cls(atlas, {c.id: ast for c in atlas.charts})

    def __call__(self, x, chart_id: str) -> float:
        return float(self._rows([x], chart_id)[0])

    def grad(self, x, chart_id: str) -> np.ndarray:
        return self._rows([x], chart_id, grad=True)[0]

    def validate(self):
        self._agreement("scalar function chart agreement", False)


@dataclass
class AVSection(_ChartExprs):
    """Section of the value bundle: per-chart representative expressions
    satisfying phi_i - phi_j = g_ij on overlaps."""

    def value(self, x, chart_id: str) -> float:
        return float(self._rows([x], chart_id)[0])

    def at(self, x, chart_id: str) -> FiberPoint:
        return FiberPoint(chart_id, tuple(np.asarray(x, dtype=float)), self.value(x, chart_id))

    def validate(self):
        self._agreement("section compatibility phi_i - phi_j = g_ij", True)


def gauge_transform_section(phi: AVSection, f) -> AVSection:
    """Shift a section by a real function: every representative gains f."""
    if isinstance(f, ScalarFunction):
        exprs = {cid: Binary("+", e, f.chart_exprs[cid]) for cid, e in phi.chart_exprs.items()}
    else:
        exprs = {cid: Binary("+", e, f) for cid, e in phi.chart_exprs.items()}
    return AVSection(phi.atlas, exprs)


# ---------------------------------------------------------------------------
# Affine 1-forms

@dataclass
class AffineOneForm:
    """Per-chart ordinary 1-form components with the affine compatibility
    rule theta_i - J^T theta_j = d g_ij on overlaps.

    Components are stored as row-wise evaluators, (points, n) -> (points,
    n); use from_expressions for the expression-backed form.
    """

    atlas: Atlas
    chart_components: dict  # chart_id -> Callable[[ndarray], ndarray], row-wise

    @classmethod
    def from_expressions(cls, atlas: Atlas, chart_exprs: dict):
        names = coord_names(atlas.dim)
        comps = {}
        for cid, exprs in chart_exprs.items():
            parsed = tuple(exprlang.expression(e, names) for e in exprs)
            comps[cid] = (lambda xs, ps=parsed: eval_rows(ps, names, xs))
        return cls(atlas, comps)

    def components(self, x, chart_id: str) -> np.ndarray:
        return self.chart_components[chart_id](np.asarray([x], dtype=float))[0]

    def compatibility_defect(self) -> float:
        """Worst |theta_i - J^T theta_j - grad g_ij| over 16 sampled
        points per overlap component."""
        worst = 0.0
        theta = self.chart_components
        for i, j, comp, x, x_j, _g in _overlap_samples(self.atlas, 16):
            if i not in theta or j not in theta:
                continue
            d = comp.transition(x, grad=True)  # Jacobian rows, then dg
            defect = theta[i](x) - np.einsum("rkj,rk->rj", d[:, :-1], theta[j](x_j)) - d[:, -1]
            worst = np.maximum(worst, np.max(np.abs(defect)))  # NaN stays
        return float(worst)


def affine_differential(phi: AVSection, atlas: Atlas) -> AffineOneForm:
    """The affine differential d(phi): per chart, the ordinary gradient of
    the representative, from its kernel at the points it is given."""
    names = coord_names(atlas.dim)
    return AffineOneForm(atlas, {
        cid: (lambda xs, e=expr: eval_rows((e,), names, xs, grad=True)[:, 0])
        for cid, expr in phi.chart_exprs.items()
    })


# ---------------------------------------------------------------------------
# Curves

_T = ("t",)


def jets_in_t(exprs, t):
    """Values, first and second t-derivatives of per-coordinate
    expressions in the parameter t at every node of the array t, each
    of shape (nodes, coordinates): one kernel call per coordinate, of
    its jet table (kernels._jet), one row per node."""
    t = np.asarray(t, dtype=float).reshape(-1, 1)
    return _probe("_jet", exprs, _T, t, (0, 1, 2))


@dataclass(frozen=True)
class CurveSegment:
    t0: float
    t1: float
    chart_id: str
    exprs: tuple  # per-coordinate ExprAst in the parameter "t"

    def jets(self, t):
        """(positions, velocities, accelerations) at the nodes t."""
        return jets_in_t(self.exprs, t)


@dataclass(frozen=True)
class CurveSpec:
    """Parameterized curve with an explicit chart schedule.  Frozen, so
    the node plans cached on it (see plan) cannot go stale."""

    segments: tuple
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def single(cls, chart_id: str, exprs, t0: float, t1: float, constants=None):
        parsed = tuple(exprlang.expression(e, _T, constants) for e in exprs)
        return cls((CurveSegment(float(t0), float(t1), chart_id, parsed),))

    @property
    def t_start(self) -> float:
        return self.segments[0].t0

    @property
    def t_end(self) -> float:
        return self.segments[-1].t1

    def segment_at(self, t: float) -> CurveSegment:
        for seg in self.segments:
            if seg.t0 - 1e-9 <= t <= seg.t1 + 1e-9:
                return seg
        raise ChartScheduleError(f"parameter {t} outside [{self.t_start}, {self.t_end}]")

    def plan(self, count: int, rule) -> "NodePlan":
        """The NodePlan of `rule` with `count` panels (or steps) along
        the schedule.  The curve keeps one plan per rule, the one of the
        most recent count."""
        plan = self._plans.get(rule)
        if plan is None or plan.count != count:
            plan = NodePlan.of(self, count, rule)
            self._plans[rule] = plan
        return plan

    def position(self, t: float) -> np.ndarray:
        return self.segment_at(t).jets([t])[0][0]

    def velocity(self, t: float) -> np.ndarray:
        return self.segment_at(t).jets([t])[1][0]

    def acceleration(self, t: float) -> np.ndarray:
        return self.segment_at(t).jets([t])[2][0]

    def state(self, t: float):
        """(chart_id, x, v) at parameter t."""
        seg = self.segment_at(t)
        x, v, _a = seg.jets([t])
        return seg.chart_id, x[0], v[0]

    def validate(self, atlas: Atlas):
        if not self.segments:
            raise ChartScheduleError("curve has no segments")
        for seg in self.segments:
            atlas.chart(seg.chart_id)  # ChartDisjointError if there is none
            if len(seg.exprs) != atlas.dim:
                raise ChartScheduleError(
                    f"segment in chart {seg.chart_id} has {len(seg.exprs)} coordinates, "
                    f"atlas dimension is {atlas.dim}"
                )
            if seg.t1 <= seg.t0:
                raise ChartScheduleError("segment with non-increasing parameter interval")
        for a, b in zip(self.segments, self.segments[1:]):
            if abs(a.t1 - b.t0) > 1e-14:
                raise ChartScheduleError("chart schedule has a parameter gap")
            x_end = eval_vector(a.exprs, {"t": a.t1})
            x_next = eval_vector(b.exprs, {"t": b.t0})
            x_end = atlas.convert_point(x_end, a.chart_id, b.chart_id)
            defect = float(np.max(np.abs(x_end - x_next)))
            if not defect <= VALIDATION_TOL:  # NaN fails too
                raise ChartScheduleError(
                    f"junction mismatch between charts {a.chart_id} and {b.chart_id}: {defect:.3g}"
                )


# ---------------------------------------------------------------------------
# Integrals along curves

def simpson_nodes(t0: float, t1: float, panels: int):
    """Composite Simpson rule: nodes a, a + h/2, a + h of each panel,
    panel after panel, and their weights h/6 * (1, 4, 1)."""
    h = (t1 - t0) / panels
    a = t0 + np.arange(panels) * h
    nodes = np.stack([a, a + 0.5 * h, a + h], axis=1).ravel()
    return nodes, np.tile(np.array([1.0, 4.0, 1.0]) * (h / 6.0), panels)


@dataclass(frozen=True, eq=False)
class SegmentNodes:
    """One segment of a NodePlan: the rule's nodes t and weights on it,
    the curve's jets at the nodes, of shape (3, nodes, n) for positions,
    velocities and accelerations, and the same at exactly t0 and t1, of
    shape (3, 2, n): the rule's last node need not be t1 to the bit.
    Compared and hashed by identity."""

    segment: CurveSegment
    t: np.ndarray
    weights: np.ndarray
    jets: np.ndarray
    ends: np.ndarray
    # first_outside's memo, per chart box; a replace()d copy, such as a
    # shifted plan's segment, starts without it
    _outside: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def chart_id(self) -> str:
        return self.segment.chart_id

    def first_outside(self, box) -> int:
        """The index of the first node whose position lies outside the
        chart box ((lo, hi), ...) by more than _BOX_TOL, or the number of
        nodes if none does; computed once per box."""
        first = self._outside.get(box)
        if first is None:
            x, bounds = self.jets[0], np.asarray(box, dtype=float)
            inside = ((x >= bounds[:, 0] - _BOX_TOL) & (x <= bounds[:, 1] + _BOX_TOL)).all(axis=1)
            first = self._outside[box] = int(np.argmin(inside)) if not inside.all() else inside.size
        return first


def _jets_and_ends(exprs, seg: CurveSegment, t):
    """jets_in_t of `exprs` at the nodes t, and at seg.t0 and seg.t1,
    from one evaluation, read-only: a plan hands them to every caller."""
    jets = jets_in_t(exprs, np.append(t, (seg.t0, seg.t1)))
    jets.flags.writeable = False
    return jets[:, :-2], jets[:, -2:]


@dataclass(frozen=True, eq=False)
class NodePlan:
    """A node rule laid along a curve's chart schedule, with the curve's
    Taylor jets evaluated once at every node and segment end, so every
    functional of the curve reads them instead of evaluating the curve
    again (Griewank & Walther, Evaluating Derivatives, ch. 13).  Build
    one with CurveSpec.plan, which caches it."""

    count: int
    segments: tuple  # of SegmentNodes

    @classmethod
    def of(cls, curve: CurveSpec, count: int, rule) -> "NodePlan":
        """`rule(t0, t1, k)` gives nodes and weights for k panels (or
        steps); segments share `count` in proportion to their length."""
        span = curve.t_end - curve.t_start
        segments = []
        for seg in curve.segments:
            t, weights = rule(seg.t0, seg.t1, max(1, round(count * (seg.t1 - seg.t0) / span)))
            segments.append(SegmentNodes(seg, t, weights, *_jets_and_ends(seg.exprs, seg, t)))
        return cls(count, tuple(segments))

    def field_jets(self, exprs) -> list:
        """Per segment, the (node jets, end jets) of other per-coordinate
        expressions in t, such as a variation field, on this plan (see
        jets_in_t)."""
        return [_jets_and_ends(exprs, s.segment, s.t) for s in self.segments]

    def shifted(self, w_jets, s: float) -> "NodePlan":
        """The plan of the curve gamma + s*w, given w_jets = field_jets
        of w: the jets of a sum are the sums of the jets."""
        return NodePlan(self.count, tuple(
            replace(seg, jets=seg.jets + s * jets, ends=seg.ends + s * ends)
            for seg, (jets, ends) in zip(self.segments, w_jets)
        ))


# Nodes per summed chunk of a segment.  Each chunk adds weights @ f to
# the segment's sum, so this fixes the order of summation and with it
# the last bits of every schedule integral.  The integrand is called on
# spans of up to kernels.BATCH nodes, a whole number of chunks, so how
# the nodes are cut into calls does not change the sum.
CHUNK = 512


def _segment_integrals(plan: NodePlan, atlas: Atlas, integrand):
    """Quadrature of `integrand(seg, sl, x, v, a)` over each segment of
    the plan, one value per segment.  The integrand gets the plan's
    segment (its chart_id; its nodes seg.t[sl]) and the curve's
    positions, velocities and accelerations at those nodes, and returns
    its values there.  It is called once per span of at most BATCH
    nodes, a whole number of CHUNKs: once for a segment of up to BATCH
    nodes.  The values are summed CHUNK nodes at a time, in order.  If
    the curve leaves the segment's chart, the integrand sees only the
    nodes before the chunk holding the first node outside it, and then
    ChartScheduleError names that node."""
    parts = []
    for seg in plan.segments:
        size = seg.t.size
        leaves = seg.first_outside(atlas.chart(seg.chart_id).box)
        stop = size if leaves == size else leaves - leaves % CHUNK
        part = 0.0
        for lo in range(0, stop, BATCH):
            sl = slice(lo, min(lo + BATCH, stop))
            f, weights = integrand(seg, sl, *seg.jets[:, sl]), seg.weights[sl]
            for c in range(0, weights.size, CHUNK):
                part += float(weights[c:c + CHUNK] @ f[c:c + CHUNK])
        if stop < size:
            raise ChartScheduleError(
                f"curve leaves chart {seg.chart_id} at t={seg.t[leaves]} (x={seg.jets[0, leaves]})"
            )
        parts.append(part)
    return parts


def _affine_integral(plan: NodePlan, atlas: Atlas, integrand) -> AffineScalar:
    """schedule_integral over the nodes of `plan`."""
    segs = plan.segments
    total = 0.0
    parts = _segment_integrals(plan, atlas, integrand)
    for seg, nxt, part in zip(segs, segs[1:] + (None,), parts):
        total += part
        if nxt is not None and nxt.chart_id != seg.chart_id:
            total -= atlas.gauge_offset(seg.ends[0, 1], seg.chart_id, nxt.chart_id)
    first, last = segs[0], segs[-1]
    return AffineScalar(
        plus=FiberPoint(last.chart_id, tuple(last.ends[0, 1]), total),
        minus=FiberPoint(first.chart_id, tuple(first.ends[0, 0]), 0.0),
    )


def schedule_integral(curve: CurveSpec, atlas: Atlas, panels: int, integrand) -> AffineScalar:
    """Composite-Simpson integral of `integrand(seg, sl, x, v, a)` along
    the schedule, converting the accumulated fiber value across chart
    junctions.  The nodes and the curve's jets come from the curve's
    cached Simpson plan; the integrand gets a segment of it, the slice
    sl of its nodes and the curve's positions, velocities and
    accelerations there (arrays of shape (nodes, n)), and returns the
    integrand's values at those nodes (see _segment_integrals).

    The result is an AffineScalar anchored at the curve endpoints: the
    minus anchor is the zero of the first chart's trivialization over
    gamma(a), the plus anchor carries the accumulated value over
    gamma(b) in the last chart's trivialization.
    """
    return _affine_integral(curve.plan(panels, simpson_nodes), atlas, integrand)


def integrate_pullback(
    sigma: AffineOneForm, curve: CurveSpec, atlas: Atlas, panels: int = 1000
) -> AffineScalar:
    """Affine integral of sigma along the curve (Simpson quadrature with
    junction offsets); schedule-independent as an affine scalar."""

    def integrand(seg, sl, x, v, a):
        return np.einsum("ij,ij->i", sigma.chart_components[seg.chart_id](x), v)

    return schedule_integral(curve, atlas, panels, integrand)
