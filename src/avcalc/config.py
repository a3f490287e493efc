"""System definition files.

The format is sectioned plain text, one `key = "value"` pair per line:

    # free particle on the plane
    [system]
    name = "free"
    dim = "2"
    lagrangian = "0.5*(v1^2+v2^2)"

    [constants]
    m = "1.0"

    [atlas]
    type = "rn"            # or "circle" (dim 1)

    [gauge]
    chi = "sin(x1)*cos(x2)"

Multi-chart Lagrangians use `lagrangian_<chart> = "..."` keys in
[system].  The circle atlas takes `gauge`, `winding` and an optional
`gauge_10` override in [atlas]; the override replaces the reverse
cochain on the shared-coordinate overlap component, which is how a
config can describe an inconsistent atlas (validation then fails with
the measured defect).  Optional sections: [forcing] with keys f1..fn,
and [curve] with either `t0`/`t1`/`exprs` for one segment or
`segment_1 = "chart : t0 : t1 : e1; e2; ..."` lines for a schedule.

Every expression goes through exprlang.expression with [constants]
folded in.  Gauges take x1..xn, Lagrangians and forcing x and v, curves
t; any other variable is a ValidationError naming it, malformed text a
ConfigSyntaxError.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import exprlang
from .dynamics import GaugeClassLagrangian, lagrangian_varnames
from .errors import (
    ConfigSyntaxError,
    ExprSyntaxError,
    UnboundVariableError,
    UnknownFunctionError,
    ValidationError,
)
from .geometry import CurveSegment, CurveSpec, circle_atlas, coord_names, euclidean_atlas
from .systems import System, chi_set

_SECTION_RE = re.compile(r"^\s*\[([A-Za-z_][\w-]*)\]\s*$")
_PAIR_RE = re.compile(r"^\s*([A-Za-z_]\w*)\s*=\s*\"([^\"]*)\"\s*$")
# the sections, and the keys each takes (as a regular expression)
_KEYS = {"system": r"name|dim|lagrangian|lagrangian_\w+|v_halfwidth|description",
         "constants": r"\w+", "gauge": r"\w+", "forcing": r"f[1-9]\d*",
         "atlas": r"type|half_width|gauge|winding|gauge_10",
         "curve": r"t0|t1|chart|exprs|segment_\w+"}


@dataclass
class SystemConfig:
    """Parsed and validated system definition."""

    path: str
    sections: dict  # section -> {key: raw string value}
    system: System = field(repr=False, default=None)


def _strip_comment(line: str) -> str:
    # comments start at a '#' that is not inside the quoted value
    in_quote = False
    for i, ch in enumerate(line):
        if ch == '"':
            in_quote = not in_quote
        elif ch == "#" and not in_quote:
            return line[:i]
    return line


def _parse_lines(text: str, path: str):
    """(section -> {key: raw value}, (section, key) -> line number)."""
    sections, lines = {}, {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line.strip():
            continue
        m = _SECTION_RE.match(line)
        if m:
            name = m.group(1)
            if name not in _KEYS:
                raise ConfigSyntaxError(
                    f"{path}: unknown section [{name}]", lineno, line.index("[") + 1
                )
            section, current = name, sections.setdefault(name, {})
            continue
        m = _PAIR_RE.match(line)
        if m:
            if current is None:
                raise ConfigSyntaxError(
                    f"{path}: key outside any [section]", lineno, 1
                )
            key = m.group(1)
            if key in current:
                raise ConfigSyntaxError(f"{path}: duplicate key '{key}'", lineno, 1)
            if not re.fullmatch(_KEYS[section], key):
                raise ConfigSyntaxError(f"{path}: unknown key '{key}' in [{section}]", lineno, 1)
            current[key] = m.group(2)
            lines[section, key] = lineno
            continue
        col = len(line) - len(line.lstrip()) + 1
        raise ConfigSyntaxError(
            f"{path}: expected [section] or key = \"value\"", lineno, col
        )
    return sections, lines


def _expr(text: str, variables, constants: dict, where: str):
    """exprlang.expression of `text`, its failures as config errors."""
    try:
        return exprlang.expression(text, variables, constants)
    except (ExprSyntaxError, UnknownFunctionError) as e:
        raise ConfigSyntaxError(f"bad expression in {where}: {e}", 0, e.offset + 1) from e
    except UnboundVariableError as e:
        raise ValidationError(
            "expression variables", f"unbound variable '{e.name}' in {where}", float("inf")
        ) from e


def split_top_level(text: str, seps=(";", ",")):
    """Split on separators at parenthesis depth zero (so 'pow(a,b)'
    survives comma-separated coordinate lists)."""
    parts, depth, start = [], 0, 0
    sep = ";" if ";" in text else seps[-1]
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p.strip() for p in parts]


def _float(sections_value: str, where: str) -> float:
    try:
        return float(sections_value)
    except ValueError:
        raise ValidationError("numeric value", f"{where} = \"{sections_value}\"", float("inf"))


def _build_atlas(atlas_sec: dict, dim: int, constants: dict):
    kind = atlas_sec.get("type", "rn")
    if kind == "rn":
        half = _float(atlas_sec.get("half_width", "1e6"), "atlas.half_width")
        return euclidean_atlas(dim, half)
    if kind == "circle":
        if dim != 1:
            raise ValidationError("atlas dimension", "circle atlas needs dim = 1", float(dim))
        reverse = atlas_sec.get("gauge_10")
        return circle_atlas(
            _expr(atlas_sec.get("gauge", "0"), ("x1",), constants, "atlas.gauge"),
            winding=_float(atlas_sec.get("winding", "0"), "atlas.winding"),
            gauge_reverse_a=None if reverse is None
            else _expr(reverse, ("x1",), constants, "atlas.gauge_10"),
        )
    raise ValidationError("atlas type", f"unknown atlas type '{kind}'", float("inf"))


def _build_curve(curve_sec: dict, constants: dict) -> CurveSpec:
    seg_keys = sorted(k for k in curve_sec if k.startswith("segment"))
    if seg_keys:
        segments = []
        for key in seg_keys:
            fields = [p.strip() for p in curve_sec[key].split(":")]
            if len(fields) != 4:
                raise ValidationError(
                    "curve segment", f"{key} needs 'chart : t0 : t1 : exprs'", float("inf")
                )
            chart, t0, t1, exprs = fields
            parsed = [_expr(e, ("t",), constants, key) for e in split_top_level(exprs)]
            segments.append(
                CurveSegment(_float(t0, key), _float(t1, key), chart, tuple(parsed))
            )
        return CurveSpec(tuple(segments))
    parsed = [
        _expr(e, ("t",), constants, "curve.exprs") for e in split_top_level(curve_sec["exprs"])
    ]
    return CurveSpec(
        (
            CurveSegment(
                _float(curve_sec.get("t0", "0"), "curve.t0"),
                _float(curve_sec.get("t1", "1"), "curve.t1"),
                curve_sec.get("chart", "0"),
                tuple(parsed),
            ),
        )
    )


def load_config(path: str) -> SystemConfig:
    """Parse and validate a system definition file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    sections, lines = _parse_lines(text, path)

    system_sec = sections.get("system")
    if not system_sec:
        raise ConfigSyntaxError(f"{path}: missing [system] section", 0, 1)
    try:
        dim = int(system_sec.get("dim", ""))
    except ValueError:
        raise ValidationError("system dimension", "system.dim must be an integer", float("inf"))
    if dim < 1:
        raise ValidationError("system dimension", "system.dim must be positive", float(dim))

    constants = {
        k: _float(v, f"constants.{k}") for k, v in sections.get("constants", {}).items()
    }

    atlas = _build_atlas(sections.get("atlas", {}), dim, constants)

    coords, states = coord_names(dim), lagrangian_varnames(dim)

    lag_exprs = {}
    if "lagrangian" in system_sec:
        ast = _expr(system_sec["lagrangian"], states, constants, "system.lagrangian")
        lag_exprs = {c.id: ast for c in atlas.charts}
    for key, value in system_sec.items():
        if key.startswith("lagrangian_"):
            lag_exprs[key[len("lagrangian_"):]] = _expr(value, states, constants, key)
    lam = GaugeClassLagrangian(atlas, lag_exprs)  # checks that the charts match
    if atlas.transitions:
        lam.validate()

    chis = []
    for value in sections.get("gauge", {}).values():
        _expr(value, coords, constants, "gauge")
        chis.append(value)

    forcing = None
    forcing_sec = sections.get("forcing")
    if forcing_sec:
        for key in forcing_sec:
            if int(key[1:]) > dim:
                raise ConfigSyntaxError(f"{path}: unknown key '{key}' in [forcing] for dim {dim}",
                                        lines["forcing", key], 1)
        forcing = tuple(
            _expr(forcing_sec.get(f"f{j}", "0"), states, constants, f"forcing.f{j}")
            for j in range(1, dim + 1)
        )

    curve = None
    if "curve" in sections:
        curve = _build_curve(sections["curve"], constants)
        curve.validate(atlas)

    system = System(
        name=system_sec.get("name", "config"),
        atlas=atlas,
        lagrangian=lam,
        constants=constants,
        curve=curve,
        chis=tuple(chis) or tuple(chi_set(dim) if not atlas.transitions else ()),
        forcing=forcing,
        v_halfwidth=_float(system_sec.get("v_halfwidth", "1.0"), "system.v_halfwidth"),
        description=system_sec.get("description", ""),
    )
    return SystemConfig(path=path, sections=sections, system=system)
