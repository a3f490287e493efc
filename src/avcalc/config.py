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

    [curve]
    segment_1 = "0 : 0 : 1 : 0.3+0.5*t; 0.8*t-0.2"

Multi-chart Lagrangians use `lagrangian_<chart> = "..."` keys in
[system].  The circle atlas takes `gauge` and `winding` in [atlas].
Optional sections: [forcing] with keys f1..fn, and [curve] with keys
segment_1, segment_2, ..., each one `chart : t0 : t1 : e1; e2; ...`
piece of the chart schedule, in the order of their numbers (the CLI's
--curve takes the same text, see parse_segment).

Every expression goes through exprlang.expression with [constants]
folded in.  Gauges take x1..xn, Lagrangians and forcing x and v, curves
t; any other variable is a ValidationError naming it, malformed text a
ConfigSyntaxError.
"""
from __future__ import annotations

import math
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
from .geometry import (
    CurveSegment,
    CurveSpec,
    ScalarFunction,
    circle_atlas,
    coord_names,
    euclidean_atlas,
)
from .systems import System, chi_set

_SECTION_RE = re.compile(r"^\s*\[([A-Za-z_][\w-]*)\]\s*$")
_PAIR_RE = re.compile(r"^\s*([A-Za-z_]\w*)\s*=\s*\"([^\"]*)\"\s*$")
# the sections, and the keys each takes (as a regular expression)
_KEYS = {"system": r"name|dim|lagrangian|lagrangian_\w+|v_halfwidth",
         "constants": r"\w+", "gauge": r"\w+", "forcing": r"f[1-9]\d*",
         "atlas": r"type|gauge|winding", "curve": r"segment_[1-9]\d*"}


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
    """(section -> {key: raw value}, (section, key) -> (line number,
    index of the value's first character in that line))."""
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
            lines[section, key] = (lineno, m.start(2))
            continue
        col = len(line) - len(line.lstrip()) + 1
        raise ConfigSyntaxError(
            f"{path}: expected [section] or key = \"value\"", lineno, col
        )
    return sections, lines


def _expr(text: str, variables, constants: dict, where: str, at=(None, 0)):
    """exprlang.expression of `text`, its failures as config errors.
    `at` is (line, index) of the text's first character: a syntax error
    names its line and column, or with line None (text given outside a
    file, the CLI's --curve), its offset from index 0."""
    try:
        return exprlang.expression(text, variables, constants)
    except (ExprSyntaxError, UnknownFunctionError) as e:
        line, index = at
        index += e.offset
        message = f"bad expression in {where}: {e.reason}"
        if line is None:
            raise ConfigSyntaxError(message, None, offset=index) from e
        raise ConfigSyntaxError(message, line, index + 1) from e
    except UnboundVariableError as e:
        raise ValidationError(
            "expression variables", f"unbound variable '{e.name}' in {where}", float("inf")
        ) from e


def split_top_level(text: str):
    """Split on ';', or on ',' if the text has no ';', at parenthesis
    depth zero (so 'pow(a,b)' survives comma-separated coordinate
    lists)."""
    return [part for _index, part in _top_level_parts(text)]


def _top_level_parts(text: str):
    """(index, part) of each part of split_top_level(text): the part,
    stripped, and the index of its first character in `text`."""
    parts, depth, start = [], 0, 0
    sep = ";" if ";" in text else ","
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append((start, text[start:i]))
            start = i + 1
    parts.append((start, text[start:]))
    return [(i + len(p) - len(p.lstrip()), p.strip()) for i, p in parts]


def _float(value: str, where: str) -> float:
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not math.isfinite(number):
        raise ValidationError("numeric value", f"{where} = \"{value}\"", float("inf"))
    return number


def _build_atlas(atlas_sec: dict, dim: int, constants: dict, lines: dict):
    kind = atlas_sec.get("type", "rn")
    if kind == "rn":
        return euclidean_atlas(dim)
    if kind == "circle":
        if dim != 1:
            raise ValidationError("atlas dimension", "circle atlas needs dim = 1", float(dim))
        return circle_atlas(
            _expr(atlas_sec.get("gauge", "0"), ("x1",), constants, "atlas.gauge",
                  lines.get(("atlas", "gauge"), (None, 0))),
            winding=_float(atlas_sec.get("winding", "0"), "atlas.winding"),
        )
    raise ValidationError("atlas type", f"unknown atlas type '{kind}'", float("inf"))


def parse_segment(text: str, constants: dict, where: str, at=(None, 0)) -> CurveSegment:
    """One piece of a chart schedule, written `chart : t0 : t1 : e1; e2; ...`
    (a config's segment_<k>, the CLI's --curve); `where` names the key or
    flag in errors, and `at` places the text as _expr's `at` does."""
    fields = text.split(":")
    if len(fields) != 4:
        raise ValidationError("curve segment", f"{where} needs 'chart : t0 : t1 : exprs'",
                              float("inf"))
    chart, t0, t1 = (p.strip() for p in fields[:3])
    line, index = at
    index += len(text) - len(fields[3])
    parsed = tuple(_expr(e, ("t",), constants, where, (line, index + i))
                   for i, e in _top_level_parts(fields[3]))
    return CurveSegment(_float(t0, where), _float(t1, where), chart, parsed)


def load_config(path: str) -> SystemConfig:
    """Parse and validate a system definition file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    sections, lines = _parse_lines(text, path)

    system_sec = sections.get("system")
    if not system_sec:
        raise ConfigSyntaxError(f"{path}: missing [system] section")
    try:
        dim = int(system_sec.get("dim", ""))
    except ValueError:
        raise ValidationError("system dimension", "system.dim must be an integer", float("inf"))
    if dim < 1:
        raise ValidationError("system dimension", "system.dim must be positive", float(dim))

    constants = {
        k: _float(v, f"constants.{k}") for k, v in sections.get("constants", {}).items()
    }

    atlas = _build_atlas(sections.get("atlas", {}), dim, constants, lines)

    coords, states = coord_names(dim), lagrangian_varnames(dim)

    lag_exprs = {}
    if "lagrangian" in system_sec:
        ast = _expr(system_sec["lagrangian"], states, constants, "system.lagrangian",
                    lines["system", "lagrangian"])
        lag_exprs = {c.id: ast for c in atlas.charts}
    for key, value in system_sec.items():
        if key.startswith("lagrangian_"):
            lag_exprs[key[len("lagrangian_"):]] = _expr(value, states, constants, key,
                                                        lines["system", key])
    lam = GaugeClassLagrangian(atlas, lag_exprs)  # checks that the charts match
    if atlas.transitions:
        lam.validate()

    chis = []
    for key, value in sections.get("gauge", {}).items():
        # each must be one function on M
        chi = _expr(value, coords, constants, "gauge", lines["gauge", key])
        ScalarFunction.from_common(atlas, chi).validate()
        chis.append(value)

    forcing = None
    forcing_sec = sections.get("forcing")
    if forcing_sec:
        for key in forcing_sec:
            if int(key[1:]) > dim:
                raise ConfigSyntaxError(f"{path}: unknown key '{key}' in [forcing] for dim {dim}",
                                        lines["forcing", key][0], 1)
        forcing = tuple(
            _expr(forcing_sec.get(f"f{j}", "0"), states, constants, f"forcing.f{j}",
                  lines.get(("forcing", f"f{j}"), (None, 0)))
            for j in range(1, dim + 1)
        )

    curve = None
    if "curve" in sections:
        keys = sorted(sections["curve"], key=lambda k: int(k[len("segment_"):]))
        curve = CurveSpec(tuple(parse_segment(sections["curve"][k], constants, k,
                                              lines["curve", k]) for k in keys))
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
    )
    return SystemConfig(path=path, sections=sections, system=system)
