import math
import os
import re

import pytest

from avcalc.config import load_config, split_top_level
from avcalc.errors import (
    ChartDisjointError,
    ChartScheduleError,
    ConfigSyntaxError,
    ValidationError,
)
from avcalc.exprlang import to_text
from avcalc.systems import bundled_system

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def write(tmp_path, text, name="system.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestBundledConfigs:
    @pytest.mark.parametrize(
        "name", ["free", "uniform", "charged", "relativistic", "boosted", "circle"]
    )
    def test_loads_and_validates(self, name):
        cfg = load_config(os.path.join(CONFIG_DIR, f"{name}.cfg"))
        assert cfg.system.name == name
        assert cfg.system.curve is not None

    # (chart, t0, t1, coordinate texts) of each config's curve, as loaded
    # when the single-segment configs still wrote t0, t1 and exprs
    SEGMENTS = {
        "free": [("0", 0.0, 1.0, ["(0.3+(0.5*t))", "((0.8*t)-0.2)"])],
        "uniform": [("0", 0.0, 1.0, ["((0.2+(0.8*t))-(0.5*(t^2.0)))"])],
        "charged": [("0", 0.0, 1.0, ["sin(t)", "(cos(t)-1.0)", "(0.3*t)"])],
        "relativistic": [("0", 0.0, 1.0, ["(0.3*sin(t))", "(0.3*t)"])],
        "boosted": [("0", 0.0, 1.0, ["(0.3+(0.5*t))", "((0.8*t)-0.2)"])],
        "circle": [("0", -1.0, 1.5, ["t"]), ("1", 1.5, 2.5, ["t"])],
    }

    @pytest.mark.parametrize("name", list(SEGMENTS))
    def test_curve_segments_unchanged(self, name):
        curve = load_config(os.path.join(CONFIG_DIR, f"{name}.cfg")).system.curve
        assert [(seg.chart_id, seg.t0, seg.t1, [to_text(e) for e in seg.exprs])
                for seg in curve.segments] == self.SEGMENTS[name]
        assert curve == bundled_system(name).curve

    def test_circle_config_builds_two_charts(self):
        cfg = load_config(os.path.join(CONFIG_DIR, "circle.cfg"))
        assert {c.id for c in cfg.system.atlas.charts} == {"0", "1"}
        assert len(cfg.system.curve.segments) == 2


class TestParsing:
    def test_minimal(self, tmp_path):
        path = write(tmp_path, '[system]\nname = "mini"\ndim = "1"\nlagrangian = "0.5*v1^2"\n')
        system = load_config(path).system
        assert system.dim == 1
        assert system.lagrangian.value([0.0], [2.0], "0") == pytest.approx(2.0)

    def test_comments_and_blank_lines(self, tmp_path):
        path = write(
            tmp_path,
            '# header\n[system]\nname = "c"  # trailing\n\ndim = "1"\nlagrangian = "v1^2"\n',
        )
        assert load_config(path).system.name == "c"

    def test_constants_folded(self, tmp_path):
        path = write(
            tmp_path,
            '[system]\nname = "k"\ndim = "1"\nlagrangian = "0.5*m*v1^2"\n'
            '[constants]\nm = "2.0"\n',
        )
        system = load_config(path).system
        assert system.lagrangian.value([0.0], [3.0], "0") == pytest.approx(9.0)

    def test_forcing_section(self, tmp_path):
        path = write(
            tmp_path,
            '[system]\nname = "f"\ndim = "2"\nlagrangian = "0.5*(v1^2+v2^2)"\n'
            '[forcing]\nf1 = "sin(x1)"\nf2 = "0"\n',
        )
        system = load_config(path).system
        assert system.forcing is not None and len(system.forcing) == 2


class TestSyntaxErrors:
    def test_bad_line_reports_position(self, tmp_path):
        path = write(tmp_path, '[system]\nname = "x"\ndim = "1"\nlagrangian "v1"\n')
        with pytest.raises(ConfigSyntaxError) as exc:
            load_config(path)
        assert exc.value.line == 4

    def test_key_outside_section(self, tmp_path):
        path = write(tmp_path, 'name = "x"\n')
        with pytest.raises(ConfigSyntaxError):
            load_config(path)

    def test_unknown_section(self, tmp_path):
        path = write(tmp_path, "[mystery]\n")
        with pytest.raises(ConfigSyntaxError):
            load_config(path)

    def test_duplicate_key(self, tmp_path):
        path = write(tmp_path, '[system]\nname = "a"\nname = "b"\n')
        with pytest.raises(ConfigSyntaxError):
            load_config(path)

    def test_misspelt_key_names_key_section_and_line(self, tmp_path):
        # v_halfwidth misspelt used to load with the default 1.0, and
        # check-gauge then sampled |v| up to 1 for sqrt(1 - v^2)
        with open(os.path.join(CONFIG_DIR, "relativistic.cfg")) as fh:
            text = fh.read().replace("v_halfwidth", "v_halfwidht")
        with pytest.raises(ConfigSyntaxError, match=r"unknown key 'v_halfwidht' in \[system\]") as exc:
            load_config(write(tmp_path, text))
        assert exc.value.line == text.splitlines().index('v_halfwidht = "0.5"') + 1

    @pytest.mark.parametrize("section, key", [
        ("atlas", "bogus"), ("curve", "segment"), ("forcing", "g1"), ("forcing", "f3"),
        # keys a config no longer takes: a curve is written only as segment_<k> keys
        ("curve", "t0"), ("curve", "t1"), ("curve", "chart"), ("curve", "exprs"),
        ("curve", "segment_0"), ("atlas", "half_width"), ("atlas", "gauge_10"),
        ("system", "description"),
    ])
    def test_unknown_key(self, tmp_path, section, key):
        path = write(tmp_path, '[system]\nname = "x"\ndim = "2"\nlagrangian = "v1^2+v2^2"\n'
                               f'[{section}]\n{key} = "1"\n')
        with pytest.raises(ConfigSyntaxError, match=rf"unknown key '{key}' in \[{section}\]") as exc:
            load_config(path)
        assert exc.value.line == 6

    def test_bad_expression(self, tmp_path):
        path = write(tmp_path, '[system]\nname = "x"\ndim = "1"\nlagrangian = "v1 +"\n')
        with pytest.raises(ConfigSyntaxError):
            load_config(path)

    def test_unknown_function_names_the_key(self, tmp_path):
        path = write(tmp_path, '[system]\nname = "x"\ndim = "1"\nlagrangian = "foo(v1)"\n')
        with pytest.raises(ConfigSyntaxError, match="in system.lagrangian: unknown function 'foo'"):
            load_config(path)


class TestValidation:
    def test_unbound_variable_named(self, tmp_path):
        path = write(tmp_path, '[system]\nname = "x"\ndim = "2"\nlagrangian = "0.5*v9^2"\n')
        with pytest.raises(ValidationError) as exc:
            load_config(path)
        assert "v9" in str(exc.value)

    def test_incompatible_chart_lagrangians(self, tmp_path):
        path = write(
            tmp_path,
            '[system]\nname = "c"\ndim = "1"\nlagrangian_0 = "0.5*v1^2"\n'
            'lagrangian_1 = "0.5*v1^2"\n'
            '[atlas]\ntype = "circle"\ngauge = "sin(x1)"\nwinding = "1.0"\n',
        )
        with pytest.raises(ValidationError):
            load_config(path)

    def test_missing_chart_lagrangian(self, tmp_path):
        path = write(
            tmp_path,
            '[system]\nname = "c"\ndim = "1"\nlagrangian_0 = "0.5*v1^2"\n'
            '[atlas]\ntype = "circle"\ngauge = "0"\n',
        )
        with pytest.raises(ValidationError, match="no Lagrangian for chart '1'"):
            load_config(path)

    def test_unknown_chart_lagrangian(self, tmp_path):
        path = write(
            tmp_path,
            '[system]\nname = "c"\ndim = "1"\nlagrangian = "0.5*v1^2"\n'
            'lagrangian_7 = "0.5*v1^2"\n[atlas]\ntype = "circle"\ngauge = "0"\n',
        )
        with pytest.raises(ValidationError, match="lagrangian chart at no chart '7' in atlas"):
            load_config(path)

    def test_bad_dim(self, tmp_path):
        path = write(tmp_path, '[system]\nname = "x"\ndim = "zero"\nlagrangian = "0"\n')
        with pytest.raises(ValidationError):
            load_config(path)

    def test_gauge_must_not_use_velocities(self, tmp_path):
        path = write(
            tmp_path,
            '[system]\nname = "x"\ndim = "1"\nlagrangian = "0.5*v1^2"\n'
            '[gauge]\nchi = "v1"\n',
        )
        with pytest.raises(ValidationError):
            load_config(path)

    def test_curve_chart_must_exist(self, tmp_path):
        path = write(
            tmp_path,
            '[system]\nname = "c"\ndim = "1"\nlagrangian = "0.5*v1^2"\n'
            '[curve]\nsegment_1 = "7 : 0 : 1 : t"\n',
        )
        with pytest.raises(ChartDisjointError, match="no chart '7'"):
            load_config(path)

    @pytest.mark.parametrize("segment, message", [
        ("0 : 0 : 1", "curve segment at segment_1 needs 'chart : t0 : t1 : exprs'"),
        ("0 : 0 : inf : t", 'numeric value at segment_1 = "inf"'),
        ("0 : nan : 1 : t", 'numeric value at segment_1 = "nan"'),
        ("0 : 0 : 1 : t; t", "segment in chart 0 has 2 coordinates, atlas dimension is 1"),
    ])
    def test_malformed_segment(self, tmp_path, segment, message):
        path = write(tmp_path, '[system]\nname = "c"\ndim = "1"\nlagrangian = "0.5*v1^2"\n'
                               f'[curve]\nsegment_1 = "{segment}"\n')
        with pytest.raises((ValidationError, ChartScheduleError), match=re.escape(message)):
            load_config(path)

    def test_curve_needs_a_segment(self, tmp_path):
        path = write(tmp_path, '[system]\nname = "c"\ndim = "1"\nlagrangian = "0.5*v1^2"\n'
                               '[curve]\n')
        with pytest.raises(ChartScheduleError, match="curve has no segments"):
            load_config(path)


CIRCLE = '[system]\nname = "c"\ndim = "1"\nlagrangian = "0.5*v1^2"\n[atlas]\ntype = "circle"\n'


class TestAtlasGauge:
    def test_syntax_error_is_a_config_error(self, tmp_path):
        path = write(tmp_path, CIRCLE + 'gauge = "sin(x1"\n')
        with pytest.raises(ConfigSyntaxError, match="bad expression in atlas.gauge"):
            load_config(path)

    @pytest.mark.parametrize("key", ["gauge"])
    def test_unbound_variable_named(self, tmp_path, key):
        path = write(tmp_path, CIRCLE + f'{key} = "sin(y)"\n')
        with pytest.raises(ValidationError, match=f"unbound variable 'y' in atlas.{key}"):
            load_config(path)

    def test_constants_folded(self, tmp_path):
        # the chart Lagrangians are compatible only if k = 2 is folded in
        path = write(
            tmp_path,
            '[system]\nname = "c"\ndim = "1"\nlagrangian_0 = "0.5*v1^2 + k*cos(k*x1)*v1"\n'
            'lagrangian_1 = "0.5*v1^2"\n[constants]\nk = "2"\n'
            '[atlas]\ntype = "circle"\ngauge = "sin(k*x1)"\n',
        )
        atlas = load_config(path).system.atlas
        assert atlas.gauge_offset([0.5], "0", "1") == math.sin(2.0 * 0.5)
        assert atlas.gauge_offset([0.5], "1", "0") == -math.sin(2.0 * 0.5)

    def test_gauge_function_must_be_one_function_on_the_circle(self, tmp_path):
        assert load_config(write(tmp_path, CIRCLE + '[gauge]\nchi = "sin(x1)"\n')).system.chis == (
            "sin(x1)",)
        # x1 jumps by 2*pi between the charts
        path = write(tmp_path, CIRCLE + '[gauge]\nchi = "x1"\n')
        with pytest.raises(ValidationError, match="scalar function chart agreement") as exc:
            load_config(path)
        assert exc.value.defect == pytest.approx(2.0 * math.pi)


class TestSplitting:
    def test_semicolon_preferred(self):
        assert split_top_level("t; sin(t)") == ["t", "sin(t)"]

    def test_commas_respect_parentheses(self):
        assert split_top_level("pow(t,2), cos(t)") == ["pow(t,2)", "cos(t)"]

    def test_curve_segments(self, tmp_path):
        path = write(
            tmp_path,
            '[system]\nname = "c"\ndim = "1"\nlagrangian = "0.5*v1^2"\n'
            '[curve]\nsegment_1 = "0 : 0 : 2 : 0.5*t"\n',
        )
        system = load_config(path).system
        assert system.curve.t_end == 2.0
        assert system.curve.position(1.0)[0] == pytest.approx(0.5)


def test_spec_constants_example():
    cfg = load_config(os.path.join(CONFIG_DIR, "uniform.cfg"))
    # g = 1 folded into the expression: L(0, v) = v^2/2
    assert cfg.system.lagrangian.value([0.0], [2.0], "0") == pytest.approx(2.0)
    assert cfg.system.lagrangian.value([1.0], [0.0], "0") == pytest.approx(-1.0)
    assert math.isfinite(cfg.system.v_halfwidth)
