import os
import subprocess
import sys

import numpy as np
import pytest

from avcalc.cli import _fmt, main
from avcalc.config import load_config
from avcalc.dynamics import integrate_trajectory
from avcalc.systems import bundled_system

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def cfg(name):
    return os.path.join(CONFIG_DIR, f"{name}.cfg")


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "avcalc.cli", *argv],
        capture_output=True, text=True,
    )


class TestEl:
    def test_free_particle_zero(self, capsys):
        code = main(["el", "--system", cfg("free"),
                     "--x", "0,0", "--v", "1,0", "--a", "0,0"])
        out = capsys.readouterr().out.split()
        assert code == 0
        assert [float(c) for c in out] == [0.0, 0.0]

    def test_bundled_name(self, capsys):
        code = main(["el", "--system", "uniform",
                     "--x", "0", "--v", "0", "--a", "0"])
        assert code == 0
        assert float(capsys.readouterr().out) == pytest.approx(-1.0)

    def test_wrong_dimension(self, capsys):
        code = main(["el", "--system", "free",
                     "--x", "0", "--v", "0", "--a", "0"])
        assert code == 1


class TestLegendre:
    def test_momentum(self, capsys):
        code = main(["legendre", "--system", cfg("charged"),
                     "--x", "1,0,0", "--v", "0,1,0"])
        assert code == 0
        vals = [float(c) for c in capsys.readouterr().out.split()]
        assert vals == pytest.approx([0.0, 1.5, 0.0])


class TestAction:
    def test_half_for_unit_speed_line(self, capsys):
        code = main(["action", "--system", cfg("free"), "--curve", "0 : 0 : 1 : t;0"])
        out = capsys.readouterr().out
        assert code == 0
        lines = dict(
            line.split("=") for line in out.strip().splitlines()
        )
        assert float(lines["action_quadrature "]) == pytest.approx(0.5, abs=1e-8)
        assert float(lines["action_lift       "]) == pytest.approx(0.5, abs=1e-8)

    def test_config_curve_used_when_flag_missing(self, capsys):
        code = main(["action", "--system", cfg("circle"), "--panels", "400", "--steps", "400"])
        assert code == 0

    @pytest.mark.parametrize("command", [["action"], ["variation", "--w", "sin(t)"]])
    def test_schedule_on_the_command_line(self, command, capsys):
        # the circle config's two segments, crossing from chart 0 into chart 1
        assert main([*command, "--system", cfg("circle")]) == 0
        expected = capsys.readouterr().out
        assert main([*command, "--system", "circle", "--curve", "0 : -1.0 : 1.5 : t",
                     "--curve", "1 : 1.5 : 2.5 : t"]) == 0
        assert capsys.readouterr().out == expected

    def test_ten_segments_in_numeric_order(self, tmp_path, capsys):
        # segment_10 sorts before segment_2 by name, which left a gap
        path = tmp_path / "ten.cfg"
        path.write_text('[system]\nname = "ten"\ndim = "1"\nlagrangian = "0.5*v1^2"\n[curve]\n'
                        + "".join(f'segment_{k} = "0 : {k - 1} : {k} : t"\n' for k in range(1, 11)))
        curve = load_config(str(path)).system.curve
        assert [(seg.t0, seg.t1) for seg in curve.segments] == [(k - 1.0, k) for k in range(1, 11)]
        assert main(["action", "--system", str(path)]) == 0
        first = capsys.readouterr().out.splitlines()[0]  # the action of v = 1 over [0, 10]
        assert float(first.split("=")[1]) == pytest.approx(5.0, abs=1e-12)


class TestVariation:
    def test_gap_small(self, capsys):
        code = main(["variation", "--system", cfg("uniform"),
                     "--w", "t*(1-t)", "--panels", "400"])
        out = capsys.readouterr().out
        assert code == 0
        gap = float(out.strip().splitlines()[-1].split("=")[1])
        assert gap <= 1e-4

    def test_unknown_variable_in_w(self, capsys):
        code = main(["variation", "--system", cfg("uniform"), "--w", "z"])
        assert code == 1


class TestCheckGauge:
    def test_charged_system_passes(self, capsys):
        code = main(["check-gauge", "--system", cfg("charged"),
                     "--chi", "sin(x1)*cos(x2)"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_trajectory_blow_up_is_a_failed_check(self, capsys):
        # the shifted Lagrangian's terms overflow along the trajectory
        code = main(["check-gauge", "--system", cfg("free"),
                     "--chi", "exp(1000*x1)"])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        (line,) = [ln for ln in captured.out.splitlines() if "trajectory gauge invariance" in ln]
        assert line.startswith("FAIL") and "defect nan" in line and " at x1=" in line


    def test_unbound_variable_in_chi_is_one_error_line(self, capsys):
        code = main(["check-gauge", "--system", "free", "--chi", "x1*y"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "" and captured.err == "error: unbound variable 'y'\n"

    def test_chi_must_be_a_function_on_the_manifold(self, capsys):
        # x1 jumps by 2*pi between the circle's charts
        code = main(["check-gauge", "--system", "circle", "--chi", "x1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: validation failed: scalar function chart agreement")
        assert captured.err.endswith("(defect 6.28319)\n") and captured.err.count("\n") == 1

    def test_config_constants_fold_into_chi(self, tmp_path, capsys):
        path = tmp_path / "k.cfg"
        path.write_text(
            '[system]\nname = "k"\ndim = "1"\nlagrangian = "0.5*v1^2 - x1"\n'
            '[constants]\nk = "2"\n[gauge]\nchi = "sin(k*x1)"\n'
        )
        code = main(["check-gauge", "--system", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "FAIL" not in out


class TestExitCodes:
    def test_usage_error_is_2(self):
        result = run_cli("el", "--system")
        assert result.returncode == 2

    def test_unknown_subcommand_is_2(self):
        result = run_cli("frobnicate")
        assert result.returncode == 2

    @pytest.mark.parametrize("argv, message", [
        (["integrate", "--x0", "0,0", "--v0", "1,0", "--steps", "0"], "--steps: must be a positive integer"),
        (["integrate", "--x0", "0,0", "--v0", "1,0", "--t1", "nan"], "--t1: must be a finite number"),
        (["action", "--panels", "0"], "--panels: must be a positive integer"),
        (["action", "--steps", "-1"], "--steps: must be a positive integer"),
        (["variation", "--w", "t;t", "--eps", "0"], "--eps: must be a positive number"),
    ])
    def test_bad_numeric_argument_is_2(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--system", "free", *argv[1:]])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["check-gauge", "--chart", "1"],
        ["check-gauge", "--points", "25"],
        ["check-gauge", "--tol-el", "1"],
        ["check-gauge", "--tol-legendre", "1"],
        ["check-gauge", "--tol-trajectory", "1"],
        ["check-all", "--chart", "0"],
        ["action", "--tol", "1"],
        ["variation", "--w", "t;t", "--tol", "1"],
        ["action", "--chart", "0"],
        ["action", "--t0", "0"],
        ["action", "--t1", "1"],
        ["variation", "--w", "t;t", "--chart", "0"],
        ["variation", "--w", "t;t", "--t0", "0"],
        ["variation", "--w", "t;t", "--t1", "1"],
    ], ids=lambda argv: f"{argv[0]} {argv[-2]}")
    def test_removed_flag_is_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--system", "free", *argv[1:]])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, point", [
        (["legendre", "--system", "circle", "--x", "3.5", "--v", "1"], "x=[3.5]"),
        (["el", "--system", "circle", "--chart", "1", "--x", "-1", "--v", "1", "--a", "0"],
         "x=[-1.]"),
        (["integrate", "--system", "circle", "--x0", "3.5", "--v0", "1", "--steps", "3"],
         "x0=[3.5]"),
    ])
    def test_point_outside_its_chart_is_1(self, argv, point, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        chart = "1" if "--chart" in argv else "0"
        assert captured.err == f"error: {point} is outside chart {chart}\n"

    @pytest.mark.parametrize("component", ["nan", "inf", "-inf", "abc"])
    def test_non_finite_vector_component_is_1(self, component, capsys):
        code = main(["el", "--system", "free",
                     "--x", f"0,{component}", "--v", "1,0", "--a", "0,0"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: --x components must be numbers: '0,{component}'\n"

    def test_overflowing_step_size_is_1(self, capsys):
        code = main(["integrate", "--system", "free", "--x0", "0,0",
                     "--v0", "1,0", "--t0=-1e308", "--t1=1e308", "--steps", "2"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: step size (t1 - t0)/steps must be finite")

    @pytest.mark.parametrize("argv, chart", [
        (["el", "--system", "free", "--chart", "7", "--x", "0,0", "--v", "1,0", "--a", "0,0"], "7"),
        (["integrate", "--system", "circle", "--chart", "9", "--x0", "0", "--v0", "1"], "9"),
    ])
    def test_unknown_chart_is_1(self, argv, chart, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: no chart '{chart}' in atlas\n"

    def test_missing_config_is_1(self, capsys):
        code = main(["el", "--system", "no-such.cfg", "--x", "0", "--v", "0", "--a", "0"])
        assert code == 1

    def test_invalid_config_is_1(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text('[system]\nname = "x"\ndim = "2"\nlagrangian = "0.5*v9^2"\n')
        code = main(["el", "--system", str(path),
                     "--x", "0,0", "--v", "0,0", "--a", "0,0"])
        assert code == 1


class TestCsv:
    def test_schema_and_determinism(self, tmp_path):
        args = [
            "integrate", "--system", cfg("uniform"),
            "--x0", "0.2", "--v0", "0.8", "--t0", "0", "--t1", "1", "--steps", "50",
        ]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main([*args, "--output", str(out_a)]) == 0
        assert main([*args, "--output", str(out_b)]) == 0
        data_a = out_a.read_bytes()
        assert data_a == out_b.read_bytes()  # byte-identical reruns
        lines = data_a.decode().splitlines()
        assert lines[0] == "t,x1,v1"
        assert len(lines) == 52  # header + steps + 1 rows
        t, x, v = (float(c) for c in lines[-1].split(","))
        assert t == pytest.approx(1.0)
        assert x == pytest.approx(0.2 + 0.8 - 0.5, abs=1e-10)

    def test_rows_match_value_by_value_formatting(self, capsys):
        # the rows are formatted a row at a time; the text must be that of
        # _fmt applied to every value, joined by commas
        system = bundled_system("charged")
        x0, v0 = [0.1, -0.2, 0.3], [1.0 / 3.0, 0.7, -1e-7]
        assert main(["integrate", "--system", "charged", "--x0", "0.1,-0.2,0.3",
                     "--v0", f"{v0[0]!r},0.7,-1e-7", "--t1", "2", "--steps", "40"]) == 0
        tr = integrate_trajectory(system.lagrangian, x0, v0, 0.0, 2.0, 40)
        lines = ["t,x1,x2,x3,v1,v2,v3"]
        for k in range(tr.times.shape[0]):
            row = [tr.times[k], *tr.positions[k], *tr.velocities[k]]
            lines.append(",".join(_fmt(c) for c in row))
        assert capsys.readouterr().out == "\n".join(lines) + "\n"

    def test_stdout_default(self, capsys):
        code = main([
            "integrate", "--system", cfg("free"),
            "--x0", "0,0", "--v0", "1,0", "--steps", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "t,x1,x2,v1,v2"


class TestForcedIntegrate:
    """`integrate` on a config with a [forcing] section."""

    def write(self, tmp_path, forcing):
        path = tmp_path / "forced.cfg"
        path.write_text('[system]\nname = "forced"\ndim = "1"\nlagrangian = "0.5*v1^2"\n'
                        f'[forcing]\nf1 = "{forcing}"\n')
        return str(path)

    def test_csv_matches_a_numpy_forcing(self, tmp_path):
        # + - * only: the interpreter and numpy round every operation alike
        path = self.write(tmp_path, "-0.5*v1 - x1")
        out = tmp_path / "forced.csv"
        assert main(["integrate", "--system", path, "--x0", "1", "--v0", "0.25",
                     "--t1", "3", "--steps", "60", "--output", str(out)]) == 0
        system = load_config(path).system
        tr = integrate_trajectory(system.lagrangian, [1.0], [0.25], 0.0, 3.0, 60,
                                  forcing=lambda x, v: np.array([-0.5 * v[0] - x[0]]))
        free = integrate_trajectory(system.lagrangian, [1.0], [0.25], 0.0, 3.0, 60)
        assert tr.positions[-1, 0] != free.positions[-1, 0]  # the forcing acts
        lines = ["t,x1,v1"]
        for k in range(tr.times.shape[0]):
            lines.append(",".join(_fmt(c) for c in (tr.times[k], tr.positions[k, 0],
                                                    tr.velocities[k, 0])))
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_forcing_outside_its_domain_is_1(self, tmp_path, capsys):
        path = self.write(tmp_path, "sqrt(x1)")
        code = main(["integrate", "--system", path, "--x0", "-1", "--v0", "0"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        # named as the kernel paths name it: the reason, the expression, the point
        assert captured.err == "error: sqrt: math domain error in sqrt(x1) at x1=-1.0, v1=0.0\n"

    def test_overflowing_forcing_is_blamed_on_the_forcing(self, tmp_path, capsys):
        path = self.write(tmp_path, "1e308*10*x1")
        code = main(["integrate", "--system", path, "--x0", "1", "--v0", "0", "--steps", "3"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == ("error: non-finite forcing value inf in ((1e+308*10.0)*x1) "
                                "at x1=1.0, v1=0.0\n")
