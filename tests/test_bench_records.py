"""benchmarks/record.py summaries and benchmarks/compare.py flags, on
synthetic records."""
import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


record = load("record")
compare = load("compare")


def run(work, rss, setup, failed=0):
    return {"metrics": {"norm_work_per_s": work, "peak_rss_mb": rss, "setup_s": setup},
            "attempted": 100, "failed": failed, "machine_speed": 1.0}


def bench(sha, workloads):
    return {"tree": {"sha": sha}, "check_all": {"best_s": 2.0, "pass_lines": 107,
                                                "output_sha256": "x"},
            "workloads": {name: record.summarize(runs) for name, runs in workloads.items()}}


def test_quartiles():
    q = record.quartiles([5.0, 1.0, 3.0, 2.0, 4.0])
    assert (q["median"], q["q1"], q["q3"], q["iqr"], q["n"]) == (3.0, 2.0, 4.0, 2.0, 5)
    assert record.quartiles([7.0])["iqr"] == 0.0


def test_summarize_counts_failures():
    s = record.summarize([run(1.0, 40.0, 0.2), run(2.0, 41.0, 0.3, failed=2)])
    assert (s["attempted"], s["failed"]) == (200, 2)
    assert s["metrics"]["norm_work_per_s"]["median"] == 1.5


OLD = bench("old", {
    "gauge_scan": [run(w, 43.0 + d, 0.20 + d / 100) for w, d in
                   [(120.0, 0.0), (125.0, 0.1), (130.0, 0.2), (128.0, 0.1), (122.0, 0.0)]],
    "orbit": [run(w, 43.0, 0.20) for w in (100e3, 101e3, 99e3, 100.5e3, 99.5e3)],
})
NEW = bench("new", {
    # gauge_scan throughput up by far more than the old IQR (6), memory
    # up by more than its IQR (0.1): both flagged
    "gauge_scan": [run(w, 44.0, 0.2005) for w in (160.0, 170.0, 165.0, 168.0, 162.0)],
    # orbit moves within the old runs' spread: not flagged
    "orbit": [run(w, 43.0, 0.20) for w in (100.2e3, 100.4e3, 99.8e3, 100.1e3, 100.3e3)],
})


def test_flags_moves_beyond_the_old_iqr():
    rows = {(w, m): (ratio, flag) for w, m, _a, _b, ratio, flag in
            compare.compare(OLD, NEW, compare.directions())}
    assert rows[("gauge_scan", "norm_work_per_s")] == (165.0 / 125.0, "better")
    assert rows[("gauge_scan", "peak_rss_mb")][1] == "WORSE"
    assert rows[("gauge_scan", "setup_s")][1] == "-"
    assert {rows[("orbit", m)][1] for m in record.METRICS} == {"-"}


def test_command_line(tmp_path):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(OLD))
    new.write_text(json.dumps(NEW))
    out = subprocess.run([sys.executable, str(BENCHMARKS / "compare.py"), str(old), str(new)],
                         capture_output=True, text=True, check=True).stdout
    assert "gauge_scan   norm_work_per_s" in out and "better" in out and "WORSE" in out
    assert "output identical" in out


def test_failed_check_all_has_no_best_time(tmp_path, capsys):
    # a checkout whose check-all prints PASS lines but exits 1
    package = tmp_path / "src" / "avcalc"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("def main(argv):\n    print('PASS a')\n    return 1\n")
    checks = record.check_all(tmp_path, 2)
    assert checks["returncodes"] == [1, 1] and checks["best_s"] is None
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(OLD))
    new.write_text(json.dumps({**NEW, "check_all": checks}))
    assert compare.main([str(old), str(new)]) == 0
    out = capsys.readouterr().out
    assert "check-all    FAILED: exit status None -> [1, 1]" in out


def test_long_orbit_hashes_its_csv(tmp_path):
    # a checkout whose integrate writes its arguments as the CSV
    package = tmp_path / "src" / "avcalc"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        "def main(argv):\n"
        "    with open(argv[argv.index('--output') + 1], 'w') as fh:\n"
        "        fh.write(' '.join(argv[:-2]))\n"
        "    return 0\n")
    orbit = record.long_orbit(tmp_path, 2)
    text = " ".join(record.ORBIT)
    assert orbit["returncodes"] == [0, 0] and orbit["best_s"] == min(orbit["wall_s"])
    assert orbit["output_sha256"] == hashlib.sha256(text.encode()).hexdigest()
    assert "--steps 62832" in text and "--t1 6.283185307179586" in text


def orbit(best_s):
    return {"best_s": best_s, "returncodes": [0, 0, 0], "output_sha256": "y"}


def test_long_orbit_ratio_only_when_both_records_have_it(tmp_path):
    paths = {name: tmp_path / f"{name}.json" for name in ("plain", "old", "new")}
    paths["plain"].write_text(json.dumps(OLD))  # as records before the long orbit
    paths["old"].write_text(json.dumps({**OLD, "long_orbit": orbit(0.8)}))
    paths["new"].write_text(json.dumps({**NEW, "long_orbit": orbit(0.6)}))

    def out(old, new):
        return subprocess.run([sys.executable, str(BENCHMARKS / "compare.py"), str(paths[old]),
                               str(paths[new])], capture_output=True, text=True, check=True).stdout

    assert "long orbit   best 0.800 s -> 0.600 s (0.750), output identical" in out("old", "new")
    assert "long orbit" not in out("plain", "new")
    assert "check-all    best 2.000 s -> 2.000 s" in out("plain", "new")


@pytest.mark.parametrize("args", [[], ["only-one.json"], ["missing.json", "missing.json"]])
def test_bad_arguments(args):
    assert compare.main(args) == 2
