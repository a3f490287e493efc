"""Record the end-to-end benchmark of one checkout as BENCH_<pr>.json.

Runs every workload of BENCHMARK.json untraced, as its own process
(python3 avbench/run.py --workload W --seed S --seconds T --trace 0)
at BENCHMARK.json's run_seconds, on each of SEEDS, seed by seed so that
the machine's drift spreads over every workload, and records per
workload:

  * each run's gated metrics (norm_work_per_s, peak_rss_mb, setup_s),
    attempted and failed operation counts and machine speed;
  * per metric the median, the quartiles and their distance (IQR)
    over the runs;
  * the attempted and failed counts summed over the runs.

With them go the machine (nproc, machine speed of every run), the
Python and numpy versions, the checkout's git SHA and whether its
tracked files differ from it, a hash of the measured program files, and
three end-to-end commands, each the best wall time of 3 runs with each
run's exit status and a hash of its output (a failed run leaves no best
time): `avcalc check-all`, with the number of its PASS lines; a long
orbit, `avcalc integrate` of the charged particle over one Lorentz
period in ORBIT_STEPS steps, hashed by the CSV it writes; and the same
orbit under the forcing FORCING, whose config is the checkout's
configs/charged.cfg with that section appended.

Every process starts from the same bytecode state: __pycache__
directories under the checkout's src/ and avbench/ are removed first
and PYTHONDONTWRITEBYTECODE=1 is set, since a checkout holding them
sets up about 20 % faster.  At 18 s a run takes about 25 s, so the
5 seeds of 5 workloads take about 11 minutes.

Run:  python benchmarks/record.py --out BENCH_14.json [--tree CHECKOUT]
Compare two records with benchmarks/compare.py.
"""
import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("norm_work_per_s", "peak_rss_mb", "setup_s")
SEEDS = (1, 2, 3, 4, 5)
CLI = "import sys; from avcalc.cli import main; sys.exit(main(sys.argv[1:]))"
ORBIT_STEPS = 62832  # one period 2*pi at h of about 1e-4, as suites.lorentz_suite takes it
ORBIT = ["integrate", "--system", "charged", "--x0", "0,0,0", "--v0", "1,0,0",
         "--t1", repr(2.0 * math.pi), "--steps", str(ORBIT_STEPS)]
# a drag in the plane of the orbit and a push along B
FORCING = '\n[forcing]\nf1 = "-0.1*v1"\nf2 = "-0.1*v2"\nf3 = "0.01*sin(x1)"\n'


def quartiles(values) -> dict:
    """Median, first and third quartile and their distance of `values`
    (at least one), quartiles by linear interpolation."""
    values = sorted(values)
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def summarize(runs) -> dict:
    """Per-metric quartiles, summed operation counts and machine speed
    quartiles of one workload's runs (dicts with "metrics", "attempted",
    "failed" and "machine_speed")."""
    speeds = [r["machine_speed"] for r in runs if r.get("machine_speed") is not None]
    return {
        "metrics": {m: quartiles([r["metrics"][m] for r in runs]) for m in METRICS},
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "machine_speed": quartiles(speeds) if speeds else None,
    }


def child_env(tree: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = str(tree / "src")
    return env


def remove_bytecode(tree: Path) -> None:
    for top in ("src", "avbench"):
        for cache in sorted((tree / top).rglob("__pycache__")):
            shutil.rmtree(cache)


def run_workload(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One avbench run: its final JSON line and its machine speed."""
    proc = subprocess.run(
        [sys.executable, "avbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        cwd=tree, env=child_env(tree), capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    speed = re.search(r"^\s+machine_speed\s+(\S+)", proc.stdout, re.MULTILINE)
    return {
        "seed": seed,
        "metrics": {m: result["metrics"][m]["value"] for m in METRICS},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "machine_speed": float(speed.group(1)) if speed else None,
    }


def time_cli(tree: Path, argv, runs: int, output: Path = None):
    """Wall seconds and exit status of `avcalc argv` per run, and the hash
    of its output, which is its stdout, or with `output` the file it
    writes there (which must not differ between runs).  best_s is None
    unless every run exited with status 0.  Returns the record and the
    output's text."""
    walls, codes, outputs = [], [], set()
    for _ in range(runs):
        if output is not None:
            output.unlink(missing_ok=True)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", CLI, *argv], cwd=tree, env=child_env(tree),
                              capture_output=True, text=True)
        walls.append(time.perf_counter() - t0)
        codes.append(proc.returncode)
        if output is None:
            outputs.add(proc.stdout)
        else:
            outputs.add(output.read_text() if output.exists() else "")
    text = outputs.pop() if len(outputs) == 1 else ""
    return {
        "best_s": min(walls) if not any(codes) else None,
        "wall_s": walls,
        "returncodes": codes,
        "output_sha256": hashlib.sha256(text.encode()).hexdigest() if text else None,
        "identical_runs": not outputs,
    }, text


def check_all(tree: Path, runs: int) -> dict:
    """time_cli of `avcalc check-all`, with its PASS lines."""
    record, text = time_cli(tree, ["check-all"], runs)
    return {**record, "pass_lines": sum("PASS" in line for line in text.splitlines())}


def long_orbit(tree: Path, runs: int, forcing: str = "") -> dict:
    """time_cli of the long orbit ORBIT, hashed by the CSV it writes;
    with a [forcing] section, of the charged config with it appended,
    written to a temporary file."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = list(ORBIT)
        if forcing:
            config = Path(tmp) / "forced.cfg"
            config.write_text((tree / "configs" / "charged.cfg").read_text() + forcing)
            argv[argv.index("charged")] = str(config)
        csv = Path(tmp) / "orbit.csv"
        return time_cli(tree, [*argv, "--output", str(csv)], runs, csv)[0]


def git(tree: Path, *args) -> str:
    proc = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def program_hash(tree: Path) -> str:
    """sha256 over the paths and contents of the measured program files."""
    h = hashlib.sha256()
    for top in ("src", "avbench"):
        for path in sorted((tree / top).rglob("*.py")):
            h.update(str(path.relative_to(tree)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="the JSON file to write")
    ap.add_argument("--tree", type=Path, default=ROOT, help="the checkout to measure")
    args = ap.parse_args()
    tree = args.tree.resolve()
    workloads = [w["name"] for w in spec["workloads"]]

    remove_bytecode(tree)
    runs = {w: [] for w in workloads}
    for seed in SEEDS:
        for workload in workloads:
            run = run_workload(tree, workload, seed, spec["run_seconds"])
            runs[workload].append(run)
            print(f"{workload:<12} seed {seed}  " + "  ".join(
                f"{m} {run['metrics'][m]:.6g}" for m in METRICS)
                + f"  failed {run['failed']}/{run['attempted']}", flush=True)
    remove_bytecode(tree)
    checks = check_all(tree, 3)
    if checks["best_s"] is None:
        print(f"check-all    FAILED, exit status {checks['returncodes']}")
    else:
        print(f"check-all    best {checks['best_s']:.3f} s, {checks['pass_lines']} PASS lines")
    orbits = {"long_orbit": long_orbit(tree, 3), "forced_orbit": long_orbit(tree, 3, FORCING)}
    for key, orbit in orbits.items():
        label = key.replace("_", " ")
        if orbit["best_s"] is None:
            print(f"{label:<12} FAILED, exit status {orbit['returncodes']}")
        else:
            print(f"{label:<12} best {orbit['best_s']:.3f} s, "
                  f"CSV sha256 {orbit['output_sha256'][:12]}")
    record = {
        "tree": {"sha": git(tree, "rev-parse", "HEAD"),
                 "dirty": bool(git(tree, "status", "--porcelain", "--untracked-files=no")),
                 "program_sha256": program_hash(tree)},
        "machine": {"nproc": os.cpu_count(), "platform": platform.platform(),
                    "python": platform.python_version(), "numpy": numpy.__version__},
        "settings": {"seconds": spec["run_seconds"], "seeds": list(SEEDS),
                     "PYTHONDONTWRITEBYTECODE": "1"},
        "workloads": {w: {**summarize(r), "runs": r} for w, r in runs.items()},
        "check_all": checks,
        **orbits,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
