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
the wall time of `avcalc check-all`, best of 3 runs, with the number
of its PASS lines, a hash of its output and each run's exit status;
a failed run leaves no best time.

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
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("norm_work_per_s", "peak_rss_mb", "setup_s")
SEEDS = (1, 2, 3, 4, 5)
CHECK_ALL = "import sys; from avcalc.cli import main; sys.exit(main(['check-all']))"


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


def check_all(tree: Path, runs: int) -> dict:
    """Wall seconds and exit status of `avcalc check-all` per run, its
    PASS lines and the hash of its output (which must not differ between
    runs).  best_s is None unless every run exited with status 0."""
    walls, codes, outputs = [], [], set()
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", CHECK_ALL], cwd=tree, env=child_env(tree),
                              capture_output=True, text=True)
        walls.append(time.perf_counter() - t0)
        codes.append(proc.returncode)
        outputs.add(proc.stdout)
    text = outputs.pop() if len(outputs) == 1 else ""
    return {
        "best_s": min(walls) if not any(codes) else None,
        "wall_s": walls,
        "returncodes": codes,
        "pass_lines": sum("PASS" in line for line in text.splitlines()),
        "output_sha256": hashlib.sha256(text.encode()).hexdigest() if text else None,
        "identical_runs": not outputs,
    }


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
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
