"""Layered benchmark for avcalc.

    python3 avbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the program is
imported from its ``src/`` directory.  Each workload (see workloads.py)
is a closed loop of one client in one process.

--trace 0 measures the end-to-end metrics with tracing off.  Every
metric is reported on every workload, so the names are generic; each
workload's ``aliases`` give the specific name (work_per_s is
rk4_steps_per_s on orbit, nodes_per_s on action):
  norm_work_per_s  work units completed per second of operation time,
               at reference machine speed (see reference.py); the unit
               is the workload's (RK4 steps, integrand nodes, chi
               checks, kernel probes);
  peak_rss_mb  peak resident memory of the measuring process after the
               workload's fixed number of passes (RSS_PASSES);
  setup_s      median over SETUP_SAMPLES fresh processes, started
               between passes of the measurement, of the time from
               process start to "first operation ready" (imports,
               load_config, parses, first compiles), at reference
               machine speed: times the run's mean machine speed.
Printed and written to the report but not gated: work_per_s and
setup_wall_s, the same figures in wall-clock time, and the machine
speed that relates them; operation latency, as the median op_ms_p50 and the highest of the
75th, 90th and 99th percentiles that has at least ten operations
beyond it (check_ms_p50 and check_ms_p90 on gauge_scan).  Wall-clock
throughput and latency follow the speed of a small shared machine,
which drifts by tens of percent over seconds to minutes.
--trace 1 gives the per-layer metrics: a traced phase (set-up plus
half of the seconds) followed by an untraced phase (the other half),
whose throughput ratio at reference speed is trace.overhead.

Standard output ends with one JSON line: correct, attempted, failed,
metrics.  A report with the machine, versions, backends and every
metric, and in traced runs the spans, is written under
avbench/results/.  Exit status 0 when a result was printed, 2 when the
checkout holds no avcalc sources.

The kernel backend is the one AVCALC_BACKEND selects, and the header
line says which backends are importable.  To compare backends, run a
workload once per backend, e.g.
``AVCALC_BACKEND=numpy python3 avbench/run.py --workload orbit ...``.
"""
from __future__ import annotations

import os
import sys
import time

_T_START = time.perf_counter()

# One thread for the measured process, before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 60
UNTRACED_SEED_OFFSET = 7919
END_TO_END = {  # name -> unit, in BENCHMARK.json order
    "norm_work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def fail(message: str) -> None:
    print(f"avbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    if not os.path.isfile(os.path.join(SRC, "avcalc", "__init__.py")):
        fail(f"no avcalc sources under {SRC}")
    if not os.path.isdir(os.path.join(ROOT, "configs")):
        fail(f"no configs/ directory under {ROOT}")
    sys.path[:0] = [SRC, HERE]
    import workloads  # noqa: F401  (imports numpy and avcalc)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def machine_info() -> dict:
    import numpy as np
    from avcalc import kernels

    def cache_bytes(level):
        base = "/sys/devices/system/cpu/cpu0/cache"
        try:
            for index in sorted(os.listdir(base)):
                with open(os.path.join(base, index, "level"), encoding="utf-8") as fh:
                    if int(fh.read()) != level:
                        continue
                with open(os.path.join(base, index, "size"), encoding="utf-8") as fh:
                    size = fh.read().strip()
                scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1:], 1)
                return int(size.rstrip("KM")) * scale
        except (OSError, ValueError):
            pass
        return None

    model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    available = [b for b in kernels.BACKENDS if b != "numba" or kernels._HAVE_NUMBA]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2_bytes": cache_bytes(2),
        "l3_bytes": cache_bytes(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backends_all": list(kernels.BACKENDS),
        "backends_available": available,
        "AVCALC_BACKEND": os.environ.get("AVCALC_BACKEND"),
        "backend_selected": kernels.default_backend(),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                 "MKL_NUM_THREADS")},
        "git_sha": sha,
    }


def setup_sample(workload: str, seed: int) -> float:
    """Set-up time of one fresh process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def run_pass(workload, log) -> None:
    """One pass; an exception outside an operation counts as one failed
    operation."""
    from workloads import OpFailed

    try:
        workload.run_pass(log)
    except OpFailed:
        pass
    except Exception as exc:
        log.attempted += 1
        log.failed += 1
        log.failures.append(f"{type(exc).__name__}: {exc}")


def measure(workload, seconds: float, tracer=None):
    """Run whole passes until `seconds` of wall time have passed."""
    from reference import SpeedMeter
    from workloads import OpLog

    log = OpLog(tracer, SpeedMeter())
    passes = 0
    deadline = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < deadline:
        run_pass(workload, log)
        passes += 1
    return log, passes


def latency_ms(times) -> dict:
    """op_ms_p50, and the highest of p75/p90/p99 with at least ten
    operations beyond it."""
    import numpy as np

    if not times:
        return {}
    out = {"op_ms_p50": 1e3 * float(np.percentile(times, 50))}
    q = next((q for q in (99, 90, 75) if len(times) * (100 - q) >= 1000), None)
    if q is not None:
        out[f"op_ms_p{q}"] = 1e3 * float(np.percentile(times, q))
    return out


def end_to_end(wl_cls, seed: int, seconds: float):
    from reference import SpeedMeter
    from workloads import OpLog

    wl = wl_cls(seed)
    wl.setup()
    # Set-up samples are taken between passes, spread over the
    # measurement, so that both see the same mix of machine states.
    # Only pass time counts towards `seconds`.
    log, passes, busy, setups, rss_kb = OpLog(meter=SpeedMeter()), 0, 0.0, [], 0
    while busy < seconds or passes < wl.RSS_PASSES:
        if len(setups) < SETUP_SAMPLES and busy >= len(setups) * seconds / SETUP_SAMPLES:
            log.meter.close()  # keep each slice next to its reference times
            setups.append(setup_sample(wl_cls.name, seed + len(setups)))
        t0 = time.perf_counter()
        run_pass(wl, log)
        busy += time.perf_counter() - t0
        passes += 1
        if passes == wl.RSS_PASSES:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(wl_cls.name, seed + len(setups)))

    setup_wall_s = statistics.median(setups)
    values = {
        "norm_work_per_s": log.norm_rate(),
        "peak_rss_mb": rss_kb / 1024.0,
        "setup_s": setup_wall_s * log.meter.speed(),
    }
    samples = {"peak_rss_mb": 1, "setup_s": len(setups)}
    metrics = {name: (values[name], unit, samples.get(name, len(log.times)))
               for name, unit in END_TO_END.items()}
    detail = {
        "passes": passes,
        "rss_passes": wl.RSS_PASSES,
        "aliases": wl_cls.aliases,
        "work_per_s": log.rate(),
        "machine_speed": log.meter.speed(),
        "latency_ms": latency_ms(log.times),
        "setup_wall_s": setup_wall_s,
        "setup_wall_samples_s": setups,
        "fail_ratio": log.failed / log.attempted if log.attempted else 1.0,
    }
    if hasattr(wl, "working_set_bytes"):
        detail["working_set_bytes"] = wl.working_set_bytes()
    return log, metrics, detail


def per_layer(wl_cls, seed: int, seconds: float):
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl = wl_cls(seed)
        wl.setup()
        after_setup = tracer.counters.copy()
        log, passes = measure(wl, seconds / 2.0, tracer)
    finally:
        tracer.uninstall()
    # other inputs for the untraced phase: repeating the traced ones would
    # hit the kernel cache the traced phase filled
    wl = wl_cls(seed + UNTRACED_SEED_OFFSET)
    wl.setup()
    plain, _ = measure(wl, seconds / 2.0)
    plain_rate = plain.norm_rate()
    overhead = log.norm_rate() / plain_rate if plain_rate else 0.0
    values = tracing.layer_metrics(tracer, tracer.counters.minus(after_setup), passes, overhead)
    units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
    metrics = {k: (v, units[k], passes) for k, v in values.items()}
    log.attempted += plain.attempted
    log.failed += plain.failed
    log.failures += plain.failures
    detail = {"passes": passes, "spans_recorded": len(tracer.spans),
              "spans_dropped": tracer.dropped}
    return log, metrics, detail, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="avcalc layered benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload '{args.workload}' (have {', '.join(WORKLOADS)})")
    wl_cls = WORKLOADS[args.workload]
    if args.setup_only:
        wl_cls(args.seed).setup()
        print(f"setup_s {time.perf_counter() - _T_START!r}")
        return 0

    spec = load_spec()
    machine = machine_info()
    if args.trace:
        log, metrics, detail, tracer = per_layer(wl_cls, args.seed, args.seconds)
    else:
        log, metrics, detail = end_to_end(wl_cls, args.seed, args.seconds)
        tracer = None

    print(f"workload {wl_cls.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  backend {machine['backend_selected']} "
          f"(AVCALC_BACKEND={machine['AVCALC_BACKEND']})")
    print("  backends: " + "; ".join(
        f"{b}: {'available' if b in machine['backends_available'] else 'unavailable'}"
        for b in machine["backends_all"]))
    print("  " + next(w["why"] for w in spec["workloads"] if w["name"] == wl_cls.name))
    rows = [(name, value, unit, f"n={n}") for name, (value, unit, n) in metrics.items()]
    if not args.trace:
        ungated = f"n={len(log.times)}, not gated"
        rows += [("work_per_s", detail["work_per_s"], "1/s", ungated),
                 ("setup_wall_s", detail["setup_wall_s"], "s",
                  f"n={SETUP_SAMPLES}, not gated"),
                 ("machine_speed", detail["machine_speed"], "1", ungated)]
        rows += [(name, value, "ms", ungated) for name, value in detail["latency_ms"].items()]
    aliases = {} if args.trace else dict(wl_cls.aliases)
    if "work_per_s" in aliases:
        aliases["norm_work_per_s"] = aliases["work_per_s"] + " at reference speed"
    for name, value, unit, note in rows:
        alias = f"  = {aliases[name]}" if name in aliases else ""
        print(f"  {name:<36} {value:>14.6g} {unit:<6} ({note}){alias}")
    if "working_set_bytes" in detail:
        print(f"  computed kernel working set {detail['working_set_bytes']} B, "
              f"L2 {machine['l2_bytes']} B")
    print(f"  {'fail_ratio':<36} {log.failed / max(log.attempted, 1):>14.6g} 1      "
          f"({log.failed}/{log.attempted} operations failed)")
    for line in log.failures[:5]:
        print(f"  FAILED: {line.strip()}")

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{wl_cls.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({
            "workload": wl_cls.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine, "detail": detail,
            "attempted": log.attempted, "failed": log.failed, "failures": log.failures,
            "metrics": {k: {"value": v, "unit": u, "samples": n}
                        for k, (v, u, n) in metrics.items()},
        }, fh, indent=1)
    if tracer is not None:
        tracer.write(stem + ".spans.json")

    print(json.dumps({
        "correct": log.failed == 0 and log.attempted > 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _n) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
