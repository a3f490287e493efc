"""Compare two BENCH_<pr>.json records of benchmarks/record.py.

For every workload in both and every gated metric, prints the medians,
the ratio NEW / OLD and a flag when the median moved by more than the
older record's interquartile range (IQR): "better" or "WORSE" by the
metric's direction in BENCHMARK.json, else "-" (within the older runs'
own spread).  Failed operation counts are printed beside them, and the
best wall time with its ratio of check-all and, when both records have
it, of the long orbit, or FAILED when a run of either record exited
non-zero.  A flag is a move to look at, not a verdict: the gates are
avbench's own bounds and pair counts.

Run:  python benchmarks/compare.py OLD.json NEW.json
Exit status 0, or 2 when a file cannot be read.
"""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def directions() -> dict:
    """metric -> "higher" or "lower", the better direction."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def compare(old: dict, new: dict, better: dict) -> list:
    """(workload, metric, old median, new median, ratio, flag) for every
    workload and metric in both records."""
    rows = []
    for workload, before in old["workloads"].items():
        after = new["workloads"].get(workload)
        if after is None:
            continue
        for metric, a in before["metrics"].items():
            b = after["metrics"].get(metric)
            if b is None:
                continue
            move = b["median"] - a["median"]
            flag = "-"
            if abs(move) > a["iqr"]:
                up = move > 0
                flag = "better" if up == (better.get(metric, "higher") == "higher") else "WORSE"
            ratio = b["median"] / a["median"] if a["median"] else float("nan")
            rows.append((workload, metric, a["median"], b["median"], ratio, flag))
    return rows


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-2], file=sys.stderr)
        return 2
    try:
        old, new = (json.loads(Path(p).read_text()) for p in argv)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"old {argv[0]}: {old['tree']['sha'][:12]}  new {argv[1]}: {new['tree']['sha'][:12]}")
    print(f"{'workload':<12} {'metric':<16} {'old':>12} {'new':>12} {'new/old':>8}  flag")
    for workload, metric, a, b, ratio, flag in compare(old, new, directions()):
        print(f"{workload:<12} {metric:<16} {a:12.6g} {b:12.6g} {ratio:8.3f}  {flag}")
    for workload, before in old["workloads"].items():
        after = new["workloads"].get(workload)
        if after is not None:
            print(f"{workload:<12} failed {before['failed']}/{before['attempted']}"
                  f" -> {after['failed']}/{after['attempted']}")
    for key, label in (("check_all", "check-all"), ("long_orbit", "long orbit")):
        a, b = old.get(key), new.get(key)
        if a and b:
            print(command_line(label, a, b))
    return 0


def command_line(label: str, a: dict, b: dict) -> str:
    """The best wall times of one command in two records, their ratio and
    whether the outputs agree (and check-all's PASS lines)."""
    if a["best_s"] is None or b["best_s"] is None:
        return f"{label:<12} FAILED: exit status {a.get('returncodes')} -> {b.get('returncodes')}"
    same = a["output_sha256"] == b["output_sha256"]
    passes = (f" PASS lines {a['pass_lines']} -> {b['pass_lines']},"
              if "pass_lines" in a and "pass_lines" in b else "")
    return (f"{label:<12} best {a['best_s']:.3f} s -> {b['best_s']:.3f} s"
            f" ({b['best_s'] / a['best_s']:.3f}),{passes}"
            f" output {'identical' if same else 'DIFFERS'}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
