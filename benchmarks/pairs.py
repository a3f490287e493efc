"""Alternating pairs of avbench runs on two checkouts.

For each workload asked, one after the other, and each seed, runs the
workload on checkout A and on checkout B, each
run as record.py runs it (record.run_workload: its own process, untraced,
PYTHONDONTWRITEBYTECODE=1, after the __pycache__ directories of both
checkouts are removed).  The first pair runs A first, the next B first,
and so on, so that the machine's drift falls on both sides.  Prints per
pair the gated metrics of both runs and their ratio B / A, then per
metric the number of pairs in which B is better (by BENCHMARK.json's
direction; an equal value is not better), the median ratio and the
ratios' range, and the failed and attempted operations of each
checkout: one summary block per workload, printed once its pairs are
done, so that one command gives a claimed workload and those that must
not move.

Passing the same checkout as A and B gives an A/A run: its ratios show
the workload's noise band, against which an A/B median is read.

Run:  python benchmarks/pairs.py A B --workload gauge_scan [orbit ...] [--seeds 1 2 3] [--seconds 18]
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

import compare
import record


def run_pairs(trees, workload: str, seeds, seconds: float, runner=None, report=None) -> list:
    """[(run of A, run of B)] per seed, A first in the 1st, 3rd, ...
    pair and B first in the others; runner(tree, workload, seed,
    seconds) makes one run (by default record.run_workload), and
    report(i, pair) is called after each pair."""
    runner = runner or record.run_workload
    pairs = []
    for i, seed in enumerate(seeds):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        runs = {side: runner(trees[side], workload, seed, seconds) for side in order}
        pairs.append((runs[0], runs[1]))
        if report is not None:
            report(i, pairs[-1])
    return pairs


def summarize(pairs, better: dict) -> dict:
    """Per metric the ratios B / A, the pairs in which B is better and
    the median ratio; and the failed and attempted operations of each
    side summed over the pairs."""
    out = {"metrics": {}, "failed": [0, 0], "attempted": [0, 0]}
    for metric in record.METRICS:
        ratios = [b["metrics"][metric] / a["metrics"][metric] for a, b in pairs]
        up = better.get(metric, "higher") == "higher"
        out["metrics"][metric] = {
            "ratios": ratios,
            "better": sum(r > 1.0 if up else r < 1.0 for r in ratios),
            "median": statistics.median(ratios),
        }
    for pair in pairs:
        for side, run in enumerate(pair):
            out["failed"][side] += run["failed"]
            out["attempted"][side] += run["attempted"]
    return out


def pair_line(i: int, pair) -> str:
    a, b = pair
    cells = [f"{m} {a['metrics'][m]:.6g} -> {b['metrics'][m]:.6g} "
             f"({b['metrics'][m] / a['metrics'][m]:.3f})" for m in record.METRICS]
    return f"pair {i + 1} seed {a['seed']} {'AB' if i % 2 == 0 else 'BA'}  " + "  ".join(cells)


def summary_lines(summary: dict) -> list:
    lines = []
    for metric, s in summary["metrics"].items():
        lines.append(f"{metric:<16} B better in {s['better']}/{len(s['ratios'])} pairs, "
                     f"median ratio {s['median']:.3f} "
                     f"(range {min(s['ratios']):.3f}-{max(s['ratios']):.3f})")
    (fa, fb), (na, nb) = summary["failed"], summary["attempted"]
    lines.append(f"failed A {fa}/{na}  B {fb}/{nb}")
    return lines


def main(argv=None) -> int:
    spec = json.loads((record.ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path, help="checkout A, the baseline")
    ap.add_argument("b", type=Path, help="checkout B; the ratios are B / A")
    ap.add_argument("--workload", required=True, nargs="+",
                    choices=[w["name"] for w in spec["workloads"]], help="one or more workloads")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5, 6],
                    help="one pair per seed")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="seconds per run")
    args = ap.parse_args(argv)
    trees = (args.a.resolve(), args.b.resolve())
    for tree in set(trees):
        record.remove_bytecode(tree)
    print(f"A {trees[0]}\nB {trees[1]}\n{args.seconds:g} s per run")
    for workload in args.workload:
        print(f"\n{workload}", flush=True)
        pairs = run_pairs(trees, workload, args.seeds, args.seconds,
                          report=lambda i, pair: print(pair_line(i, pair), flush=True))
        for line in summary_lines(summarize(pairs, compare.directions())):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
