"""Milliseconds per action call: warm (the curve's node plan cached) and cold.

For the charged particle, the relativistic particle and the two-chart
circle, each on its configured curve at --panels panels, five rows are
timed:

  * quadrature: action_quadrature, composite Simpson;
  * lift:       action_lift, the RK4 lift on its own node rule;
  * derivative: variation_derivative, the central difference of two
                quadratures along gamma +- eps*w;
  * pairing:    variation_pairing, boundary terms plus the bulk <E, w>;
  * sequence:   the derivative, then the pairing, then the pairing of L
                shifted by the system's first gauge function, all on one
                field: the calls of an avbench action pass and of
                suites.variation_suite for one field;

with w an endpoint-vanishing variation field.  A field keeps its jets
on the last plan it was evaluated on (VariationField.jets), so each
timed call gets a fresh VariationField of the same expressions: its
kernels are cached, but its jets are evaluated.  Within the sequence
row the pairings read the jets the derivative evaluated.  A warm call
runs on the system's curve, whose node plan (geometry.NodePlan: nodes,
weights and the curve's jets) an untimed first call has built and
cached.  A cold call runs on a fresh CurveSpec of the same segments, so
it builds the plan again.  The table gives the best of --repeats for
each.

The last column checks bits.  A row reads "bit-identical" when its warm
call, its cold call and the same call on a field that already keeps its
jets on the warm plan all give the same bits.  The sequence row reads
"kept = fresh" when they also have the bits of its three calls each
made on a fresh field.  The script exits 1 if any check finds a single
bit different; the test suite runs it with --repeats 1 for that check.

Run:  PYTHONPATH=src python benchmarks/action_ops.py [--panels N] [--repeats N]
"""
import argparse
import math
import sys
import time

import numpy as np

from avcalc.action import (
    VariationField,
    action_lift,
    action_quadrature,
    variation_derivative,
    variation_pairing,
)
from avcalc.geometry import CurveSpec
from avcalc.systems import bundled_system

SYSTEMS = ("charged", "relativistic", "circle")
EPS = 1e-5


def anchored(s):
    """The floats of an AffineScalar: both fiber values and anchors."""
    return (s.plus.value, s.minus.value, *s.plus.base, *s.minus.base)


def operations(lam, shifted, panels):
    """(name, call(curve, w) -> floats) of the five timed rows; shifted
    is L shifted by a gauge function."""

    def sequence(c, w):
        return (variation_derivative(lam, c, w, EPS, panels),
                variation_pairing(lam, c, w, panels),
                variation_pairing(shifted, c, w, panels))

    return [
        ("quadrature", lambda c, w: anchored(action_quadrature(lam, c, panels))),
        ("lift", lambda c, w: anchored(action_lift(lam, c, panels))),
        ("derivative", lambda c, w: (variation_derivative(lam, c, w, EPS, panels),)),
        ("pairing", lambda c, w: (variation_pairing(lam, c, w, panels),)),
        ("sequence", sequence),
    ]


def vanishing_field(curve, dim: int) -> VariationField:
    """(t - a)(b - t) times a linear polynomial per coordinate."""
    a, b = curve.t_start, curve.t_end
    return VariationField.from_strings(
        [f"(t-({a!r}))*(({b!r})-t)*(0.2-{0.1 * (k + 1)!r}*t)" for k in range(dim)]
    )


def best_ms(call, repeats: int):
    """(best milliseconds over `repeats`, last result) of `call`."""
    best, out = math.inf, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = call()
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best, out


def same_bits(*results) -> bool:
    first = np.array(results[0]).tobytes()
    return all(np.array(r).tobytes() == first for r in results[1:])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--panels", type=int, default=1000, help="panels (and lift steps) per call")
    ap.add_argument("--repeats", type=int, default=7, help="timed runs; the best is reported")
    args = ap.parse_args()

    print(f"action calls, {args.panels} panels, best of {args.repeats} (ms per call)")
    print(f"{'system':<14} {'call':<11} {'warm':>8} {'cold':>8} {'ratio':>7}  bits")
    identical = True
    for name in SYSTEMS:
        system = bundled_system(name)
        lam, curve, p = system.lagrangian, system.curve, args.panels
        w = vanishing_field(curve, system.dim)

        def fresh():
            return VariationField(w.exprs)

        shifted = system.gauge_twin(system.chis[0])
        for label, op in operations(lam, shifted, p):
            kept = fresh()
            op(curve, kept)  # compiles, caches the plan and keeps kept's jets on it
            warm_ms, warm = best_ms(lambda: op(curve, fresh()), args.repeats)
            cold_ms, cold = best_ms(lambda: op(CurveSpec(curve.segments), fresh()), args.repeats)
            results, verdict = [warm, cold, op(curve, kept)], "bit-identical"
            if label == "sequence":  # against each call on a field of its own
                results.append((variation_derivative(lam, curve, fresh(), EPS, p),
                                variation_pairing(lam, curve, fresh(), p),
                                variation_pairing(shifted, curve, fresh(), p)))
                verdict = "kept = fresh"
            same = same_bits(*results)
            identical &= same
            print(f"{name:<14} {label:<11} {warm_ms:8.2f} {cold_ms:8.2f} {cold_ms / warm_ms:6.2f}x  "
                  f"{verdict if same else 'DIFFER'}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
