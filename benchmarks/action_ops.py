"""Milliseconds per action call: warm (the curve's node plan cached) and cold.

For the charged particle, the relativistic particle and the two-chart
circle, each on its configured curve at --panels panels, four calls are
timed:

  * quadrature: action_quadrature, composite Simpson;
  * lift:       action_lift, the RK4 lift on its own node rule;
  * derivative: variation_derivative, the central difference of two
                quadratures along gamma +- eps*w;
  * pairing:    variation_pairing, boundary terms plus the bulk <E, w>;

with w an endpoint-vanishing variation field.  A warm call runs on the
system's curve, whose node plan (geometry.NodePlan: nodes, weights and
the curve's jets) an untimed first call has built and cached.  A cold
call runs on a fresh CurveSpec of the same segments, so it builds the
plan again.  The table gives the best of --repeats for each.  The
script exits 1 if a warm and a cold call differ in a single bit of
their result; the test suite runs it with --repeats 1 for that check.

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


def operations(lam, w, panels):
    """(name, call(curve) -> floats) of the four timed calls."""
    return [
        ("quadrature", lambda c: anchored(action_quadrature(lam, c, panels))),
        ("lift", lambda c: anchored(action_lift(lam, c, panels))),
        ("derivative", lambda c: (variation_derivative(lam, c, w, EPS, panels),)),
        ("pairing", lambda c: (variation_pairing(lam, c, w, panels),)),
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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--panels", type=int, default=1000, help="panels (and lift steps) per call")
    ap.add_argument("--repeats", type=int, default=7, help="timed runs; the best is reported")
    args = ap.parse_args()

    print(f"action calls, {args.panels} panels, best of {args.repeats} (ms per call)")
    print(f"{'system':<14} {'call':<11} {'warm':>8} {'cold':>8} {'ratio':>7}  warm vs cold")
    identical = True
    for name in SYSTEMS:
        system = bundled_system(name)
        curve = system.curve
        w = vanishing_field(curve, system.dim)
        for label, op in operations(system.lagrangian, w, args.panels):
            op(curve)  # compiles and caches the plan
            warm_ms, warm = best_ms(lambda: op(curve), args.repeats)
            cold_ms, cold = best_ms(lambda: op(CurveSpec(curve.segments)), args.repeats)
            same = np.array(warm).tobytes() == np.array(cold).tobytes()
            identical &= same
            print(f"{name:<14} {label:<11} {warm_ms:8.2f} {cold_ms:8.2f} {cold_ms / warm_ms:6.2f}x  "
                  f"{'bit-identical' if same else 'DIFFER'}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
