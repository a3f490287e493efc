"""Microseconds per RK4 step: the generated loop in Python and in C
against the existing one.

For the charged and the relativistic particle, each one's twin shifted
by its first configured gauge function chi, and the charged particle
under the forcing FORCING, one trajectory of --steps steps is
integrated three times per repeat:

  * python: integrate_trajectory, with the generated scalar loop
    (rk4loop.generate_step_source) in Python: each RK4 stage is the
    fused terms' straight-line body inlined, the forcing's values with
    them, and a constant velocity Hessian (the charged particle and its
    twin) is adjugated and guarded when the loop is generated;
  * native: the same call with the same loop in C
    (native.compile_step), which integrate_trajectory takes
    once an engine has been asked for dynamics.NATIVE_STEPS steps; this
    script sets that threshold to 0 for this column and beyond reach
    for the python column;
  * numpy: the same call with a callable forcing, zero or FORCING
    computed with math (by_hand), which always takes the existing numpy
    loop around the fused function: the oracle.

The table gives the best of --repeats for each, after one untimed run
that compiles (the C compiler's time is not in the native column).  The
script exits 1 if the native or the python trajectory differs from the
numpy one, or the two from each other, in a single bit of a position or
velocity, or if no C loop could be built; the test suite runs it with
--steps 50 --repeats 1 for that check.

Run:  PYTHONPATH=src python benchmarks/rk4_step.py [--steps N] [--repeats N]
"""
import argparse
import math
import sys
import time

import numpy as np

from avcalc import dynamics
from avcalc.dynamics import gauge_shift, integrate_trajectory
from avcalc.exprlang import parse
from avcalc.systems import bundled_system

# a drag in the plane of the orbit and a push along B
FORCING = tuple(map(parse, ("-0.1*v1", "-0.1*v2", "0.01*sin(x1)")))


def by_hand(x, v):
    """FORCING computed with math, for the numpy loop."""
    return np.array([-0.1 * v[0], -0.1 * v[1], 0.01 * math.sin(x[0])])


def cases():
    """(label, Lagrangian, x0, v0, t1, forcing): one Larmor period of the
    charged particle (|B| = 1), unforced and under FORCING, and one of
    the relativistic particle at |v0| = 0.4."""
    charged = bundled_system("charged")
    rel = bundled_system("relativistic")
    k = rel.constants
    speed = 0.4
    period_rel = 2.0 * math.pi / (k["q"] * k["b"] / k["m"]) / math.sqrt(1.0 - speed * speed)
    start = {
        "charged": (np.zeros(3), np.array([1.0, 0.0, 0.0]), 2.0 * math.pi),
        "relativistic": (np.zeros(2), np.array([speed, 0.0]), period_rel),
    }
    for system in (charged, rel):
        x0, v0, t1 = start[system.name]
        twin = gauge_shift(system.lagrangian, system.chis[0])
        yield system.name, system.lagrangian, x0, v0, t1, None
        yield f"{system.name} twin", twin, x0, v0, t1, None
    yield "charged forced", charged.lagrangian, *start["charged"], FORCING


def best_us_per_step(run, steps: int, repeats: int):
    """(best microseconds per step, trajectory) of `run` over `repeats`."""
    tr = run()  # compiles
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        tr = run()
        best = min(best, time.perf_counter() - t0)
    return 1e6 * best / steps, tr


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=1000, help="RK4 steps per trajectory")
    ap.add_argument("--repeats", type=int, default=7, help="timed runs; the best is reported")
    args = ap.parse_args()

    print(f"RK4 step, {args.steps} steps, best of {args.repeats} (us per step)")
    print(f"{'system':<20} {'python':>9} {'native':>9} {'numpy':>9} {'py/native':>10}  "
          "trajectories")
    identical = True
    for label, lam, x0, v0, t1, forcing in cases():
        n = x0.size

        def generated(threshold):
            def run():
                dynamics.NATIVE_STEPS = threshold
                return integrate_trajectory(lam, x0, v0, 0.0, t1, args.steps, forcing=forcing)
            return run

        def existing():
            return integrate_trajectory(lam, x0, v0, 0.0, t1, args.steps,
                                        forcing=by_hand if forcing else lambda x, v: np.zeros(n))

        python_us, python = best_us_per_step(generated(math.inf), args.steps, args.repeats)
        native_us, native = best_us_per_step(generated(0), args.steps, args.repeats)
        numpy_us, oracle = best_us_per_step(existing, args.steps, args.repeats)
        built = lam.engine(lam.atlas.charts[0].id, forcing or ()).native_rk4 is not None
        same = built and all(
            tr.positions.tobytes() == oracle.positions.tobytes()
            and tr.velocities.tobytes() == oracle.velocities.tobytes() for tr in (python, native))
        identical &= same
        verdict = "bit-identical" if same else ("DIFFER" if built else "NO C LOOP")
        print(f"{label:<20} {python_us:9.2f} {native_us:9.3f} {numpy_us:9.1f} "
              f"{python_us / native_us:9.1f}x  {verdict}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
