"""Microseconds per RK4 step: the generated loop against the existing one.

For the charged and the relativistic particle, and each one's twin
shifted by its first configured gauge function chi, one trajectory of
--steps steps is integrated twice per repeat:

  * generated: integrate_trajectory without forcing, which takes the
    generated scalar loop (kernels.generate_step_source) for n <= 3:
    each RK4 stage is the fused terms' straight-line body inlined, and
    a constant velocity Hessian (the charged particle and its twin) is
    adjugated and guarded when the loop is generated;
  * existing:  the same call with a callable zero forcing, which always
    takes the existing numpy loop around the fused function: the oracle.

The table gives the best of --repeats for each, after one untimed run
that compiles.  The script exits 1 if the two trajectories differ in a
single bit of a position or velocity; the test suite runs it with
--steps 50 --repeats 1 for that check.

Run:  PYTHONPATH=src python benchmarks/rk4_step.py [--steps N] [--repeats N]
"""
import argparse
import math
import sys
import time

import numpy as np

from avcalc.dynamics import gauge_shift, integrate_trajectory
from avcalc.systems import bundled_system


def cases():
    """(label, Lagrangian, x0, v0, t1): one Larmor period of the charged
    particle (|B| = 1) and one of the relativistic particle at |v0| = 0.4."""
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
        yield system.name, system.lagrangian, x0, v0, t1
        yield f"{system.name} twin", gauge_shift(system.lagrangian, system.chis[0]), x0, v0, t1


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
    print(f"{'system':<20} {'generated':>10} {'existing':>10} {'ratio':>7}  trajectories")
    identical = True
    for label, lam, x0, v0, t1 in cases():
        n = x0.size

        def generated():
            return integrate_trajectory(lam, x0, v0, 0.0, t1, args.steps)

        def existing():
            return integrate_trajectory(lam, x0, v0, 0.0, t1, args.steps,
                                        forcing=lambda x, v: np.zeros(n))

        fast_us, fast = best_us_per_step(generated, args.steps, args.repeats)
        slow_us, slow = best_us_per_step(existing, args.steps, args.repeats)
        same = (fast.positions.tobytes() == slow.positions.tobytes()
                and fast.velocities.tobytes() == slow.velocities.tobytes())
        identical &= same
        print(f"{label:<20} {fast_us:10.1f} {slow_us:10.1f} {slow_us / fast_us:6.2f}x  "
              f"{'bit-identical' if same else 'DIFFER'}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
