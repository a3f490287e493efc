"""Compare the numba and numpy kernel backends.

Two workloads:
  * trajectory integration (one call of the fused acceleration-terms
    function per RK4 stage: @njit compiled under numba, plain Python
    under numpy);
  * one large batched kernel evaluation -- where vectorized numpy is
    already competitive.

Only backends that import are timed; a missing one is reported as
"<backend>: unavailable" in place of its rows and the speed-up line.

Run:  python benchmarks/benchmark_backends.py [--steps N] [--batch N]
"""
import argparse
import time

import numpy as np

from avcalc.dynamics import integrate_trajectory
from avcalc.errors import BackendUnavailableError
from avcalc.exprlang import parse
from avcalc.kernels import BACKENDS, compile_field, eval_batch
from avcalc.systems import charged_particle


def time_trajectory(backend: str, steps: int) -> float:
    system = charged_particle(b=1.0)
    lam = system.lagrangian
    lam.engine("0", backend)  # compile outside the timed region
    x0, v0 = [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]
    t0 = time.perf_counter()
    integrate_trajectory(lam, x0, v0, 0.0, 1.0, steps, backend=backend)
    return time.perf_counter() - t0


def time_batch(backend: str, batch: int, repeats: int = 20) -> float:
    ast = parse("sin(x1)*cos(x2) + exp(-x1^2)*v1*v2 + 0.5*(v1^2+v2^2)")
    names = ["x1", "x2", "v1", "v2"]
    kernel = compile_field(ast, names, backend)
    rng = np.random.default_rng(7)
    vals = rng.uniform(-1, 1, (batch, 4))
    d1 = rng.uniform(-1, 1, (batch, 4))
    d2 = rng.uniform(-1, 1, (batch, 4))
    eval_batch(kernel, vals, d1, d2)  # warm up (JIT / allocation)
    t0 = time.perf_counter()
    for _ in range(repeats):
        eval_batch(kernel, vals, d1, d2)
    return (time.perf_counter() - t0) / repeats


def report(timer, scale: float, unit: str):
    """Time every backend that imports, then the numba speed-up if both ran."""
    times = {}
    for backend in BACKENDS:
        try:
            times[backend] = timer(backend)
        except BackendUnavailableError:
            print(f"  {backend}: unavailable")
            continue
        print(f"  {backend:>6}: {scale * times[backend]:8.3f} {unit}")
    if "numba" in times:
        print(f"  speedup numba vs numpy: {times['numpy'] / times['numba']:.2f}x")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=20000, help="RK4 steps for the trajectory run")
    ap.add_argument("--batch", type=int, default=200000, help="probes for the batched run")
    args = ap.parse_args()

    print(f"trajectory integration, charged particle, {args.steps} RK4 steps:")
    report(lambda b: time_trajectory(b, args.steps), 1.0, "s")
    print(f"\nbatched kernel evaluation, {args.batch} probes:")
    report(lambda b: time_batch(b, args.batch), 1e3, "ms/eval")


if __name__ == "__main__":
    main()
