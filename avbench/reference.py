"""Machine speed from a fixed reference routine, timed between operations.

The benchmark runs on small shared machines whose speed drifts by tens
of percent over seconds to minutes, far more than the changes it is
meant to resolve.  The end-to-end throughput is therefore also reported
normalised to a fixed machine speed: the operations of a run are cut
into slices of about SLICE_S seconds, a reference routine that does not
touch avcalc is timed at every slice boundary, and each slice's time is
scaled by REFERENCE_S over the mean of the two reference times around
it.  Set-up time, measured in child processes between slices, is scaled
by the run's mean machine speed (SpeedMeter.speed): reference times
around one short child process are too noisy to scale it by.  A
change to avcalc
moves the operation times and not the reference routine, so it moves
the normalised figures as it moves the raw ones.

The routine mixes the kinds of work the workloads do: an interpreted
tree walk over operator-overloaded dual numbers (exprlang.evaluate and
Hyperdual), numpy calls on tiny arrays (the per-call overhead of small
kernel batches) and a numpy stream over a working set twice the size
of a 2 MiB L2 cache (large eval_batch calls).
"""
from __future__ import annotations

import time

import numpy as np

# Seconds the reference routine takes when run back to back, alone, on
# the machine the bounds in BENCHMARK.json were set on (2 vCPU Intel
# Xeon, 2 MiB L2): normalised figures are seconds at that speed.
REFERENCE_S = 0.02
SLICE_S = 0.25


class _Dual:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __add__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.a + o.a, self.b + o.b)
        return _Dual(self.a + o, self.b)

    def __mul__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.a * o.a, self.a * o.b + self.b * o.a)
        return _Dual(self.a * o, self.b * o)


def _tree(depth: int):
    if depth == 0:
        return ("x",)
    return ("+" if depth % 2 else "*", _tree(depth - 1), ("c", 0.5 + 0.01 * depth))


def _walk(node, env):
    op = node[0]
    if op == "x":
        return env["x"]
    if op == "c":
        return node[1]
    a, b = _walk(node[1], env), _walk(node[2], env)
    return a + b if op == "+" else a * b


class Reference:
    """The reference routine and its buffers, allocated once."""

    TREE = _tree(12)
    WALKS = 700
    SMALL_CALLS = 2400
    STREAMS = 18

    def __init__(self):
        self.small = np.linspace(0.0, 1.0, 8)
        self.a = np.linspace(0.0, 1.0, 1 << 18)  # 2 MiB
        self.b = np.empty_like(self.a)

    def run(self) -> float:
        s = 0.0
        for i in range(self.WALKS):
            s += _walk(self.TREE, {"x": _Dual(0.3 + 1e-4 * i, 1.0)}).a
        x = self.small
        for _ in range(self.SMALL_CALLS):
            s += float((np.sin(x) * x + x)[3])
        a, b = self.a, self.b
        for _ in range(self.STREAMS):
            np.multiply(a, 1.0001, out=b)
            np.add(b, a, out=b)
            s += float(b[-1])
        return s

    def seconds(self) -> float:
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0


class SpeedMeter:
    """Operation time and work in slices, with a reference time at every
    slice boundary."""

    def __init__(self, reference: Reference | None = None):
        self.reference = reference or Reference()
        self.slices = []  # (operation seconds, items, reference before, reference after)
        self._ref = self.reference.seconds()
        self._seconds = 0.0
        self._items = 0

    def add(self, seconds: float, items: int) -> None:
        """Record one operation; close the slice once it is long enough."""
        self._seconds += seconds
        self._items += items
        if self._seconds >= SLICE_S:
            self.close()

    def close(self) -> None:
        """End the current slice, if it holds any operation."""
        if self._seconds <= 0.0:
            return
        ref = self.reference.seconds()
        self.slices.append((self._seconds, self._items, self._ref, ref))
        self._ref, self._seconds, self._items = ref, 0.0, 0

    def normalised_seconds(self) -> float:
        """Operation time of the closed slices at reference speed."""
        return sum(t * REFERENCE_S * 2.0 / (r0 + r1) for t, _n, r0, r1 in self.slices)

    def rate(self) -> float:
        """Work units per second at reference speed."""
        t = self.normalised_seconds()
        return sum(s[1] for s in self.slices) / t if t else 0.0

    def speed(self) -> float:
        """Mean machine speed over the slices, as operation time at
        reference speed over operation time: below 1 on a slower machine."""
        t = sum(s[0] for s in self.slices)
        return self.normalised_seconds() / t if t else 0.0
