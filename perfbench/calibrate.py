"""Timing at a reference host speed, for runs on a shared CPU.

On a small shared host the speed of the CPU a run gets drifts with the
load of its neighbours: the same pass of the theorem grids took from
1.2 to 2.2 s within three minutes, and its CPU time moved with its wall
time, so no choice of clock removes the drift.  The benchmark therefore
times, next to the operations, a fixed pure-Python kernel that does the
kind of work the engine does (``Fraction`` arithmetic, dict updates,
sorting tuples), at least every ``INTERVAL_S`` seconds.  Each operation's
wall time is multiplied by ``REF_KERNEL_S`` over the mean kernel time
measured just before and just after it.  The result reads as the time
the operation would take on a host where the kernel takes
``REF_KERNEL_S``; a change to the engine moves it as it moves the wall
time, while a change of host speed cancels out.

The kernel runs with the garbage collector off.  It shares the process
with the engine, so a collection it triggered would scan the engine's
heap: a change that grows the heap would then slow the kernel too and
cancel part of its own cost in the scaled times.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

REF_KERNEL_S = 0.0025     # the kernel's time on the reference host
INTERVAL_S = 0.2          # longest stretch of operations between two kernels


def kernel() -> int:
    counts: dict[tuple[int, int], Fraction] = {}
    for i in range(300):
        f = Fraction(i % 13 + 1, i % 7 + 2)
        g = f * f - f / 3
        key = (i % 17, g.denominator % 5)
        counts[key] = counts.get(key, Fraction(0)) + g
    return len(sorted(counts.items()))


def kernel_seconds(repeats: int = 1) -> float:
    """Median wall time of ``repeats`` kernel runs, with the collector off."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Gauge:
    """Wall times of operations and their values at reference speed."""

    def __init__(self):
        self.wall_ms: list[float] = []
        self.ref_ms: list[float] = []
        self._pending: list[float] = []
        kernel_seconds(3)                      # warm the kernel's code
        self._last = kernel_seconds(3)
        self.kernel_s = [self._last]           # the host speed the run saw
        self._at = time.perf_counter()

    def add(self, wall_ns: int) -> None:
        ms = wall_ns / 1e6
        self.wall_ms.append(ms)
        self._pending.append(ms)
        if time.perf_counter() - self._at >= INTERVAL_S:
            self.flush()

    def flush(self) -> None:
        """Time the kernel and scale the operations since the last one."""
        now = kernel_seconds()
        self.kernel_s.append(now)
        scale = REF_KERNEL_S / ((self._last + now) / 2)
        self.ref_ms.extend(ms * scale for ms in self._pending)
        self._pending.clear()
        self._last = now
        self._at = time.perf_counter()
