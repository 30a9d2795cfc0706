"""Machine-speed sampler used to report wall times at a fixed nominal machine speed.

On a shared machine the speed of a core changes by up to about 1.8x as
other tenants come and go, in episodes from a fraction of a second to
minutes; CPU time moves with it, because the contention is outside this
machine.  Raw wall times then spread more between runs than any change worth
detecting.  ``Sampler`` therefore times two short kernels from a SIGALRM
handler every ``INTERVAL_S`` of wall time, *during* the measured work: an
interpreter-bound loop over a small dict and, once numpy is loaded, a burst
of small numpy ufunc calls (the per-call overhead that dominates clipopt's
loops).  An interval is reported at nominal speed as
``(wall - handler time) * factor``, where ``factor`` is the geometric mean
over the kernels of ``NOMINAL_S[kernel] / mean kernel time`` in the
interval.  Handlers run between bytecodes, so the samples land inside the
work, not beside it; samples taken just before or after an operation track
its speed far worse.  Nothing here depends on clipopt.
"""

from __future__ import annotations

import bisect
import math
import signal
import time
from array import array

INTERVAL_S = 0.01
# Kernel times on a quiet x86_64 cloud vCPU with Python 3.11 and numpy 2; they
# only fix the unit, so scaled times there read as wall-clock seconds.
NOMINAL_S = {"interp": 48e-6, "numpy": 75e-6}
NEAR = 2  # samples on each side of an interval that holds none

perf = time.perf_counter


def interpreter_kernel() -> int:
    table = {}
    total = 0
    for i in range(400):
        table[i & 255] = i
        total += table[i & 127] * 3 % 7
    return total


class _NumpyKernel:
    def __init__(self):
        import numpy as np

        self.np = np
        self.a = np.random.default_rng(0).random(2000)
        self.b = self.a.copy()
        self.c = self.a.copy()

    def __call__(self) -> None:
        np, a, b, c = self.np, self.a, self.b, self.c
        for _ in range(15):
            np.multiply(a, b, out=c)
            np.add(c, a, out=c)
            np.sqrt(c, out=c)
            np.minimum(c, b, out=c)


class Sampler:
    """Kernel timings taken from a timer signal; ``kernels`` names a subset of NOMINAL_S."""

    def __init__(self, kernels=("interp", "numpy"), interval: float = INTERVAL_S):
        self.interval = interval
        self.fns = {"interp": interpreter_kernel}
        if "numpy" in kernels:
            self.fns["numpy"] = _NumpyKernel()
        self.start = array("d")
        self.busy = array("d")  # handler duration, kernels included
        self.times = {k: array("d") for k in self.fns}
        self._previous = None

    def _handler(self, signum, frame):
        t0 = perf()
        for name, fn in self.fns.items():
            t = perf()
            fn()
            self.times[name].append(perf() - t)
        self.start.append(t0)
        self.busy.append(perf() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _window(self, t0: float, t1: float) -> range:
        lo = bisect.bisect_left(self.start, t0)
        hi = bisect.bisect_left(self.start, t1)
        return range(lo, hi)

    def handler_time(self, t0: float, t1: float) -> float:
        """Time spent in the handler between ``t0`` and ``t1``."""
        return sum(self.busy[j] for j in self._window(t0, t1))

    def factor(self, t0: float, t1: float) -> float:
        """Multiplier taking work done between ``t0`` and ``t1`` to nominal speed."""
        idx = self._window(t0, t1)
        if not idx:
            mid = bisect.bisect_left(self.start, t0)
            idx = range(max(0, mid - NEAR), min(len(self.start), mid + NEAR))
        if not idx:
            raise RuntimeError("no speed samples were taken")
        logs = [math.log(NOMINAL_S[k] * len(idx) / sum(self.times[k][j] for j in idx))
                for k in self.fns]
        return math.exp(sum(logs) / len(logs))

    def nominal(self, t0: float, t1: float) -> float:
        """The interval's wall time without handler time, at nominal speed."""
        return (t1 - t0 - self.handler_time(t0, t1)) * self.factor(t0, t1)
