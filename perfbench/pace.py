"""The host's pace, from a fixed probe run every tenth of a second.

The 2-vCPU VM these figures come from runs the same Python code at two
speeds about 1.7 times apart, switching every few seconds, and whole runs can
fall into the slow one; no estimate over the rounds of one run removes that.
So the benchmark rescales. The probe below is a fixed piece of interpreter
work of the kind the library's inner loops do: numpy element reads, small
frozensets, dict stores and a sort. It shares no code with `tangleforge`, so
a change to the library moves the rescaled times as it moves the raw ones.

While a `Pacer` is armed, a timer signal runs the probe every
``INTERVAL_S``, between two bytecodes of whatever is running. Work is timed
on `Pacer.clock`, which stops while a probe runs. A span of work is
multiplied by ``REFERENCE_S`` over the mean probe time around it, which
gives seconds at the pace where the probe takes ``REFERENCE_S``.
"""

from __future__ import annotations

import gc
import signal
import time
from bisect import bisect_left, bisect_right

import numpy as np

REFERENCE_S = 5e-4  # probe seconds that define the reference pace
INTERVAL_S = 0.1

_rng = np.random.default_rng(0)
_LEQ = _rng.random((128, 128)) < 0.3
_SIDES = [frozenset(range(j, 64, 3)) for j in range(3)]
_KEYS = [int(x) for x in _rng.integers(0, 10**6, 1000)]


def _work():
    seen = {}
    for i in range(750):
        a, b = i & 127, (i * 7) & 127
        if _LEQ[a, b]:
            seen[a] = b
        seen[i & 255] = len(_SIDES[i % 3] & frozenset((a & 63, b & 63, i & 31)))
    sorted(_KEYS)


def probe() -> float:
    """Seconds the probe work takes now.

    The work runs once untimed, so that caches the interrupted work left
    cold do not count, and garbage collection is held off, so that the probe
    times the host and not the heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _work()
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Pacer:
    """Probes the host's pace while armed, as a context manager."""

    def __init__(self):
        self.busy = 0.0  # wall seconds spent in probes
        self.stamps: list[float] = []  # clock reading at each probe
        self.probes: list[float] = []  # seconds each probe took

    def clock(self) -> float:
        """Wall seconds without the time spent in probes."""
        return time.perf_counter() - self.busy

    def _sample(self, *_):
        start = time.perf_counter()
        self.stamps.append(start - self.busy)
        self.probes.append(probe())
        self.busy += time.perf_counter() - start

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def scale(self, start: float, end: float) -> float:
        """Reference over measured seconds for work between two clock
        readings: from the probes inside it and the nearest on each side."""
        lo = max(bisect_right(self.stamps, start) - 1, 0)
        window = self.probes[lo:bisect_left(self.stamps, end) + 1]
        return REFERENCE_S * len(window) / sum(window)
