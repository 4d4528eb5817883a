"""Wall times scaled to a fixed machine speed.

The benchmark shares a machine whose speed for pure-Python work drifts by
a third within a minute, which would swamp the differences the benchmark
must resolve.  So while it measures, a timer signal interrupts the program
every ``PERIOD_S`` and times a fixed kernel that does the same kind of work
as the package (exact fractions, keyed sorts, dicts) but no package code.
Each call is reported as its wall time, less the kernel runs inside it,
multiplied by ``REFERENCE_S`` times the kernel's mean speed during and
around the call.  A reported second is thus a second on a machine where
the kernel takes ``REFERENCE_S``; a change to the package cannot move the
kernel.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

REFERENCE_S = 0.01
PERIOD_S = 0.1

_RNG = random.Random(20230223)
_WEIGHTS = [Fraction(_RNG.randint(1, 1 << 16), 1 << 16) for _ in range(96)]


def kernel() -> Fraction:
    """About 10 ms of fraction sums, keyed sorts and dict stores."""
    total = Fraction(0)
    for rep in range(8):
        seen = {}
        for i in sorted(range(len(_WEIGHTS)), key=lambda i: (_WEIGHTS[i], -i)):
            total += _WEIGHTS[i]
            seen[i] = total > rep
    return total


@dataclass
class Sample:
    """The start and end of one timed call, on the ``perf_counter`` clock."""

    start: float
    end: float


class Meter:
    """Times calls, and the kernel on every timer tick while it is open.

    Use as a context manager around everything it times; it owns SIGALRM
    and the real-time interval timer while open.
    """

    def __init__(self):
        self.ticks: list[tuple[float, float]] = []  # kernel (start, end)
        self._previous = None
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame):
        if self._busy:  # a tick that lands inside a slow kernel run
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        self.ticks.append((start, time.perf_counter()))
        self._busy = False

    def time(self, fn, *args, **kwargs):
        """Call ``fn``; return its result and a ``Sample`` of the call."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        return result, Sample(start, time.perf_counter())

    def scaled(self, sample: Sample) -> float:
        """The call's own time at reference speed.

        The speed is the mean of ``1 / kernel time`` over the ticks that ran
        during the call or within one period of it: each tick stands for
        the period around it, so a long call is scaled by its average speed.
        """
        inside = sum(e - s for s, e in self.ticks if s >= sample.start and e <= sample.end)
        speeds = [
            1 / (e - s) for s, e in self.ticks
            if e >= sample.start - PERIOD_S and s <= sample.end + PERIOD_S
        ]
        speed = statistics.fmean(speeds) if speeds else 1 / REFERENCE_S
        return (sample.end - sample.start - inside) * REFERENCE_S * speed
