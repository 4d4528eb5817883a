"""In-memory spans for the benchmark's traced run.

A span is ``[name, start_ns, end_ns, parent]``, where ``parent`` is the
index of the enclosing span, or of the call a decomposed call re-enacts, or
``None``.  Spans stay in memory until the run reports them.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        """Time the body; the parent defaults to the innermost open span."""
        if parent is None and self._open:
            parent = self._open[-1]
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter_ns()

    def record(self, name: str, start: int, end: int, parent: int | None) -> None:
        """Add a span timed by the caller, for calls too short for ``span``."""
        self.spans.append([name, start, end, parent])

    def durations(self, name: str) -> list[int]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_times(self, name: str) -> list[int]:
        """Each span's duration minus the durations of its child spans."""
        child_ns: dict[int, int] = {}
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        return [
            end - start - child_ns.get(index, 0)
            for index, (n, start, end, _) in enumerate(self.spans)
            if n == name
        ]


def quantile(values, q: float) -> float:
    """The q-quantile by linear interpolation between order statistics."""
    data = sorted(values)
    if not data:
        return float("nan")
    pos = q * (len(data) - 1)
    low = int(pos)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (pos - low)


def nearest_rank(values, q: float) -> float:
    """The q-quantile as the smallest value with at least q of the data at or below it."""
    data = sorted(values)
    return data[max(0, math.ceil(q * len(data)) - 1)]
