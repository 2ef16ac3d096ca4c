"""Shared pieces: percentiles, memory, host time, machine speed and pass
results."""

from __future__ import annotations

import heapq
import math
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of exact samples."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mib() -> float:
    """Peak resident set size of this process so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Timer:
    __slots__ = ("at", "owner")

    def __init__(self, at, owner):
        self.at = at
        self.owner = owner


def calibration_s(steps: int = 60_000) -> float:
    """Host seconds a fixed event loop takes: a heap of timers resuming
    64 generators that allocate small objects, the operations the
    simulator spends its time on.  It runs none of the program, so only
    the machine's speed moves it."""

    def proc(i):
        t = 0
        while True:
            timer = _Timer(t, i)
            t = yield timer.at + (i * 7919 + t) % 97 + 1

    procs = [proc(i) for i in range(64)]
    heap = []
    last = {}
    for i, p in enumerate(procs):
        next(p)
        heapq.heappush(heap, (i, i))
    t0 = time.perf_counter()
    for k in range(steps):
        t, i = heapq.heappop(heap)
        last[k & 1023] = t
        heapq.heappush(heap, (procs[i].send(t), i))
    return time.perf_counter() - t0


class Stopwatch:
    """Host time of the measured phase, from construction to
    :meth:`stop`, less the time spent inside :meth:`paused` (the
    benchmark's own output checks).  :meth:`lap` cuts it into laps at
    points of the simulation that every pass reaches in the same order,
    so that passes can be compared lap by lap."""

    def __init__(self):
        self.total = 0.0
        self.laps: list[float] = []
        self._t = time.perf_counter()
        self._mark = 0.0

    @contextmanager
    def paused(self):
        t = time.perf_counter()
        try:
            yield
        finally:
            self._t += time.perf_counter() - t

    def lap(self) -> None:
        now = time.perf_counter() - self._t
        self.laps.append(now - self._mark)
        self._mark = now

    def stop(self) -> None:
        self.lap()
        self.total = self._mark


def envelope(laps) -> float:
    """Sum over laps of the fastest pass's time for that lap.  ``laps``
    holds one list of lap times per pass, all of the same length.  A
    shared machine slows down in episodes of a tenth of a second to a
    few seconds; this keeps each stretch of the work as it ran when the
    machine was not slowed."""
    return sum(min(column) for column in zip(*laps, strict=True))


@dataclass
class PassResult:
    """One complete run of a workload: set-up, measured phase, checks.

    ``sim`` holds the simulated outputs; every pass of one run must
    reproduce them exactly.  ``checked``/``bad`` count verified
    operations and failed verifications.  ``laps`` are the measured
    phase's laps (:meth:`Stopwatch.lap`); they add up to ``wall_s``.
    """

    setup_s: float
    wall_s: float
    events: int
    sim: dict
    checked: int
    bad: int
    laps: list
    extra: dict = field(default_factory=dict)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}
