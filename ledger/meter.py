"""Wall-clock laps, reported at a reference machine speed.

On a shared host the same pure-Python work can run 20-50% slower for
seconds to minutes at a time, for reasons outside the program. A
:class:`Meter` runs a short calibration kernel after every lap -- fixed
pure-Python work shaped like the simulator's (heap pushes and pops of
small objects, attribute reads, dict updates) -- for about
:data:`CALIBRATION_SHARE` of the lap's length, at least once. A lap is
reported at the speed where the kernel takes :data:`REFERENCE_S`:
scaled by ``REFERENCE_S / speed``.

A lap shorter than :data:`SHORT_LAP_S` is scaled by the mean of the
kernel's median time just before it and just after it, which follows
swings of a few seconds. Measured on a 2-core KVM guest over ten seeds,
this cut the run-to-run spread of 0.15-0.35 s laps (Table-1 sessions,
warm replays) from 0.13-0.29 to 0.05-0.06. Scaling them by the run's
median kernel time instead gave spreads of 0.10-0.24 against 0.07-0.12
(session latencies and replays on ``table1`` and ``trace``, replays on
``fleet`` and ``sweep``); only Table-1 replays did slightly better that
way (0.109 against 0.118).

A longer lap already averages the swings and is reported as measured.
Neither scaling helped it: neighbour scaling raised the spread of ~2 s
laps (fleet cells, sweep shards) from 0.06 to 0.15, and the run's
median raised that of the ``fleet`` metrics from 0.05-0.16 to
0.28-0.37 over ten seeds.

The kernel is part of the benchmark, so no change to the program can
move it, and it never runs inside a lap.
"""

from __future__ import annotations

import gc
import statistics
from heapq import heappop, heappush
from time import perf_counter

#: Calibration kernel time that normalised laps are scaled to.
REFERENCE_S = 0.010

#: Work items per calibration kernel run (~10 ms on a 2-core VM).
KERNEL_ITEMS = 7000

#: Calibration time after a lap, as a share of the lap.
CALIBRATION_SHARE = 0.05

#: Laps at least this long are reported as measured.
SHORT_LAP_S = 1.0


class _Item:
    __slots__ = ("time", "value")

    def __init__(self, time: int, value: int) -> None:
        self.time = time
        self.value = value


def kernel(items: int = KERNEL_ITEMS) -> int:
    """Fixed simulator-shaped work; returns a checksum."""
    heap: list = []
    totals: dict[int, int] = {}
    for i in range(items):
        item = _Item((i * 7919) % 1009, i)
        heappush(heap, (item.time, i, item))
        if len(heap) > 64:
            _time, _seq, done = heappop(heap)
            key = done.value & 255
            totals[key] = totals.get(key, 0) + done.time
    return sum(totals.values())


def calibrate(budget: float = 0.0) -> list[float]:
    """Seconds per kernel run, running it for at least ``budget``
    seconds (and at least once)."""
    samples = []
    # With the collector off the kernel's time does not depend on how
    # many objects the program keeps alive.
    enabled = gc.isenabled()
    gc.disable()
    try:
        while True:
            start = perf_counter()
            kernel()
            samples.append(perf_counter() - start)
            if sum(samples) >= budget:
                return samples
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Back-to-back laps, each ``(measured seconds, speed)``; ``speed``
    is ``None`` for a long lap, which is reported as measured."""

    def __init__(self) -> None:
        self._last = statistics.median(calibrate(REFERENCE_S * 5))
        self._start = perf_counter()

    def lap(self) -> tuple[float, float | None]:
        """The stretch since the previous lap; calibrates afterwards."""
        measured = perf_counter() - self._start
        now = statistics.median(calibrate(measured * CALIBRATION_SHARE))
        speed, self._last = (self._last + now) / 2.0, now
        self._start = perf_counter()
        return measured, (speed if measured < SHORT_LAP_S else None)

    @staticmethod
    def report(seconds: float, speed: float | None) -> float:
        """``seconds`` of work timed at ``speed``, at reference speed."""
        if speed is None:
            return seconds
        return seconds * REFERENCE_S / speed


class RawMeter(Meter):
    """Laps as measured, never calibrating (traced runs: the kernel
    would show up as unattributed time)."""

    def __init__(self) -> None:
        self._start = perf_counter()

    def lap(self) -> tuple[float, float | None]:
        measured = perf_counter() - self._start
        self._start = perf_counter()
        return measured, None
