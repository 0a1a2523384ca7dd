"""Calendar-queue event scheduler.

A classic calendar queue (Brown 1988) keeps near-future events in a ring
of time buckets — insert and pop-min touch only the bucket a time maps
to, so both are O(1) amortized when the bucket width tracks the mean
event spacing — and spills far-future events (beyond one ring
revolution) into an ordinary binary heap that migrates into the ring as
the scan cursor advances.

:class:`CalendarScheduler` is a drop-in :class:`~repro.simcore.scheduler.
Scheduler` backend: same API, same ``(time, priority, seq)`` firing
order, same lazy-cancellation semantics. The property suite
(``tests/property/test_prop_kernel_backends.py``) pins that heap and
calendar pop identical orders under random insert/cancel/reschedule
streams, including exact-time ties.

Implementation notes:

* Every queued entry is a ``(time, priority, seq, event, abs_bucket)``
  tuple. ``abs_bucket`` is the *absolute* (non-wrapped) bucket index,
  computed once at insert with a fixup loop so that the mapping is the
  exact float floor of ``(time - origin) / width`` — two entries then
  satisfy ``t1 <= t2  =>  bucket1 <= bucket2`` even at bucket-boundary
  rounding edges, which is what makes the bucket-top scan safe.
* Buckets are small heaps. The top of the current bucket is the global
  minimum whenever its ``abs_bucket`` equals the scan cursor: entries in
  other buckets live in strictly later bucket windows, and the spill
  heap only holds entries at least one full revolution away.
* Inserting an event below the scan cursor (always >= ``now``, but the
  cursor may have raced ahead through empty buckets) simply rewinds the
  cursor; rescanning a few empty buckets is cheap and keeps the cursor
  logic obviously correct.
* The ring resizes (width and bucket count) from the live pending set
  when the load factor grows, so bursty workloads keep ~1 event per
  bucket without manual tuning.
"""

from __future__ import annotations

import heapq
from heapq import heappop as _heappop
from heapq import heappush as _heappush
from typing import Callable

from ..errors import SchedulingError
from .events import Event
from .scheduler import Scheduler, _INF, _isfinite

#: Ring size bounds. The lower bound keeps the modulo cheap on tiny
#: workloads; the upper bound caps memory for degenerate spreads.
_MIN_BUCKETS = 16
_MAX_BUCKETS = 1 << 16

#: Grow the ring once the live ring population exceeds this many
#: entries per bucket on average.
_GROW_LOAD = 2


class CalendarScheduler(Scheduler):
    """Calendar-queue backend for the event loop.

    The inherited ``_heap`` slot is reused as the far-future *spill*
    heap; the ring holds everything within one revolution of the scan
    cursor. All public behaviour (ordering, cancellation accounting,
    telemetry counters) matches the heap reference exactly.
    """

    __slots__ = (
        "_origin",
        "_width",
        "_nbuckets",
        "_buckets",
        "_scan_abs",
        "_ring_count",
    )

    def __init__(self, start: float = 0.0, telemetry=None) -> None:
        super().__init__(start, telemetry)
        self._origin = float(start)
        self._width = 0.01
        self._nbuckets = _MIN_BUCKETS
        self._buckets: list[list[tuple]] = [
            [] for _ in range(self._nbuckets)
        ]
        self._scan_abs = 0
        self._ring_count = 0

    # ------------------------------------------------------------------
    # Queue-size accounting (pending_active derives from ``pending``)
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Raw queued entries (ring + spill), including cancelled."""
        return self._ring_count + len(self._heap)

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------
    def _bucket_index(self, time: float) -> int:
        """Exact float floor of ``(time - origin) / width``.

        The division alone can land one bucket off at segment
        boundaries (one ulp of rounding); the fixup loops canonicalize
        against the same ``origin + k * width`` products the scan uses,
        so insert and scan always agree on membership.
        """
        origin = self._origin
        width = self._width
        index = int((time - origin) / width)
        while origin + index * width > time:
            index -= 1
        while origin + (index + 1) * width <= time:
            index += 1
        return index

    def call_at(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback`` at absolute ``time`` (see base class)."""
        now = self.clock._now
        if not time >= now or time == _INF:
            if not _isfinite(time):
                raise SchedulingError(
                    f"event time must be finite, got {time!r}"
                )
            raise SchedulingError(
                f"cannot schedule at {time:.9f} before now={now:.9f}"
            )
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(time, priority, seq, callback, scheduler=self)
        self._insert((time, priority, seq, event, self._bucket_index(time)))
        return event

    def _insert(self, entry: tuple) -> None:
        abs_idx = entry[4]
        if abs_idx < self._scan_abs:
            # The cursor raced ahead through empty buckets; rewind so
            # the new entry's bucket is back inside the scan window.
            self._scan_abs = abs_idx
        if abs_idx >= self._scan_abs + self._nbuckets:
            _heappush(self._heap, entry)
            return
        _heappush(self._buckets[abs_idx % self._nbuckets], entry)
        self._ring_count += 1
        if (
            self._ring_count > self._nbuckets * _GROW_LOAD
            and self._nbuckets < _MAX_BUCKETS
        ):
            self._resize()

    # ------------------------------------------------------------------
    # Scan / pop
    # ------------------------------------------------------------------
    def _next_entry(self, limit: float, pop: bool) -> tuple | None:
        """The earliest non-cancelled entry with ``time <= limit``.

        Cancelled entries encountered on the way are dropped (lazy
        cancellation, same observable semantics as the heap backend).
        Returns ``None`` when the queue is empty or the minimum is past
        ``limit``; the scan cursor advance it performed stays valid
        because inserts rewind it when needed.
        """
        spill = self._heap
        buckets = self._buckets
        n = self._nbuckets
        while True:
            scan = self._scan_abs
            horizon = scan + n
            # Pull spilled entries that now fall inside the ring window.
            while spill and spill[0][4] < horizon:
                entry = _heappop(spill)
                _heappush(buckets[entry[4] % n], entry)
                self._ring_count += 1
            if self._ring_count == 0:
                if not spill:
                    return None
                # Jump straight to the spill minimum's revolution.
                self._scan_abs = spill[0][4]
                continue
            bucket = buckets[scan % n]
            if bucket:
                top = bucket[0]
                if top[4] <= scan:
                    event = top[3]
                    # Cancelled heads are swept *before* the limit test,
                    # matching the heap backend exactly: its run loop
                    # pops cancelled heads even when they lie beyond the
                    # horizon, so the `pending`/`cancelled_pending`
                    # diagnostics stay bit-identical across backends.
                    if event.cancelled:
                        _heappop(bucket)
                        self._ring_count -= 1
                        event._scheduler = None
                        self._cancelled_pending -= 1
                        continue
                    if top[0] > limit:
                        return None
                    if pop:
                        _heappop(bucket)
                        self._ring_count -= 1
                        event._scheduler = None
                    return top
            # Bucket holds nothing for this revolution; walk on. The
            # cursor persists across calls (and rewinds on earlier
            # inserts), so sparse stretches are traversed once, not per
            # query.
            self._scan_abs = scan + 1

    # ------------------------------------------------------------------
    # Public loop API (same contracts as the heap backend)
    # ------------------------------------------------------------------
    def peek_time(self) -> float | None:
        """Time of the next non-cancelled event, or ``None`` if empty."""
        entry = self._next_entry(_INF, pop=False)
        return None if entry is None else entry[0]

    def step(self) -> bool:
        """Fire the single next event; ``False`` when the queue is empty."""
        entry = self._next_entry(_INF, pop=True)
        if entry is None:
            return False
        self.clock.advance_to(entry[0])
        self._events_fired += 1
        entry[3].callback()
        return True

    def run_until(self, end_time: float) -> None:
        """Run events up to ``end_time`` then advance the clock to it."""
        if self._running:
            raise SchedulingError("run_until called re-entrantly")
        self._running = True
        clock = self.clock
        telemetry = self._telemetry
        try:
            if not telemetry.enabled:
                while True:
                    entry = self._next_entry(end_time, pop=True)
                    if entry is None:
                        break
                    clock._now = entry[0]
                    self._events_fired += 1
                    entry[3].callback()
            else:
                fired_before = self._events_fired
                max_depth = self.pending_active
                while True:
                    entry = self._next_entry(end_time, pop=True)
                    if entry is None:
                        break
                    clock._now = entry[0]
                    self._events_fired += 1
                    entry[3].callback()
                    depth = self.pending_active
                    if depth > max_depth:
                        max_depth = depth
                telemetry.count(
                    "scheduler.events", self._events_fired - fired_before
                )
                prev_max = telemetry.gauges.get(
                    "scheduler.max_queue_depth", 0.0
                )
                telemetry.gauge(
                    "scheduler.max_queue_depth", max(prev_max, max_depth)
                )
            if end_time > clock._now:
                clock.advance_to(end_time)
        finally:
            self._running = False

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _live_entries(self) -> list[tuple]:
        """All non-cancelled entries, detaching cancelled ones."""
        live = []
        for store in [*self._buckets, self._heap]:
            for entry in store:
                event = entry[3]
                if event.cancelled:
                    event._scheduler = None
                else:
                    live.append(entry)
        return live

    def _rebuild(self, entries: list[tuple]) -> None:
        """Re-bucket ``entries`` under the current width/ring size."""
        self._buckets = [[] for _ in range(self._nbuckets)]
        self._heap.clear()
        self._ring_count = 0
        self._cancelled_pending = 0
        self._scan_abs = self._bucket_index(self.clock._now)
        for time, priority, seq, event, _ in entries:
            self._insert(
                (time, priority, seq, event, self._bucket_index(time))
            )

    def _resize(self) -> None:
        """Retune bucket width to the live pending set and re-bucket."""
        entries = self._live_entries()
        count = len(entries)
        if count >= 2:
            lo = min(entry[0] for entry in entries)
            hi = max(entry[0] for entry in entries)
            span = hi - lo
            if span > 0:
                self._width = span / count
            nbuckets = _MIN_BUCKETS
            while nbuckets < 2 * count and nbuckets < _MAX_BUCKETS:
                nbuckets *= 2
            self._nbuckets = nbuckets
        self._rebuild(entries)

    def _compact(self) -> None:
        """Drop cancelled entries from the ring and spill outright.

        Same invariant as the heap backend: after compaction the active
        set is exactly what remains queued and ``cancelled_pending`` is
        zero — including when *every* entry was cancelled and the active
        set is empty.
        """
        self._rebuild(self._live_entries())

    def _drop_cancelled(self) -> None:
        # The scan in _next_entry prunes cancelled entries lazily; an
        # eager sweep entry point is only kept for API parity.
        self._next_entry(_INF, pop=False)
