"""A minimal deterministic discrete-event loop.

Events fire in (time, insertion-sequence) order, so simultaneous events
run in the order they were scheduled — no heap-order nondeterminism
leaks into experiments.

This is the hottest loop of the whole simulator (every message hop,
client arrival and consensus-stage completion passes through it), so the
implementation is deliberately low-level: the loop object is slotted,
heap entries stay plain tuples (tuple comparison is what ``heapq``
optimises for — a slotted entry object would add a ``__lt__`` dispatch
per sift), and the drain loop binds every attribute it touches to a
local once instead of re-resolving ``self.*`` per event.

Client arrivals, three in four events of a loaded run, never enter the
heap: :meth:`EventLoop.schedule_batch` keeps an ascending batch of times
as one *run* (one entry in a small heap of runs, keyed by the run's next
time and its sequence number), and the drain loop merges the runs with
the heap — before it pops a heap event it runs every run entry that
sorts before it.  All of a batch's times are scheduled at one instant,
so one sequence number orders each of them against every other entry
exactly as its own would have: the merged order is the (time, sequence)
order the entries would have had on the heap, and each entry is one
processed event, at its own instant.
"""

from __future__ import annotations

import heapq
from operator import le, length_hint
from typing import Any, Callable

from ..errors import SimulationError


class EventLoop:
    """Priority-queue event loop with virtual time."""

    __slots__ = ("_now", "_sequence", "_heap", "_runs", "_events_processed")

    def __init__(self) -> None:
        self._now = 0.0
        self._sequence = 0
        self._heap: list[tuple[float, int, Callable[..., None], tuple[Any, ...]]] = []
        # Each run is ``[next time, sequence, callback, the rest of the
        # times]``.
        self._runs: list[list] = []
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Callbacks the loop has run so far.  A cost of the simulator,
        not a property of the simulated system: a change to how the
        simulator schedules its own work moves it while every modelled
        quantity stays put."""
        return self._events_processed

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._heap, (self._now + delay, self._sequence, callback, args))
        self._sequence += 1

    def schedule_at(self, when: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at absolute virtual time ``when``."""
        if when < self._now:
            when = self._now
        heapq.heappush(self._heap, (when, self._sequence, callback, args))
        self._sequence += 1

    def schedule_batch(self, times: list[float], callback: Callable[..., None]) -> None:
        """Schedule ``callback()`` at each absolute time in ``times``.

        The entry point for pre-generated arrival batches (open-loop
        clients): the batch is kept as one run instead of one heap entry
        per time, and the loop takes ``times`` over (the caller must not
        change it afterwards).  Times earlier than *now* are clamped to
        *now*, like :meth:`schedule_at`.

        Raises:
            SimulationError: If ``times`` is not ascending.
        """
        if not times:
            return
        if not all(map(le, times, times[1:])):
            raise SimulationError("a batch's times must be ascending")
        now = self._now
        if times[0] < now:
            times = [now if when < now else when for when in times]
        rest = iter(times)
        heapq.heappush(self._runs, [next(rest), self._sequence, callback, rest])
        self._sequence += 1

    def run_until(self, deadline: float, *, max_events: int | None = None) -> None:
        """Process events until virtual time exceeds ``deadline``.

        Args:
            deadline: Stop once the next event is later than this.
            max_events: Optional hard cap guarding against runaway loops.
        """
        budget = max_events if max_events is not None else float("inf")
        self._drain(
            deadline, budget, f"event budget exhausted ({max_events} events before t={deadline})"
        )
        if self._now < deadline:
            self._now = deadline

    def run_to_completion(self, *, max_events: int = 10_000_000) -> None:
        """Drain every scheduled event (tests and shutdown flushes)."""
        self._drain(float("inf"), max_events, f"event budget exhausted ({max_events} events)")

    def _drain(self, deadline: float, budget: float, exhausted: str) -> None:
        """Run heap events and run entries in (time, sequence) order until
        the next one is later than ``deadline``; raise ``exhausted`` when
        ``events_processed`` reaches ``budget`` with one still due."""
        heap = self._heap
        runs = self._runs
        pop = heapq.heappop
        resift = heapq.heapreplace
        processed = self._events_processed
        try:
            while True:
                run = None
                if heap:
                    event = heap[0]
                    when = event[0]
                    if runs:
                        head = runs[0]
                        # One float compare while the heap event is earlier.
                        if head[0] <= when and (head[0] < when or head[1] < event[1]):
                            run = head
                            when = head[0]
                elif runs:
                    run = runs[0]
                    when = run[0]
                else:
                    break
                if when > deadline:
                    break
                if processed >= budget:
                    raise SimulationError(exhausted)
                if run is None:
                    pop(heap)
                    self._now = when
                    processed += 1
                    event[2](*event[3])
                else:
                    later = next(run[3], None)
                    if later is None:
                        pop(runs)
                    else:
                        run[0] = later
                        resift(runs, run)
                    self._now = when
                    processed += 1
                    run[2]()
        finally:
            # The counter is synced on every exit path (including a
            # callback raising) so observability never goes stale.
            self._events_processed = processed

    def pending(self) -> int:
        """Number of events still queued (each time left in a run is one)."""
        return len(self._heap) + sum(1 + length_hint(run[3]) for run in self._runs)

    def clear(self) -> None:
        """Drop every queued event (a finished run: their callbacks are
        bound to the objects that hold this loop)."""
        self._heap.clear()
        self._runs.clear()
