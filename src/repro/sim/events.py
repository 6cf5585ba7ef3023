"""A minimal deterministic discrete-event loop.

Events fire in (time, insertion-sequence) order, so simultaneous events
run in the order they were scheduled — no heap-order nondeterminism
leaks into experiments.

This is the hottest loop of the whole simulator (every message hop,
client arrival and consensus-stage completion passes through it), so the
implementation is deliberately low-level: the loop object is slotted,
heap entries stay plain tuples (tuple comparison is what ``heapq``
optimises for — a slotted entry object would add a ``__lt__`` dispatch
per sift), and the drain loops bind every attribute they touch to a
local once instead of re-resolving ``self.*`` per event.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from ..errors import SimulationError


class EventLoop:
    """Priority-queue event loop with virtual time."""

    __slots__ = ("_now", "_sequence", "_heap", "_events_processed")

    def __init__(self) -> None:
        self._now = 0.0
        self._sequence = 0
        self._heap: list[tuple[float, int, Callable[..., None], tuple[Any, ...]]] = []
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

        One entry point for pre-generated arrival batches (open-loop
        clients): the heap pushes happen in a single tight loop instead
        of one ``schedule`` call per arrival.  Times earlier than *now*
        are clamped to *now*, like :meth:`schedule_at`.
        """
        push = heapq.heappush
        heap = self._heap
        sequence = self._sequence
        now = self._now
        for when in times:
            if when < now:
                when = now
            push(heap, (when, sequence, callback, ()))
            sequence += 1
        self._sequence = sequence

    def run_until(self, deadline: float, *, max_events: int | None = None) -> None:
        """Process events until virtual time exceeds ``deadline``.

        Args:
            deadline: Stop once the next event is later than this.
            max_events: Optional hard cap guarding against runaway loops.
        """
        budget = max_events if max_events is not None else float("inf")
        heap = self._heap
        pop = heapq.heappop
        processed = self._events_processed
        try:
            while heap and heap[0][0] <= deadline:
                if processed >= budget:
                    raise SimulationError(
                        f"event budget exhausted ({max_events} events before t={deadline})"
                    )
                when, _, callback, args = pop(heap)
                self._now = when
                processed += 1
                callback(*args)
        finally:
            # The counter is synced on every exit path (including a
            # callback raising) so observability never goes stale.
            self._events_processed = processed
        if self._now < deadline:
            self._now = deadline

    def run_to_completion(self, *, max_events: int = 10_000_000) -> None:
        """Drain every scheduled event (tests and shutdown flushes)."""
        heap = self._heap
        pop = heapq.heappop
        processed = self._events_processed
        try:
            while heap:
                if processed >= max_events:
                    raise SimulationError(f"event budget exhausted ({max_events} events)")
                when, _, callback, args = pop(heap)
                self._now = when
                processed += 1
                callback(*args)
        finally:
            self._events_processed = processed

    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._heap)

    def clear(self) -> None:
        """Drop every queued event (a finished run: their callbacks are
        bound to the objects that hold this loop)."""
        self._heap.clear()
