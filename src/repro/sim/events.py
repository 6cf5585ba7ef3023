"""A minimal deterministic discrete-event loop.

Events fire in (time, insertion-sequence) order, so simultaneous events
run in the order they were scheduled — no heap-order nondeterminism
leaks into experiments.

This is the hottest loop of the whole simulator (every message hop,
timer and consensus-stage completion passes through it), so the
implementation is deliberately low-level: the loop object is slotted,
heap entries stay plain tuples (tuple comparison is what ``heapq``
optimises for — a slotted entry object would add a ``__lt__`` dispatch
per sift), and the drain loop binds every attribute it touches to a
local once instead of re-resolving ``self.*`` per event.

Client arrivals, three in four of a loaded run's instants, are not
events at all.  An experiment attaches its
:class:`~repro.sim.client.ArrivalRouter` as :attr:`EventLoop.router`,
and before the drain loop runs a heap event it hands the router that
event's ``(time, sequence)``: the router routes every arrival that sorts
before it, at its own instant.  Nothing an arrival touches changes
except at a heap event, and a routed arrival schedules nothing, so the
order is the (time, sequence) order the arrivals would have had as heap
entries — each batch of them numbered by :meth:`EventLoop.next_sequence`
when it is drawn.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from ..errors import SimulationError

_INF = float("inf")


class EventLoop:
    """Priority-queue event loop with virtual time."""

    __slots__ = ("_now", "_sequence", "_heap", "_events_processed", "router")

    def __init__(self) -> None:
        self._now = 0.0
        self._sequence = 0
        self._heap: list[tuple[float, int, Callable[..., None], tuple[Any, ...]]] = []
        self._events_processed = 0
        #: Routes client arrivals between heap events: ``next_at`` (the
        #: earliest unrouted arrival) and ``route(time, sequence)`` (every
        #: arrival that sorts before that pair), or ``None``.
        self.router = None

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

    def next_sequence(self) -> int:
        """A sequence number for something kept off the heap (a batch of
        arrivals): it sorts against every heap entry as one scheduled
        now would."""
        sequence = self._sequence
        self._sequence += 1
        return sequence

    def run_until(self, deadline: float, *, max_events: int | None = None) -> None:
        """Process events until virtual time exceeds ``deadline``.

        Args:
            deadline: Stop once the next event is later than this.
            max_events: Optional hard cap guarding against runaway loops.
        """
        budget = max_events if max_events is not None else _INF
        self._drain(
            deadline, budget, f"event budget exhausted ({max_events} events before t={deadline})"
        )
        if self._now < deadline:
            self._now = deadline

    def run_to_completion(self, *, max_events: int = 10_000_000) -> None:
        """Drain every scheduled event and arrival (tests and shutdown
        flushes)."""
        self._drain(_INF, max_events, f"event budget exhausted ({max_events} events)")

    def _drain(self, deadline: float, budget: float, exhausted: str) -> None:
        """Run heap events in (time, sequence) order, routing the arrivals
        due before each, until the next one is later than ``deadline``;
        raise ``exhausted`` when ``events_processed`` reaches ``budget``
        with an event still due."""
        heap = self._heap
        pop = heapq.heappop
        router = self.router
        arrival = _INF if router is None else router.next_at
        processed = self._events_processed
        try:
            while heap:
                event = heap[0]
                when = event[0]
                if arrival <= when and arrival <= deadline:
                    if when <= deadline:
                        router.route(when, event[1])
                    else:
                        router.route(deadline, _INF)
                    arrival = router.next_at
                if when > deadline:
                    return
                if processed >= budget:
                    raise SimulationError(exhausted)
                pop(heap)
                self._now = when
                processed += 1
                event[2](*event[3])
            if arrival <= deadline and router is not None:
                router.route(deadline, _INF)
        finally:
            # The counter is synced on every exit path (including a
            # callback raising) so observability never goes stale.
            self._events_processed = processed

    def pending(self) -> int:
        """Number of events still queued (arrivals are not events)."""
        return len(self._heap)

    def clear(self) -> None:
        """Drop every queued event and the router (a finished run: their
        callbacks are bound to the objects that hold this loop)."""
        self._heap.clear()
        self.router = None
