"""Open-loop benchmark clients (Section 5.1).

Clients submit transactions at a fixed rate, independent of commit
progress ("open loop"), to the validator they are attached to — the
paper instantiates clients *within* each validator.  To keep large-load
simulations tractable, one simulated transaction may represent a batch
of ``weight`` real transactions; blocks account for the full
``weight * tx_size`` bytes and metrics weight latencies accordingly.

One :class:`ArrivalRouter` runs every client of an experiment, and a
simulated transaction is never an event, an object or a call chain of
its own: it is an id and an arrival time, appended to a validator's
ingress (:meth:`repro.sim.node.Ingress.arrive`).  Each client draws its
Poisson arrivals a batch at a time (exponential gaps, one cumulative
pass; the next batch at the last arrival of a full one, after that
arrival), and the event loop calls :meth:`ArrivalRouter.route` before
each heap event.  One merged loop then routes, in exact (time, sequence)
order, every arrival that sorts before that event: ids are numbered
from 1 per experiment in that order, each arrival draws its size from
its client's generator when it is routed, and a down validator's
clients retarget to the next live one.  Liveness, slow factors and the
ingress stage's state change only at heap events, so each arrival sees
them as it would have at its own instant.
"""

from __future__ import annotations

import heapq
import random
from itertools import accumulate

from .events import EventLoop

#: Arrivals drawn per batch (one generator pass each).
_ARRIVAL_BATCH = 256

_INF = float("inf")


class _Client:
    """One client: the validator it prefers, its generator and the batch
    of arrival times it drew last."""

    __slots__ = ("validator", "rng", "lambd", "stop_at", "size_values", "size_cum_weights", "times")

    def __init__(
        self, validator: int, rate: float, stop_at: float, seed: object, tx_size_mix
    ) -> None:
        self.validator = validator
        # The inverse of the mean gap, not ``rate`` itself: for some rates
        # the two differ in the last bit, and every arrival time with it.
        self.lambd = 1.0 / (1.0 / rate)
        self.stop_at = stop_at
        self.rng = random.Random(repr(("client", seed)))
        self.size_values = tuple(size for size, _ in tx_size_mix)
        self.size_cum_weights = tuple(accumulate(share for _, share in tx_size_mix))
        self.times: list[float] = []

    def draw(self, start: float) -> list[float]:
        """The next batch of arrival times after ``start``: at most
        :data:`_ARRIVAL_BATCH`, none at or after ``stop_at``."""
        expovariate = self.rng.expovariate
        lambd = self.lambd
        stop_at = self.stop_at
        when = start
        times = []
        for _ in range(_ARRIVAL_BATCH):
            when += expovariate(lambd)
            if when >= stop_at:
                break
            times.append(when)
        self.times = times
        return times


class ArrivalRouter:
    """Every open-loop client of one experiment, routed per window.

    Attach it with :meth:`start`; the event loop drives it from then on.
    """

    def __init__(
        self,
        loop: EventLoop,
        nodes: list,
        rate: float,
        *,
        validators: list[int],
        metrics,
        stop_at: float = _INF,
        seed: int = 0,
        tx_size_mix: tuple[tuple[int, float], ...] = (),
    ) -> None:
        """Args:
        loop: The experiment's event loop.
        nodes: Every validator, by authority (each with ``down`` and an
            ``ingress``).
        rate: Simulated transactions per second, per client.
        validators: The validators with a client attached.
        metrics: The experiment's
            :class:`~repro.sim.metrics.ExperimentMetrics`, told how many
            transactions were submitted (lost ones included).
        stop_at: No arrival at or after this virtual time.
        seed: The experiment's seed; client ``v``'s generator is seeded
            with ``(seed, v)``, so distinct clients never share a stream
            and streams do not correlate across seeds (an arithmetic mix
            like ``seed * 1000 + v`` collides past 1000 validators).
        tx_size_mix: Optional ``(size_bytes, weight)`` distribution;
            when set, each transaction draws a ``size_hint`` from it.
            Empty means the experiment's uniform size.
        """
        #: Time of the earliest arrival not yet routed.
        self.next_at = _INF
        self._loop = loop
        self._nodes = nodes
        self._arrive = [node.ingress.arrive for node in nodes]
        self._metrics = metrics
        self._clients = (
            [_Client(v, rate, stop_at, (seed, v), tx_size_mix) for v in validators]
            if rate > 0
            else []
        )
        # One cursor per client with arrivals left: [next time, the
        # sequence number of its batch, client, index in the batch].
        self._heap: list[list] = []
        self._last_id = 0

    def start(self) -> None:
        """Draw every client's first batch (first arrival one gap after
        *now*) and attach to the loop."""
        now = self._loop.now
        for client in self._clients:
            self._draw(client, now)
        self.next_at = self._heap[0][0] if self._heap else _INF
        self._loop.router = self

    def _draw(self, client: _Client, start: float) -> None:
        """Draw ``client``'s next batch and number it as the loop would
        number an entry scheduled now."""
        times = client.draw(start)
        if times:
            heapq.heappush(self._heap, [times[0], self._loop.next_sequence(), client, 0])

    def route(self, until: float, sequence: float) -> None:
        """Route every arrival that sorts before ``(until, sequence)``."""
        heap = self._heap
        nodes = self._nodes
        arrive = self._arrive
        loop = self._loop
        replace = heapq.heapreplace
        tx_id = self._last_id
        while heap:
            cursor = heap[0]
            when = cursor[0]
            if when > until or when == until and cursor[1] > sequence:
                break
            client = cursor[2]
            tx_id += 1
            size = None
            if client.size_values:
                size = client.rng.choices(
                    client.size_values, cum_weights=client.size_cum_weights
                )[0]
            target = client.validator
            if nodes[target].down:
                target = self._live_after(target)
            # What a routed arrival reads is as of its own instant.
            loop.now = when
            if target is not None:
                arrive[target](tx_id, when, size)
            times = client.times
            index = cursor[3] + 1
            if index < len(times):
                cursor[0] = times[index]
                cursor[3] = index
                replace(heap, cursor)
            else:
                heapq.heappop(heap)
                if index == _ARRIVAL_BATCH:
                    # A full batch: more may remain before stop_at.
                    self._draw(client, when)
        self._metrics.submitted += tx_id - self._last_id
        self._last_id = tx_id
        self.next_at = heap[0][0] if heap else _INF

    def _live_after(self, preferred: int) -> int | None:
        """The next live validator after ``preferred`` (clients retarget
        away from crashed, left and not-yet-joined validators); ``None``
        when every validator is down and the transaction is lost."""
        nodes = self._nodes
        count = len(nodes)
        for offset in range(1, count):
            candidate = (preferred + offset) % count
            if not nodes[candidate].down:
                return candidate
        return None
