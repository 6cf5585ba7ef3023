"""Open-loop benchmark clients (Section 5.1).

Clients submit transactions at a fixed rate, independent of commit
progress ("open loop"), to the validator they are attached to — the
paper instantiates clients *within* each validator.  To keep large-load
simulations tractable, one simulated transaction may represent a batch
of ``weight`` real transactions; blocks account for the full
``weight * tx_size`` bytes and metrics weight latencies accordingly.

One :class:`ArrivalRouter` runs every client of an experiment, and a
simulated transaction is never an event, an object or a call chain of
its own: it is an id and an arrival time, a row of a validator's
ingress.  Each client draws its Poisson arrivals a batch at a time
(exponential gaps in one pass, then their sizes on a mixed-size run;
the next batch at the last arrival of a full one, after that arrival),
numbered by :meth:`~repro.sim.events.EventLoop.next_sequence` when it
is drawn.

Arrivals are routed a window at a time, and only when something is
about to read an ingress or change what routing reads: the event loop's
:meth:`~repro.sim.events.EventLoop.settle` calls :meth:`ArrivalRouter
.route` with the running event's ``(now, sequence)``, from a proposal
(:meth:`repro.sim.node.Ingress.take`, the mempool's only reader), an
object submission, a crash, restart or slow factor (before it takes
effect) and the end of a run.  The window is every arrival that sorts
before that pair; one sort numbers it across clients in (time, batch
sequence) order, ids from 1 per experiment, and each target validator
gets its rows as one chunk (:meth:`repro.sim.node.Ingress.extend`).
Nothing routing reads — liveness (a down validator's clients retarget to
the next live one), the ingress price and its stage — changes inside a
window, so every arrival gets the id, target, size and ready time it
would have got at its own instant.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain, repeat
from math import log

from .events import EventLoop

#: Arrivals drawn per batch (one generator pass each).
_ARRIVAL_BATCH = 256

_INF = float("inf")


class _Client:
    """One client: the validator it prefers, its generator and the batch
    of arrivals it drew last (times, sizes on a mixed-size run, the
    batch's sequence, how many of them are routed and when the next one
    is due)."""

    __slots__ = (
        "validator", "rng", "lambd", "stop_at", "size_values", "size_cum_weights",
        "times", "sizes", "sequence", "routed", "next_at",
    )

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
        self.sizes: list | None = None
        self.sequence = 0
        self.routed = 0
        self.next_at = _INF

    def draw(self, start: float, sequence: int) -> None:
        """Draw the next batch of arrivals after ``start``: at most
        :data:`_ARRIVAL_BATCH`, none at or after ``stop_at``.  The times
        are the running sums a gap-by-gap loop of ``expovariate`` adds,
        and the generator is left where that loop, stopping at the first
        gap that crosses ``stop_at``, would leave it, so a mixed-size
        run's sizes come from the same stream."""
        rng, lambd = self.rng, self.lambd
        random = rng.random
        state = rng.getstate() if self.size_values else None
        times = list(
            accumulate(
                [-log(1.0 - random()) / lambd for _ in range(_ARRIVAL_BATCH)], initial=start
            )
        )
        del times[0]
        due = bisect_left(times, self.stop_at)
        if due < _ARRIVAL_BATCH:
            del times[due:]
            if state is not None:
                rng.setstate(state)
                for _ in range(due + 1):
                    random()
        self.times, self.sequence, self.routed = times, sequence, 0
        self.next_at = times[0] if times else _INF
        if state is not None:
            self.sizes = rng.choices(self.size_values, cum_weights=self.size_cum_weights, k=due)


class ArrivalRouter:
    """Every open-loop client of one experiment, routed per window.

    Attach it with :meth:`start`; the event loop's settle points drive
    it from then on.
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
        self._loop = loop
        self._nodes = nodes
        self._metrics = metrics
        self._clients = (
            [_Client(v, rate, stop_at, (seed, v), tx_size_mix) for v in validators]
            if rate > 0
            else []
        )
        self._last_id = 0

    def start(self) -> None:
        """Draw every client's first batch (first arrival one gap after
        *now*) and attach to the loop."""
        now = self._loop.now
        for client in self._clients:
            client.draw(now, self._loop.next_sequence())
        self._loop.router = self

    def route(self, until: float, sequence: float) -> None:
        """Route every arrival that sorts before ``(until, sequence)``."""
        nodes = self._nodes
        pieces = []  # (batch sequence, target, times, sizes) per batch with arrivals due
        for client in self._clients:
            if client.next_at <= until:
                target = client.validator
                if nodes[target].down:
                    target = self._live_after(target)
                self._due(client, until, sequence, target, pieces)
        if not pieces:
            return
        # Laid out in batch sequence order, the window's times sort stably
        # into (time, batch sequence) order: an arrival's id is its place.
        pieces.sort()
        window = list(chain.from_iterable(piece[2] for piece in pieces))
        ids = [0] * len(window)
        ranked = sorted(range(len(window)), key=window.__getitem__)
        for tx_id, place in enumerate(ranked, self._last_id + 1):
            ids[place] = tx_id
        self._last_id += len(window)
        self._metrics.submitted += len(window)
        chunks: dict = {}
        end = 0
        for _, target, times, sizes in pieces:
            start, end = end, end + len(times)
            chunks.setdefault(target, []).append((ids[start:end], times, sizes))
        for target, chunk in chunks.items():
            if target is None:
                continue  # every validator is down: the transactions are lost
            ids, times, sizes = chunk[0]
            if len(chunk) > 1:
                # Several batches for one validator: its rows go in id order.
                rows = sorted(
                    chain.from_iterable(
                        zip(ids, times, repeat(None) if sizes is None else sizes)
                        for ids, times, sizes in chunk
                    )
                )
                ids, times, merged = map(list, zip(*rows))
                sizes = None if sizes is None else merged
            nodes[target].ingress.extend(ids, times, sizes)

    def _due(self, client: _Client, until: float, sequence: float, target, pieces: list) -> None:
        """Add ``client``'s arrivals before ``(until, sequence)`` to
        ``pieces`` for ``target``, a piece per batch, and mark them
        routed; a full batch that runs out draws the next."""
        while True:
            batch, start = client.times, client.routed
            before = bisect_right if client.sequence < sequence else bisect_left
            end = before(batch, until, start)
            if end > start:
                sizes = None if client.sizes is None else client.sizes[start:end]
                pieces.append((client.sequence, target, batch[start:end], sizes))
                client.routed = end
            if end < _ARRIVAL_BATCH:
                client.next_at = batch[end] if end < len(batch) else _INF
                return
            client.draw(batch[-1], self._loop.next_sequence())

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
