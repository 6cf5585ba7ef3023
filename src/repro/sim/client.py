"""Open-loop benchmark clients (Section 5.1).

Clients submit transactions at a fixed rate, independent of commit
progress ("open loop"), to the validator they are attached to — the
paper instantiates clients *within* each validator.  To keep large-load
simulations tractable, one simulated transaction may represent a batch
of ``weight`` real transactions; blocks account for the full
``weight * tx_size`` bytes and metrics weight latencies accordingly.

Arrivals are generated a *batch* at a time: the client draws a block of
exponential inter-arrival gaps, turns them into absolute times with one
cumulative pass, and hands them to the event loop in a single
``schedule_batch`` call, which keeps them as one run beside its heap
rather than as one heap entry each (see :mod:`repro.sim.events`).  Each
arrival is still one event at its own instant, in the order a heap entry
would have had: the transaction id, the ``size_hint`` draw and the
liveness a routing ``submit`` reads are those of the arrival instant.
The next batch is drawn by one heap event at the batch's last time,
which runs after that last arrival.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable

from ..transaction import Transaction
from .events import EventLoop

#: Shared transaction-id counter across all clients of an experiment.
_TX_IDS = itertools.count(1)

#: Arrivals generated per batch (one RNG/scheduling pass each).
_ARRIVAL_BATCH = 256


def reset_tx_ids() -> None:
    """Restart the global tx-id counter (test isolation)."""
    global _TX_IDS
    _TX_IDS = itertools.count(1)


class OpenLoopClient:
    """Submits transactions to one validator at a fixed average rate."""

    __slots__ = (
        "_loop",
        "_submit",
        "_interval",
        "_weight",
        "_stop_at",
        "_on_submission",
        "_rng",
        "_size_values",
        "_size_cum_weights",
        "submitted",
    )

    def __init__(
        self,
        loop: EventLoop,
        submit: Callable[[Transaction], None],
        rate: float,
        *,
        weight: float = 1.0,
        stop_at: float = float("inf"),
        on_submission: Callable[[int, float, float], None] | None = None,
        seed: object = 0,
        tx_size_mix: tuple[tuple[int, float], ...] = (),
    ) -> None:
        """Args:
        loop: The experiment's event loop.
        submit: Callback delivering the transaction to the validator's
            mempool.
        rate: Simulated transactions per second (each representing
            ``weight`` real transactions).
        weight: Real transactions represented by one simulated one.
        stop_at: Stop submitting at this virtual time.
        on_submission: Metrics hook ``(tx_id, time, weight)``.
        seed: Per-client jitter seed.  Any ``repr``-stable value works;
            the experiment harness passes the ``(master_seed, authority)``
            pair so distinct clients never share a stream and streams do
            not correlate across master seeds (arithmetic derivations
            like ``seed * 1000 + authority`` collide for committees past
            1000).
        tx_size_mix: Optional ``(size_bytes, weight)`` distribution;
            when set, each transaction samples a ``size_hint`` from it
            (mixed-workload experiments).  Empty means the experiment's
            uniform size.
        """
        self._loop = loop
        self._submit = submit
        self._interval = 1.0 / rate if rate > 0 else float("inf")
        self._weight = weight
        self._stop_at = stop_at
        self._on_submission = on_submission
        self._rng = random.Random(repr(("client", seed)))
        if tx_size_mix:
            self._size_values = tuple(size for size, _ in tx_size_mix)
            cum = []
            total = 0.0
            for _, share in tx_size_mix:
                total += share
                cum.append(total)
            self._size_cum_weights = tuple(cum)
        else:
            self._size_values = ()
            self._size_cum_weights = ()
        self.submitted = 0

    def start(self) -> None:
        """Begin submitting (first transaction after one interval)."""
        if self._interval == float("inf"):
            return
        self._schedule_batch(self._loop.now)

    def _schedule_batch(self, start: float) -> None:
        """Pre-generate one batch of Poisson arrivals from ``start``.

        The whole batch is one ``schedule_batch`` call; a full batch
        chains the next one by an event at its last time, scheduled
        after the batch and so run after its last arrival (generation
        never races ahead of submission order).  No time is drawn at or
        after ``stop_at``.
        """
        expovariate = self._rng.expovariate
        lambd = 1.0 / self._interval
        stop_at = self._stop_at
        when = start
        times = []
        for _ in range(_ARRIVAL_BATCH):
            when += expovariate(lambd)
            if when >= stop_at:
                break
            times.append(when)
        if not times:
            return
        self._loop.schedule_batch(times, self._tick)
        if len(times) == _ARRIVAL_BATCH:
            # A full batch: more arrivals may remain before stop_at.
            self._loop.schedule_at(times[-1], self._schedule_batch, times[-1])

    def _tick(self) -> None:
        now = self._loop.now
        tx_id = next(_TX_IDS)
        size_hint = None
        if self._size_values:
            size_hint = self._rng.choices(
                self._size_values, cum_weights=self._size_cum_weights
            )[0]
        tx = Transaction(tx_id=tx_id, submitted_at=now, size_hint=size_hint)
        self._submit(tx)
        self.submitted += 1
        if self._on_submission is not None:
            self._on_submission(tx_id, now, self._weight)
