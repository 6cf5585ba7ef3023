"""Experiment metrics: per-transaction latency and committed throughput.

Latency is measured exactly as in the paper (Section 5.1): "the time
elapsed from the moment a client submits a transaction to when it is
committed by the validators".  Each simulated transaction may represent
a *batch* of real transactions (``weight``), which lets a 100k tx/s run
stay tractable while keeping byte-accurate blocks.

The books are kept per section, not per transaction.  A client's
submission is only counted (by the
:class:`~repro.sim.client.ArrivalRouter`): its arrival time rides in
the :class:`~repro.transaction.TransactionSlice` of the block that
carries it.  Inclusion, arrival at the observer and commit are facts
about that section, so :meth:`ExperimentMetrics.record_inclusion`,
``record_block_times`` and ``record_commit`` are each called once per
block that carries transactions and keep their record on the slice (the
first record of each kind wins; an equivocating sibling carries the same
slice, so it shares the record).  In the stage decomposition the section
supplies three instants (proposed, arrived, ingested) and the commit a
fourth; only the latency and the ``queue`` share start from something
of the transaction's own, its arrival time.  The shares still go into
the histograms one value per transaction, in commit order, so the means
are those of a per-transaction recorder to the last bit.

A plain sequence of transactions is recorded as well: a copy of a
section (a block decoded from a WAL) finds the section's record by its
first transaction id, and a transaction submitted through
:meth:`ExperimentMetrics.record_submission` (a test's) keeps a record of
its own.  A section's entries submitted as objects (reconfiguration
commands) are no client traffic.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, repeat
from operator import add, mul

from repro.committee import RECONFIG_TX_BASE
from repro.obs.metrics import MetricsRegistry
from repro.transaction import TransactionSlice

#: The per-transaction latency decomposition, in lifecycle order:
#: ``queue``   submit → included in a proposed block (ingress queue +
#:             proposal cadence at the submission validator),
#: ``network`` inclusion → the block's arrival at the observer,
#: ``cpu``     arrival → the observer's consensus stage ingesting it,
#: ``commit_walk`` ingest → the commit walk linearizing it (waiting for
#:             the wave decision).
STAGES = ("queue", "network", "cpu", "commit_walk")


@dataclass(frozen=True)
class LatencySummary:
    """Weighted latency statistics over the measurement window."""

    count: float
    avg: float
    p50: float
    p90: float
    p99: float
    max: float

    @classmethod
    def empty(cls) -> "LatencySummary":
        return cls(count=0.0, avg=math.nan, p50=math.nan, p90=math.nan, p99=math.nan, max=math.nan)


class ExperimentMetrics:
    """Collects submissions and commits at an observer validator."""

    def __init__(self, warmup: float = 0.0, weight: float = 1.0) -> None:
        """Args:
        warmup: Transactions submitted before this time are excluded
            from latency statistics and throughput (ramp-up noise).
        weight: Real transactions one routed arrival stands for.
        """
        self._warmup = warmup
        self._weight = weight
        #: Client transactions submitted so far: routed arrivals (lost
        #: ones too) and :meth:`record_submission` calls.
        self.submitted = 0
        self._committed = 0  # of those, committed (each once)
        # Sections with a record and no commit yet, by first transaction
        # id: where a plain copy of one finds its record.
        self._open: dict[int, TransactionSlice] = {}
        # Transactions submitted one at a time, by id: [submitted at,
        # weight, included, (arrival, ingest)].
        self._singles: dict[int, list] = {}
        # Per committed transaction, in commit order: latency and weight.
        self._latencies: list[float] = []
        self._weights: list[float] = []
        self.committed_weight = 0.0
        self.duplicate_commits = 0
        #: ``(mode, seconds)`` per completed restart (``recover``/
        #: ``join`` event): seconds from restart to the validator's
        #: first own proposal afterwards — restart + WAL replay or
        #: checkpoint adoption + DAG re-sync + rejoining the proposing
        #: quorum.  ``mode`` is the recovery path actually taken
        #: (``cold``, ``warm`` or ``checkpoint``).
        self.recovery_times: list[tuple[str, float]] = []
        #: Epoch marks ``(epoch_id, start_round, members, observed_at)``
        #: in the order the observer's commit walk scheduled them.
        #: Commits are attributed to the most recent mark, giving the
        #: per-epoch latency split of reconfiguration sweeps.
        self.epoch_marks: list[tuple[int, int, tuple[int, ...], float]] = []
        # Per-epoch latency accumulation: epoch_id -> [weight, weighted
        # latency sum, commit count].
        self._epoch_latency: dict[int, list[float]] = {}
        #: Shared metrics registry: the per-stage latency histograms
        #: live here (and anything else an observer wants to export).
        self.registry = MetricsRegistry()
        self._stage_hist = {
            stage: self.registry.histogram(
                f"tx_stage_seconds_{stage}",
                help=f"per-transaction {stage} share of commit latency",
            )
            for stage in STAGES
        }

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_submission(self, tx_id: int, time: float, weight: float = 1.0) -> None:
        """``tx_id`` was submitted at ``time`` as one object (a test's
        transaction: routed arrivals are only counted)."""
        self.submitted += 1
        self._singles[tx_id] = [time, weight, None, None]

    def _section(self, transactions) -> TransactionSlice | None:
        """The section ``transactions`` is or is a copy of; ``None`` for
        transactions recorded one at a time."""
        if type(transactions) is TransactionSlice:
            return transactions
        for tx in transactions:
            return self._open.get(tx.tx_id)
        return None

    def _books(self, section: TransactionSlice) -> list:
        """``[included, (arrival, ingest), committed]`` of ``section``."""
        books = section.books
        if books is None:
            books = section.books = [None, None, False]
            self._open[next(iter(section)).tx_id] = section
        return books

    def record_inclusion(self, transactions, time: float) -> None:
        """The submission validator proposed a block carrying
        ``transactions`` at ``time`` (first inclusion wins — a recovered
        validator may re-propose)."""
        section = self._section(transactions)
        if section is not None:
            books = self._books(section)
            if books[0] is None:
                books[0] = time
            return
        for tx in transactions:
            single = self._singles.get(tx.tx_id)
            if single is not None and single[2] is None:
                single[2] = time

    def record_block_times(self, transactions, arrival: float, ingest: float) -> None:
        """The block carrying ``transactions`` reached the observer: it
        arrived off the wire at ``arrival`` and cleared the consensus
        CPU stage (entered the DAG) at ``ingest`` (first copy wins)."""
        section = self._section(transactions)
        if section is not None:
            books = self._books(section)
            if books[1] is None:
                books[1] = (arrival, ingest)
            return
        for tx in transactions:
            single = self._singles.get(tx.tx_id)
            if single is not None and single[3] is None:
                single[3] = (arrival, ingest)

    def record_commit(self, transactions, time: float) -> None:
        """A block carrying ``transactions`` was linearized by the
        observer's commit walk at ``time``: each transaction's first
        appearance in the commit sequence is its commit.

        Harness-injected reconfiguration commands (the reserved id range
        from :data:`~repro.committee.RECONFIG_TX_BASE`) are not client
        traffic: skipping them keeps ``duplicate_commits`` meaningful.
        """
        section = self._section(transactions)
        if section is None:
            for tx in transactions:
                if tx.tx_id >= RECONFIG_TX_BASE:
                    continue
                single = self._singles.pop(tx.tx_id, None)
                if single is None:
                    self.duplicate_commits += 1
                    continue
                self._committed += 1
                self._commit((single[0],), single[1], single[2], single[3], time)
            return
        times = section.times
        if section.objects:
            # An entry submitted as an object (a reconfiguration command)
            # is no client traffic.
            times = [t for entry, t in zip(section.ids, times) if type(entry) is int]
        books = self._books(section)
        if books[2]:
            self.duplicate_commits += len(times)
            return
        books[2] = True
        del self._open[next(iter(section)).tx_id]
        self._committed += len(times)
        if times:
            self._commit(times, self._weight, books[0], books[1], time)

    def _commit(self, times, weight: float, included, block_times, time: float) -> None:
        """Transactions that arrived at ``times`` committed at ``time``:
        each of ``weight`` real ones, all included at ``included`` and
        seen by the observer at ``block_times`` (``None`` when unknown).
        Every sum takes one term per transaction, in order, as a
        per-transaction recorder's would."""
        warmup = self._warmup
        if min(times) < warmup:
            times = [t for t in times if t >= warmup]
            if not times:
                return
        count = len(times)
        latencies = [time - t for t in times]
        self._latencies += latencies
        self._weights += repeat(weight, count)
        self.committed_weight = reduce(add, repeat(weight, count), self.committed_weight)
        if self.epoch_marks:
            # No epoch starts inside a block: one bucket serves the call.
            bucket = self._epoch_latency.setdefault(self.epoch_marks[-1][0], [0.0, 0.0, 0.0])
            for latency in latencies:
                bucket[0] += weight
                bucket[1] += latency * weight
                bucket[2] += 1
        if included is None:
            return
        # Stage decomposition: an observer-proposed block never crossed
        # the network, so its network/cpu shares are zero.  Each share is
        # max(0.0, difference), spelled without the call.
        arrival, ingest = (included, included) if block_times is None else block_times
        hist = self._stage_hist
        hist["queue"].observe_many([s if s > 0.0 else 0.0 for s in [included - t for t in times]])
        for stage, share in (
            ("network", arrival - included),
            ("cpu", ingest - arrival),
            ("commit_walk", time - ingest),
        ):
            hist[stage].observe_many([share if share > 0.0 else 0.0] * count)

    def record_recovery(
        self, validator: int, recovered_at: float, resumed_at: float, mode: str = "cold"
    ) -> None:
        """Validator ``validator`` restarted at ``recovered_at`` and
        proposed its first post-restart block at ``resumed_at``, having
        recovered via ``mode``."""
        self.recovery_times.append((mode, resumed_at - recovered_at))

    def record_epoch(
        self,
        epoch_id: int,
        start_round: int,
        members: tuple[int, ...],
        observed_at: float,
    ) -> None:
        """The observer's commit walk scheduled (or started in) an
        epoch.  Commits from here on are attributed to it — attribution
        is by observation time, the deterministic round boundary being a
        protocol-level property the sim's latency metric cannot see."""
        self.epoch_marks.append((epoch_id, start_round, tuple(members), observed_at))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Transactions submitted but never committed (backlog)."""
        return self.submitted - self._committed

    def latency_summary(self) -> LatencySummary:
        """Weighted average and percentiles of commit latency.

        When every commit carries one weight (every routed arrival
        does), the latencies sort as plain floats and each sum and
        running sum is the weighted scan's, term for term: ``sum`` over
        the same values in the same order, and each percentile a
        ``bisect`` into the running weights it would have built."""
        latencies, weights = self._latencies, self._weights
        if not latencies:
            return LatencySummary.empty()
        count, weight = len(latencies), weights[0]
        if weights.count(weight) != count:
            ordered = sorted(zip(latencies, weights))
            total_weight = sum(w for _, w in ordered)
            avg = sum(latency * w for latency, w in ordered) / total_weight
            p50, p90, p99 = self._weighted_percentiles(ordered, total_weight, (0.50, 0.90, 0.99))
            return LatencySummary(
                count=total_weight, avg=avg, p50=p50, p90=p90, p99=p99, max=ordered[-1][0]
            )
        ordered = sorted(latencies)
        total_weight = sum(repeat(weight, count))
        avg = sum(map(mul, ordered, repeat(weight))) / total_weight
        running = list(accumulate(repeat(weight, count)))
        p50, p90, p99 = (
            ordered[min(bisect_left(running, q * total_weight), count - 1)]
            for q in (0.50, 0.90, 0.99)
        )
        return LatencySummary(
            count=total_weight, avg=avg, p50=p50, p90=p90, p99=p99, max=ordered[-1]
        )

    @staticmethod
    def _weighted_percentiles(
        ordered: list[tuple[float, float]], total_weight: float, quantiles: tuple[float, ...]
    ) -> list[float]:
        """For each of the ascending ``quantiles``, the first latency in
        ``ordered`` whose running weight reaches that share of
        ``total_weight`` (the largest when rounding leaves the running
        sum short of it), all in one pass.  The running sum is a left
        fold, as a scan per quantile would add it, so the floats are the
        same; it is not kept as a list: the summary is a run's memory
        peak."""
        thresholds = [q * total_weight for q in quantiles]
        found: list[float] = []
        running = accumulate(weight for _, weight in ordered)
        for (latency, _), cumulative in zip(ordered, running):
            while cumulative >= thresholds[len(found)]:
                found.append(latency)
                if len(found) == len(thresholds):
                    return found
        return found + [ordered[-1][0]] * (len(thresholds) - len(found))

    def stage_breakdown(self) -> dict[str, float]:
        """Mean seconds per lifecycle stage over committed transactions
        (``{}`` until something commits), plus each stage's share of
        their sum.  Batch weights are uniform within a run, so the
        unweighted histogram means match the weighted latency average's
        weighting."""
        samples = self._stage_hist["queue"].count()
        if not samples:
            return {}
        means = {stage: self._stage_hist[stage].mean() for stage in STAGES}
        total = sum(means.values())
        breakdown: dict[str, float] = {f"{stage}_s": means[stage] for stage in STAGES}
        breakdown["samples"] = samples
        if total > 0:
            for stage in STAGES:
                breakdown[f"{stage}_share"] = means[stage] / total
        return breakdown

    def throughput(self, duration: float) -> float:
        """Committed (weighted) transactions per second over the
        measurement window of length ``duration``."""
        if duration <= 0:
            return 0.0
        return self.committed_weight / duration

    def recovery_summary(self) -> tuple[int, float | None, float | None]:
        """``(recoveries, avg_seconds, max_seconds)`` over completed
        recoveries (restarts that resumed proposing)."""
        times = [seconds for _, seconds in self.recovery_times]
        if not times:
            return 0, None, None
        return len(times), sum(times) / len(times), max(times)

    def epoch_attribution(
        self,
        duration: float,
        down_intervals: dict[int, list[tuple[float, float]]] | None = None,
    ) -> list[dict]:
        """Per-epoch attribution rows for reconfiguration sweeps.

        One dict per epoch mark: committee size and start round, when
        the observer scheduled it, the commits/latency attributed to it,
        and the availability of its *member set* over its observation
        span (``down_intervals`` comes from the fault schedule; a
        not-yet-joined or already-left validator simply is not a member,
        so its downtime stops counting against the epoch — the point of
        epoch-aware accounting).
        """
        rows: list[dict] = []
        down_intervals = down_intervals or {}
        for position, (epoch_id, start_round, members, observed_at) in enumerate(
            self.epoch_marks
        ):
            span_end = (
                self.epoch_marks[position + 1][3]
                if position + 1 < len(self.epoch_marks)
                else duration
            )
            span = max(0.0, span_end - observed_at)
            availability = 1.0
            if span > 0 and members:
                downtime = 0.0
                for member in members:
                    for start, end in down_intervals.get(member, ()):
                        downtime += max(
                            0.0, min(end, span_end) - max(start, observed_at)
                        )
                availability = max(0.0, 1.0 - downtime / (len(members) * span))
            weight, weighted_latency, commits = self._epoch_latency.get(
                epoch_id, (0.0, 0.0, 0.0)
            )
            rows.append(
                {
                    "epoch": epoch_id,
                    "start_round": start_round,
                    "size": len(members),
                    "observed_s": round(observed_at, 6),
                    "commits": int(commits),
                    "latency_avg_s": (
                        round(weighted_latency / weight, 6) if weight else None
                    ),
                    "availability": round(availability, 6),
                }
            )
        return rows

    def recovery_by_mode(self) -> dict[str, float]:
        """Average recovery seconds per recovery mode actually taken."""
        by_mode: dict[str, list[float]] = {}
        for mode, seconds in self.recovery_times:
            by_mode.setdefault(mode, []).append(seconds)
        return {mode: sum(times) / len(times) for mode, times in sorted(by_mode.items())}


def availability(total_downtime: float, num_validators: int, duration: float) -> float:
    """Fraction of validator-seconds the committee was in service.

    ``1.0`` means every validator was up the whole run; each crashed or
    not-yet-joined validator subtracts its downtime from the budget.
    """
    if duration <= 0 or num_validators <= 0:
        return 1.0
    budget = num_validators * duration
    return max(0.0, 1.0 - total_downtime / budget)
