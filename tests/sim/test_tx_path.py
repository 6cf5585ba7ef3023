"""The simulated transaction path against what it replaced.

A simulated transaction used to be an object, three events and a call
chain of its own.  An open-loop client scheduled one heap event per
arrival (and one per batch, at the last arrival of a full one, to draw
the next), built a ``Transaction`` and handed it through a retargeting
walk to ``SimValidator.submit``; the ingress stage armed one completion
timer per transaction that put it in the core's deque mempool; and the
metrics kept a dict entry per transaction for its submission, inclusion
and arrival at the observer, popped at commit, observing each stage
share on its own.  Now one router routes every arrival as an id and a
time into its validator's ingress rows, blocks carry slices of them, and
the metrics keep their books per section.  The old path lives on here,
as the oracle the new one is compared with: everything an experiment
reports must be equal except the number of callbacks the event loop ran,
and that must differ by exactly the arrival, batch-draw and completion
events the oracle ran.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.committee import RECONFIG_TX_BASE
from repro.core.protocol import MahiMahiCore, Mempool
from repro.obs import trace as _trace
from repro.obs.metrics import Histogram, _HistogramSeries, _label_key
from repro.sim import runner
from repro.sim.faults import FaultEvent
from repro.sim.metrics import ExperimentMetrics
from repro.sim.node import CpuConfig, SimValidator
from repro.sim.runner import Experiment, ExperimentConfig
from repro.transaction import Transaction, TransactionBatch, TransactionSlice
from tests.sim.test_node import make_cluster


# ----------------------------------------------------------------------
# The oracle: the transaction path before arrivals were routed
# ----------------------------------------------------------------------
class OpenLoopClient:
    """One client, one heap event per arrival."""

    def __init__(self, loop, submit, rate, *, ids, weight, stop_at, on_submission, seed, mix):
        self._loop = loop
        self._submit = submit
        self._interval = 1.0 / rate
        self._ids = ids
        self._weight = weight
        self._stop_at = stop_at
        self._on_submission = on_submission
        self._rng = random.Random(repr(("client", seed)))
        self._size_values = tuple(size for size, _ in mix)
        self._size_cum_weights = tuple(itertools.accumulate(share for _, share in mix))
        #: Heap events this client ran (arrivals and batch draws).
        self.events = 0

    def start(self) -> None:
        self._schedule_batch(self._loop.now)

    def _schedule_batch(self, start: float) -> None:
        expovariate = self._rng.expovariate
        lambd = 1.0 / self._interval
        when = start
        times = []
        for _ in range(256):
            when += expovariate(lambd)
            if when >= self._stop_at:
                break
            times.append(when)
        for when in times:
            self._loop.schedule_at(when, self._tick)
        if len(times) == 256:
            self._loop.schedule_at(times[-1], self._draw, times[-1])

    def _draw(self, start: float) -> None:
        self.events += 1
        self._schedule_batch(start)

    def _tick(self) -> None:
        self.events += 1
        now = self._loop.now
        tx_id = next(self._ids)
        size_hint = None
        if self._size_values:
            size_hint = self._rng.choices(
                self._size_values, cum_weights=self._size_cum_weights
            )[0]
        self._submit(Transaction(tx_id=tx_id, submitted_at=now, size_hint=size_hint))
        self._on_submission(tx_id, now, self._weight)


class PerArrivalClients:
    """The router's stand-in: an :class:`OpenLoopClient` per client, its
    transactions numbered from 1 per experiment and handed through the
    retargeting walk to ``SimValidator.submit``."""

    def __init__(self, loop, nodes, rate, *, validators, stop_at, metrics, seed, tx_size_mix):
        ids = itertools.count(1)
        self.clients = [
            OpenLoopClient(
                loop,
                self._route_from(nodes, validator),
                rate,
                ids=ids,
                weight=metrics._weight,
                stop_at=stop_at,
                on_submission=metrics.record_submission,
                seed=(seed, validator),
                mix=tx_size_mix,
            )
            for validator in validators
        ]

    @staticmethod
    def _route_from(nodes, preferred: int):
        def submit(tx: Transaction) -> None:
            node = nodes[preferred]
            if node.down:
                for offset in range(1, len(nodes)):
                    candidate = nodes[(preferred + offset) % len(nodes)]
                    if not candidate.down:
                        node = candidate
                        break
                else:
                    return  # every validator is down: the tx is lost
            node.submit(tx)

        return submit

    def start(self) -> None:
        for client in self.clients:
            client.start()

    @property
    def events(self) -> int:
        return sum(client.events for client in self.clients)


class TimerIngressValidator(SimValidator):
    """Ingress completion as one event-loop timer per transaction, firing
    into the deque mempool of whichever core was current at submission."""

    __slots__ = ()
    #: Completion timers that fired (class-wide; reset per oracle run).
    fired = 0
    #: ``(tx id, instant, validator, ready time)`` of every submission.
    trace: list = []

    def __init__(self, core: MahiMahiCore, *args, **kwargs) -> None:
        super().__init__(core, *args, **kwargs)
        core.mempool = Mempool()

    def recover(self) -> None:
        core = self.core
        super().recover()
        if self.core is not core:
            self.core.mempool = Mempool()

    def submit(self, tx: Transaction) -> None:
        if self.down:
            return
        now = self._loop.now
        if self._tracer.enabled:
            self._tracer.instant(
                self.authority, "client", _trace.TX_SUBMITTED, now, {"tx": tx.tx_id}
            )
        if self._cpu is None:
            self.trace.append((tx.tx_id, now, self.authority, now))
            self.core.add_transaction(tx)
            return
        cost = self._cpu.tx_ingress_cost * self._tx_weight * self._slow
        ready = self.ingress.free = max(now, self.ingress.free) + cost
        self.trace.append((tx.tx_id, now, self.authority, ready))
        if self._tracer.enabled:
            self._tracer.span(
                self.authority, "ingress", "ingress_stage", now, ready, {"tx": tx.tx_id}
            )
        self._loop.schedule_at(ready, self._completed, self.core, tx)

    @staticmethod
    def _completed(core: MahiMahiCore, tx: Transaction) -> None:
        TimerIngressValidator.fired += 1
        core.add_transaction(tx)


class PerValueHistogram(Histogram):
    """``observe`` as it was: one value, one read-modify-write of the
    series."""

    __slots__ = ()

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels) if labels else ""
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries()
        series.count += 1
        series.sum += value
        if value < series.min:
            series.min = value
        if value > series.max:
            series.max = value

    def observe_many(self, values, **labels) -> None:
        for value in values:
            self.observe(value, **labels)


class PerTransactionMetrics(ExperimentMetrics):
    """The books one transaction at a time: a dict entry per transaction
    for its submission, first inclusion and observer times, popped at
    its first commit, and every stage share observed on its own."""

    def __init__(self, warmup: float = 0.0, weight: float = 1.0) -> None:
        super().__init__(warmup, weight)
        self._submissions: dict[int, tuple[float, float]] = {}
        self._included: dict[int, float] = {}
        self._block_times: dict[int, tuple[float, float]] = {}
        for histogram in self._stage_hist.values():
            histogram.__class__ = PerValueHistogram

    def record_submission(self, tx_id, time, weight=1.0):
        self._submissions[tx_id] = (time, weight)

    def record_inclusion(self, transactions, time):
        for tx in transactions:
            self._included.setdefault(tx.tx_id, time)

    def record_block_times(self, transactions, arrival, ingest):
        for tx in transactions:
            self._block_times.setdefault(tx.tx_id, (arrival, ingest))

    def record_commit(self, transactions, time):
        bucket = (
            self._epoch_latency.setdefault(self.epoch_marks[-1][0], [0.0, 0.0, 0.0])
            if self.epoch_marks
            else None
        )
        for tx in transactions:
            if tx.tx_id >= RECONFIG_TX_BASE:
                continue
            submission = self._submissions.pop(tx.tx_id, None)
            if submission is None:
                self.duplicate_commits += 1
                continue
            submitted_at, weight = submission
            included = self._included.pop(tx.tx_id, None)
            block_times = self._block_times.pop(tx.tx_id, None)
            if submitted_at < self._warmup:
                continue
            if included is not None:
                arrival, ingest = block_times or (included, included)
                self._stage_hist["queue"].observe(max(0.0, included - submitted_at))
                self._stage_hist["network"].observe(max(0.0, arrival - included))
                self._stage_hist["cpu"].observe(max(0.0, ingest - arrival))
                self._stage_hist["commit_walk"].observe(max(0.0, time - ingest))
            self.committed_weight += weight
            latency = time - submitted_at
            self._latencies.append(latency)
            self._weights.append(weight)
            if bucket is not None:
                bucket[0] += weight
                bucket[1] += latency * weight
                bucket[2] += 1

    @property
    def pending(self) -> int:
        return len(self._submissions)


ORACLE = {
    "SimValidator": TimerIngressValidator,
    "ExperimentMetrics": PerTransactionMetrics,
    "ArrivalRouter": PerArrivalClients,
}


def run_oracle(config: ExperimentConfig):
    """``(experiment, result)`` of ``config`` on the oracle's path, and
    the heap events only that path runs (arrivals, batch draws,
    completion timers)."""
    TimerIngressValidator.fired = 0
    TimerIngressValidator.trace = []
    with mock.patch.multiple(runner, **ORACLE):
        experiment = Experiment(config)
    result = experiment.run()
    return experiment, result, experiment._router.events + TimerIngressValidator.fired


def outcome(experiment, result):
    return dataclasses.replace(result, events_processed=0), experiment._metrics.registry.snapshot()


def recovery(mode: str) -> dict:
    """Crash validator 3 of 4 and restart it in ``mode``."""
    return dict(
        recover_mode=mode,
        checkpoint_interval=2,
        gc_depth=16,
        fault_schedule=(FaultEvent(0.8, 3, "crash"), FaultEvent(1.3, 3, "recover")),
    )


SCENARIOS = {
    "ideal": {},
    "crashed": dict(num_crashed=1),
    "recover-cold": recovery("cold"),
    "recover-warm": recovery("warm"),
    "recover-checkpoint": recovery("checkpoint"),
    "epoch-join-leave": dict(
        num_validators=6,
        recover_mode="checkpoint",
        checkpoint_interval=2,
        fault_schedule=(FaultEvent(0.5, 5, "join"), FaultEvent(1.2, 1, "leave")),
    ),
    "straggle": dict(fault_schedule=(FaultEvent(0.6, 2, "straggle", scale=4.0),)),
    # (Four validators make no progress with one of them equivocating.)
    "equivocate": dict(num_validators=7, num_equivocators=1),
    "partition-heal": dict(
        fault_schedule=(
            FaultEvent(0.6, 3, "partition", group="island"),
            FaultEvent(1.2, 3, "heal"),
        )
    ),
    "tx-size-mix": dict(tx_size_mix=((128, 3.0), (2048, 1.0))),
    "no-cpu-model": dict(model_cpu=False),
    # 25,000 tx/s per validator against an ingress stage worth 12,500:
    # the queue grows for the whole run.
    "past-ingress-capacity": dict(load_tps=100_000.0),
}


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("protocol", ["mahi-mahi-5", "mahi-mahi-4", "cordial-miners", "tusk"])
@settings(max_examples=2, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_routed_arrivals_and_per_section_books_change_only_the_event_count(
    protocol, scenario, seed
):
    fields = dict(
        protocol=protocol, num_validators=4, load_tps=1_500.0, duration=4.0, warmup=0.4
    )
    fields.update(SCENARIOS[scenario])
    config = ExperimentConfig(seed=seed, **fields)
    oracle, oracle_result, oracle_only = run_oracle(config)
    experiment = Experiment(config)
    result = experiment.run()
    assert outcome(experiment, result) == outcome(oracle, oracle_result)
    assert result.blocks_committed > 0
    assert experiment._metrics.registry.snapshot()["tx_stage_seconds_queue"]["count"] > 0
    assert oracle_result.events_processed - result.events_processed == oracle_only
    assert (TimerIngressValidator.fired > 0) == fields.get("model_cpu", True)


# ----------------------------------------------------------------------
# Histogram.observe_many against one observe per value
# ----------------------------------------------------------------------
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.floats(min_value=-1e-9, max_value=1e-9),
    st.sampled_from([0.0, -0.0, 1e-9, 0.1, 0.2, 0.30000000000000004]),
)


@settings(max_examples=200, deadline=None)
@given(
    batches=st.lists(st.lists(FLOATS, max_size=40), max_size=6),
    labels=st.sampled_from([{}, {"mode": "warm"}, {"mode": "warm", "epoch": 2}]),
)
def test_observe_many_is_observe_per_value(batches, labels):
    """Count, sum (bit for bit: ``repr``), min, max and mean — for empty,
    single-value, negative-zero and 1e-9-scale batches, labelled or not."""
    many, single = Histogram("many"), PerValueHistogram("single")
    for values in batches:
        many.observe_many(values, **labels)
        for value in values:
            single.observe(value, **labels)
        assert repr(many.snapshot()) == repr(single.snapshot())
    assert many.count(**labels) == sum(len(values) for values in batches)


def test_observe_many_adds_in_order_not_compensated():
    """``sum()`` compensates on Python >= 3.12; one add at a time loses
    the small terms here, and that is the pinned answer."""
    histogram = Histogram("h")
    histogram.observe_many([1e16, 1.0, 1.0, -1e16])
    assert histogram.snapshot()["sum"] == 0.0


# ----------------------------------------------------------------------
# The tie rule
# ----------------------------------------------------------------------
def test_a_completion_at_exactly_the_step_instant_is_included():
    """A constructed exact tie.  The stage completes a transaction at
    0.25 (a cost of 0.25 s, submitted at t = 0) and a step runs at 0.25
    (the pacing timer of a 0.25 s interval): ``ready <= now`` puts the
    transaction in that step's proposal.  The per-transaction timer
    ordered such a tie by scheduling sequence — here the completion
    timer, armed first, also came first — so admitting with ``<`` would
    propose it one round late, which neither does."""
    for validator in (SimValidator, TimerIngressValidator):
        # Free consensus stage: round 1 is ingested at exactly 0.05, so the
        # pacing timer is armed for 0.05 + (0.25 - 0.05), which is 0.25.
        cpu = CpuConfig(tx_ingress_cost=0.25, block_base_cost=0.0, tx_consensus_cost=0.0)
        loop, nodes = make_cluster(interval=0.25, cpu=cpu, validator=validator)
        nodes[0].submit(Transaction(1))
        for node in nodes:
            node.start()
        loop.run_until(0.25)
        assert loop.now == 0.25 and nodes[0].core.round == 2
        (block,) = nodes[0].core.store.slot_blocks(2, 0)
        assert [tx.tx_id for tx in block.transactions] == [1]


# ----------------------------------------------------------------------
# ExperimentMetrics: books per section
# ----------------------------------------------------------------------
def test_one_record_of_each_kind_per_section():
    """Inclusion, observer times and commit are kept once, on the
    section: the first of each wins, and a second commit of the section
    (an equivocating sibling carries the same one) is all duplicates."""
    metrics = ExperimentMetrics(warmup=1.0, weight=2.0)
    metrics.submitted = 4  # what the router counted: one of them never committed
    section = TransactionSlice([1, 2, 3], [0.5, 1.5, 2.0])  # 1 arrived in the warmup
    metrics.record_inclusion(section, 2.5)
    metrics.record_inclusion(section, 9.0)
    metrics.record_block_times(section, 2.75, 3.0)
    metrics.record_block_times(section, 8.0, 9.0)
    metrics.record_commit(section, 4.0)
    metrics.record_commit(section, 5.0)
    assert metrics.committed_unique == 2 and metrics.pending == 1
    assert metrics.duplicate_commits == 3 and metrics.committed_weight == 4.0
    assert metrics.latency_summary().max == 2.5
    breakdown = metrics.stage_breakdown()
    assert breakdown["samples"] == 2
    assert breakdown["queue_s"] == (1.0 + 0.5) / 2
    assert (breakdown["network_s"], breakdown["cpu_s"], breakdown["commit_walk_s"]) == (
        0.25, 0.25, 1.0,
    )


def test_a_decoded_copy_of_a_section_is_booked_on_the_section():
    """A block decoded from a WAL carries plain transactions: the copy
    finds its section's record by the first id, before and after the
    section's own commit."""
    metrics = ExperimentMetrics()
    metrics.submitted = 2
    section = TransactionSlice([7, 8], [0.5, 0.75])
    copy = TransactionBatch(tuple(section))
    metrics.record_inclusion(section, 1.0)
    metrics.record_block_times(copy, 1.5, 1.75)
    metrics.record_commit(copy, 2.0)
    assert metrics.pending == 0 and metrics.latency_summary().max == 1.5
    assert metrics.stage_breakdown()["network_s"] == 0.5
    metrics.record_commit(section, 3.0)
    metrics.record_commit(copy, 3.0)
    assert metrics.committed_unique == 2 and metrics.duplicate_commits == 4


def test_entries_submitted_as_objects_are_no_client_traffic():
    """A reconfiguration command rides in its proposer's section as an
    object: the section's client transactions commit around it, once."""
    metrics = ExperimentMetrics(weight=5.0)
    metrics.submitted = 2
    command = Transaction(RECONFIG_TX_BASE + 1, 0.3, b"reconfigure")
    section = TransactionSlice([1, command, 2], [0.5, 0.3, 1.0], None, 1)
    metrics.record_inclusion(section, 1.0)
    metrics.record_commit(section, 2.0)
    assert metrics.committed_unique == 2 and metrics.pending == 0
    assert metrics.committed_weight == 10.0 and metrics.latency_summary().max == 1.5
    metrics.record_commit(section, 3.0)
    assert metrics.duplicate_commits == 2
