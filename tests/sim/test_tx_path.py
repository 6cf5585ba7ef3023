"""The simulated transaction path against what it replaced.

Until PR 19 every simulated transaction cost two heap events and a call
chain of its own: ``SimValidator.submit`` armed one completion timer per
transaction, and inclusion / arrival / commit were recorded by one
``ExperimentMetrics`` call (and four ``Histogram.observe`` calls) per
transaction.  The ingress stage is now a FIFO the step drains and the
bookkeeping is one call per block.  The old path lives on here, as the
oracle the new one is compared with: everything an experiment reports
must be equal except the number of callbacks the event loop ran, and that
must differ by exactly the completion timers the oracle fired.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.committee import RECONFIG_TX_BASE
from repro.core.protocol import MahiMahiCore
from repro.obs import trace as _trace
from repro.obs.metrics import Histogram, _HistogramSeries, _label_key
from repro.sim import runner
from repro.sim.faults import FaultEvent
from repro.sim.metrics import ExperimentMetrics
from repro.sim.node import CpuConfig, SimValidator
from repro.sim.runner import Experiment, ExperimentConfig
from repro.transaction import Transaction
from tests.sim.test_node import make_cluster


# ----------------------------------------------------------------------
# The oracle: the transaction path as it was at the parent of PR 19
# ----------------------------------------------------------------------
class TimerIngressValidator(SimValidator):
    """Ingress completion as one event-loop timer per transaction, firing
    into whichever core was current at submission."""

    __slots__ = ()
    #: Completion timers that fired (class-wide; reset per oracle run).
    fired = 0

    def submit(self, tx: Transaction) -> None:
        if self._down:
            return
        now = self._loop.now
        if self._tracer.enabled:
            self._tracer.instant(
                self.authority, "client", _trace.TX_SUBMITTED, now, {"tx": tx.tx_id}
            )
        if self._cpu is None:
            self.core.add_transaction(tx)
            return
        cost = self._cpu.tx_ingress_cost * self._tx_weight * self._slow
        self._ingress_free = max(now, self._ingress_free) + cost
        if self._tracer.enabled:
            self._tracer.span(
                self.authority, "ingress", "ingress_stage", now, self._ingress_free,
                {"tx": tx.tx_id},
            )
        self._loop.schedule_at(self._ingress_free, self._completed, self.core, tx)

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
    """Every fact about a block recorded one transaction at a time, and
    every stage share observed on its own."""

    def __init__(self, warmup: float = 0.0) -> None:
        super().__init__(warmup)
        for histogram in self._stage_hist.values():
            histogram.__class__ = PerValueHistogram

    def record_inclusion(self, transactions, time):
        for tx in transactions:
            super().record_inclusion((tx,), time)

    def record_block_times(self, transactions, arrival, ingest):
        for tx in transactions:
            super().record_block_times((tx,), arrival, ingest)

    def record_commit(self, transactions, time):
        for tx in transactions:
            super().record_commit((tx,), time)


def run_both(config: ExperimentConfig):
    """``(result, registry snapshot, events)`` of the oracle's run and of
    the real one, plus the completion timers the oracle fired."""
    outcomes = []
    TimerIngressValidator.fired = 0
    for validator, metrics in (
        (TimerIngressValidator, PerTransactionMetrics),
        (SimValidator, ExperimentMetrics),
    ):
        with mock.patch.object(runner, "SimValidator", validator), mock.patch.object(
            runner, "ExperimentMetrics", metrics
        ):
            experiment = Experiment(config)
        result = experiment.run()
        outcomes.append(
            (
                dataclasses.replace(result, events_processed=0),
                experiment._metrics.registry.snapshot(),
                result.events_processed,
            )
        )
    return outcomes[0], outcomes[1], TimerIngressValidator.fired


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
        initial_committee_size=5,
        epoch_reconfig=True,
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
def test_the_queue_and_the_per_block_records_change_only_the_event_count(
    protocol, scenario, seed
):
    fields = dict(
        protocol=protocol, num_validators=4, load_tps=1_500.0, duration=4.0, warmup=0.4
    )
    fields.update(SCENARIOS[scenario])
    oracle, real, fired = run_both(ExperimentConfig(seed=seed, **fields))
    assert real[0] == oracle[0]
    assert real[1] == oracle[1]
    assert real[0].blocks_committed > 0 and real[1]["tx_stage_seconds_queue"]["count"] > 0
    assert oracle[2] - real[2] == fired
    assert (fired > 0) == fields.get("model_cpu", True)


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
    (the pacing timer of a 0.25 s interval): ``ready_at <= now`` puts the
    transaction in that step's proposal.  The parent ordered such a tie
    by scheduling sequence — here the completion timer, armed first, also
    came first — so draining with ``<`` would propose it one round late,
    which neither does."""
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
# ExperimentMetrics: one call per block
# ----------------------------------------------------------------------
def test_one_call_records_a_whole_block():
    metrics = ExperimentMetrics(warmup=1.0)
    metrics.record_submission(1, 0.5)  # before the warmup ends
    metrics.record_submission(2, 1.5)
    metrics.record_submission(3, 2.0)
    block = [Transaction(i) for i in (1, 2, 3, 2, RECONFIG_TX_BASE + 1, 99)]
    metrics.record_inclusion(block, 2.5)
    metrics.record_inclusion(block, 9.0)  # a re-proposal: first inclusion wins
    metrics.record_block_times(block, 2.75, 3.0)
    metrics.record_commit(block, 4.0)
    assert metrics.committed_unique == 2 and metrics.pending == 0
    assert metrics.duplicate_commits == 2  # the repeated 2 and the unknown 99
    assert metrics.latency_summary().max == 2.5
    breakdown = metrics.stage_breakdown()
    assert breakdown["samples"] == 2
    assert breakdown["queue_s"] == (1.0 + 0.5) / 2
    assert (breakdown["network_s"], breakdown["cpu_s"], breakdown["commit_walk_s"]) == (
        0.25, 0.25, 1.0,
    )
