"""Tests for the discrete-event loop and its arrival router seam."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.committee import RECONFIG_TX_BASE
from repro.errors import SimulationError
from repro.sim.client import ArrivalRouter
from repro.sim.costs import CostModel
from repro.sim.events import EventLoop
from repro.sim.faults import FaultEvent
from repro.sim.metrics import ExperimentMetrics
from repro.sim.node import Ingress
from repro.sim.runner import Experiment, ExperimentConfig
from repro.transaction import Transaction
from tests.sim.test_node import make_cluster
from tests.sim.test_tx_path import (
    CASES,
    SCENARIOS,
    TimerIngressValidator,
    outcome,
    run_oracle,
)


class TestScheduling:
    def test_events_fire_in_time_order(self):
        loop = EventLoop()
        fired = []
        loop.schedule(0.3, fired.append, "c")
        loop.schedule(0.1, fired.append, "a")
        loop.schedule(0.2, fired.append, "b")
        loop.run_until(1.0)
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_insertion_order(self):
        loop = EventLoop()
        fired = []
        for tag in "abc":
            loop.schedule(0.5, fired.append, tag)
        loop.run_until(1.0)
        assert fired == ["a", "b", "c"]

    def test_now_advances_to_event_time(self):
        loop = EventLoop()
        seen = []
        loop.schedule(0.25, lambda: seen.append(loop.now))
        loop.run_until(1.0)
        assert seen == [0.25]
        assert loop.now == 1.0

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventLoop().schedule(-0.1, lambda: None)

    def test_schedule_at_absolute_time(self):
        loop = EventLoop()
        seen = []
        loop.schedule(0.5, lambda: loop.schedule_at(0.75, lambda: seen.append(loop.now)))
        loop.run_until(1.0)
        assert seen == [0.75]

    def test_schedule_at_past_time_fires_immediately(self):
        loop = EventLoop()
        seen = []
        loop.schedule(0.5, lambda: loop.schedule_at(0.1, lambda: seen.append(loop.now)))
        loop.run_until(1.0)
        assert seen == [0.5]

    def test_run_until_leaves_later_events_queued(self):
        loop = EventLoop()
        fired = []
        loop.schedule(0.5, fired.append, "early")
        loop.schedule(2.0, fired.append, "late")
        loop.run_until(1.0)
        assert fired == ["early"]
        assert loop.pending() == 1

    def test_events_scheduled_during_run_execute(self):
        loop = EventLoop()
        fired = []

        def cascade(depth):
            fired.append(depth)
            if depth < 3:
                loop.schedule(0.1, cascade, depth + 1)

        loop.schedule(0.0, cascade, 0)
        loop.run_until(1.0)
        assert fired == [0, 1, 2, 3]

    def test_event_budget_guards_runaway(self):
        loop = EventLoop()

        def forever():
            loop.schedule(0.0, forever)

        loop.schedule(0.0, forever)
        with pytest.raises(SimulationError):
            loop.run_until(1.0, max_events=100)

    def test_run_to_completion(self):
        loop = EventLoop()
        fired = []
        loop.schedule(5.0, fired.append, "x")
        loop.run_to_completion()
        assert fired == ["x"]
        assert loop.events_processed == 1


# ----------------------------------------------------------------------
# The router seam
# ----------------------------------------------------------------------
class ScriptedRouter:
    """Arrivals given as ``(time, sequence)`` pairs; routing one logs it
    (and never moves the loop's clock)."""

    def __init__(self, loop: EventLoop, arrivals, log: list) -> None:
        self._pending = sorted(arrivals)
        self._log = log

    def route(self, until: float, sequence: float) -> None:
        while self._pending and self._pending[0] < (until, sequence):
            when, _ = self._pending.pop(0)
            self._log.append(("arrival", when))


def reader(loop: EventLoop, log: list, name: str):
    """A heap event that settles the arrivals due, as a proposal does,
    and logs itself with the loop's clock."""

    def read() -> None:
        loop.settle()
        log.append((name, loop.now))

    return read


class TestRouterSeam:
    def test_a_reader_in_each_heap_event_sees_the_arrivals_before_it_in_order(self):
        loop = EventLoop()
        log = []
        loop.schedule_at(0.5, reader(loop, log, "heap"))
        drawn = loop.next_sequence()  # a batch drawn between the two events
        loop.schedule_at(0.5, reader(loop, log, "late"))
        loop.router = ScriptedRouter(loop, [(0.25, drawn), (0.5, drawn), (0.75, drawn)], log)
        loop.run_to_completion()
        # Ties by sequence: the earlier heap event, the arrival, the later one.
        assert log == [
            ("arrival", 0.25), ("heap", 0.5), ("arrival", 0.5), ("late", 0.5), ("arrival", 0.75),
        ]
        assert loop.events_processed == 2 and loop.pending() == 0

    def test_an_event_that_does_not_settle_routes_nothing(self):
        loop = EventLoop()
        log = []
        loop.schedule_at(0.5, lambda: log.append(("quiet", loop.now)))
        loop.schedule_at(0.7, reader(loop, log, "heap"))
        loop.router = ScriptedRouter(loop, [(0.25, 0), (0.6, 0), (0.75, 0)], log)
        loop.run_until(1.0)
        assert log == [
            ("quiet", 0.5), ("arrival", 0.25), ("arrival", 0.6), ("heap", 0.7), ("arrival", 0.75),
        ]

    def test_run_until_routes_up_to_its_deadline_without_heap_events(self):
        loop = EventLoop()
        log = []
        loop.router = ScriptedRouter(loop, [(0.5, 0), (1.0, 0), (1.5, 0)], log)
        loop.run_until(1.0)
        assert log == [("arrival", 0.5), ("arrival", 1.0)] and loop.now == 1.0
        loop.schedule_at(3.0, lambda: None)
        loop.run_until(2.0)
        assert log[-1] == ("arrival", 1.5) and loop.now == 2.0 and loop.pending() == 1

    def test_arrivals_spend_no_event_budget(self):
        loop = EventLoop()
        log = []
        loop.router = ScriptedRouter(loop, [(t / 10, 0) for t in range(1, 10)], log)
        for when in (0.35, 0.65):
            loop.schedule_at(when, reader(loop, log, "heap"))
        with pytest.raises(SimulationError, match="budget"):
            loop.run_until(1.0, max_events=1)
        # The reader in the first heap event saw the three arrivals before it.
        assert log[-1] == ("heap", 0.35) and len(log) == 4 and loop.events_processed == 1
        loop.run_until(1.0, max_events=2)
        assert log[4:] == [
            ("arrival", 0.4), ("arrival", 0.5), ("arrival", 0.6), ("heap", 0.65),
            ("arrival", 0.7), ("arrival", 0.8), ("arrival", 0.9),
        ]

    def test_a_sequence_kept_off_the_heap_sorts_like_a_scheduled_entry(self):
        loop = EventLoop()
        log = []
        loop.schedule_at(1.0, reader(loop, log, "heap"))
        loop.router = ScriptedRouter(loop, [(1.0, loop.next_sequence())], log)
        loop.schedule(1.0, reader(loop, log, "later"))
        loop.run_to_completion()
        assert log == [("heap", 1.0), ("arrival", 1.0), ("later", 1.0)]

    def test_pending_counts_heap_events_only(self):
        loop = EventLoop()
        loop.router = ScriptedRouter(loop, [(0.5, 0), (0.6, 0)], [])
        loop.schedule(0.7, lambda: None)
        assert loop.pending() == 1
        loop.run_until(0.55)
        assert loop.pending() == 1 and loop.events_processed == 0

    def test_clear_drops_the_router(self):
        loop = EventLoop()
        loop.router = ScriptedRouter(loop, [(0.5, 0)], [])
        loop.clear()
        assert loop.router is None
        loop.run_to_completion()
        assert loop.now == 0.0


# ----------------------------------------------------------------------
# The settle points: a change routes the arrivals before it first
# ----------------------------------------------------------------------
#: One client at validator 1, 200 arrivals per second.
RATE = 200.0


def idle_cluster(costs=None):
    """Four validators that never propose (no ``start``), so nothing
    but the event under test and the end of the run settles, and a
    client at validator 1 whose arrivals (``times``) are drawn as the
    gap-by-gap loop draws them."""
    loop, nodes = make_cluster(costs=costs or CostModel(model_cpu=True))
    ArrivalRouter(loop, nodes, RATE, validators=[1], metrics=ExperimentMetrics()).start()
    rng, when, times = random.Random(repr(("client", (0, 1)))), 0.0, []
    while when < 1.0:
        when += rng.expovariate(1.0 / (1.0 / RATE))
        times.append(when)
    return loop, nodes, times[:-1]


class TestSettlePoints:
    def test_a_crash_routes_the_arrivals_before_it_to_the_live_validator(self):
        loop, nodes, times = idle_cluster()
        loop.schedule_at(0.5, nodes[1].crash)
        loop.run_until(1.0)
        before = [t for t in times if t < 0.5]
        assert before and nodes[1].ingress.times == before
        assert nodes[2].ingress.times == times[len(before):]

    def test_a_straggle_prices_the_arrivals_before_it_at_the_old_cost(self):
        costs = CostModel(model_cpu=True)
        loop, nodes, times = idle_cluster(costs)
        loop.schedule_at(0.5, nodes[1].set_slow_factor, 8.0)
        loop.run_until(1.0)
        ingress = nodes[1].ingress
        assert ingress.times == times
        free, expected = 0.0, []
        for t in times:
            free = max(free, t) + costs.ingress_price(1.0 if t < 0.5 else 8.0)
            expected.append(free)
        assert ingress.ready == expected

    def test_an_object_submitted_mid_window_queues_behind_the_arrivals_before_it(self):
        loop, nodes, times = idle_cluster()
        tx = Transaction(RECONFIG_TX_BASE, submitted_at=0.5)
        loop.schedule_at(0.5, nodes[1].submit, tx)
        loop.run_until(1.0)
        before = sum(t < 0.5 for t in times)
        ids = list(range(1, len(times) + 1))
        assert nodes[1].ingress.ids == [*ids[:before], tx, *ids[before:]]
        assert nodes[1].ingress.times == [*times[:before], 0.5, *times[before:]]

    @pytest.mark.parametrize("at", [0.3, 0.5, 0.8])
    def test_a_proposal_takes_exactly_what_eager_routing_admitted(self, at):
        """Eager routing had every arrival before the proposal in the
        ingress, and the proposal admitted those the stage was done with;
        a window settled by the proposal leaves the same rows to take."""
        costs = CostModel(model_cpu=True)
        loop, nodes, times = idle_cluster(costs)
        taken = []
        loop.schedule_at(at, lambda: taken.append(nodes[1].ingress.take(10**6)))
        loop.run_until(1.0)
        free, admitted = 0.0, []
        for tx_id, t in enumerate(times, 1):
            free = max(free, t) + costs.ingress_price()
            if t < at and free <= at:
                admitted.append((tx_id, t))
        [section] = taken
        assert admitted and [(tx.tx_id, tx.submitted_at) for tx in section] == admitted


@st.composite
def fault_programs(draw):
    """An experiment under random crashes and restarts (within the fault
    budget), partitions and slow factors."""
    n = draw(st.sampled_from([4, 7]))
    others = st.integers(1, n - 1)
    times = st.floats(min_value=0.0, max_value=1.2)
    events = []
    crashing = draw(st.lists(others, unique=True, max_size=(n - 1) // 3))
    for validator in crashing:
        crash = draw(times)
        events.append(FaultEvent(crash, validator, "crash"))
        if draw(st.booleans()):
            back = crash + draw(st.floats(min_value=0.01, max_value=0.5))
            events.append(FaultEvent(back, validator, "recover"))
    # (A partition needs its validator up.)
    up = st.sampled_from([v for v in range(1, n) if v not in crashing])
    for validator in draw(st.lists(up, unique=True, max_size=2)):
        cut = draw(times)
        events.append(FaultEvent(cut, validator, "partition", group="island"))
        if draw(st.booleans()):
            events.append(FaultEvent(cut + draw(st.floats(0.01, 0.5)), validator, "heal"))
    for validator in draw(st.lists(others, unique=True, max_size=2)):
        scale = draw(st.sampled_from([1.0, 2.0, 8.0]))
        events.append(FaultEvent(draw(times), validator, "straggle", scale=scale))
    return ExperimentConfig(
        protocol=draw(st.sampled_from(["mahi-mahi-5", "cordial-miners", "tusk"])),
        num_validators=n,
        load_tps=3_000.0,
        duration=1.6,
        warmup=0.2,
        model_cpu=draw(st.booleans()),
        fault_schedule=tuple(events),
        seed=draw(st.integers(0, 2**16)),
    )


@settings(max_examples=25, deadline=None)
@given(config=fault_programs())
def test_the_router_routes_every_arrival_as_the_per_arrival_clients_did(config):
    """The same ``(tx id, instant, validator, ready time)`` for every
    submission — retargeted around down validators, priced at the slow
    factor in force — as one heap event per arrival, and the same run."""
    oracle, oracle_result, _ = run_oracle(config)
    experiment, result, routed = routed_arrivals(config)
    assert same_submissions(routed, TimerIngressValidator.trace) and routed
    assert outcome(experiment, result) == outcome(oracle, oracle_result)


def routed_arrivals(config: ExperimentConfig):
    """``(experiment, result, every routed arrival's (tx id, instant,
    validator, ready time))`` of one run, in the order the ingresses got
    them."""
    routed = []
    extend = Ingress.extend

    def recording(self, entries, times, sizes=None):
        extend(self, entries, times, sizes)
        ready = self.ready[len(self.ready) - len(entries):]
        for entry, now, done in zip(entries, times, ready):
            tx_id = entry if type(entry) is int else entry.tx_id
            routed.append((tx_id, now, self._authority, done))

    with mock.patch.object(Ingress, "extend", recording):
        experiment = Experiment(config)
        result = experiment.run()
    return experiment, result, routed


def same_submissions(routed, oracle) -> bool:
    """Each validator got the same rows in the same order, and every tx
    id the same ``(instant, validator, ready time)``: windows hand the
    validators their chunks in turn, the oracle interleaved them."""

    def rows(trace, validator):
        return [row for row in trace if row[2] == validator]

    validators = {row[2] for row in oracle}
    return (
        all(rows(routed, v) == rows(oracle, v) for v in validators)
        and {row[0]: row[1:] for row in routed} == {row[0]: row[1:] for row in oracle}
        and len(routed) == len(oracle)
    )


@pytest.mark.parametrize("protocol, scenario", CASES)
def test_every_scenario_routes_as_the_per_arrival_clients_did(protocol, scenario):
    """The fixed scenarios (restarts in every mode, an epoch join and
    leave, equivocation, a size mix, no CPU model, an overloaded ingress)
    under another seed: every submission as the per-arrival clients
    made it, and the same run."""
    fields = dict(protocol=protocol, num_validators=4, load_tps=1_500.0, duration=4.0, warmup=0.4)
    fields.update(SCENARIOS[scenario])
    config = ExperimentConfig(seed=11, **fields)
    oracle, oracle_result, _ = run_oracle(config)
    experiment, result, routed = routed_arrivals(config)
    assert same_submissions(routed, TimerIngressValidator.trace) and routed
    assert outcome(experiment, result) == outcome(oracle, oracle_result)
    assert result.blocks_committed > 0
