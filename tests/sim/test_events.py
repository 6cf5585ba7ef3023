"""Tests for the discrete-event loop and its arrival router seam."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.events import EventLoop
from repro.sim.faults import FaultEvent
from repro.sim.node import Ingress
from repro.sim.runner import Experiment, ExperimentConfig
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
    with the loop's clock."""

    def __init__(self, loop: EventLoop, arrivals, log: list) -> None:
        self._loop = loop
        self._pending = sorted(arrivals)
        self._log = log
        self.next_at = self._pending[0][0] if self._pending else float("inf")

    def route(self, until: float, sequence: float) -> None:
        while self._pending and self._pending[0] < (until, sequence):
            when, _ = self._pending.pop(0)
            self._loop.now = when
            self._log.append(("arrival", when))
        self.next_at = self._pending[0][0] if self._pending else float("inf")


class TestRouterSeam:
    def test_arrivals_are_routed_in_time_and_sequence_order_between_heap_events(self):
        loop = EventLoop()
        log = []
        loop.schedule_at(0.5, lambda: log.append(("heap", loop.now)))
        drawn = loop.next_sequence()  # a batch drawn between the two events
        loop.schedule_at(0.5, lambda: log.append(("late", loop.now)))
        loop.router = ScriptedRouter(loop, [(0.25, drawn), (0.5, drawn), (0.75, drawn)], log)
        loop.run_to_completion()
        # Ties by sequence: the earlier heap event, the arrival, the later one.
        assert log == [
            ("arrival", 0.25), ("heap", 0.5), ("arrival", 0.5), ("late", 0.5), ("arrival", 0.75),
        ]
        assert loop.events_processed == 2 and loop.pending() == 0

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
            loop.schedule_at(when, lambda: log.append(("heap", loop.now)))
        with pytest.raises(SimulationError, match="budget"):
            loop.run_until(1.0, max_events=1)
        # The arrivals before the second heap event went, it did not.
        assert log[-1] == ("arrival", 0.6) and loop.events_processed == 1

    def test_a_sequence_kept_off_the_heap_sorts_like_a_scheduled_entry(self):
        loop = EventLoop()
        log = []
        loop.schedule_at(1.0, lambda: log.append(("heap", loop.now)))
        loop.router = ScriptedRouter(loop, [(1.0, loop.next_sequence())], log)
        loop.schedule(1.0, lambda: log.append(("later", loop.now)))
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
    assert routed == TimerIngressValidator.trace and routed
    assert outcome(experiment, result) == outcome(oracle, oracle_result)


def routed_arrivals(config: ExperimentConfig):
    """``(experiment, result, every routed arrival's (tx id, instant,
    validator, ready time))`` of one run."""
    routed = []
    arrive = Ingress.arrive

    def recording(self, entry, now, size=None):
        arrive(self, entry, now, size)
        tx_id = entry if type(entry) is int else entry.tx_id
        routed.append((tx_id, now, self._authority, self.ready[-1]))

    with mock.patch.object(Ingress, "arrive", recording):
        experiment = Experiment(config)
        result = experiment.run()
    return experiment, result, routed


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
    assert routed == TimerIngressValidator.trace and routed
    assert outcome(experiment, result) == outcome(oracle, oracle_result)
    assert result.blocks_committed > 0
