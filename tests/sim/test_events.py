"""Tests for the discrete-event loop."""

import heapq
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim import runner
from repro.sim.events import EventLoop
from repro.sim.runner import Experiment, ExperimentConfig
from tests.sim.test_tx_path import SCENARIOS


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
# The oracle: the loop as it was before arrival batches became runs
# ----------------------------------------------------------------------
class HeapEventLoop:
    """Every event, batch times included, one entry of one heap."""

    __slots__ = ("_now", "_sequence", "_heap", "_events_processed")

    def __init__(self) -> None:
        self._now = 0.0
        self._sequence = 0
        self._heap = []
        self._events_processed = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def schedule(self, delay, callback, *args) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._heap, (self._now + delay, self._sequence, callback, args))
        self._sequence += 1

    def schedule_at(self, when, callback, *args) -> None:
        if when < self._now:
            when = self._now
        heapq.heappush(self._heap, (when, self._sequence, callback, args))
        self._sequence += 1

    def schedule_batch(self, times, callback) -> None:
        for when in times:
            self.schedule_at(when, callback)

    def run_until(self, deadline, *, max_events=None) -> None:
        budget = max_events if max_events is not None else float("inf")
        heap = self._heap
        processed = self._events_processed
        try:
            while heap and heap[0][0] <= deadline:
                if processed >= budget:
                    raise SimulationError(
                        f"event budget exhausted ({max_events} events before t={deadline})"
                    )
                when, _, callback, args = heapq.heappop(heap)
                self._now = when
                processed += 1
                callback(*args)
        finally:
            self._events_processed = processed
        if self._now < deadline:
            self._now = deadline

    def run_to_completion(self, *, max_events=10_000_000) -> None:
        heap = self._heap
        processed = self._events_processed
        try:
            while heap:
                if processed >= max_events:
                    raise SimulationError(f"event budget exhausted ({max_events} events)")
                when, _, callback, args = heapq.heappop(heap)
                self._now = when
                processed += 1
                callback(*args)
        finally:
            self._events_processed = processed

    def pending(self) -> int:
        return len(self._heap)

    def clear(self) -> None:
        self._heap.clear()


# ----------------------------------------------------------------------
# Runs: the merged loop against the heap, event for event
# ----------------------------------------------------------------------
class TestRuns:
    def test_a_batch_is_one_run_not_a_heap_entry_per_time(self):
        loop = EventLoop()
        loop.schedule_batch([0.1, 0.2, 0.3], lambda: None)
        assert loop._heap == [] and len(loop._runs) == 1
        assert loop.pending() == 3
        loop.run_until(0.15)
        assert loop.pending() == 2 and loop.events_processed == 1

    def test_a_descending_batch_is_refused(self):
        loop = EventLoop()
        with pytest.raises(SimulationError, match="ascending"):
            loop.schedule_batch([0.2, 0.1], lambda: None)
        assert loop.pending() == 0

    def test_an_empty_batch_schedules_nothing(self):
        loop = EventLoop()
        loop.schedule_batch([], lambda: None)
        loop.schedule(0.5, lambda: None)
        assert loop.pending() == 1

    def test_each_entry_runs_at_its_own_instant_between_heap_events(self):
        loop = EventLoop()
        seen = []
        loop.schedule_at(0.2, lambda: seen.append(("heap", loop.now)))
        loop.schedule_batch([0.1, 0.2, 0.3], lambda: seen.append(("run", loop.now)))
        loop.schedule_at(0.2, lambda: seen.append(("late", loop.now)))
        loop.run_to_completion()
        # Ties by scheduling order: the earlier heap event, the run, the later one.
        assert seen == [("run", 0.1), ("heap", 0.2), ("run", 0.2), ("late", 0.2), ("run", 0.3)]
        assert loop.events_processed == 5

    def test_the_budget_runs_out_in_the_middle_of_a_run(self):
        loop = EventLoop()
        seen = []
        loop.schedule_batch([1.0, 2.0, 3.0, 4.0], lambda: seen.append(loop.now))
        with pytest.raises(SimulationError, match="budget"):
            loop.run_until(10.0, max_events=2)
        assert seen == [1.0, 2.0] and loop.now == 2.0
        assert loop.events_processed == 2 and loop.pending() == 2
        loop.run_to_completion()
        assert seen == [1.0, 2.0, 3.0, 4.0] and loop.pending() == 0

    def test_clear_drops_runs(self):
        loop = EventLoop()
        loop.schedule_batch([0.1, 0.2], lambda: None)
        loop.schedule(0.1, lambda: None)
        loop.clear()
        assert loop.pending() == 0
        loop.run_to_completion()
        assert loop.events_processed == 0


#: A small grid, so that equal times across runs and the heap are common.
TIMES = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0])
#: What a callback schedules when it fires, relative to ``now`` (a
#: negative offset is clamped to ``now``).
SPAWNS = st.one_of(
    st.none(),
    st.tuples(st.just("schedule"), st.sampled_from([0.0, 0.25, 1.0])),
    st.tuples(st.just("schedule_at"), st.sampled_from([-0.5, 0.0, 0.5])),
    st.tuples(
        st.just("batch"),
        st.lists(st.sampled_from([-0.5, 0.0, 0.0, 0.25, 1.0]), max_size=4).map(sorted),
    ),
)
STEPS = st.one_of(
    st.tuples(st.just("schedule"), TIMES, SPAWNS),
    st.tuples(st.just("schedule_at"), TIMES, SPAWNS),
    st.tuples(st.just("batch"), st.lists(TIMES, max_size=5).map(sorted), SPAWNS),
    st.tuples(st.just("run_until"), TIMES, st.one_of(st.none(), st.integers(0, 6))),
)


def execute(loop, program) -> list:
    """Run ``program`` on ``loop``: every callback's ``(tag, now)``, and
    after every drain ``now``, ``events_processed`` and ``pending()``."""
    trace = []

    def fire(tag, spawn):
        trace.append((tag, loop.now))
        if spawn is None:
            return
        kind, arg = spawn
        child = partial(fire, tag + "'", None)
        if kind == "schedule":
            loop.schedule(arg, child)
        elif kind == "schedule_at":
            loop.schedule_at(loop.now + arg, child)
        else:
            loop.schedule_batch([loop.now + offset for offset in arg], child)

    for index, (kind, arg, extra) in enumerate(program):
        if kind == "run_until":
            budget = None if extra is None else loop.events_processed + extra
            try:
                loop.run_until(arg, max_events=budget)
            except SimulationError:
                trace.append("exhausted")
            trace.append((loop.now, loop.events_processed, loop.pending()))
            continue
        callback = partial(fire, str(index), extra)
        if kind == "schedule":
            loop.schedule(arg, callback)
        elif kind == "schedule_at":
            loop.schedule_at(arg, callback)
        else:
            loop.schedule_batch(list(arg), callback)
    loop.run_to_completion()
    trace.append((loop.now, loop.events_processed, loop.pending()))
    return trace


@settings(max_examples=300, deadline=None)
@given(program=st.lists(STEPS, max_size=25))
def test_the_merged_loop_is_the_heap_event_for_event(program):
    """The same callbacks at the same instants in the same order, the
    same ``events_processed`` and the same ``pending()`` after every
    drain — budget exhaustion included — for programs mixing single
    events, batches (empty, clamped, sharing times with each other and
    with the heap) and callbacks that schedule more at ``now``."""
    assert execute(EventLoop(), program) == execute(HeapEventLoop(), program)


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("protocol", ["mahi-mahi-5", "mahi-mahi-4", "cordial-miners", "tusk"])
def test_an_experiment_on_the_merged_loop_is_byte_identical(protocol, scenario):
    """Whole experiments: the same ``repr(result)`` — ``events_processed``
    included — and the same registry snapshot as on the heap-only loop."""
    fields = dict(protocol=protocol, num_validators=4, load_tps=1_500.0, duration=4.0, warmup=0.4)
    fields.update(SCENARIOS[scenario])
    config = ExperimentConfig(seed=11, **fields)
    outcomes = []
    for loop in (HeapEventLoop, EventLoop):
        with mock.patch.object(runner, "EventLoop", loop):
            experiment = Experiment(config)
        result = experiment.run()
        outcomes.append((repr(result), experiment._metrics.registry.snapshot()))
    assert outcomes[0] == outcomes[1]
    assert result.blocks_committed > 0 and result.events_processed > 0
