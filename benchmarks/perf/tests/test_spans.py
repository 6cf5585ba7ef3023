"""Span accounting: self time, overhead subtraction, slicing, unpatching."""

import asyncio
import os
import sys

from mmperf.layers import TARGETS, install
from mmperf.spans import SpanRecorder


class FakeClock:
    """Returns the scripted instants, one per reading."""

    def __init__(self, *instants: int) -> None:
        self._instants = list(instants)

    def __call__(self) -> int:
        return self._instants.pop(0)


def test_nested_self_time_and_overhead_subtraction():
    # Readings: recorder origin, outer start, inner start, inner end, outer end.
    recorder = SpanRecorder(clock=FakeClock(0, 0, 10, 40, 100))
    recorder.inner_ns, recorder.outer_ns, recorder.count_ns = 2, 3, 1
    tick = recorder.count(lambda: None, "tiny")
    inner = recorder.span(lambda: None, "child", "inner")

    def body():
        tick()
        inner()
        tick()

    recorder.span(body, "parent", "outer")()
    # inner: 30 measured, minus its own inner overhead.
    assert recorder.self_ns["child"] == 30 - 2
    # outer: 100 measured, minus the child's 30 and the wrapper cost
    # around it (3), minus two counted calls (1 each), minus its own 2.
    assert recorder.self_ns["parent"] == 100 - (30 + 3) - 2 * 1 - 2
    assert recorder.function_calls == {"child:inner": 1, "parent:outer": 1}
    assert recorder.layer_calls("parent") == 1
    assert recorder.calls["tiny"] == 2
    # Only the outermost span counts as top-level time.
    assert recorder.top_ns == 100


def test_sibling_spans_of_one_layer_add_up():
    recorder = SpanRecorder(clock=FakeClock(0, 0, 5, 5, 25))
    work = recorder.span(lambda: None, "layer", "work")
    work()
    work()
    assert recorder.self_ns["layer"] == 5 + 20
    assert recorder.layer_calls("layer") == 2


def test_tally_counts_results_satisfying_the_predicate():
    recorder = SpanRecorder()
    classify = recorder.span(lambda x: x, "decider", "classify", ("decided", bool))
    assert [classify(v) for v in (0, 1, 2, 0)] == [0, 1, 2, 0]
    assert recorder.calls["decided"] == 2
    assert recorder.layer_calls("decider") == 4


def test_a_span_books_even_when_the_call_raises():
    recorder = SpanRecorder()

    def boom():
        raise KeyError("x")

    wrapped = recorder.span(boom, "layer", "boom")
    try:
        wrapped()
    except KeyError:
        pass
    assert recorder.layer_calls("layer") == 1
    assert recorder._open == []


def test_coroutines_are_booked_per_resumption_not_per_await():
    recorder = SpanRecorder()

    async def waits():
        await asyncio.sleep(0.05)
        await asyncio.sleep(0.05)
        return "done"

    traced = recorder.span(waits, "layer", "waits")
    assert asyncio.run(traced()) == "done"
    assert recorder.layer_calls("layer") == 1
    assert recorder.self_seconds("layer") < 0.05  # the 0.1 s asleep is not ours


def test_cancellation_passes_through_a_traced_coroutine():
    recorder = SpanRecorder()
    cleaned = []

    async def sleeper():
        try:
            await asyncio.sleep(10)
        finally:
            cleaned.append(True)

    async def main():
        task = asyncio.create_task(recorder.span(sleeper, "layer", "sleeper")())
        await asyncio.sleep(0.01)
        task.cancel()
        await asyncio.gather(task, return_exceptions=True)
        return task.cancelled()

    assert asyncio.run(main()) is True
    assert cleaned == [True]
    assert recorder._open == []


def test_calibration_measures_overheads_and_leaves_no_trace():
    recorder = SpanRecorder()
    recorder.calibrate(rounds=2, n=2_000)
    assert recorder.inner_ns >= 0 and recorder.outer_ns >= 0 and recorder.count_ns >= 0
    assert recorder.inner_ns + recorder.outer_ns > 0
    assert recorder.calls == {} and recorder.function_calls == {} and recorder.self_ns == {}
    assert recorder.top_ns == 0


def _patchable_state() -> dict:
    """Identity of every attribute ``install`` may replace."""
    state = {("os", "fsync"): os.fsync}
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in vars(module).items():
                state[(name, attr)] = value
                if isinstance(value, type):
                    for member, raw in vars(value).items():
                        state[(name, attr, member)] = raw
    return state


def test_install_then_unpatch_restores_every_attribute_identically():
    import mmperf.workloads  # noqa: F401  (loads every module a workload uses)

    before = _patchable_state()
    recorder = SpanRecorder()
    install(recorder)
    during = _patchable_state()
    changed = [key for key, value in before.items() if during[key] is not value]
    assert len(changed) >= len(TARGETS)
    recorder.unpatch()
    after = _patchable_state()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_module_functions_are_patched_wherever_they_were_imported():
    import repro.block
    import repro.crypto.hashing

    recorder = SpanRecorder()
    install(recorder)
    try:
        assert repro.block.hash_parts is repro.crypto.hashing.hash_parts
        repro.block.hash_parts([b"x"])
        assert recorder.function_calls["crypto.hashing:hash_parts"] == 1
    finally:
        recorder.unpatch()
