"""Unit tests for the one shallow-fetch table, driven through the
driver that owns it and the recording fake port (timers fire by hand)."""

import pytest

from repro.block import Block
from repro.messages import BlockMessage, FetchRequest
from repro.sim.events import EventLoop
from repro.sim.latency import UniformLatencyModel
from repro.sim.network import Message, SimNetwork
from repro.sim.node import SimValidator
from repro.statesync.synchronizer import BATCH, RETRY_AFTER, Synchronizer
from tests.statesync.test_checkpoint import make_core
from tests.statesync.test_driver import make_driver, peer_blocks


def ref(author, round_number=1, salt=b""):
    """A reference to a block nobody holds."""
    return Block(author=author, round=round_number, parents=(), salt=salt).reference


@pytest.fixture
def table():
    """Validator 3's synchronizer and its port."""
    driver, port = make_driver()
    return driver.synchronizer, port


def fire(port):
    """Fire the one armed retry timer (and take it off the port)."""
    [(delay, tick, args)] = port.timers
    assert delay == RETRY_AFTER
    port.timers.clear()
    tick(*args)


class TestFetching:
    def test_first_request_goes_to_the_sender_at_once(self, table):
        sync, port = table
        assert not port.timers  # nothing tracked, nothing armed
        missing = (ref(0), ref(1))
        sync.note_missing(missing, sender=2)
        assert port.sent == [(2, FetchRequest(missing))]
        assert sync.missing == 2 and sync.requests_sent == 1
        assert [delay for delay, *_ in port.timers] == [RETRY_AFTER]

    def test_a_second_report_of_a_tracked_reference_asks_nobody(self, table):
        sync, port = table
        sync.note_missing((ref(0),), sender=1)
        sync.note_missing((ref(0),), sender=2)
        assert port.sent == [(1, FetchRequest((ref(0),)))]
        # ... and only the untracked part of a mixed report goes out.
        sync.note_missing((ref(0), ref(1)), sender=2)
        assert port.sent[1:] == [(2, FetchRequest((ref(1),)))]
        assert len(port.timers) == 1  # one timer, however many reports

    def test_nothing_is_asked_again_inside_a_period(self, table):
        sync, port = table
        sync.note_missing((ref(0),), sender=2)
        sync.note_missing((ref(1),), sender=2)  # mid-period: the timer is running
        del port.sent[:]
        fire(port)  # ref(0) went a whole period unanswered, ref(1) did not
        assert port.sent == [(0, FetchRequest((ref(0),)))]
        fire(port)
        assert sorted(port.sent[1:]) == [(1, FetchRequest((ref(1),))), (2, FetchRequest((ref(0),)))]

    def test_retries_go_to_the_author_then_rotate(self, table):
        sync, port = table
        sync.note_missing((ref(1),), sender=2)
        for _ in range(4):
            fire(port)
        # Sender, author, then every validator but ourselves (3) in turn.
        assert [dst for dst, _ in port.sent] == [2, 1, 2, 0, 1]

    def test_an_own_authored_reference_skips_the_author_step(self, table):
        sync, port = table
        sync.note_missing((ref(3),), sender=2)  # a pre-crash block of ours
        fire(port)
        fire(port)
        assert [dst for dst, _ in port.sent] == [2, 1, 2]

    def test_retries_are_batched(self, table):
        sync, port = table
        many = tuple(ref(0, salt=str(i).encode()) for i in range(BATCH + 10))
        sync.note_missing(many, sender=1)
        assert [len(m.refs) for _, m in port.sent] == [BATCH + 10]  # one report, one request
        del port.sent[:]
        fire(port)
        assert [(dst, len(m.refs)) for dst, m in port.sent] == [(0, BATCH), (0, 10)]
        assert sync.requests_sent == 3

    def test_arrival_cancels_and_an_empty_table_arms_nothing(self, table):
        sync, port = table
        sync.note_missing((ref(0), ref(1)), sender=2)
        sync.note_arrived(ref(0).digest)
        del port.sent[:]
        fire(port)
        assert port.sent == [(1, FetchRequest((ref(1),)))]
        sync.note_arrived(ref(1).digest)
        fire(port)  # the last armed timer finds nothing and is not re-armed
        assert sync.missing == 0 and len(port.sent) == 1 and not port.timers

    def test_the_rotation_covers_every_provisioned_validator(self):
        driver, port = make_driver()
        driver.restart(make_core(3, n=6))
        driver.synchronizer.note_missing((ref(0),), sender=0)
        for _ in range(6):
            fire(port)
        assert {dst for dst, _ in port.sent} == {0, 1, 2, 4, 5}


class TestBenchmarkSeam:
    """``benchmarks/perf/mmperf/layers.py`` (frozen) wraps
    ``repro.runtime.synchronizer.Synchronizer.tick`` / ``.note_missing``
    on the class that defines them, after nodes may have been built."""

    def test_the_runtime_module_re_exports_the_class_and_it_defines_both(self):
        from repro.runtime import synchronizer as shim

        assert shim.Synchronizer is Synchronizer
        assert {"tick", "note_missing"} <= set(vars(Synchronizer))

    def test_an_armed_timer_runs_the_method_the_class_holds_when_it_is_armed(
        self, table, monkeypatch
    ):
        sync, port = table
        ticks = []
        original = Synchronizer.tick

        def wrapped(self):
            ticks.append(self)
            original(self)

        monkeypatch.setattr(Synchronizer, "tick", wrapped)
        sync.note_missing((ref(0),), sender=2)
        fire(port)
        fire(port)  # re-armed from inside the wrapped call
        assert ticks == [sync, sync]


class TestForgetting:
    def test_a_reference_behind_the_horizon_is_abandoned_and_counted(self, table):
        sync, port = table
        sync.note_missing((ref(0, 4), ref(1, 9)), sender=2)
        sync._core.store.adopt_floor(5)
        del port.sent[:]
        fire(port)
        assert sync.refs_abandoned == 1 and sync.missing == 1
        assert port.sent == [(1, FetchRequest((ref(1, 9),)))]

    def test_restart_empties_the_table(self):
        driver, port = make_driver()
        driver.synchronizer.note_missing((ref(0),), sender=2)
        port.timers.clear()  # the host drops a dead incarnation's timers
        driver.restart(make_core(3))
        assert driver.synchronizer.missing == 0
        # The new incarnation tracks, asks and arms from scratch.
        driver.synchronizer.note_missing((ref(0),), sender=1)
        assert port.sent[-1] == (1, FetchRequest((ref(0),)))
        assert len(port.timers) == 1 and driver.synchronizer.requests_sent == 2

    def test_a_paused_simulated_validator_resumes_with_an_empty_table(self):
        """``recover()`` without a ``core_factory`` keeps the core but
        bumps the incarnation, which drops the armed timer: entries left
        behind would never be asked for again."""
        loop = EventLoop()
        network = SimNetwork(loop, UniformLatencyModel(0.02), 4, seed=1)
        victim = SimValidator(make_core(3), network, loop)
        asked = []
        network.register_batch(2, lambda batch: asked.extend(m.body for m in batch))
        # Two round-2 blocks naming the same, unknown, round-1 parents.
        first, second = (b for b in peer_blocks(2) if b.round == 2)

        def deliver(block):
            victim.on_message(Message(src=2, dst=3, body=BlockMessage(block), size=100))

        deliver(first)
        table = victim._driver.synchronizer
        assert table.missing == 3  # the round-1 blocks of 0, 1 and our own
        victim.crash()
        victim.recover()
        assert table.missing == 0
        deliver(second)
        loop.run_until(RETRY_AFTER + 0.5)
        # Asked at once, and again (by the re-armed timer) a period later.
        assert table.missing == 3 and table.requests_sent >= 4
        assert sum(type(body) is FetchRequest for body in asked) >= 2
