"""Unit tests for :class:`ValidatorDriver`, one per transition, driven
through a recording fake port (no event loop, no transport, no clock)."""

import functools
from types import SimpleNamespace

import pytest

from repro.baselines.tusk import TuskCommitter
from repro.committee import Committee, CommitteeSchedule, ReconfigCommand
from repro.errors import BlockValidationError, StateTransferError
from repro.messages import (
    Ack,
    BlockMessage,
    Certificate,
    CheckpointRequest,
    CheckpointResponse,
    FetchRequest,
    FetchResponse,
    Header,
    SyncRequest,
    SyncResponse,
    TransactionMessage,
)
from repro.obs.trace import Tracer
from repro.runtime.wal import WriteAheadLog
from repro.statesync import ValidatorDriver, ancestor_closure
from repro.statesync import recovery as recovery_module
from repro.statesync.driver import CHECKPOINT_RETRY, SYNC_TIMEOUT
from tests.statesync.test_checkpoint import drive_rounds, make_core


class FakePort:
    """Records every effect, in order; its clock reads :attr:`clock`.
    :meth:`attach` also records the ``(block, live)`` of every
    :meth:`ValidatorDriver.ingest`."""

    def __init__(self):
        self.driver = None
        self.clock = 0.0
        self.sent = []  # (dst, message)
        self.timers = []  # (delay, callback, args)
        self.ingested = []  # (block, live)
        #: Every call but ``send``, ``now`` and ``trace_time``, in
        #: order: ``(name, *args)``.
        self.calls = []

    def attach(self, driver):
        self.driver = driver
        ingest = driver.ingest

        def recorded(block, peer, live=True):
            self.ingested.append((block, live))
            return ingest(block, peer, live)

        driver.ingest = recorded
        return driver

    def now(self):
        return self.clock

    def send(self, dst, message):
        self.sent.append((dst, message))

    def call_later(self, delay, callback, *args):
        self.timers.append((delay, callback, args))
        self.calls.append(("call_later", delay))

    def trace_time(self):
        return 0.0

    def announce(self, block):
        self.calls.append(("announce", block))

    def accepted(self, blocks, peer):
        self.calls.append(("accepted", tuple(blocks), peer))

    def recovered(self, at, mode):
        self.calls.append(("recovered", at, mode))

    def committed(self, observations):
        self.calls.append(("committed", tuple(observations)))

    def leave(self):
        self.calls.append(("leave",))

    def called(self, name):
        """The arguments of every ``name`` call, in order."""
        return [call[1:] for call in self.calls if call[0] == name]

    @property
    def announced(self):
        return [block for (block,) in self.called("announce")]

    @property
    def sync_requests(self):
        """The deep fetches sent, as ``(peer, refs, floor, token)``."""
        return [
            (dst, m.refs, m.floor, m.token) for dst, m in self.sent if type(m) is SyncRequest
        ]

    @property
    def checkpoint_requests(self):
        return self.sent.count((None, CheckpointRequest()))

    @property
    def instants(self):
        """The driver's ``sync``-track instants as ``(name, args)``."""
        return [(e.name, e.args) for e in self.driver.tracer.events if e.subsystem == "sync"]

    def names(self):
        return [name for name, _ in self.instants]


def make_driver(
    mode="cold", *, chunk=4096, interval=0, gc=0, authority=3, pacing=0.0, wal=None
):
    port = FakePort()
    driver = ValidatorDriver(
        make_core(authority, interval=interval, gc=gc),
        port,
        mode,
        chunk,
        interval=pacing,
        wal=wal,
        tracer=Tracer(),
    )
    return port.attach(driver), port


@functools.lru_cache(maxsize=None)
def history(rounds=14, *, interval=0, gc=0):
    """Four validators' cores after ``rounds`` lockstep rounds (shared
    between tests: serve from them, never ingest into them)."""
    cores = [make_core(i, interval=interval, gc=gc) for i in range(4)]
    drive_rounds(cores, rounds)
    return cores


def suffix(core, floor=0):
    """Every stored block above round ``floor``, lowest rounds first."""
    store = core.store
    tips = [b for a in range(4) for b in store.slot_blocks(store.highest_round, a)]
    return ancestor_closure(store, tips, floor, 1 << 20)


def adopt(driver, checkpoint, order=(2, 0, 1)):
    for peer in order:
        driver.on_checkpoint_response(peer, (checkpoint,))


class TestModeSelection:
    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ValueError, match="unknown recover_mode"):
            make_driver("lukewarm")

    def test_cold_waits_for_a_block_to_report_missing_ancestors(self, tmp_path):
        driver, port = make_driver("cold", wal=WriteAheadLog(tmp_path / "unused.wal"))
        port.clock = 7.0
        assert driver.recover(make_core(3)) is None  # cold never reads the log
        assert driver.syncing and driver.recovered_at == 7.0
        assert port.instants == [("recovery_started", {"mode": "cold"})]
        assert port.checkpoint_requests == 0 and not port.sync_requests

    def test_warm_with_empty_wal_degenerates_to_cold(self, tmp_path):
        driver, port = make_driver("warm", wal=WriteAheadLog(tmp_path / "empty.wal"))
        replay = driver.recover(make_core(3))
        assert replay.blocks == 0 and driver.syncing
        assert driver.recovery_mode_used == "cold"
        assert port.instants == [("recovery_started", {"mode": "cold"})]

    def test_warm_replays_the_log_and_restores_the_proposal_round(self, tmp_path):
        source = history(6)[3]
        wal = WriteAheadLog(tmp_path / "v3.wal")
        for block in suffix(source):
            wal.append_block(block)
        driver, port = make_driver("warm", wal=wal)
        fresh = make_core(3)
        replay = driver.recover(fresh)
        assert driver.core is fresh and driver.syncing
        assert replay.blocks == len(suffix(source)) and replay.own_top_round == 6
        assert driver.recovery_mode_used == "warm"
        assert driver.core.round >= 6  # never re-proposes a logged round
        assert port.instants == [
            ("recovery_started", {"mode": "warm", "replayed": replay.blocks})
        ]

    def test_checkpoint_asks_for_state_transfer_before_any_fetch(self):
        driver, port = make_driver("checkpoint")
        assert driver.recover(make_core(3)) is None
        assert driver.awaiting_checkpoint and port.checkpoint_requests == 1
        assert port.instants == [("recovery_started", {"mode": "checkpoint"})]
        # Fetching toward genesis would fight the adoption: suppressed.
        tip = suffix(history(3)[0])[-1]
        assert not driver.request_sync(0, (tip.reference,))
        assert not port.sync_requests
        # The retry timer the request armed asks again, and re-arms.
        [(delay, retry, args)] = port.timers
        assert delay == CHECKPOINT_RETRY
        retry(*args)
        assert port.checkpoint_requests == 2 and len(port.timers) == 2

    def test_restart_forgets_the_previous_incarnation(self):
        driver, port = make_driver("cold")
        port.clock = 1.0
        driver.begin_sync()
        tip = suffix(history(3)[0])[-1]
        assert driver.request_sync(0, (tip.reference,))
        fresh = make_core(3)
        driver.restart(fresh)
        assert driver.core is fresh and not driver._inflight
        assert driver.recovered_at is None
        port.clock = 2.0
        driver.begin_sync()
        assert driver.recovered_at == 2.0
        # Tokens stay monotonic across incarnations, so a response the
        # previous one requested can never look current.
        assert driver.request_sync(1, (tip.reference,))
        assert [token for *_, token in port.sync_requests] == [1, 2]


class TestCheckpointAdoption:
    def test_quorum_adopts_and_fetches_the_suffix_from_the_first_attester(self):
        checkpoint = history(30, interval=2)[0].committer.ledger.checkpoints[-1]
        driver, port = make_driver("checkpoint", interval=2)
        driver.begin_sync()
        driver.on_checkpoint_response(2, (checkpoint,))
        driver.on_checkpoint_response(2, (checkpoint,))  # a repeat is one vote
        driver.on_checkpoint_response(0, (checkpoint,))
        assert not driver.ckpt_adopted and not port.sync_requests
        driver.on_checkpoint_response(1, (checkpoint,))
        assert driver.ckpt_adopted and driver.checkpoint_adoptions == 1
        assert driver.recovery_mode_used == "checkpoint"
        assert driver.core.committer.ledger.adopted_base == checkpoint
        # Peer 2 answered first (the nearest attester); nothing below
        # the adopted floor is ever requested.
        assert checkpoint.floor > 1
        assert port.sync_requests == [(2, checkpoint.frontier, checkpoint.floor - 1, 1)]
        assert port.names() == ["recovery_started", "checkpoint_adopted", "sync_requested"]
        # Later responses are ignored, and the retry timer finds
        # nothing left to ask for.
        driver.on_checkpoint_response(0, (checkpoint,))
        assert driver.checkpoint_adoptions == 1
        delay, retry, args = port.timers[0]
        retry(*args)
        assert port.checkpoint_requests == 1

    def test_responses_are_ignored_when_not_recovering(self):
        checkpoint = history(30, interval=2)[0].committer.ledger.checkpoints[-1]
        driver, port = make_driver("checkpoint", interval=2)
        adopt(driver, checkpoint)
        assert not driver.ckpt_adopted and not port.sync_requests

    def test_serves_its_retained_checkpoints(self):
        core = history(30, interval=2)[0]
        driver = ValidatorDriver(core, FakePort(), "cold", 4096)
        assert driver.retained_checkpoints() == tuple(core.committer.ledger.checkpoints)


class TestDeepFetchChain:
    def syncing_driver(self, **kwargs):
        driver, port = make_driver("cold", **kwargs)
        driver.begin_sync()
        return driver, port

    def test_one_request_in_flight_until_it_times_out(self):
        driver, port = self.syncing_driver()
        refs = (suffix(history(3)[0])[-1].reference,)
        assert driver.request_sync(0, refs) and driver._inflight
        assert port.timers == [(SYNC_TIMEOUT, driver.sync_timed_out, (1,))]
        assert not driver.request_sync(1, refs)  # suppressed
        assert not driver.request_sync(0, ())  # nothing to ask for
        driver.sync_timed_out(99)  # another request's timer
        assert driver._inflight
        driver.sync_timed_out(1)
        assert not driver._inflight
        assert driver.request_sync(1, refs)
        driver.sync_timed_out(1)  # the stale timer must not clear request 2
        assert driver._inflight
        assert [(peer, token) for peer, _, _, token in port.sync_requests] == [(0, 1), (1, 2)]

    def test_a_timed_out_fetch_is_retried_at_the_next_peer(self):
        """Lemma 8: a deep fetch that goes unanswered is asked again, of
        the next provisioned peer after the silent one, for what the
        frontier still misses.  Nothing else would restart the chain:
        once a live block's parents are buffered, it reports nothing
        missing."""
        blocks = suffix(history(6)[0])
        driver, port = self.syncing_driver()  # validator 3 of 4
        for block in blocks[-8:-4]:  # live round-5 blocks
            assert driver.ingest(block, 2).missing
        assert [(peer, token) for peer, _, _, token in port.sync_requests] == [(2, 1)]
        assert not driver.ingest(blocks[-1], 2).missing  # round 6: parents buffered
        driver.sync_timed_out(1)
        # Peer 3 is this validator: the next after 2 is 0, then 1.
        assert port.sync_requests[-1] == (0, driver.core.missing_frontier(), 0, 2)
        assert port.timers[-1] == (SYNC_TIMEOUT, driver.sync_timed_out, (2,))
        driver.sync_timed_out(2)
        assert port.sync_requests[-1][::3] == (1, 3)
        # The retry's answer, a short chunk, ends the re-sync, and the
        # driver steps at once: it proposes above the fetched round 6.
        driver.on_sync_response(1, tuple(blocks), (), 3)
        assert not driver.syncing and [b.round for b in port.announced] == [7]
        driver.sync_timed_out(3)  # answered already: nothing to retry
        assert len(port.sync_requests) == 3

    def test_stale_response_contributes_blocks_but_does_not_drive_the_chain(self):
        source = history(6)[0]
        driver, port = self.syncing_driver()
        refs = (suffix(source)[-1].reference,)
        driver.request_sync(0, refs)
        driver.sync_timed_out(1)
        driver.request_sync(1, refs)
        blocks = tuple(suffix(source))
        driver.on_sync_response(0, blocks, (), 1)
        assert port.ingested == [(block, False) for block in blocks]
        assert driver.core.store.highest_round == 6  # the blocks did land
        assert driver.syncing and driver._inflight  # request 2 still owns the chain
        assert len(port.sync_requests) == 2
        # An untagged response never drives the chain either.
        driver.on_sync_response(0, (), (), 0)
        assert driver._inflight and not port.announced

    def test_short_chunk_finishes_and_full_chunk_continues(self, monkeypatch):
        """The serving side caps every chunk at SYNC_MAX_BLOCKS whatever
        the configured size, so a full chunk is ``min`` of the two — a
        node configured above the cap must not mistake a capped chunk
        for the peer's whole closure."""
        blocks = suffix(history(6)[0])
        monkeypatch.setattr(recovery_module, "SYNC_MAX_BLOCKS", 8)
        driver, port = self.syncing_driver(chunk=64)
        driver.request_sync(0, (blocks[-1].reference,))
        # Exactly the cap (rounds 1-2): more may follow, keep going.
        driver.on_sync_response(0, tuple(blocks[:8]), (), 1)
        assert driver.syncing
        # ...but with nothing pending there is no frontier to name.
        assert len(port.sync_requests) == 1
        # A pending live block gives the chain its next request.
        driver.core.add_block(blocks[-1])
        driver.request_sync(0, driver.core.missing_frontier())
        assert port.sync_requests[-1][2:] == (2, 2)  # floor advanced to round 2
        driver.on_sync_response(0, tuple(blocks[8:16]), (), 2)
        assert port.sync_requests[-1][2:] == (4, 3)  # chained straight off the response
        assert driver.syncing and not port.announced
        # The rest is a short chunk and connects everything: caught up.
        driver.on_sync_response(0, tuple(blocks[16:-1]), (), 3)
        assert not driver.syncing and not driver._inflight
        assert [b.round for b in port.announced] == [7]
        assert port.names()[-1] == "sync_finished"

    def test_empty_response_unblocks_without_reasking(self):
        driver, port = self.syncing_driver()
        driver.request_sync(0, (suffix(history(3)[0])[-1].reference,))
        driver.on_sync_response(0, (), (), 1)
        assert driver.syncing and not driver._inflight
        assert len(port.sync_requests) == 1

    def test_live_block_finishes_and_clears_the_inflight_marker(self):
        """Finishing off a live block must leave no deep fetch marked in
        flight, or the next fall-behind within the retry window has its
        first request silently suppressed."""
        source = history(3)[0]
        blocks = suffix(source)
        driver, port = self.syncing_driver()
        driver.request_sync(0, (blocks[-1].reference,))
        for block in blocks[:4]:  # round 1 arrives as a fetched chunk
            assert driver.ingest(block, 0, live=False).accepted
        assert driver.syncing  # fetched blocks prove nothing
        assert driver.ingest(blocks[4], 1).accepted  # a live round-2 broadcast
        assert not driver.syncing and not driver._inflight
        assert port.instants[-1] == ("sync_finished", {"mode": "cold"})
        driver.begin_sync(behind=12)
        assert driver.request_sync(1, (blocks[-1].reference,))


class TestPrunedHistory:
    def adopted(self):
        cores = history(30, interval=2)
        checkpoint = cores[0].committer.ledger.checkpoints[-1]
        driver, port = make_driver("checkpoint", interval=2)
        driver.begin_sync()
        adopt(driver, checkpoint)
        return driver, port, checkpoint, cores[0]

    def test_pruned_inside_the_adopted_span_raises_the_floor(self):
        driver, port, checkpoint, source = self.adopted()
        assert checkpoint.floor < checkpoint.round
        pruned = tuple(
            block.reference
            for block in suffix(source, checkpoint.floor - 1)
            if block.round == checkpoint.floor
        )
        driver.on_sync_response(2, (), pruned, 1)
        assert driver.core.store.sync_floor == checkpoint.floor + 1
        assert driver.syncing

    def test_pruned_past_the_adopted_round_is_a_stale_checkpoint(self):
        driver, port, checkpoint, source = self.adopted()
        beyond = next(b for b in suffix(source) if b.round == checkpoint.round + 1)
        with pytest.raises(StateTransferError, match="went stale mid-recovery"):
            driver.on_sync_response(2, (), (beyond.reference,), 1)

    def test_pruned_without_a_checkpoint_needs_state_transfer(self):
        driver, port = make_driver("cold")
        driver.begin_sync()
        ref = suffix(history(3)[0])[0].reference
        driver.request_sync(0, (ref,))
        with pytest.raises(StateTransferError, match="recover_mode='checkpoint'"):
            driver.on_sync_response(0, (), (ref,), 1)

    def test_stale_pruned_flags_are_ignored(self):
        driver, port = make_driver("cold")
        driver.begin_sync()
        ref = suffix(history(3)[0])[0].reference
        driver.on_sync_response(0, (), (ref,), 7)  # raises nothing
        assert driver.syncing


class TestServing:
    def test_serves_the_closure_above_the_floor_in_chunks(self):
        source = history(6)[0]
        driver = ValidatorDriver(source, FakePort(), "cold", 8)
        tips = tuple(b.reference for b in suffix(source)[-4:])
        served, pruned = driver.serve_sync(tips, 2)
        assert [b.round for b in served] == [3] * 4 + [4] * 4 and pruned == ()
        assert driver.held_blocks(tips) == suffix(source)[-4:]

    def test_flags_requested_references_it_already_pruned(self):
        source = history(40, gc=4)[0]
        assert source.store.lowest_round > 1
        old = history(2)[0]  # the same deterministic round-1 blocks
        refs = tuple(b.reference for b in suffix(old)[:4])
        driver = ValidatorDriver(source, FakePort(), "cold", 8)
        served, pruned = driver.serve_sync(refs, 0)
        assert served == () and pruned == refs

    def test_a_held_header_is_served_and_not_flagged(self):
        source = history(40, gc=4)[0]
        header = suffix(history(2)[1])[0]  # a round-1 block ``source`` pruned
        assert header.round < source.store.lowest_round
        driver = ValidatorDriver(source, FakePort(), "cold", 8)
        refs = (header.reference,)
        assert driver.serve_sync(refs, 0) == ((), refs)
        driver.on_message(Header(header), 1)
        assert driver.held_blocks(refs) == [header]
        served, pruned = driver.serve_sync(refs, 0)
        assert served == (header,) and pruned == ()


class TestFetchRouting:
    """Where :meth:`ValidatorDriver.ingest` sends what ``add_block``
    reports missing."""

    def early_block(self, round_number):
        """A round-``round_number`` block of validator 0 and the parents
        a fresh validator 3 lacks (its own round-1 block included)."""
        block = next(b for b in suffix(history(14)[0]) if (b.round, b.author) == (round_number, 0))
        return block, tuple(block.parents)

    def test_while_resyncing_everything_goes_to_the_deep_chain(self):
        driver, port = make_driver()
        driver.begin_sync()
        block, missing = self.early_block(2)
        assert driver.ingest(block, 1).missing == missing
        # Unfiltered: exactly what the core reported, to the sender.
        assert port.sync_requests == [(1, missing, 0, 1)]
        assert driver.synchronizer.missing == 0
        assert not any(type(m) is FetchRequest for _, m in port.sent)

    def test_a_live_block_more_than_two_waves_ahead_starts_a_resync(self):
        driver, port = make_driver()
        block, missing = self.early_block(11)  # wave length 5, frontier at genesis
        port.clock = 7.0
        driver.ingest(block, 2)
        assert driver.syncing and driver.recovered_at == 7.0
        assert port.instants[0] == ("recovery_started", {"mode": "cold", "behind": 11})
        assert port.sync_requests == [(2, missing, 0, 1)]
        assert driver.synchronizer.missing == 0

    def test_two_waves_ahead_or_a_fetched_block_stays_shallow(self):
        for round_number, live in ((10, True), (11, False)):
            driver, port = make_driver()
            block, missing = self.early_block(round_number)
            driver.ingest(block, 2, live)
            assert not driver.syncing and not port.sync_requests
            assert port.sent == [(2, FetchRequest(missing))]
            assert driver.synchronizer.missing == len(missing)

    def test_accepted_proposed_and_connected_blocks_leave_the_table(self):
        driver, port = make_driver(pacing=0.5)
        peers = {r: [b for b in peer_blocks(4) if b.round == r] for r in (1, 2, 3, 4)}
        ours = {r: trio_history(4)[2].store.slot_blocks(r, 3)[0].digest for r in (1, 2, 3)}
        for block in peers[2]:  # round 1, ours included, is missing
            driver.ingest(block, block.author)
        assert set(driver.synchronizer._pending) == {b.digest for b in peers[1]} | {ours[1]}
        # Accepted, it steps: our round 1 is proposed, and leaves too.
        first, second = peers[1]
        driver.ingest(first, first.author)
        assert [b.digest for b in port.announced] == [ours[1]]
        assert set(driver.synchronizer._pending) == {second.digest}
        driver.ingest(second, second.author)  # round 2 connects: ready, but paced
        assert driver.synchronizer.missing == 0
        # Round 4 names round 3, which waits on our paced round-2 block.
        driver.ingest(peers[4][0], 0)
        for block in peers[3]:
            driver.ingest(block, block.author)
        assert set(driver.synchronizer._pending) == {b.digest for b in peers[3]} | {
            ours[2],
            ours[3],
        }
        (fire,) = [(f, a) for _, f, a in port.timers if f == driver._on_pacing_timer]
        port.clock = 0.5
        fire[0](*fire[1])  # proposes round 2, which connects round 3
        assert [b.digest for b in port.announced] == [ours[1], ours[2]]
        blocks, peer = port.called("accepted")[-1]
        assert peer == 3 and set(blocks) == set(peers[3])
        assert set(driver.synchronizer._pending) == {ours[3]}


class TestOnMessage:
    """The dispatcher: each of the seven validator messages, handed over
    as a host would, ends in the same effects the direct calls above
    produce."""

    def serving(self, rounds=6, **kwargs):
        port = FakePort()
        driver = ValidatorDriver(history(rounds, **kwargs)[0], port, "cold", 8)
        port.driver = driver
        return driver, port

    def test_a_block_goes_through_the_host_ingest_path_as_live(self):
        driver, port = make_driver()
        block = peer_blocks(1)[0]
        driver.on_message(BlockMessage(block), block.author)
        assert port.ingested == [(block, True)] and block.digest in driver.core.store

    def test_a_fetch_request_is_answered_with_exactly_what_is_held(self):
        driver, port = self.serving()
        held = suffix(driver.core)[-4:]
        unheld = suffix(history(7)[1])[-1]  # a round-7 block this core lacks
        refs = tuple(b.reference for b in held) + (unheld.reference,)
        driver.on_message(FetchRequest(refs), 2)
        assert port.sent == [(2, FetchResponse(tuple(held)))]
        # Nothing held: no answer at all (the requester rotates peers).
        driver.on_message(FetchRequest((unheld.reference,)), 2)
        assert len(port.sent) == 1
        # A header held outside the DAG is served too.
        driver.on_message(Header(unheld), 1)
        driver.on_message(FetchRequest((unheld.reference,)), 1)
        assert port.sent[-1] == (1, FetchResponse((unheld,)))

    def test_fetched_blocks_are_ingested_as_not_live(self):
        driver, port = make_driver()
        blocks = tuple(peer_blocks(1))
        driver.on_message(FetchResponse(blocks), 0)
        assert port.ingested == [(block, False) for block in blocks]

    def test_a_sync_request_is_always_answered_and_flags_what_was_pruned(self):
        driver, port = self.serving(40, gc=4)
        assert driver.core.store.lowest_round > 1
        pruned = tuple(b.reference for b in suffix(history(2)[0])[:4])
        driver.on_message(SyncRequest(pruned, floor=0, token=9), 3)
        assert port.sent == [(3, SyncResponse(blocks=(), pruned=pruned, token=9))]
        tips = tuple(b.reference for b in suffix(driver.core)[-4:])
        driver.on_message(SyncRequest(tips, floor=38, token=10), 3)
        _, response = port.sent[-1]
        assert response.token == 10 and response.pruned == ()
        assert [b.round for b in response.blocks] == [39] * 4 + [40] * 4

    def test_a_stale_sync_response_contributes_blocks_without_driving_the_chain(self):
        source = history(6)[0]
        driver, port = make_driver("cold")
        driver.begin_sync()
        refs = (suffix(source)[-1].reference,)
        driver.request_sync(0, refs)
        driver.sync_timed_out(1)
        driver.request_sync(1, refs)
        blocks = tuple(suffix(source))
        driver.on_message(SyncResponse(blocks, (), token=1), 0)
        assert driver.core.store.highest_round == 6
        assert driver.syncing and driver._inflight and len(port.sync_requests) == 2
        # The current one, a short chunk with nothing pending: finished,
        # and the driver steps at once.
        driver.on_message(SyncResponse((), (), token=2), 1)
        driver.request_sync(1, refs)
        assert not port.announced
        driver.on_message(SyncResponse(blocks[-1:], (), token=3), 1)
        assert not driver.syncing and [b.round for b in port.announced] == [7]

    def test_unrecoverable_history_surfaces_from_the_dispatcher(self):
        driver, port = make_driver("cold")
        driver.begin_sync()
        ref = suffix(history(3)[0])[0].reference
        driver.request_sync(0, (ref,))
        with pytest.raises(StateTransferError, match="recover_mode='checkpoint'"):
            driver.on_message(SyncResponse((), (ref,), token=1), 0)

    def test_the_checkpoint_exchange_runs_to_adoption(self):
        server, server_port = self.serving(30, interval=2)
        server.on_message(CheckpointRequest(), 3)
        [(dst, response)] = server_port.sent
        assert dst == 3 and response == CheckpointResponse(server.retained_checkpoints())
        assert response.checkpoints

        driver, port = make_driver("checkpoint", interval=2)
        driver.begin_sync()
        for peer in (2, 0, 1):
            driver.on_message(response, peer)
        best = response.checkpoints[-1]
        assert driver.ckpt_adopted and driver.core.committer.ledger.adopted_base == best
        assert port.sync_requests == [(2, best.frontier, best.floor - 1, 1)]

    def test_a_client_message_is_not_the_drivers_to_read(self):
        driver, _ = make_driver()
        with pytest.raises(TypeError, match="not a validator message"):
            driver.on_message(TransactionMessage(transactions=()), 0)


class TestCertifiedRound:
    """Tusk's header / ack / certificate round: a driver whose core's
    committer is certified runs it, validator 3 of four (a quorum of
    acks is three, its own included)."""

    def make(self, gc=0):
        port = FakePort()
        core = make_core(3, gc=gc, committer_factory=TuskCommitter)
        driver = ValidatorDriver(core, port, "cold", 4096, tracer=Tracer())
        return port.attach(driver), port

    def test_a_header_gets_one_ack_to_its_sender(self):
        driver, port = self.make()
        block = peer_blocks(1)[0]
        driver.on_message(Header(block), 1)
        assert port.sent == [(1, Ack(block.digest))]
        assert port.ingested == [] and block.digest not in driver.core.store

    def test_the_quorum_th_ack_sends_exactly_one_certificate(self):
        driver, port = self.make()
        driver.start()
        (own,) = port.announced
        for peer in (0, 0):  # with our own, two acks: below the quorum
            driver.on_message(Ack(own.digest), peer)
        assert port.sent == []
        driver.on_message(Ack(own.digest), 1)
        assert port.sent == [(None, Certificate(own, 3))]
        for peer in (2, 1):
            driver.on_message(Ack(own.digest), peer)
        assert len(port.sent) == 1
        (certified,) = [e for e in driver.tracer.events if e.name == "block_certified"]
        assert certified.args == {"author": 3, "round": 1, "acks": 3}

    def test_an_ack_for_no_own_header_is_ignored(self):
        driver, port = self.make()
        block = peer_blocks(1)[0]
        driver.on_message(Header(block), 0)
        for peer in (1, 2, 3):
            driver.on_message(Ack(block.digest), peer)
        assert port.sent == [(0, Ack(block.digest))]

    def test_a_certificate_is_ingested_as_live(self):
        driver, port = self.make()
        block = peer_blocks(1)[0]
        driver.on_message(Certificate(block, 3), block.author)
        assert port.ingested == [(block, True)] and block.digest in driver.core.store

    def test_an_uncertified_driver_opens_no_tally(self):
        driver, port = make_driver()
        driver.start()
        (own,) = port.announced
        for peer in (0, 1, 2):
            driver.on_message(Ack(own.digest), peer)
        assert port.sent == []

    def test_a_committing_step_drops_what_the_store_pruned(self):
        driver, port = self.make(gc=2)
        early = peer_blocks(1)[0]
        driver.on_message(Header(early), 0)
        for block in peer_blocks(12):
            driver.ingest(block, block.author)
            if early.round < driver.core.store.lowest_round:
                assert port.calls[-1][0] == "committed"  # the step that pruned
                break
        else:
            pytest.fail("the store never pruned round 1")
        proposed = port.announced
        assert driver.held_blocks((early.reference,)) == []
        port.sent.clear()
        for peer in (0, 1):  # the round-1 tally went with its header
            driver.on_message(Ack(proposed[0].digest), peer)
        assert port.sent == []
        latest = proposed[-1]
        for peer in (0, 1):  # the latest stays open
            driver.on_message(Ack(latest.digest), peer)
        assert port.sent == [(None, Certificate(latest, 3))]

    def test_restart_clears_headers_and_tallies(self):
        driver, port = self.make()
        driver.start()
        (own,) = port.announced
        block = peer_blocks(1)[0]
        driver.on_message(Header(block), 0)
        driver.restart(make_core(3, committer_factory=TuskCommitter))
        assert driver.held_blocks((block.reference, own.reference)) == []
        port.sent.clear()
        for peer in (0, 1):
            driver.on_message(Ack(own.digest), peer)
        assert port.sent == []


class TestEpochExit:
    def driver_for(self, authority):
        schedule = CommitteeSchedule(Committee.of_size(5), provisioned=6)
        core = SimpleNamespace(
            authority=authority,
            schedule=schedule,
            store=SimpleNamespace(highest_round=0),
            committer=SimpleNamespace(certified=False),
        )
        return ValidatorDriver(core, FakePort(), "cold", 4096), schedule, core.store

    def test_a_member_leaves_when_the_excluding_epoch_activates(self):
        driver, schedule, store = self.driver_for(3)
        assert driver.excluded_by_epoch() is False
        schedule.apply_command(ReconfigCommand(kind="leave", validator=3), 10)
        store.highest_round = 9  # committed, not yet active: keep voting
        assert driver.excluded_by_epoch() is False
        store.highest_round = 10
        assert driver.excluded_by_epoch() is True

    def test_a_joiner_was_never_a_member_so_has_nothing_to_leave(self):
        driver, schedule, store = self.driver_for(5)
        assert driver.excluded_by_epoch() is False  # provisioned, outside the committee
        schedule.apply_command(ReconfigCommand(kind="join", validator=5), 10)
        store.highest_round = 10
        assert driver.excluded_by_epoch() is False  # now a member
        schedule.apply_command(ReconfigCommand(kind="leave", validator=5), 20)
        store.highest_round = 20
        assert driver.excluded_by_epoch() is True


@functools.lru_cache(maxsize=None)
def trio_history(rounds):
    """Validators 0, 1 and 3 after ``rounds`` lockstep rounds with
    validator 2 down from the start (three of four is a quorum)."""
    cores = [make_core(i) for i in (0, 1, 3)]
    drive_rounds(cores, rounds)
    return cores


def peer_blocks(rounds, authors=(0, 1)):
    """``authors``' blocks of :func:`trio_history`, lowest rounds first."""
    return [b for b in suffix(trio_history(rounds)[0]) if b.author in authors]


class TestStep:
    """The shared validator step, which the driver runs itself.  The
    driver stands in for validator 3 of :func:`trio_history`: with the
    same inputs it signs the same blocks, so its peers' later blocks
    connect to its proposals."""

    def test_every_ready_round_is_proposed_in_one_step_when_unpaced(self):
        driver, port = make_driver()
        for block in peer_blocks(4):
            driver.core.add_block(block)
        # Rounds 2-4 wait for our own round-1 block; proposing it
        # connects them, which readies the next round, and so on.
        assert driver.core.pending_count == 6
        driver.start()
        assert [b.round for b in port.announced] == [1, 2, 3, 4, 5]
        assert not port.timers and driver.core.pending_count == 0
        connected = [b for blocks, peer in port.called("accepted") for b in blocks]
        assert sorted(connected, key=repr) == sorted(
            (b for b in peer_blocks(4) if b.round > 1), key=repr
        )
        # Reported as this validator's own: not a peer's message.
        assert {peer for _, peer in port.called("accepted")} == {3}
        calls = len(port.calls)
        driver.start()  # round 5 has no quorum yet: nothing to hand out
        assert len(port.calls) == calls

    def test_a_paced_proposal_arms_exactly_one_timer(self):
        driver, port = make_driver(pacing=0.5)
        port.clock = 10.0
        for block in peer_blocks(2):
            if (block.round, block.author) != (2, 1):
                driver.ingest(block, block.author)
        # Round 1 went out at once; round 2 is ready but paced, and
        # blocks arriving after that arm no second timer.
        assert [b.round for b in port.announced] == [1]
        assert port.timers == [(0.5, driver._on_pacing_timer, ())]
        port.clock = 10.5
        delay, fired, args = port.timers[0]
        fired(*args)
        assert [b.round for b in port.announced] == [1, 2]
        # Round 2 holds two of the three authors a quorum needs:
        # nothing is ready, so nothing is paced.
        assert len(port.timers) == 1
        port.clock = 11.5
        driver.start()
        assert len(port.announced) == 2 and len(port.timers) == 1

    def test_one_steps_effects_go_out_in_a_fixed_order(self):
        """Announce each proposal, arm the pacing timer, report the
        recovery, hand out the commits: the order the simulator's event
        tie-breaks (and so every simulated result) depend on."""
        driver, port = make_driver(pacing=0.5)
        port.clock = 1.0
        driver.begin_sync()
        cores = history(12)
        # Rounds 1-11 of all four and round 12 of validators 0 and 1:
        # the first own proposal (round 12) completes round 12's quorum,
        # which readies round 13 under the pacing interval.
        for block in suffix(cores[0]):
            if block.round < 12 or block.author in (0, 1):
                driver.core.add_block(block)
        driver.finish()
        assert not port.calls
        port.clock = 3.0
        driver.start()
        assert [call[0] for call in port.calls] == [
            "announce",
            "call_later",
            "recovered",
            "committed",
        ]
        assert port.announced[0].round == 12 and port.called("call_later") == [(0.5,)]
        assert port.called("recovered") == [(1.0, "cold")]

    def test_own_block_is_logged_before_it_is_announced(self, tmp_path):
        path = tmp_path / "v3.wal"
        driver, port = make_driver(wal=WriteAheadLog(path))
        logged_at_announce = []
        port.announce = lambda block: logged_at_announce.append(
            block in WriteAheadLog.recover(path)
        )
        peers = peer_blocks(12)
        for block in peers:
            assert driver.ingest(block, block.author).accepted
        assert len(logged_at_announce) == 13 and all(logged_at_announce)
        # The log holds blocks and nothing else: no record per commit.
        logged = WriteAheadLog.recover(path)
        assert [b for b in logged if b.author != 3] == peers
        assert port.called("committed") and len(logged) == 13 + len(peers)
        assert "block_proposed" in [e.name for e in driver.tracer.events]

    def test_peer_blocks_an_own_proposal_connects_are_logged_and_reported(self, tmp_path):
        """Regression: ``maybe_propose`` dropped the blocks its own
        block connected, so they got no WAL record and no
        ``block_received`` instant, and a warm restart replayed a DAG
        with a hole.  Validator 3 hears rounds 4 down to 1: rounds 3
        and 4 wait on its own round-2 and round-3 blocks, and enter the
        DAG inside the step that proposes those."""
        path = tmp_path / "v3.wal"
        driver, port = make_driver(wal=WriteAheadLog(path))
        peers = peer_blocks(4)
        for block in sorted(peers, key=lambda b: (-b.round, b.author)):
            driver.ingest(block, block.author)
        assert [b.round for b in port.announced] == [1, 2, 3, 4, 5]
        connected = [b for blocks, peer in port.called("accepted") if peer == 3 for b in blocks]
        assert sorted(connected, key=lambda b: (b.round, b.author)) == [
            b for b in peers if b.round > 2
        ]
        driver.close()
        logged = WriteAheadLog.recover(path)
        assert [b for b in logged if b.author == 3] == port.announced
        logged_peers = [b for b in logged if b.author != 3]
        assert sorted(logged_peers, key=lambda b: (b.round, b.author)) == peers
        received = [e.args for e in driver.tracer.events if e.name == "block_received"]
        assert sorted((a["round"], a["author"]) for a in received) == [
            (b.round, b.author) for b in peers
        ]
        restarted = make_core(3)
        replay = recovery_module.replay_wal(restarted, path)
        assert replay.blocks == len(peers) + 5 and restarted.pending_count == 0

    def test_nothing_is_proposed_while_syncing(self):
        driver, port = make_driver()
        port.clock = 1.0
        driver.begin_sync()
        port.clock = 2.0
        driver.start()
        assert not port.calls
        driver.finish()
        port.clock = 3.0
        driver.start()
        assert [b.round for b in port.announced] == [1]
        assert port.called("recovered") == [(1.0, "cold")]  # the recovery-time hook, once
        for block in peer_blocks(1):
            driver.ingest(block, block.author)
        assert [b.round for b in port.announced] == [1, 2]
        assert len(port.called("recovered")) == 1

    def test_nothing_is_proposed_after_epoch_exit(self):
        port = FakePort()
        driver = port.attach(ValidatorDriver(make_core(4, n=5), port, "cold", 4096))
        driver.core.schedule.apply_command(ReconfigCommand(kind="leave", validator=4), 1)
        driver.start()
        assert not port.calls and not driver.left  # round 0: still in
        peer = make_core(0, n=5).maybe_propose()
        assert driver.ingest(peer, 0).accepted
        # Nothing proposed; the step that saw the exit ends in one leave.
        assert port.calls == [("accepted", (peer,), 0), ("leave",)] and driver.left
        driver.start()
        assert port.calls[-1] == ("leave",) and len(port.calls) == 2  # once

    def test_rejected_blocks_are_counted(self):
        driver, port = make_driver()
        bad = peer_blocks(1)[0]

        class Rejecting:
            def verify(self, block):
                raise BlockValidationError("bad signature")

        driver.core._verifier = Rejecting()
        result = driver.ingest(bad, 0)
        assert result.rejected and not result.accepted and driver.blocks_rejected == 1
        assert not port.calls
