"""Unit tests for :class:`ValidatorDriver`, one per transition, driven
through a recording fake port (no event loop, no transport, no clock)."""

import functools
from types import SimpleNamespace

import pytest

from repro.committee import Committee, CommitteeSchedule, ReconfigCommand
from repro.errors import BlockValidationError, StateTransferError
from repro.messages import (
    BlockMessage,
    CheckpointRequest,
    CheckpointResponse,
    FetchRequest,
    FetchResponse,
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
    """Records every effect; fetched blocks go straight into the core."""

    def __init__(self):
        self.driver = None
        self.sent = []  # (dst, message)
        self.timers = []  # (delay, callback, args)
        self.ingested = []  # (block, live)

    def send(self, dst, message):
        self.sent.append((dst, message))

    def call_later(self, delay, callback, *args):
        self.timers.append((delay, callback, args))

    def ingest(self, block, peer, live):
        self.ingested.append((block, live))
        self.driver.ingest(block, peer, 0.0, live)

    def trace_time(self):
        return 0.0

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
    port.driver = driver
    return driver, port


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
        assert driver.replay_wal() is None  # cold never reads the log
        driver.begin_sync(now=7.0)
        assert driver.syncing and driver.recovered_at == 7.0
        assert port.instants == [("recovery_started", {"mode": "cold"})]
        assert port.checkpoint_requests == 0 and not port.sync_requests

    def test_warm_with_empty_wal_degenerates_to_cold(self, tmp_path):
        driver, port = make_driver("warm", wal=WriteAheadLog(tmp_path / "empty.wal"))
        replay = driver.replay_wal()
        assert replay.blocks == 0
        driver.begin_sync(now=0.0)
        assert driver.recovery_mode_used == "cold"
        assert port.instants == [("recovery_started", {"mode": "cold"})]

    def test_warm_replays_the_log_and_restores_the_proposal_round(self, tmp_path):
        source = history(6)[3]
        wal = WriteAheadLog(tmp_path / "v3.wal")
        for block in suffix(source):
            (wal.append_own_block if block.author == 3 else wal.append_peer_block)(block)
        driver, port = make_driver("warm", wal=wal)
        replay = driver.replay_wal()
        assert replay.blocks == len(suffix(source)) and replay.own_top_round == 6
        assert driver.recovery_mode_used == "warm"
        assert driver.core.round >= 6  # never re-proposes a logged round
        driver.begin_sync(now=0.0, replayed=replay.blocks)
        assert port.instants == [
            ("recovery_started", {"mode": "warm", "replayed": replay.blocks})
        ]

    def test_checkpoint_asks_for_state_transfer_before_any_fetch(self):
        driver, port = make_driver("checkpoint")
        driver.begin_sync(now=0.0)
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
        driver.begin_sync(now=1.0)
        tip = suffix(history(3)[0])[-1]
        assert driver.request_sync(0, (tip.reference,))
        fresh = make_core(3)
        driver.restart(fresh)
        assert driver.core is fresh and not driver.sync_inflight
        assert driver.recovered_at is None
        driver.begin_sync(now=2.0)
        assert driver.recovered_at == 2.0
        # Tokens stay monotonic across incarnations, so a response the
        # previous one requested can never look current.
        assert driver.request_sync(1, (tip.reference,))
        assert [token for *_, token in port.sync_requests] == [1, 2]


class TestCheckpointAdoption:
    def test_quorum_adopts_and_fetches_the_suffix_from_the_first_attester(self):
        checkpoint = history(30, interval=2)[0].committer.ledger.checkpoints[-1]
        driver, port = make_driver("checkpoint", interval=2)
        driver.begin_sync(now=0.0)
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
        driver.begin_sync(now=0.0)
        return driver, port

    def test_one_request_in_flight_until_it_times_out(self):
        driver, port = self.syncing_driver()
        refs = (suffix(history(3)[0])[-1].reference,)
        assert driver.request_sync(0, refs) and driver.sync_inflight
        assert port.timers == [(SYNC_TIMEOUT, driver.sync_timed_out, (1,))]
        assert not driver.request_sync(1, refs)  # suppressed
        assert not driver.request_sync(0, ())  # nothing to ask for
        driver.sync_timed_out(99)  # another request's timer
        assert driver.sync_inflight
        driver.sync_timed_out(1)
        assert not driver.sync_inflight
        assert driver.request_sync(1, refs)
        driver.sync_timed_out(1)  # the stale timer must not clear request 2
        assert driver.sync_inflight
        assert [(peer, token) for peer, _, _, token in port.sync_requests] == [(0, 1), (1, 2)]

    def test_stale_response_contributes_blocks_but_does_not_drive_the_chain(self):
        source = history(6)[0]
        driver, port = self.syncing_driver()
        refs = (suffix(source)[-1].reference,)
        driver.request_sync(0, refs)
        driver.sync_timed_out(1)
        driver.request_sync(1, refs)
        blocks = tuple(suffix(source))
        assert driver.on_sync_response(0, blocks, (), 1) is False
        assert port.ingested == [(block, False) for block in blocks]
        assert driver.core.store.highest_round == 6  # the blocks did land
        assert driver.syncing and driver.sync_inflight  # request 2 still owns the chain
        assert len(port.sync_requests) == 2
        # An untagged response never drives the chain either.
        assert driver.on_sync_response(0, (), (), 0) is False and driver.sync_inflight

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
        assert driver.on_sync_response(0, tuple(blocks[:8]), (), 1) is False
        assert driver.syncing
        # ...but with nothing pending there is no frontier to name.
        assert len(port.sync_requests) == 1
        # A pending live block gives the chain its next request.
        driver.core.add_block(blocks[-1])
        driver.request_sync(0, driver.core.missing_frontier())
        assert port.sync_requests[-1][2:] == (2, 2)  # floor advanced to round 2
        assert driver.on_sync_response(0, tuple(blocks[8:16]), (), 2) is False
        assert port.sync_requests[-1][2:] == (4, 3)  # chained straight off the response
        # The rest is a short chunk and connects everything: caught up.
        assert driver.on_sync_response(0, tuple(blocks[16:-1]), (), 3) is True
        assert not driver.syncing and not driver.sync_inflight
        assert port.names()[-1] == "sync_finished"

    def test_empty_response_unblocks_without_reasking(self):
        driver, port = self.syncing_driver()
        driver.request_sync(0, (suffix(history(3)[0])[-1].reference,))
        assert driver.on_sync_response(0, (), (), 1) is False
        assert driver.syncing and not driver.sync_inflight
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
            assert driver.ingest(block, 0, 0.0, live=False).accepted
        assert driver.syncing  # fetched blocks prove nothing
        assert driver.ingest(blocks[4], 1, 0.0).accepted  # a live round-2 broadcast
        assert not driver.syncing and not driver.sync_inflight
        assert port.instants[-1] == ("sync_finished", {"mode": "cold"})
        driver.begin_sync(now=5.0, behind=12)
        assert driver.request_sync(1, (blocks[-1].reference,))


class TestPrunedHistory:
    def adopted(self):
        cores = history(30, interval=2)
        checkpoint = cores[0].committer.ledger.checkpoints[-1]
        driver, port = make_driver("checkpoint", interval=2)
        driver.begin_sync(now=0.0)
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
        assert driver.on_sync_response(2, (), pruned, 1) is False
        assert driver.core.store.sync_floor == checkpoint.floor + 1
        assert driver.syncing

    def test_pruned_past_the_adopted_round_is_a_stale_checkpoint(self):
        driver, port, checkpoint, source = self.adopted()
        beyond = next(b for b in suffix(source) if b.round == checkpoint.round + 1)
        with pytest.raises(StateTransferError, match="went stale mid-recovery"):
            driver.on_sync_response(2, (), (beyond.reference,), 1)

    def test_pruned_without_a_checkpoint_needs_state_transfer(self):
        driver, port = make_driver("cold")
        driver.begin_sync(now=0.0)
        ref = suffix(history(3)[0])[0].reference
        driver.request_sync(0, (ref,))
        with pytest.raises(StateTransferError, match="recover_mode='checkpoint'"):
            driver.on_sync_response(0, (), (ref,), 1)

    def test_stale_pruned_flags_are_ignored(self):
        driver, port = make_driver("cold")
        driver.begin_sync(now=0.0)
        ref = suffix(history(3)[0])[0].reference
        assert driver.on_sync_response(0, (), (ref,), 7) is False


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

    def test_unstored_blocks_are_served_and_not_flagged(self):
        source = history(3)[0]
        header = suffix(history(4)[1])[-1]  # a round-4 block ``source`` lacks
        driver = ValidatorDriver(source, FakePort(), "cold", 8)
        refs = (header.reference,)
        assert driver.held_blocks(refs) == []
        driver.unstored = {header.digest: header}
        assert driver.held_blocks(refs) == [header]
        served, pruned = driver.serve_sync(refs, 3)
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
        driver.begin_sync(now=0.0)
        block, missing = self.early_block(2)
        assert driver.ingest(block, 1, 0.0).missing == missing
        # Unfiltered: exactly what the core reported, to the sender.
        assert port.sync_requests == [(1, missing, 0, 1)]
        assert driver.synchronizer.missing == 0
        assert not any(type(m) is FetchRequest for _, m in port.sent)

    def test_a_live_block_more_than_two_waves_ahead_starts_a_resync(self):
        driver, port = make_driver()
        block, missing = self.early_block(11)  # wave length 5, frontier at genesis
        driver.ingest(block, 2, 7.0)
        assert driver.syncing and driver.recovered_at == 7.0
        assert port.instants[0] == ("recovery_started", {"mode": "cold", "behind": 11})
        assert port.sync_requests == [(2, missing, 0, 1)]
        assert driver.synchronizer.missing == 0

    def test_two_waves_ahead_or_a_fetched_block_stays_shallow(self):
        for round_number, live in ((10, True), (11, False)):
            driver, port = make_driver()
            block, missing = self.early_block(round_number)
            driver.ingest(block, 2, 7.0, live)
            assert not driver.syncing and not port.sync_requests
            assert port.sent == [(2, FetchRequest(missing))]
            assert driver.synchronizer.missing == len(missing)

    def test_accepted_proposed_and_connected_blocks_leave_the_table(self):
        driver, port = make_driver()
        peers = peer_blocks(2)
        late = [b for b in peers if b.round == 2]
        for block in late:  # round 2 first: round 1, ours included, is missing
            driver.ingest(block, block.author, 0.0)
        own = trio_history(2)[2].store.slot_blocks(1, 3)[0].reference
        assert set(driver.synchronizer._pending) == {b.digest for b in peers if b.round == 1} | {
            own.digest
        }
        for block in peers:
            if block.round == 1:
                driver.ingest(block, block.author, 0.0)
        assert set(driver.synchronizer._pending) == {own.digest}
        step = driver.step(now=0.0)  # proposes our round 1, which connects round 2
        assert step.proposed[0].reference == own and sorted(step.connected, key=repr) == sorted(
            late, key=repr
        )
        assert driver.synchronizer.missing == 0


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
        assert driver.on_message(BlockMessage(block), block.author) is False
        assert port.ingested == [(block, True)] and block.digest in driver.core.store

    def test_a_fetch_request_is_answered_with_exactly_what_is_held(self):
        driver, port = self.serving()
        held = suffix(driver.core)[-4:]
        unheld = suffix(history(7)[1])[-1]  # a round-7 block this core lacks
        refs = tuple(b.reference for b in held) + (unheld.reference,)
        assert driver.on_message(FetchRequest(refs), 2) is False
        assert port.sent == [(2, FetchResponse(tuple(held)))]
        # Nothing held: no answer at all (the requester rotates peers).
        assert driver.on_message(FetchRequest((unheld.reference,)), 2) is False
        assert len(port.sent) == 1
        # A Tusk header the host holds outside the DAG is served too.
        driver.unstored = {unheld.digest: unheld}
        driver.on_message(FetchRequest((unheld.reference,)), 1)
        assert port.sent[-1] == (1, FetchResponse((unheld,)))

    def test_fetched_blocks_are_ingested_as_not_live(self):
        driver, port = make_driver()
        blocks = tuple(peer_blocks(1))
        assert driver.on_message(FetchResponse(blocks), 0) is False
        assert port.ingested == [(block, False) for block in blocks]

    def test_a_sync_request_is_always_answered_and_flags_what_was_pruned(self):
        driver, port = self.serving(40, gc=4)
        assert driver.core.store.lowest_round > 1
        pruned = tuple(b.reference for b in suffix(history(2)[0])[:4])
        assert driver.on_message(SyncRequest(pruned, floor=0, token=9), 3) is False
        assert port.sent == [(3, SyncResponse(blocks=(), pruned=pruned, token=9))]
        tips = tuple(b.reference for b in suffix(driver.core)[-4:])
        driver.on_message(SyncRequest(tips, floor=38, token=10), 3)
        _, response = port.sent[-1]
        assert response.token == 10 and response.pruned == ()
        assert [b.round for b in response.blocks] == [39] * 4 + [40] * 4

    def test_a_stale_sync_response_contributes_blocks_without_driving_the_chain(self):
        source = history(6)[0]
        driver, port = make_driver("cold")
        driver.begin_sync(now=0.0)
        refs = (suffix(source)[-1].reference,)
        driver.request_sync(0, refs)
        driver.sync_timed_out(1)
        driver.request_sync(1, refs)
        blocks = tuple(suffix(source))
        assert driver.on_message(SyncResponse(blocks, (), token=1), 0) is False
        assert driver.core.store.highest_round == 6
        assert driver.syncing and driver.sync_inflight and len(port.sync_requests) == 2
        # The current one, a short chunk with nothing pending: finished,
        # and the host is told to step.
        assert driver.on_message(SyncResponse((), (), token=2), 1) is False
        driver.request_sync(1, refs)
        assert driver.on_message(SyncResponse(blocks[-1:], (), token=3), 1) is True
        assert not driver.syncing

    def test_unrecoverable_history_surfaces_from_the_dispatcher(self):
        driver, port = make_driver("cold")
        driver.begin_sync(now=0.0)
        ref = suffix(history(3)[0])[0].reference
        driver.request_sync(0, (ref,))
        with pytest.raises(StateTransferError, match="recover_mode='checkpoint'"):
            driver.on_message(SyncResponse((), (ref,), token=1), 0)

    def test_the_checkpoint_exchange_runs_to_adoption(self):
        server, server_port = self.serving(30, interval=2)
        assert server.on_message(CheckpointRequest(), 3) is False
        [(dst, response)] = server_port.sent
        assert dst == 3 and response == CheckpointResponse(server.retained_checkpoints())
        assert response.checkpoints

        driver, port = make_driver("checkpoint", interval=2)
        driver.begin_sync(now=0.0)
        for peer in (2, 0, 1):
            assert driver.on_message(response, peer) is False
        best = response.checkpoints[-1]
        assert driver.ckpt_adopted and driver.core.committer.ledger.adopted_base == best
        assert port.sync_requests == [(2, best.frontier, best.floor - 1, 1)]

    def test_a_client_message_is_not_the_drivers_to_read(self):
        driver, _ = make_driver()
        with pytest.raises(TypeError, match="not a validator message"):
            driver.on_message(TransactionMessage(transactions=()), 0)


class TestEpochExit:
    def driver_for(self, authority):
        schedule = CommitteeSchedule(Committee.of_size(5), provisioned=6)
        core = SimpleNamespace(
            authority=authority, schedule=schedule, store=SimpleNamespace(highest_round=0)
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
    """The shared validator step.  The driver stands in for validator 3
    of :func:`trio_history`: with the same inputs it signs the same
    blocks, so its peers' later blocks connect to its proposals."""

    def test_every_ready_round_is_proposed_in_one_step_when_unpaced(self):
        driver, port = make_driver()
        for block in peer_blocks(4):
            driver.ingest(block, block.author, 0.0)
        # Rounds 2-4 wait for our own round-1 block; proposing it
        # connects them, which readies the next round, and so on.
        assert driver.core.pending_count == 6
        step = driver.step(now=0.0)
        assert [b.round for b in step.proposed] == [1, 2, 3, 4, 5]
        assert step.deadline is None and driver.core.pending_count == 0
        assert driver.step(now=0.0).proposed == []  # round 5 has no quorum yet

    def test_a_paced_proposal_reports_exactly_one_deadline(self):
        driver, port = make_driver(pacing=0.5)
        for block in peer_blocks(2):
            if (block.round, block.author) != (2, 1):
                driver.ingest(block, block.author, 0.0)
        step = driver.step(now=10.0)
        assert [b.round for b in step.proposed] == [1]
        assert step.deadline == 10.5  # round 2 is ready but paced
        for now in (10.1, 10.4):  # more blocks arrive: the timer is already armed
            again = driver.step(now)
            assert again.proposed == [] and again.deadline is None
        driver.pacing_timer_fired()
        fired = driver.step(now=10.5)
        assert [b.round for b in fired.proposed] == [2]
        # Round 2 holds two of the three authors a quorum needs:
        # nothing is ready, so nothing is paced.
        assert fired.deadline is None
        assert driver.step(now=11.5).proposed == []

    def test_own_block_is_logged_before_it_is_handed_back(self, tmp_path):
        path = tmp_path / "v3.wal"
        driver, port = make_driver(wal=WriteAheadLog(path))
        peers = peer_blocks(12)
        proposed, committed = [], []
        for block in peers:
            assert driver.ingest(block, block.author, 0.0).accepted
            step = driver.step(now=0.0)
            # What the step hands back for dispatch is already durable.
            proposed.extend(step.proposed)
            assert WriteAheadLog.recover(path)[0] == proposed
            committed.extend(step.committed)
        own, logged_peers, commit_round = WriteAheadLog.recover(path)
        assert len(own) == 13 and logged_peers == peers
        assert committed and commit_round == driver.core.committer.last_finalized_round
        assert "block_proposed" in [e.name for e in driver.tracer.events]

    def test_peer_blocks_an_own_proposal_connects_are_logged_and_handed_back(self, tmp_path):
        """Regression: ``maybe_propose`` dropped the blocks its own
        block connected, so they got no WAL record and no
        ``block_received`` instant, and a warm restart replayed a DAG
        with a hole."""
        path = tmp_path / "v3.wal"
        driver, port = make_driver(wal=WriteAheadLog(path))
        peers = peer_blocks(4)
        for block in peers:
            driver.ingest(block, block.author, 0.0)
        waiting = [b for b in peers if b.round > 1]  # on our own blocks
        assert driver.core.pending_count == len(waiting) == 6
        step = driver.step(now=0.0)
        assert [b.round for b in step.proposed] == [1, 2, 3, 4, 5]
        assert sorted(step.connected, key=lambda b: (b.round, b.author)) == waiting
        driver.close()
        own, logged, _ = WriteAheadLog.recover(path)
        assert own == step.proposed
        assert sorted(logged, key=lambda b: (b.round, b.author)) == peers
        received = [e.args for e in driver.tracer.events if e.name == "block_received"]
        assert sorted((a["round"], a["author"]) for a in received) == [
            (b.round, b.author) for b in peers
        ]
        restarted = make_core(3)
        replay = recovery_module.replay_wal(restarted, path)
        assert replay.blocks == len(peers) + 5 and restarted.pending_count == 0

    def test_nothing_is_proposed_while_syncing(self):
        driver, port = make_driver()
        driver.begin_sync(now=1.0)
        assert driver.step(now=2.0).proposed == []
        driver.finish()
        step = driver.step(now=3.0)
        assert [b.round for b in step.proposed] == [1]
        assert step.recovered_at == 1.0  # the recovery-time hook, once
        assert driver.step(now=4.0).recovered_at is None

    def test_nothing_is_proposed_after_epoch_exit(self):
        port = FakePort()
        driver = ValidatorDriver(make_core(4, n=5), port, "cold", 4096)
        driver.core.schedule.apply_command(ReconfigCommand(kind="leave", validator=4), 1)
        assert driver.step(now=0.0).proposed == [] and not driver.left  # round 0: still in
        peer = make_core(0, n=5).maybe_propose()
        assert driver.ingest(peer, 0, 0.0).accepted
        assert driver.step(now=0.0).proposed == [] and driver.left

    def test_rejected_blocks_are_counted(self):
        driver, port = make_driver()
        bad = peer_blocks(1)[0]

        class Rejecting:
            def verify(self, block):
                raise BlockValidationError("bad signature")

        driver.core._verifier = Rejecting()
        result = driver.ingest(bad, 0, 0.0)
        assert result.rejected and not result.accepted and driver.blocks_rejected == 1
