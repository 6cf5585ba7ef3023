"""The validator step and the recovery state machine, shared by both fabrics.

Mahi-Mahi's validator loop is tiny — accept a block, propose once
``2f + 1`` blocks of the previous round are in, run the commit rule —
and :class:`ValidatorDriver` is its one implementation:

* :meth:`~ValidatorDriver.ingest` — ``core.add_block``, the rejection
  count, the fetch of what the block's history lacks (below), the WAL
  record and ``block_received`` instant of each accepted block, and the
  "caught up" check while re-syncing;
* :meth:`~ValidatorDriver.step` — *propose* (not while re-syncing or
  after leaving; paced by the minimum block interval; the own block is
  in the WAL before it is handed back; buffered peer blocks it connects
  are logged like ingested ones), *commit* (commit mark, commit
  instants) and *epoch exit*, returned as a plain :class:`Step`.

The DAG is uncertified, so a block may name parents its receiver does
not hold yet, and liveness leans on fetching them (Lemma 8).  The driver
owns the :class:`~repro.statesync.synchronizer.Synchronizer` — the
table of shallow, per-reference fetches with its retry rotation — and
routes every missing-parent report: to the deep chain while re-syncing,
into a re-sync when a live block shows the validator has *fallen
behind* (:data:`BEHIND_WAVES`), to the synchronizer otherwise.  A
validator that restarts behind its peers re-syncs by one of three modes
before it proposes again:

* **cold** — deep-fetch the whole missing ancestor closure from peers;
* **warm** — replay the local write-ahead log first (restoring most of
  the DAG and the proposal round), then deep-fetch only the delta;
* **checkpoint** — adopt a ``2f + 1``-attested state-transfer
  checkpoint and deep-fetch only the suffix above its floor, raising
  the floor when peers report they pruned inside the adopted span.

The driver owns that state machine too — mode selection, the checkpoint
tally and adoption, the token-tagged chunked deep-fetch chain with its
single in-flight request, pruned-history absorption, the "caught up"
rules and the serving side of a deep fetch.

**One reader.**  The seven validator messages of :mod:`repro.messages`
are read in exactly one place, :meth:`ValidatorDriver.on_message`; a
host hands over whatever arrived and never looks inside.  What the
driver sends in turn (fetch and sync responses, the checkpoint exchange,
the deep-fetch requests) it builds itself and passes to
:meth:`ValidatorPort.send`.

**The WAL rule.**  Every block accepted from the network is logged,
own-authored ones included: a restarted validator that fetches its own
pre-crash blocks back logs them like any other, so a later warm restart
replays a causally complete DAG instead of fetching them again.

The driver touches no socket, clock, timer or coroutine.  Its host (the
simulator's :class:`~repro.sim.node.SimValidator`, the runtime's
:class:`~repro.runtime.node.ValidatorNode`) implements the small
:class:`ValidatorPort`, feeds it messages and the current time,
dispatches what :class:`Step` hands back, and owns everything with a
notion of time: the event loop, the transport, and the timers — the
pacing timer outright, the three retry timers (deep fetch, checkpoint
request, shallow fetch) as the port's ``call_later``, armed by the
driver and its synchronizer with the intervals defined beside them.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from types import MappingProxyType
from typing import NamedTuple, Protocol

from ..block import Block, BlockRef
from ..crypto.hashing import Digest
from ..errors import StateTransferError
from ..messages import (
    BlockMessage,
    CheckpointRequest,
    CheckpointResponse,
    FetchRequest,
    FetchResponse,
    SyncRequest,
    SyncResponse,
)
from ..obs import trace as _trace
from ..obs.trace import NULL_TRACER
from .checkpoint import Checkpoint
from .recovery import CheckpointVotes, WalReplay, ancestor_closure, chunk_cap, replay_wal
from .synchronizer import Synchronizer

#: Restart paths a validator may take.
RECOVER_MODES = ("cold", "warm", "checkpoint")
#: Host seconds a deep fetch may stay unanswered before another may go
#: out (a peer that cannot serve may never answer).
SYNC_TIMEOUT = 1.0
#: Host seconds a checkpoint-mode recoverer waits before it broadcasts
#: its request again: no quorum of matching responses has formed yet
#: (e.g. it restarted before peers finalized the first boundary).
CHECKPOINT_RETRY = 0.25
#: A live block this many waves above our frontier means we have fallen
#: behind (a cold restart, or a long partition): switch from shallow
#: per-reference fetches to the chunked deep re-sync chain.
BEHIND_WAVES = 2


class ValidatorPort(Protocol):
    """What a :class:`ValidatorDriver` needs from its host."""

    def send(self, dst: int | None, message) -> None:
        """Send one :mod:`repro.messages` message to ``dst``, or to
        every peer when ``dst`` is ``None``."""

    def call_later(self, delay: float, callback: Callable[..., None], *args) -> None:
        """Call ``callback(*args)`` after ``delay`` host seconds, unless
        the incarnation that asked has crashed or stopped by then."""

    def ingest(self, block: Block, peer: int, live: bool) -> None:
        """Run one block received from ``peer`` through the host's
        ingest path (:meth:`ValidatorDriver.ingest` at the host's
        current time, then the step); ``live`` is false for a fetched
        block, which proves nothing about the frontier."""

    def trace_time(self) -> float:
        """The host's current trace timestamp (asked only while the
        tracer is enabled)."""


class Step(NamedTuple):
    """What one :meth:`ValidatorDriver.step` did, for the host to act on."""

    #: Own blocks proposed, oldest first and already in the WAL: the
    #: host dispatches them.
    proposed: Sequence[Block] = ()
    #: New commit observations, in commit order.
    committed: Sequence = ()
    #: Host time the next proposal is paced to.  Reported once per
    #: paced proposal: the host arms a one-shot timer for it and, when
    #: that fires, calls :meth:`ValidatorDriver.pacing_timer_fired` and
    #: steps again.
    deadline: float | None = None
    #: Set by the first proposal after a restart: the host time that
    #: recovery began (the recovery-time metric hook).
    recovered_at: float | None = None
    #: Buffered peer blocks that were waiting on an own block and
    #: entered the DAG with ``proposed`` — already logged and traced.
    connected: Sequence[Block] = ()


class ValidatorDriver:
    """One validator's step and recovery state, driven by its host."""

    def __init__(
        self,
        core,
        port: ValidatorPort,
        recover_mode: str,
        sync_chunk_blocks: int,
        *,
        interval: float = 0.0,
        wal=None,
        tracer=NULL_TRACER,
    ) -> None:
        """``interval`` is the minimum host time between own proposals,
        ``wal`` the :class:`~repro.runtime.wal.WriteAheadLog` that own
        blocks, accepted blocks and commit marks go to (``None``: no
        log); trace events are stamped with ``port.trace_time()``."""
        if recover_mode not in RECOVER_MODES:
            raise ValueError(f"unknown recover_mode {recover_mode!r}; pick one of {RECOVER_MODES}")
        self._port = port
        self.recover_mode = recover_mode
        self._chunk = sync_chunk_blocks
        self.interval = interval
        self.wal = wal
        self.tracer = tracer
        #: Whether the validator is re-syncing (it proposes nothing
        #: until the DAG behind the frontier is rebuilt).
        self.syncing = False
        #: Invalid blocks dropped by :meth:`ingest`, checkpoints adopted
        #: and deep fetches sent, over all incarnations.
        self.blocks_rejected = 0
        self.checkpoint_adoptions = 0
        self.sync_requests_sent = 0
        #: The shallow-fetch table.
        self.synchronizer = Synchronizer(port)
        #: Blocks the host holds outside the DAG and serves to fetches
        #: all the same, by digest (the simulator's Tusk headers awaiting
        #: their certificate).
        self.unstored: Mapping[Digest, Block] = MappingProxyType({})
        # One deep fetch in flight at a time: its token (0 = none), and
        # a monotonic counter so a stale response or timeout never
        # clears a newer request.
        self._token = 0
        # Epoch-versioned committees: a validator that was once an
        # active member and later drops out has *left*.  (A joiner
        # starts with this False and flips it on activation.)
        self._was_member = core.schedule.genesis_committee.is_member(core.authority)
        self.restart(core)

    # ------------------------------------------------------------------
    # The dispatcher
    # ------------------------------------------------------------------
    def on_message(self, message, peer: int) -> bool:
        """Act on one validator message from ``peer``.  Returns whether
        it completed a re-sync, in which case the host runs its step
        right away instead of idling until the next round's broadcasts.
        Raises :class:`StateTransferError` when a sync response shows
        the needed history is unrecoverable."""
        kind = type(message)
        port = self._port
        if kind is BlockMessage:
            port.ingest(message.block, peer, True)
        elif kind is FetchRequest:
            held = self.held_blocks(message.refs)
            if held:
                port.send(peer, FetchResponse(tuple(held)))
        elif kind is FetchResponse:
            for block in message.blocks:
                port.ingest(block, peer, False)
        elif kind is SyncRequest:
            blocks, pruned = self.serve_sync(message.refs, message.floor)
            port.send(peer, SyncResponse(blocks, pruned, message.token))
        elif kind is SyncResponse:
            return self.on_sync_response(peer, message.blocks, message.pruned, message.token)
        elif kind is CheckpointRequest:
            port.send(peer, CheckpointResponse(self.retained_checkpoints()))
        elif kind is CheckpointResponse:
            self.on_checkpoint_response(peer, message.checkpoints)
        else:
            raise TypeError(f"not a validator message: {message!r}")
        return False

    # ------------------------------------------------------------------
    # The validator step: ingest, propose, commit, epoch exit
    # ------------------------------------------------------------------
    def ingest(self, block: Block, peer: int, now: float, live: bool = True):
        """Hand a block received from ``peer`` at host time ``now`` to
        the core and fetch what it reports missing; returns the core's
        :class:`~repro.core.protocol.AddBlockResult`.  When anything was
        ``accepted`` the host runs :meth:`step`.  ``live`` marks a fresh
        broadcast (as opposed to a fetched block), the only kind that
        can end a re-sync."""
        result = self.core.add_block(block)
        if result.rejected:
            self.blocks_rejected += 1
        if result.missing:
            self._fetch_missing(result.missing, block, peer, now, live)
        if result.accepted:
            self._record_accepted(result.accepted, peer)
            if self.syncing and live and not self.core.pending_count:
                # A *freshly broadcast* block that connected with its
                # whole causal history present ends the re-sync; fetched
                # chunks never do — a stale response from a pre-crash
                # fetch ingests cleanly yet proves nothing about the
                # frontier.
                self.finish()
        return result

    def _fetch_missing(
        self, missing: tuple[BlockRef, ...], block: Block, peer: int, now: float, live: bool
    ) -> None:
        """Route the missing ancestors of ``block`` to a fetch shape."""
        if not self.syncing:
            behind = block.round - self.core.store.highest_round
            if not (live and behind > BEHIND_WAVES * self.core.config.wave_length):
                self.synchronizer.note_missing(missing, peer)
                return
            # Fallen far behind: shallow per-reference fetches would
            # crawl — enter the chunked deep re-sync chain instead.
            self.begin_sync(now, behind=behind)
        self.request_sync(peer, missing)

    def _record_accepted(self, accepted: Sequence[Block], peer: int) -> None:
        """The WAL record and ``block_received`` instant of each block
        that entered the DAG from ``peer`` (the WAL rule, below); none
        of them is being fetched any longer."""
        synchronizer = self.synchronizer
        if synchronizer.missing:
            for new in accepted:
                synchronizer.note_arrived(new.digest)
        if self.wal is not None:
            for new in accepted:
                self.wal.append_peer_block(new)
        if self.tracer.enabled:
            now = self._port.trace_time()
            for new in accepted:
                self.tracer.instant(
                    self.core.authority,
                    "consensus",
                    _trace.BLOCK_RECEIVED,
                    now,
                    {"author": new.author, "round": new.round, "src": peer},
                )

    def step(self, now: float) -> Step:
        """Propose every round that is ready and due at host time
        ``now``, extend the commit sequence, and notice epoch exit
        (:attr:`left`).  Hosts run it after every accepted block, after
        a finished re-sync, at start, and when the pacing timer fires."""
        core = self.core
        proposed: list[Block] = []
        connected: list[Block] = []
        deadline = recovered_at = None
        # A re-syncing validator proposes nothing: its fresh core has
        # forgotten which rounds it already proposed in, and a stale
        # low-round proposal would equivocate with its own pre-crash
        # blocks.
        while not (self.syncing or self.left) and core.ready_to_propose():
            next_allowed = self._last_proposal + self.interval
            if now < next_allowed:
                if not self._timer_armed:
                    self._timer_armed = True
                    deadline = next_allowed
                break
            block = core.maybe_propose(now)
            if block is None:
                break
            self._last_proposal = now
            if self.wal is not None:
                # Own proposals are durable *before* they leave: a warm
                # restart replays them and never signs a second block
                # for a round it already used.
                self.wal.append_own_block(block)
            if self.tracer.enabled:
                _trace.trace_proposal(
                    self.tracer, core.authority, self._port.trace_time(), block
                )
            if self.recovered_at is not None:
                # First proposal after a restart: recovery is complete.
                recovered_at, self.recovered_at = self.recovered_at, None
            proposed.append(block)
            # Peers that built on a pre-crash twin of this block had us
            # fetching it.
            self.synchronizer.note_arrived(block.digest)
            if core.last_connected:
                # After the own block they were waiting on, so a replay
                # finds the log in causal order.
                self._record_accepted(core.last_connected, core.authority)
                connected.extend(core.last_connected)
        observations = core.try_commit()
        if observations:
            if self.wal is not None:
                self.wal.append_commit_mark(core.committer.last_finalized_round)
            if self.tracer.enabled:
                _trace.trace_commits(
                    self.tracer, core.authority, self._port.trace_time(), observations
                )
        if not core.schedule.is_static and self.excluded_by_epoch():
            self.left = True
        return Step(proposed, observations, deadline, recovered_at, connected)

    def pacing_timer_fired(self) -> None:
        """The host's timer for the last reported :attr:`Step.deadline`
        fired; the next paced step reports a new one."""
        self._timer_armed = False

    # ------------------------------------------------------------------
    # Restart, shutdown and mode selection
    # ------------------------------------------------------------------
    def close(self) -> None:
        """The host stopped for good: close the log and let go of the
        host.  Host and driver reference each other, and a stopped
        validator's committed history should be freed by reference
        counting as soon as its owner drops it, not whenever the cyclic
        collector next runs a full pass."""
        if self.wal is not None:
            self.wal.close()
        self._port = None
        self.synchronizer.close()

    def restart(self, core) -> None:
        """A new incarnation lost all in-memory state: bind its fresh
        ``core`` and forget the previous tally and every fetch."""
        self.core = core
        self.synchronizer.restart(core)
        # The attestation quorum is 2f + 1 of the latest committee this
        # validator knows — the genesis committee for a fresh core.  A
        # recoverer that slept across epochs it never learned has a
        # bootstrap-trust gap (real deployments close it with a
        # light-client protocol, out of scope here).
        self._votes = CheckpointVotes(core.schedule.latest.committee.quorum_threshold)
        self.ckpt_adopted = False
        #: Epoch-versioned membership: once an activated epoch excludes
        #: a former member it has left — it stops proposing for good.
        self.left = False
        #: The path the recovery actually took (a warm restart with an
        #: empty WAL degenerates to, and reports, ``cold``).
        self.recovery_mode_used = "cold"
        #: Host time this recovery began; cleared by the first own
        #: proposal afterwards (:attr:`Step.recovered_at`).
        self.recovered_at: float | None = None
        self._inflight = 0
        # Pacing starts from scratch: no proposal yet, no deadline out.
        self._last_proposal = float("-inf")
        self._timer_armed = False

    def replay_wal(self) -> WalReplay | None:
        """Warm mode: rebuild the DAG and the proposal-round floor from
        the local log (``None`` in the other modes or without a log)."""
        if self.recover_mode != "warm" or self.wal is None:
            return None
        replay = replay_wal(self.core, self.wal.path)
        if replay.blocks:
            self.recovery_mode_used = "warm"
        return replay

    def begin_sync(self, now: float, **detail) -> None:
        """Enter re-sync.  Checkpoint mode asks for state transfer
        first; the other modes deep-fetch off the next block that
        reports missing ancestors."""
        self.syncing = True
        if self.recovered_at is None:
            self.recovered_at = now
        mode = "checkpoint" if self.recover_mode == "checkpoint" else self.recovery_mode_used
        self._trace("recovery_started", {"mode": mode, **detail})
        if self.awaiting_checkpoint:
            self.request_checkpoints()

    def finish(self) -> None:
        """Caught up: resume proposing."""
        self.syncing = False
        self._inflight = 0
        self._trace("sync_finished", {"mode": self.recovery_mode_used})
        # Never propose in a round the pre-crash incarnation already
        # proposed in (that would equivocate with our own old blocks):
        # floor the proposal round at the highest own-authored block
        # visible in the re-synced DAG, and lead future proposals with
        # it rather than the (possibly pruned-everywhere) genesis block.
        # (Residual assumption for cold restarts: our last pre-crash
        # block reached the sync peer before the fetch — true whenever
        # the down time exceeds a network round trip; warm restarts
        # restore the round from the WAL and checkpoint restarts floor
        # it at the adopted frontier, closing the gap properly.)
        self.core.restore_own_position()

    # ------------------------------------------------------------------
    # Checkpoint adoption (state transfer)
    # ------------------------------------------------------------------
    @property
    def awaiting_checkpoint(self) -> bool:
        """State transfer comes first: until a checkpoint is adopted,
        fetching toward genesis would fight the adoption (and fail once
        peers have garbage-collected).  Incoming blocks buffer as
        pending and connect once the suffix above the floor arrives."""
        return self.syncing and self.recover_mode == "checkpoint" and not self.ckpt_adopted

    def request_checkpoints(self) -> None:
        """Broadcast the checkpoint request with a fresh tally, and
        again every :data:`CHECKPOINT_RETRY` while no checkpoint is
        adopted: peers may not have finalized, and hence captured,
        anything yet."""
        self._votes.clear()
        self._port.send(None, CheckpointRequest())
        self._port.call_later(CHECKPOINT_RETRY, self._retry_checkpoints)

    def _retry_checkpoints(self) -> None:
        if self.awaiting_checkpoint:
            self.request_checkpoints()

    def retained_checkpoints(self) -> tuple[Checkpoint, ...]:
        """What this validator answers a checkpoint request with."""
        return tuple(self.core.committer.ledger.checkpoints)

    def on_checkpoint_response(self, peer: int, checkpoints: tuple[Checkpoint, ...]) -> None:
        """Tally one response; at ``2f + 1`` matching attestations
        fast-forward the fresh core to the checkpoint and fetch the
        suffix from the first attester — the nearest peer, rather than
        an arbitrary (possibly cross-continent) quorum member."""
        if not self.syncing or self.ckpt_adopted:
            return
        best = self._votes.add(peer, checkpoints)
        if best is None:
            return
        nearest = self._votes.attesters(best)[0]
        self.ckpt_adopted = True
        self.recovery_mode_used = "checkpoint"
        self.checkpoint_adoptions += 1
        self.core.adopt_checkpoint(best)
        self._votes.clear()
        self._trace("checkpoint_adopted", {"round": best.round, "peer": nearest})
        self.request_sync(nearest, best.frontier)

    # ------------------------------------------------------------------
    # The deep-fetch chain
    # ------------------------------------------------------------------
    @property
    def sync_inflight(self) -> bool:
        """Whether a deep fetch is currently outstanding."""
        return self._inflight != 0

    def request_sync(self, peer: int, refs: tuple[BlockRef, ...]) -> bool:
        """Deep-fetch ``refs`` and their ancestors from ``peer`` unless
        state transfer is pending or a fetch is already in flight — the
        in-flight chain (or its continuation off the response) covers
        everything; another full-closure fetch per incoming broadcast
        would re-serve the same span many times over."""
        if self._inflight or not refs or self.awaiting_checkpoint:
            return False
        self._token += 1
        self._inflight = self._token
        # The advertised floor is the highest round already covered:
        # everything accepted so far, or — right after a checkpoint
        # adoption, when the store holds only genesis — the adopted
        # state-transfer floor (history below it is never fetched).
        store = self.core.store
        floor = max(store.highest_round, store.sync_floor - 1)
        self._trace("sync_requested", {"peer": peer, "floor": floor})
        self.sync_requests_sent += 1
        self._port.call_later(SYNC_TIMEOUT, self.sync_timed_out, self._token)
        self._port.send(peer, SyncRequest(refs, floor, self._token))
        return True

    def sync_timed_out(self, token: int) -> None:
        """Request ``token`` went :data:`SYNC_TIMEOUT` unanswered."""
        if self._inflight == token:
            self._inflight = 0

    def on_sync_response(
        self, peer: int, blocks: tuple[Block, ...], pruned: tuple[BlockRef, ...], token: int
    ) -> bool:
        """Ingest one deep-fetch chunk; returns whether it completed
        the re-sync.  Raises :class:`StateTransferError` when the
        needed history is unrecoverable."""
        # Only the response to the request currently in flight may
        # drive the chain (or declare it finished): a stale response —
        # e.g. one a previous incarnation requested before a re-crash —
        # still contributes blocks but proves nothing.
        current = bool(token) and token == self._inflight
        if current:
            self._inflight = 0
        absorbed = bool(pruned) and self.syncing and current
        if absorbed:
            self._absorb_pruned_history(pruned)
        if not blocks:
            # Either the whole request sat behind the (absorbed) pruning
            # horizon — ask for whatever the frontier still misses — or
            # the peer had nothing for us (it may be re-syncing too):
            # the next live block re-triggers the chain at a peer that
            # can serve, where continuing would re-ask this one forever.
            if absorbed:
                self._continue_sync(peer)
            return False
        for block in blocks:
            self._port.ingest(block, peer, False)
        if not (self.syncing and current):
            return False
        if not self.core.pending_count and len(blocks) < chunk_cap(self._chunk):
            # A short chunk: the peer transferred its whole closure,
            # frontier included — we are as caught up as an honest peer
            # was a round trip ago.
            self.finish()
            return True
        self._continue_sync(peer)
        return False

    def _continue_sync(self, peer: int) -> None:
        """Chain the next chunk straight off the response: waiting for
        fresh broadcasts to surface the still-missing ancestors would
        sync slower than the network advances.  The chain stops by
        itself — every response adds at least one block we lacked."""
        self.request_sync(peer, self.core.missing_frontier())

    def _absorb_pruned_history(self, pruned: tuple[BlockRef, ...]) -> None:
        """A sync peer garbage-collected history this re-sync asked for.

        After a checkpoint adoption this is expected: peers keep
        committing while the recovery runs, so their pruning horizon
        slides past the adopted floor.  Pruning only happens ``gc_depth``
        rounds behind finality, so everything at the flagged rounds is
        globally settled — the floor is raised past them and the sync
        continues with the remaining suffix.  Outside the adopted span
        (or without a checkpoint at all) the needed history is simply
        unrecoverable, and a clear diagnostic beats the silent livelock
        of re-requesting pruned blocks forever.
        """
        if self.awaiting_checkpoint:
            return  # state transfer pending; it will bypass the pruned span
        base = self.core.committer.ledger.adopted_base
        if (
            self.ckpt_adopted
            and base is not None
            and all(ref.round <= base.round for ref in pruned)
        ):
            floor = max(ref.round for ref in pruned) + 1
            accepted = self.core.raise_sync_floor(floor)
            if self.wal is not None:
                for block in accepted:
                    self.wal.append_peer_block(block)
            return
        detail = (
            "the adopted checkpoint went stale mid-recovery (peers pruned past its round); "
            "lower checkpoint_interval or raise gc_depth"
            if self.ckpt_adopted
            else "recovery past the GC horizon needs recover_mode='checkpoint' "
            "(state transfer) or a larger gc_depth"
        )
        raise StateTransferError(
            f"validator {self.core.authority}: re-sync needs {len(pruned)} block(s) behind a "
            f"peer's garbage-collection horizon (first: {pruned[0]!r}); {detail}"
        )

    # ------------------------------------------------------------------
    # Serving peers' fetches
    # ------------------------------------------------------------------
    def held_blocks(self, refs: tuple[BlockRef, ...]) -> list[Block]:
        """The requested blocks this validator can serve: stored ones,
        then :attr:`unstored` ones."""
        store = self.core.store
        unstored = self.unstored
        held = [store.get(ref.digest) for ref in refs if ref.digest in store]
        held.extend(
            unstored[ref.digest]
            for ref in refs
            if ref.digest not in store and ref.digest in unstored
        )
        return held

    def serve_sync(
        self, refs: tuple[BlockRef, ...], floor: int
    ) -> tuple[tuple[Block, ...], tuple[BlockRef, ...]]:
        """One deep-fetch chunk for a re-syncing peer: ``(blocks,
        pruned)``.  Sync requests always get an answer — an empty one
        tells the requester to unblock and try elsewhere instead of
        sitting on its retry timeout — and requested references already
        garbage-collected here are flagged, so a re-sync that *needs*
        pruned history fails fast instead of livelocking."""
        store = self.core.store
        pruned = tuple(
            ref
            for ref in refs
            if ref.digest not in store
            and ref.digest not in self.unstored
            and 0 < ref.round < store.lowest_round
        )
        served = ancestor_closure(store, self.held_blocks(refs), floor, self._chunk)
        return tuple(served), pruned

    # ------------------------------------------------------------------
    # Epoch exit
    # ------------------------------------------------------------------
    def excluded_by_epoch(self) -> bool:
        """Whether an activated epoch now excludes this former member.

        The committee of the cluster's current round decides: between a
        committed leave command and its activation round the validator
        keeps voting (thresholds still count it); at the boundary it
        must go silent for good — exactly when ``2f + 1`` stops counting
        it, so liveness never depends on a departed member.
        """
        core = self.core
        if core.schedule.committee_at(core.store.highest_round).is_member(core.authority):
            self._was_member = True
            return False
        return self._was_member

    def _trace(self, name: str, args: dict) -> None:
        """Record a ``sync``-track instant at the host's current time."""
        if self.tracer.enabled:
            self.tracer.instant(
                self.core.authority, "sync", name, self._port.trace_time(), args
            )
