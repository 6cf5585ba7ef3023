"""The networked validator process.

Owns a :class:`~repro.core.MahiMahiCore`, a transport and a write-ahead
log; broadcasts the blocks its driver proposes and re-broadcasts the
latest from an asyncio task when idle; surfaces committed blocks on an
async queue.

Runtime parity with the simulator (:class:`~repro.sim.node.SimValidator`):

* the validator set is a round-versioned
  :class:`~repro.committee.CommitteeSchedule` — committed
  :class:`~repro.committee.ReconfigCommand` transactions activate epochs
  at deterministic commit-walk points, ``_peers()`` follows the active
  and latest-scheduled committees, and a member an activated epoch
  excludes goes silent by itself;
* the validator step loop (ingest, paced proposing with its own timer,
  commit, epoch exit, the WAL's block records and lifecycle instants),
  the fetching of missing ancestors (shallow with peer rotation, or the
  deep chain once fallen behind), the restart sequence and re-sync
  (cold / warm / checkpoint) and the reading of every validator message
  are the shared, sans-IO :class:`~repro.statesync.driver.ValidatorDriver`.
  This class is its runtime port
  (:class:`~repro.statesync.driver.ValidatorPort`): every decoded peer
  message goes to ``driver.on_message`` unread (a client's
  :class:`~repro.messages.TransactionMessage` is the one this class
  handles); it tells monotonic time, runs the driver's timers on
  asyncio's, queues what the driver sends (and each own proposal it
  hands to ``announce``) in an **outbox** that ``_flush`` drains with
  ``await transport.send(...)``, and turns ``accepted``, ``recovered``
  and ``committed`` into its metrics, ``recovery_time`` and the commit
  queue.  It adds what only the runtime has — asyncio, the transport,
  idle re-broadcast, the metrics registry and the commit queue;
* a received block with a long transaction section (at least
  :data:`OFFLOAD_SECTION_BYTES`) is hashed on a second core: the node
  owns a one-thread executor, builds the block's signable parts on the
  loop, awaits :func:`~repro.block.block_digest` of them on the thread
  (blake2b releases the GIL for long buffers, so the loop keeps serving
  the other validators' frames, WAL appends and commit walks) and sets
  the digest on the block before the driver sees the message.  The
  driver, the simulator and the wire format are unchanged, and one
  peer's messages keep their order: each transport awaits a dispatch
  before it reads that peer's next frame.  A process that may run on
  one CPU only (:data:`HASH_OFF_THE_LOOP` is false) hashes every block
  on the loop: there the thread could only take turns with it;
* the lifecycle vocabulary is the simulator's: :meth:`ValidatorNode.start`
  boots a validator, and a harness that restarts one (a new incarnation
  over a stopped one's log, or a joiner coming online) calls
  :meth:`ValidatorNode.recover` first — the driver's restart sequence,
  which enters re-sync in every mode, so the new incarnation proposes
  nothing until it has caught up;
* commit-state checkpoints are captured by the committer's
  :class:`~repro.statesync.CommitLedger` at the same deterministic
  commit-walk points as the sim, and served to recovering peers by the
  driver.
"""

from __future__ import annotations

import asyncio
import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Awaitable, Callable, Sequence

from ..block import Block, block_digest
from ..committee import Committee, CommitteeSchedule
from ..config import ProtocolConfig
from ..core.committer import CommitObservation
from ..core.protocol import MahiMahiCore, Mempool
from ..crypto.coin import CommonCoin
from ..dag.validation import BlockVerifier
from ..errors import StateTransferError
from ..messages import BlockMessage, Message, TransactionMessage
from ..obs import trace as _trace
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER
from ..statesync import SYNC_MAX_BLOCKS, ValidatorDriver
from ..transaction import Transaction, TransactionBatch, encode_transactions
from .transport import Transport
from .wal import WriteAheadLog

#: Idle retransmission: with no new proposal for this long, the latest
#: own block is re-broadcast.  Sends to unreachable peers are dropped
#: (best-effort transport), and the synchronizer only repairs gaps that
#: *incoming* blocks reveal — so if every validator lost someone's
#: block and stopped proposing, nothing would ever flow again.  The
#: periodic re-broadcast is the anti-entropy that breaks such a silent
#: deadlock (and is how a real deployment rides out dropped sends).
_REBROADCAST_AFTER = 0.5

#: A received block whose transaction section is at least this many
#: bytes is hashed on the node's hashing thread, not on the event loop.
#: Measured on a 2-core Xeon (CPython 3.11): one offload costs the loop
#: thread 45-65 µs of CPU whatever the section's size, and hashing a
#: section inline costs 24 µs at 16 KiB, 45-70 µs at 32 KiB and 520 µs
#: at 256 KiB — the crossover lies between 16 and 32 KiB.  End to end,
#: offloading ``rt-steady``'s blocks too (all 20-30 KB) read p95 +0.3 %,
#: the rule winning 9 of 10 pairs.
OFFLOAD_SECTION_BYTES = 32 * 1024


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform reports one, else the host's count."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else os.cpu_count() or 1


#: Whether a node hashes long sections on a thread of its own: only when
#: the process may run on a second CPU.  On one CPU the thread can only
#: take turns with the loop, so each offload's loop-side cost is a pure
#: loss: ``rt-drain`` under ``taskset -c 0`` read ``wall_s`` +6.2 % while
#: it offloaded (about 144 offloads a unit at ~60 µs each, some 6 % of
#: its 0.147 s), and +1.0 % (4 of 10 pairs, unchanged) with this gate.
HASH_OFF_THE_LOOP = _usable_cpus() > 1


class _BatchMempool(Mempool):
    """Proposals carry their transactions as a bytes-backed
    :class:`~repro.transaction.TransactionBatch`, encoded here once for
    the digest, every peer frame and the WAL record to reuse."""

    def take(self, limit: int) -> TransactionBatch:
        return TransactionBatch(super().take(limit))


class ValidatorNode:
    """One validator of a running cluster."""

    def __init__(
        self,
        authority: int,
        committee: "Committee | CommitteeSchedule",
        config: ProtocolConfig,
        coin: CommonCoin,
        transport: Transport,
        *,
        wal_path: str | Path | None = None,
        wal_sync: bool = False,
        verifier: BlockVerifier | None = None,
        sign: Callable[[bytes], bytes] | None = None,
        min_block_interval: float = 0.0,
        recover_mode: str = "warm",
        sync_chunk_blocks: int = SYNC_MAX_BLOCKS,
        tracer=NULL_TRACER,
    ) -> None:
        """Args mirror :class:`~repro.core.MahiMahiCore`, plus:

        committee: A static :class:`Committee` or an epoch-versioned
            :class:`CommitteeSchedule` (committed reconfiguration
            commands then resize the validator set live).
        transport: Started/stopped together with the node.
        wal_path: When set, every block proposed or accepted is
            persisted; a warm :meth:`recover` replays the log into the
            DAG before the node joins the network.
        min_block_interval: Proposal pacing (0 = propose at quorum edge).
        recover_mode: The path :meth:`recover` takes, one of
            :data:`~repro.statesync.RECOVER_MODES`.
            Defaults to ``warm``, which degenerates to ``cold`` when
            there is no (or an empty) WAL.
        sync_chunk_blocks: Most blocks served in one deep-fetch
            response chunk.
        tracer: A :class:`repro.obs.trace.Tracer` recording lifecycle
            spans with **wall-clock** timestamps (``time.time()``);
            defaults to the no-op tracer.  Shared with the transport,
            alongside the node's metrics registry.
        """
        self.authority = authority
        self.core = MahiMahiCore(
            authority,
            committee,
            config,
            coin,
            verifier=verifier,
            sign=sign,
            mempool=_BatchMempool(),
        )
        self.schedule = self.core.schedule
        self.config = config
        self.transport = transport
        #: Lifecycle tracer (wall-clock) and live metrics registry —
        #: the registry snapshot is what ``process_cluster`` flushes
        #: into its status JSON.
        self.tracer = tracer
        self.metrics = MetricsRegistry()
        m = self.metrics
        self._m_submitted = m.counter("txs_submitted", help="client transactions accepted")
        self._m_proposed = m.counter("blocks_proposed", help="own blocks proposed")
        self._m_received = m.counter("blocks_received", help="peer blocks accepted into the DAG")
        self._m_committed_blocks = m.counter("blocks_committed", help="blocks linearized by the commit walk")
        self._m_committed_tx = m.counter("txs_committed", help="transactions in linearized blocks")
        self._m_waves = m.counter("waves_decided", help="slot decisions, labeled by outcome")
        transport.instrument(tracer, m)
        # The latest own block and when it (or anything newer) last went
        # out: what the idle re-broadcast retransmits.
        self._last_block: Block | None = None
        self._last_broadcast = float("-inf")
        self._tasks: set[asyncio.Task] = set()
        # Digests of received blocks with long sections (started on
        # first use; blake2b releases the GIL while it hashes them).
        self._hasher = (
            ThreadPoolExecutor(1, thread_name_prefix=f"validator-{authority}-hash")
            if HASH_OFF_THE_LOOP
            else None
        )
        self._running = False
        self._stopped = False
        self._driver = driver = ValidatorDriver(
            self.core,
            self,
            recover_mode,
            sync_chunk_blocks,
            interval=min_block_interval,
            wal=WriteAheadLog(wal_path, sync=wal_sync) if wal_path is not None else None,
            tracer=tracer,
        )
        # The driver's count, read through the driver alone: a closure
        # over this node would keep it alive in a reference cycle.
        m.counter(
            "blocks_rejected",
            help="invalid blocks dropped at ingest",
            read=lambda: driver.blocks_rejected,
        )
        # Messages the (synchronous) handlers and the step queued:
        # ``(destination, message)``, destination ``None`` = broadcast.
        self._outbox: deque[tuple[int | None, Message]] = deque()
        #: Seconds from restart to the first own proposal (None until a
        #: recovery completes).
        self.recovery_time: float | None = None
        #: Unrecoverable re-sync failure, surfaced instead of raised so
        #: the transport pump survives (hosts poll / report it).
        self.recovery_error: StateTransferError | None = None
        #: Committed observations, for consumers.
        self.commits: asyncio.Queue[CommitObservation] = asyncio.Queue()
        self.committed_blocks: list[Block] = []
        transport.on_message(self._on_message)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def syncing(self) -> bool:
        """Whether this node is re-syncing (no proposals until the DAG
        behind the frontier is rebuilt)."""
        return self._driver.syncing

    @property
    def left(self) -> bool:
        """Whether an activated epoch excluded this former member: it
        stopped proposing for good (the transport keeps serving fetches
        — a real leaver drains before shutdown)."""
        return self._driver.left

    @property
    def synchronizer(self):
        """The driver's shallow-fetch table (its counters stay readable
        after :meth:`stop`)."""
        return self._driver.synchronizer

    @property
    def recovery_mode_used(self) -> str:
        """The restart path actually taken (a warm restart with an empty
        WAL degenerates to, and reports, ``cold``)."""
        return self._driver.recovery_mode_used

    @property
    def checkpoint_adoptions(self) -> int:
        """State-transfer checkpoints this incarnation adopted."""
        return self._driver.checkpoint_adoptions

    @property
    def deep_sync_requests(self) -> int:
        """Deep (chunked re-sync) requests this incarnation sent."""
        return self._driver.sync_requests_sent

    def recover(self) -> None:
        """Restart: run the driver's restart sequence for this fresh
        incarnation — replay the log in warm mode, then enter re-sync
        in every mode — before :meth:`start`.  ``recovery_time`` counts
        from here."""
        self._driver.recover(self.core)

    async def start(self, *, barrier: "Callable[[], Awaitable[None]] | None" = None) -> None:
        """Start the transport and the re-broadcast loop, and propose
        the first block (none while a :meth:`recover` re-syncs).

        A log that already holds blocks belongs to an earlier
        incarnation: starting over it without :meth:`recover` recovers
        first, so no round the log holds is ever signed again.

        ``barrier`` (when given) is awaited after the listener is bound
        but before the first proposal — a multi-process deployment waits
        for every peer's listener here, so genesis-round broadcasts are
        not dropped into the boot race.
        """
        wal = self._driver.wal
        if not self._driver.syncing and wal is not None and wal.path.stat().st_size:
            self.recover()
        await self.transport.start()
        if barrier is not None:
            await barrier()
        self._running = True
        self._driver.start()
        await self._flush()
        self._spawn(self._rebroadcast_loop())

    def _spawn(self, coroutine) -> None:
        task = asyncio.create_task(coroutine)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def stop(self) -> None:
        """Stop for good.  Everything read-only stays readable (the
        core and its committer, ``committed_blocks``, ``metrics``, the
        synchronizer's counters), and no reference cycle through this
        node is left behind: the transport drops its delivery callback
        and the driver its port, so the committed history this node
        holds is freed the moment its owner drops the node.  The
        hashing thread, if any, finishes the digest it may be computing
        (its reader was cancelled) and exits before this returns."""
        self._running = False
        self._stopped = True
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        await self.transport.stop()
        self._driver.close()
        if self._hasher is not None:
            self._hasher.shutdown()

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def submit_transaction(self, tx: Transaction) -> None:
        """Queue a client transaction."""
        self.core.add_transaction(tx)
        self._m_submitted.inc()
        if self.tracer.enabled:
            self.tracer.instant(
                self.authority, "client", _trace.TX_SUBMITTED, time.time(), {"tx": tx.tx_id}
            )

    # ------------------------------------------------------------------
    # The loops
    # ------------------------------------------------------------------
    async def _rebroadcast_loop(self) -> None:
        """Retransmit the latest own block whenever it has gone
        :data:`_REBROADCAST_AFTER` without a broadcast (duplicates are
        idempotent on the receiving side), sleeping until that is next
        due."""
        while self._running:
            now = time.monotonic()
            due = self._last_broadcast + _REBROADCAST_AFTER - now
            if due <= 0:
                if self._last_block is not None and not (self._driver.syncing or self.left):
                    self._last_broadcast = now
                    await self.transport.broadcast(
                        BlockMessage(block=self._last_block), self._peers()
                    )
                due = _REBROADCAST_AFTER
            await asyncio.sleep(due)

    def _peers(self) -> list[int]:
        """Everyone we broadcast to: the committee governing the current
        frontier round, plus the latest scheduled epoch's members (a
        joiner must hear blocks before its epoch activates to be ready
        at the boundary), plus — for one epoch of grace — the previous
        epoch's members (a departed validator must *observe* the
        boundary that excluded it to go silent on its own; were it cut
        off at the boundary exactly, it would starve one round short of
        it and never learn it left), minus ourselves."""
        schedule = self.schedule
        if schedule.is_static:
            members = set(schedule.genesis_committee.members)
        else:
            epochs = schedule.epochs()
            current = schedule.epoch_at(max(0, self.core.store.highest_round))
            members = set(current.committee.members)
            index = epochs.index(current)
            if index > 0:
                members.update(epochs[index - 1].committee.members)
            members.update(schedule.latest.committee.members)
        members.discard(self.authority)
        return sorted(members)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    async def _on_message(self, sender: int, message: Message) -> None:
        """Hash the long sections of the blocks ``message`` carries off
        the loop, then handle it synchronously (no state changes across
        an ``await``) and send whatever it queued.  A transport awaits
        each dispatch before it reads the peer's next frame, so one
        peer's messages reach the driver in the order they arrived."""
        if isinstance(message, TransactionMessage):
            for tx in message.transactions:
                self.submit_transaction(tx)
            return
        # The message is not read here: a block it carries is its
        # ``block`` or one of its ``blocks``.
        for block in getattr(message, "blocks", None) or (getattr(message, "block", None),):
            if (
                self._hasher is not None
                and block is not None
                and "digest" not in block.__dict__
                and len(encode_transactions(block.transactions)) >= OFFLOAD_SECTION_BYTES
            ):
                # The parts are built here; the thread runs the same
                # function the ``digest`` property does, never the
                # property itself (its lock would stall the loop's own
                # first digests behind the thread).
                block.__dict__["digest"] = await asyncio.get_running_loop().run_in_executor(
                    self._hasher, block_digest, block._signable_parts()
                )
        try:
            self._driver.on_message(message, sender)
        except StateTransferError as error:
            # Surfaced instead of raised: the transport pump must
            # survive, and the re-sync chain stops here.
            self.recovery_error = error
        if self._outbox:
            await self._flush()

    async def _flush(self) -> None:
        """Send everything queued so far, in order."""
        outbox = self._outbox
        while outbox:
            dst, message = outbox.popleft()
            if dst is None:
                await self.transport.broadcast(message, self._peers())
            else:
                await self.transport.send(dst, message)

    # ------------------------------------------------------------------
    # ValidatorPort: what the driver asks of this host
    # ------------------------------------------------------------------
    def now(self) -> float:
        return time.monotonic()

    def send(self, dst: int | None, message: Message) -> None:
        self._outbox.append((dst, message))

    def call_later(self, delay: float, callback: Callable[..., None], *args) -> None:
        asyncio.get_running_loop().call_later(delay, self._on_timer, callback, args)

    def _on_timer(self, callback: Callable[..., None], args: tuple) -> None:
        """A timer fired: dropped once the node stopped (a timer armed
        while :meth:`start` still waits on its barrier is not)."""
        if not self._stopped:
            callback(*args)
            if self._outbox:
                self._spawn(self._flush())

    def trace_time(self) -> float:
        return time.time()

    def announce(self, block: Block) -> None:
        """Broadcast an own proposal; the idle re-broadcast repeats it."""
        self._last_block, self._last_broadcast = block, time.monotonic()
        self._m_proposed.inc()
        self.send(None, BlockMessage(block=block))

    def accepted(self, blocks: Sequence[Block], peer: int) -> None:
        self._m_received.inc(len(blocks))

    def recovered(self, at: float, mode: str) -> None:
        self.recovery_time = time.monotonic() - at

    def committed(self, observations: Sequence[CommitObservation]) -> None:
        """Queue each observation for consumers and count it."""
        for observation in observations:
            self.commits.put_nowait(observation)
            self.committed_blocks.extend(observation.linearized)
            self._m_waves.inc(decision=observation.status.decision.name.lower())
            self._m_committed_blocks.inc(len(observation.linearized))
            self._m_committed_tx.inc(sum(len(b.transactions) for b in observation.linearized))

    def leave(self) -> None:
        """Epoch exit: the driver proposes nothing from now on, and the
        idle re-broadcast stops; the transport keeps serving fetches (a
        real leaver drains before shutdown)."""
