"""A simulated validator.

Wraps a protocol core (:class:`~repro.core.MahiMahiCore`, possibly with
a baseline committer) and drives it from network events.  The core's
committer decides which of the two DAG families of the evaluation runs:

* **uncertified** (Mahi-Mahi, Cordial Miners): a proposal is one
  broadcast; receivers ingest it directly — one message delay per round
  (Section 2.2);
* **certified** (Tusk): a proposal is a header broadcast, acknowledged
  by peers, and only the resulting certificate (header + ``2f + 1``
  acks) enters the DAG — three message delays per round.

Crash-recovery rides the same path: :meth:`SimValidator.crash` silences
the validator and discards whatever it was processing; a later
:meth:`SimValidator.recover` restarts it with an **empty in-memory
state** (a fresh core holding only genesis) and re-syncs in the cold,
warm or checkpoint mode.

The validator step loop (ingest, paced proposing with its own timer,
commit, epoch exit, with their WAL records and lifecycle instants),
Tusk's header / ack / certificate round, the fetching of missing
ancestors (the synchronizer the liveness proofs rely on, Lemma 8), the
recovery state machine and the reading of every :mod:`repro.messages`
message are the fabric-independent
:class:`~repro.statesync.driver.ValidatorDriver`; this class is its
simulator port (:class:`~repro.statesync.driver.ValidatorPort`): it
hands each delivered message to ``driver.on_message`` unread, tells the
event loop's time, runs the driver's timers as incarnation-stamped
events, and acts on the driver's calls — ``announce`` an own proposal
(a block broadcast, a certified protocol's header, or an equivocation
campaign's split), ``accepted`` blocks (the stage-latency observer),
``recovered``, ``committed`` (the commit callback) and ``leave``.  It
adds what only the simulator has: the ingress and consensus CPU stages
(a WAL replay is charged to the consensus stage), equivocation and the
stage-latency observer.  What a stage's work and a message's bytes cost
is the run's :class:`~repro.sim.costs.CostModel`.

A simulated transaction costs the event loop nothing here, and is no
object either.  The ingress stage is a single server, so it completes
transactions in the order it was handed them: the validator's
:class:`Ingress` keeps each one as a row of parallel lists — id, arrival
time, the time the stage is done with it — and is also the core's
mempool.  Client arrivals reach it a window at a time, as one chunk per
validator (:meth:`Ingress.extend`), and only at the event loop's settle
points (:meth:`~repro.sim.events.EventLoop.settle`): a proposal, the
mempool's only reader, first settles the arrivals due, then admits every
row whose time has come (one ``bisect``) and takes the next rows as a
:class:`~repro.transaction.TransactionSlice`; an object submission
settles before it queues, and :meth:`SimValidator.crash`,
:meth:`~SimValidator.recover` and :meth:`~SimValidator.set_slow_factor`
settle before they change liveness or the ingress price, so every
arrival is routed and priced under the state of its own instant.  What
is a fact about a block (inclusion, arrival at the observer, commit) is
reported to the metrics once per block, with that slice.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Sequence

from ..block import Block
from ..core.committer import CommitObservation
from ..core.protocol import MahiMahiCore
from ..messages import BlockMessage, Header
from ..obs import trace as _trace
from ..obs.trace import NULL_TRACER
from ..runtime.wal import WriteAheadLog
from ..statesync.checkpoint import CommitLedger
from ..statesync.driver import ValidatorDriver
from ..statesync.recovery import SYNC_MAX_BLOCKS as _SYNC_MAX_BLOCKS
from ..transaction import Transaction, TransactionSlice
from .costs import CostModel
from .events import EventLoop
from .faults import make_equivocating_sibling
from .network import Message, SimNetwork


#: Rows an ingress keeps once they are in a block, before it deletes
#: them (one ``del`` of the prefix per this many).
_COMPACT_AFTER = 1024


class Ingress:
    """One validator's ingress stage and the mempool behind it.

    One row per transaction, as parallel lists in the order the stage
    was handed them, which is the order it completes them: ``ids`` (the
    ``Transaction`` itself where one was submitted as an object), arrival
    ``times``, the ``ready`` time the stage is done with each and, on
    mixed-size runs, the ``sizes``.  Rows below the admitted cursor are
    in the mempool; rows below the taken cursor are in a block.  Without
    a CPU model (``cost`` is ``None``) there is no stage, and a row is in
    the mempool as it arrives.
    """

    def __init__(
        self, costs: CostModel, loop: EventLoop, authority: int, tracer=NULL_TRACER
    ) -> None:
        self.ids: list = []
        self.times: list[float] = []
        self.ready: list[float] = []
        self.sizes: list | None = [] if costs.mixed_sizes else None
        #: Stage seconds per transaction, at the validator's current speed.
        self.cost = costs.ingress_price()
        self._loop = loop
        #: When the stage is next free.
        self.free = 0.0
        self._admitted = 0
        self._taken = 0
        self._objects = 0  # object rows not yet taken
        self._authority = authority
        self._tracer = tracer

    def extend(self, entries: list, times: list[float], sizes: list | None = None) -> None:
        """Transactions — ``entries``, routed arrivals' ids or objects —
        reach the stage in order, each at its time in ``times`` (with its
        size in ``sizes`` on a mixed-size run).  Each starts when the
        stage is free, at the cost in force now (a later slow factor
        prices later arrivals only)."""
        cost = self.cost
        if cost is None:
            ready = times
        else:
            free = self.free
            ready = []
            for now in times:
                if now > free:
                    free = now
                free += cost
                ready.append(free)
            self.free = free
        self.ids += entries
        self.times += times
        self.ready += ready
        if self.sizes is not None:
            self.sizes += sizes
        if cost is None:
            self._admitted = len(self.ids)
        if self._tracer.enabled:
            for entry, now, done in zip(entries, times, ready):
                self._trace(entry, now, done)

    def submit(self, tx: Transaction, now: float) -> None:
        """``tx``, submitted as an object, reaches the stage at ``now``
        (after every arrival due before it)."""
        self._loop.settle()
        self._objects += 1
        self.extend([tx], [now], [tx.size_hint])

    def take(self, limit: int) -> "TransactionSlice | tuple[()]":
        """A proposal's section: the next ``limit`` mempool rows (all of
        them, if fewer wait), as a slice of the columns.  First every
        row the stage is done with by the loop's ``now`` enters the
        mempool (a row ready at exactly ``now`` does, whatever order its
        completion and this proposal were set up in): a proposal is the
        mempool's only reader, so it settles the arrivals due first."""
        self._loop.settle()
        at, ready, now = self._admitted, self.ready, self._loop.now
        if at < len(ready) and ready[at] <= now:
            self._admitted = bisect_right(ready, now, at)
        start = self._taken
        end = min(self._admitted, start + limit)
        if end == start:
            return ()
        self._taken = end
        ids = self.ids[start:end]
        objects = 0
        if self._objects:
            objects = sum(type(entry) is Transaction for entry in ids)
            self._objects -= objects
        sizes = None if self.sizes is None else self.sizes[start:end]
        section = TransactionSlice(ids, self.times[start:end], sizes, objects)
        if end >= _COMPACT_AFTER:
            for column in (self.ids, self.times, self.ready, self.sizes):
                if column is not None:
                    del column[:end]
            self._admitted -= end
            self._taken = 0
        return section

    def clear(self) -> None:
        """A restart: everything in the stage and the mempool is lost,
        and the stage is free from now on."""
        for column in (self.ids, self.times, self.ready, self.sizes):
            if column is not None:
                column.clear()
        self.free = 0.0
        self._admitted = self._taken = self._objects = 0

    def _trace(self, entry, now: float, ready: float) -> None:
        tx_id = entry if type(entry) is int else entry.tx_id
        self._tracer.instant(self._authority, "client", _trace.TX_SUBMITTED, now, {"tx": tx_id})
        if self.cost is not None:
            self._tracer.span(
                self._authority, "ingress", "ingress_stage", now, ready, {"tx": tx_id}
            )


class SimValidator:
    """One validator process inside the simulation.

    Slotted: a 50-validator sweep point instantiates 50 of these and
    touches their state once per delivered message, so attribute access
    goes through fixed slot offsets rather than a per-instance dict.
    """

    __slots__ = (
        "core",
        "retired_ledgers",
        "authority",
        "_network",
        "_loop",
        "_costs",
        "_on_commit",
        "_interval",
        "ingress",
        "_consensus_free",
        "down",
        "_incarnation",
        "_core_factory",
        "_driver",
        "_on_recovery",
        "left_at",
        "_slow",
        "equivocating",
        "ever_equivocated",
        "equivocations_sent",
        "_tracer",
        "_stage_metrics",
        "_stage_observer",
        "_arrivals",
    )

    def __init__(
        self,
        core: MahiMahiCore,
        network: SimNetwork,
        loop: EventLoop,
        *,
        costs: CostModel | None = None,
        min_block_interval: float = 0.0,
        on_commit: Callable[[SimValidator, Sequence[CommitObservation], float], None] | None = None,
        core_factory: Callable[[], MahiMahiCore] | None = None,
        start_down: bool = False,
        on_recovery: Callable[[int, float, float, str], None] | None = None,
        recover_mode: str = "cold",
        wal: WriteAheadLog | None = None,
        sync_chunk_blocks: int = _SYNC_MAX_BLOCKS,
        tracer=NULL_TRACER,
        stage_metrics=None,
        stage_observer: bool = False,
    ) -> None:
        """Args:
        core: The protocol state machine (already holding genesis).
        network: The simulated network (this node registers itself).
        loop: The experiment's event loop.
        costs: The run's prices (:class:`~repro.sim.costs.CostModel`;
            the default charges no CPU time, for pure message-delay
            arithmetic).
        min_block_interval: Minimum spacing between own proposals,
            modeling the batching/processing cadence of a real validator
            (the Rust implementation paces rounds the same way).  Bare
            quorum-edge proposing would systematically exclude blocks
            from far regions from the next round's parents.
        on_commit: Called as ``(validator, observations, now)`` after
            every step that extended the commit sequence, with the new
            observations in commit order (the validator keeps none).
        core_factory: Builds a fresh core on :meth:`recover` — a restart
            loses all in-memory state.  A validator that restarts needs
            one.
        start_down: Begin offline (a validator that ``join``\\ s later).
        on_recovery: Called as ``(authority, recovered_at, resumed_at,
            mode)`` when the validator proposes its first block after a
            restart — the recovery-time metric hook.  ``mode`` is the
            path the recovery *actually* took (a warm restart with an
            empty WAL degenerates to, and reports, ``cold``).
        recover_mode: Restart path, one of
            :data:`~repro.statesync.driver.RECOVER_MODES`.
        wal: Write-ahead log backing warm restarts: every block
            proposed or accepted is appended during operation and
            replayed on ``recover`` when ``recover_mode`` is ``warm``.
        sync_chunk_blocks: Most blocks this validator serves in one
            deep-fetch response (bounded batches, like a real
            synchronizer's request cap).  Must exceed the cluster's
            block production per fetch round trip or a re-sync can
            never catch up.
        tracer: Lifecycle tracer (:data:`repro.obs.NULL_TRACER` by
            default — every recording site is guarded by
            ``tracer.enabled`` so the disabled cost is one attribute
            load).
        stage_metrics: The experiment's :class:`~repro.sim.metrics
            .ExperimentMetrics`, told each own block's inclusion time
            (every validator) for the stage-latency breakdown.
        stage_observer: This validator is the metrics observer: also
            record block arrival/ingest times for the network/cpu
            stage shares.
        """
        self.core = core
        #: The ledgers of the cores :meth:`recover` replaced, oldest
        #: first, so an earlier incarnation's checkpoints and adopted
        #: base are still checked (``Experiment.assert_safety``).  A
        #: ledger holds no DAG, so its incarnation's store goes with the
        #: core.
        self.retired_ledgers: list[CommitLedger] = []
        self.authority = core.authority
        self._network = network
        self._loop = loop
        self._costs = costs = costs or CostModel()
        self._on_commit = on_commit
        self._interval = min_block_interval
        #: The ingress stage and the mempool behind it (the core's).
        self.ingress = Ingress(costs, loop, self.authority, tracer)
        core.mempool = self.ingress
        # When the single-threaded consensus CPU stage becomes free.
        self._consensus_free = 0.0
        #: Whether the validator is silent (crashed, left, not yet
        #: joined): the hot-path liveness check, clients' too.  The
        #: incarnation counter invalidates CPU-stage work queued before a
        #: crash (a real restart loses its queues).
        self.down = start_down
        self._incarnation = 0
        self._core_factory = core_factory
        self._driver = ValidatorDriver(
            core,
            self,
            recover_mode,
            sync_chunk_blocks,
            interval=min_block_interval,
            wal=wal,
            tracer=tracer,
        )
        self._on_recovery = on_recovery
        #: When this validator actually went silent for good (epoch
        #: reconfiguration: the *activation* of the excluding epoch, not
        #: the leave command's submission — availability accounting uses
        #: the observed instant).
        self.left_at: float | None = None
        # Straggler model: multiplies every CPU stage cost and the
        # proposal pacing interval (1.0 = full speed).
        self._slow = 1.0
        #: Whether an equivocation campaign is running
        #: (:meth:`set_equivocating`).
        self.equivocating = False
        #: Whether this validator ever actually sent an equivocating
        #: sibling — once Byzantine, always excluded from the honest
        #: safety universe, even after the campaign desists.
        self.ever_equivocated = False
        self.equivocations_sent = 0
        self._tracer = tracer
        self._stage_metrics = stage_metrics
        self._stage_observer = stage_observer and stage_metrics is not None
        # Observer-only: block reference -> wire arrival time, consumed
        # when the consensus stage ingests the block.
        self._arrivals: dict = {}
        network.register_batch(self.authority, self.on_batch)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def syncing(self) -> bool:
        """Whether the validator is re-syncing after a restart."""
        return self._driver.syncing

    @property
    def checkpoint_adoptions(self) -> int:
        """State-transfer checkpoints adopted over all incarnations."""
        return self._driver.checkpoint_adoptions

    @property
    def blocks_rejected(self) -> int:
        """Invalid blocks dropped at ingest over all incarnations."""
        return self._driver.blocks_rejected

    def start(self) -> None:
        """Propose the first block (round 1 follows from genesis)."""
        if not self.down:
            self._driver.start()

    def crash(self) -> None:
        """Go silent.  In-flight CPU work is abandoned (the incarnation
        guard drops it) and in-memory state is lost on the next
        :meth:`recover`.  Idempotent."""
        if self.down:
            return
        self._loop.settle()
        self.down = True
        self._incarnation += 1

    def close(self) -> None:
        """The run ended: close the log and let go of the driver's port
        and the restart factory (both lead back to this validator or its
        experiment); the core and the counters stay readable."""
        self._driver.close()
        self._core_factory = None

    def leave(self) -> None:
        """Leave the committee permanently (reconfiguration; as a
        ValidatorPort call, the driver noticed the activated epoch that
        excludes this validator).  The transport-level effect equals a
        crash that never recovers; clients retarget away for good."""
        if not self.down and self.left_at is None:
            self.left_at = self._loop.now
        self.crash()

    def set_slow_factor(self, scale: float) -> None:
        """Make this validator a persistent straggler: every CPU stage
        cost and the proposal pacing interval are multiplied by
        ``scale`` from now on (``1.0`` restores full speed).  Survives
        crashes and recoveries — it models a slow machine, not slow
        state."""
        if scale < 1.0:
            raise ValueError(f"slow factor must be >= 1, got {scale}")
        self._loop.settle()
        self._slow = scale
        self._driver.interval = self._interval * scale
        self.ingress.cost = self._costs.ingress_price(scale)

    def set_equivocating(self, active: bool) -> None:
        """Start or stop an equivocation campaign.  While active, every
        own proposal is split into conflicting siblings across the peer
        set (:meth:`_dispatch_equivocation`); stopping resumes honest
        broadcasts but the validator stays marked
        :attr:`ever_equivocated` once it actually equivocated."""
        self.equivocating = active

    def recover(self) -> None:
        """Restart after a crash (or come online for the first time —
        a ``join``).

        The validator restarts from an **empty in-memory state**: a
        fresh core holding only genesis, empty mempool and ingress queue
        (what the old incarnation's ingress stage still held is lost
        with it, and the stage restarts at *now*), no certification or
        fetch state.  Then it runs the driver's restart sequence,
        :meth:`~repro.statesync.driver.ValidatorDriver.recover`: depending
        on ``recover_mode`` it replays its WAL (warm), requests a
        state-transfer checkpoint (checkpoint), or goes straight to deep
        fetches from genesis (cold), and resumes proposing once the
        frontier quorum is causally complete.
        """
        if not self.down:
            return
        self._loop.settle()
        self.down = False
        self._incarnation += 1
        self.retired_ledgers.append(self.core.committer.ledger)
        self.core = self._core_factory()
        self.ingress.clear()
        self.core.mempool = self.ingress
        self._consensus_free = 0.0
        replay = self._driver.recover(self.core)
        if replay is not None:
            # Replay is local CPU work, not network round trips: charge
            # the consensus stage so post-restart messages queue behind
            # it, exactly like a real validator re-indexing its log.
            self._consensus_free = self._loop.now + self._costs.replay_price(replay) * self._slow

    # ------------------------------------------------------------------
    # ValidatorPort: what the driver asks of this host
    # ------------------------------------------------------------------
    def send(self, dst: int | None, message) -> None:
        """Price ``message`` and put it on the wire (``dst=None``: to
        every peer)."""
        size = self._costs.wire_size(message)
        if dst is None:
            self._network.broadcast(self.authority, message, size)
        else:
            self._network.send(self.authority, dst, message, size)

    def call_later(self, delay: float, callback: Callable[..., None], *args) -> None:
        self._loop.schedule(delay, self._on_timer, self._incarnation, callback, args)

    def _on_timer(self, incarnation: int, callback: Callable[..., None], args: tuple) -> None:
        """A timer the driver armed fired: a crash loses its timers."""
        if incarnation == self._incarnation:
            callback(*args)

    def now(self) -> float:
        return self._loop.now

    trace_time = now

    def announce(self, block: Block) -> None:
        """Send an own proposal: a block broadcast, a certified
        protocol's header, or — during an equivocation campaign — the
        block to half the peers and a conflicting sibling to the rest."""
        if self._stage_metrics is not None and block.transactions:
            self._stage_metrics.record_inclusion(block.transactions, self._loop.now)
        if self._driver.certified:
            self.send(None, Header(block))
        elif self.equivocating:
            self._dispatch_equivocation(block)
        else:
            self.send(None, BlockMessage(block))

    def accepted(self, blocks: Sequence[Block], peer: int) -> None:
        """The stage observer records when each block a peer's message
        let into the DAG got here over the wire and when it was
        ingested (not the peer blocks an own proposal connected)."""
        if self._stage_observer and peer != self.authority:
            now = self._loop.now
            for block in blocks:
                arrival = self._arrivals.pop(block.reference, now)
                if block.transactions:
                    self._stage_metrics.record_block_times(block.transactions, arrival, now)

    def recovered(self, at: float, mode: str) -> None:
        if self._on_recovery is not None:
            self._on_recovery(self.authority, at, self._loop.now, mode)

    def committed(self, observations: Sequence[CommitObservation]) -> None:
        if self._on_commit is not None:
            self._on_commit(self, observations, self._loop.now)

    def submit(self, tx: Transaction) -> None:
        """Submit ``tx`` as an object (a reconfiguration command, a
        test's transaction; clients' arrivals are routed to
        :meth:`Ingress.extend` as ids).  It passes the ingress CPU stage
        (signature verification) before reaching the mempool.

        The stage is a FIFO, not a timer: ``tx`` is queued with the time
        the stage will be done with it and the next proposal at or after
        that time admits it.  Without a CPU model there is no stage and
        nothing queues.  A restart drops the queue with the core it fed.
        """
        if not self.down:
            self.ingress.submit(tx, self._loop.now)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def on_message(self, message: Message) -> None:
        """Deliver one message: a batch of one."""
        self.on_batch([message])

    def _note_arrival(self, message: Message) -> None:
        """Observer-only: stamp a block's wire-arrival time (the header
        in certified mode arrives first and wins) for the stage-latency
        breakdown."""
        block = getattr(message.body, "block", None)
        if block is not None:
            self._arrivals.setdefault(block.reference, self._loop.now)

    def on_batch(self, messages: "list[Message]") -> None:
        """Deliver one tick's worth of messages from one link together.

        The whole batch is verified as one unit on the consensus CPU
        stage and completes with **one** event-loop entry instead of one
        per message — the per-message ``schedule_at`` chain was the hot
        path's remaining allocation peak.
        """
        if self.down:
            return
        if self._stage_observer:
            for message in messages:
                self._note_arrival(message)
        costs = self._costs
        if costs.model_cpu:
            # The batch's consensus-stage price: the sum of its messages'.
            certified = self._driver.certified
            delay = 0.0
            for message in messages:
                body = message.body
                block = getattr(body, "block", None)
                if block is not None:
                    delay += costs.stage_price(block, type(body) is Header, certified)
                    continue
                blocks = getattr(body, "blocks", None)
                if blocks is None:
                    delay += costs.control_message_cost
                    continue
                for block in blocks:
                    delay += costs.stage_price(block, False, certified)
            now = self._loop.now
            self._consensus_free = max(now, self._consensus_free) + delay * self._slow
            if self._tracer.enabled:
                self._tracer.span(
                    self.authority,
                    "consensus",
                    "consensus_stage",
                    now,
                    self._consensus_free,
                    {"batch": len(messages), "src": messages[0].src},
                )
            if self._consensus_free > now:
                self._loop.schedule_at(
                    self._consensus_free, self._handle_batch_queued, messages, self._incarnation
                )
                return
        self._handle_batch_queued(messages, self._incarnation)

    def _handle_batch_queued(self, messages: "list[Message]", incarnation: int) -> None:
        """Batched CPU-stage completion: drop work queued before a crash."""
        if incarnation != self._incarnation:
            return
        for message in messages:
            if self.down:
                return
            self._driver.on_message(message.body, message.src)

    def _dispatch_equivocation(self, block: Block) -> None:
        """Send the honest block to half the peers and a conflicting
        sibling to the other half (our own DAG keeps the original)."""
        self.ever_equivocated = True
        self.equivocations_sent += 1
        honest = BlockMessage(block)
        sibling = BlockMessage(make_equivocating_sibling(block))
        peers = [v for v in range(self._network.num_validators) if v != self.authority]
        half = len(peers) // 2
        for dst in peers[:half]:
            self.send(dst, honest)
        for dst in peers[half:]:
            self.send(dst, sibling)
