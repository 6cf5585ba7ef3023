"""A simulated validator.

Wraps a protocol core (:class:`~repro.core.MahiMahiCore`, possibly with
a baseline committer) and drives it from network events.  Two transport
modes reproduce the two DAG families of the evaluation:

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

The validator step (ingest, paced proposing, commit, epoch exit, with
their WAL records and lifecycle instants), the fetching of missing
ancestors (the synchronizer the liveness proofs rely on, Lemma 8), the
recovery state machine and the reading of every :mod:`repro.messages`
message are the fabric-independent
:class:`~repro.statesync.driver.ValidatorDriver`;
this class is its simulator adaptor (its
:class:`~repro.statesync.driver.ValidatorPort`): it hands each delivered
message to ``driver.on_message`` unread and sends what the driver gives
it.  It adds what only the simulator has: the event loop with its
timers, the CPU-stage model (a WAL replay is charged as consensus CPU
time), Tusk's header / ack / certificate exchange (three message types
of its own, below), equivocation dispatch, the wire-size model that
prices any message by what it carries and the stage-latency observer.

A simulated transaction costs the event loop nothing here, and is no
object either.  The ingress stage is a single server, so it completes
transactions in the order it was handed them: the validator's
:class:`Ingress` keeps each one as a row of parallel lists — id, arrival
time, the time the stage is done with it — and is also the core's
mempool.  A step, the only way a proposal is ever reached, first admits
every row whose time has come (one ``bisect``); a proposal takes the next
rows as a :class:`~repro.transaction.TransactionSlice`.  What is a fact
about a block (inclusion, arrival at the observer, commit) is reported
to the metrics once per block, with that slice.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from ..block import Block
from ..core.committer import CommitObservation
from ..core.protocol import MahiMahiCore
from ..crypto.hashing import Digest
from ..messages import BlockMessage
from ..obs import trace as _trace
from ..obs.trace import NULL_TRACER
from ..runtime.wal import WriteAheadLog
from ..statesync.driver import ValidatorDriver
from ..statesync.recovery import SYNC_MAX_BLOCKS as _SYNC_MAX_BLOCKS
from ..statesync.recovery import WalReplay
from ..transaction import Transaction, TransactionSlice
from .events import EventLoop
from .faults import NodeBehavior, make_equivocating_sibling
from .network import Message, SimNetwork

@dataclass(frozen=True, slots=True)
class CpuConfig:
    """Per-validator compute model.

    Two single-threaded stages bound throughput, mirroring where real
    validators spend CPU (Section 5.2 discusses both):

    * **ingress**: client transactions are signature-checked before
      entering the mempool (~one ed25519 verification each), which caps
      per-validator intake and produces the throughput knee of Figure 3;
    * **consensus**: every received block costs a base amount plus a
      per-transaction amount (hashing, deduplication, storage).
      Certified DAGs (Tusk) multiply this cost — validators verify the
      ``2f + 1``-signature certificate of every vertex, the overhead
      Section 2.2 calls out.
    """

    tx_ingress_cost: float = 80e-6
    block_base_cost: float = 0.3e-3
    tx_consensus_cost: float = 2.5e-6
    certified_multiplier: float = 2.0
    #: Fraction of the full block cost paid when a certified-DAG header
    #: arrives (buffer + ack only; verification happens on the cert).
    header_cost_factor: float = 0.2


#: Fraction of the normal consensus CPU cost charged per replayed
#: block: replay skips signature verification (blocks were verified
#: before they were logged) and pays no deserialization-into-network
#: buffers, but still hashes and re-indexes every block.
WAL_REPLAY_COST_FACTOR = 0.25


def replay_cost(replay: WalReplay, cpu: CpuConfig | None, tx_weight: float) -> float:
    """Simulated seconds of CPU a warm restart's WAL replay occupies: it
    is local work, so it is charged as consensus CPU time rather than as
    network round trips (see :data:`WAL_REPLAY_COST_FACTOR`); 0 without
    a CPU model."""
    if cpu is None or not replay.blocks:
        return 0.0
    per_tx = cpu.tx_consensus_cost * tx_weight
    full = cpu.block_base_cost * replay.blocks + per_tx * replay.transactions
    return full * WAL_REPLAY_COST_FACTOR


#: Serialized bytes per parent reference (author + round + digest).
_REF_WIRE_SIZE = 44
#: Fixed block header bytes (author, round, signature, coin share).
_BLOCK_HEADER_SIZE = 150
#: Bytes per signature: a Tusk ack, each signer of a certificate.
_SIGNATURE_SIZE = 64
#: Wire bytes of a checkpoint request (a bare tagged message).
_CKPT_REQ_SIZE = 16


# Tusk's certified round, on the simulated wire only (no codec): a
# proposal goes out as a header, peers ack it, and the certificate —
# the header's block plus a quorum of acks — is what enters the DAG.
# Named tuples: every peer acks every header, one tuple built per ack.
class Header(NamedTuple):
    block: Block


class Ack(NamedTuple):
    """One validator's signature over the header with this digest."""

    digest: Digest


class Certificate(NamedTuple):
    block: Block
    #: How many acks certify it.
    signatures: int


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
        self, cost: float | None, mixed_sizes: bool, authority: int, tracer=NULL_TRACER
    ) -> None:
        self.ids: list = []
        self.times: list[float] = []
        self.ready: list[float] = []
        self.sizes: list | None = [] if mixed_sizes else None
        #: Stage seconds per transaction, at the validator's current speed.
        self.cost = cost
        #: When the stage is next free.
        self.free = 0.0
        self._admitted = 0
        self._taken = 0
        self._objects = 0  # object rows not yet taken
        self._authority = authority
        self._tracer = tracer

    def arrive(self, entry, now: float, size: int | None = None) -> None:
        """A transaction — ``entry``, a routed arrival's id or an object —
        reaches the stage at ``now``.  It starts when the stage is free,
        at the cost in force now (a later slow factor prices later
        arrivals only)."""
        cost = self.cost
        ready = now
        if cost is not None:
            ready = self.free
            if now > ready:
                ready = now
            ready += cost
            self.free = ready
        ids = self.ids
        ids.append(entry)
        self.times.append(now)
        self.ready.append(ready)
        if self.sizes is not None:
            self.sizes.append(size)
        if cost is None:
            self._admitted = len(ids)
        if self._tracer.enabled:
            self._trace(entry, now, ready)

    def submit(self, tx: Transaction, now: float) -> None:
        """``tx``, submitted as an object, reaches the stage at ``now``."""
        self._objects += 1
        self.arrive(tx, now, tx.size_hint)

    def admit(self, now: float) -> None:
        """Move every row the stage is done with by ``now`` into the
        mempool (a row ready at exactly ``now`` is)."""
        at = self._admitted
        ready = self.ready
        if at < len(ready) and ready[at] <= now:
            self._admitted = bisect_right(ready, now, at)

    def take(self, limit: int) -> "TransactionSlice | tuple[()]":
        """A proposal's section: the next ``limit`` mempool rows (all of
        them, if fewer wait), as a slice of the columns."""
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
        "authority",
        "_network",
        "_loop",
        "_certified",
        "behavior",
        "_tx_wire_size",
        "_on_commit",
        "_headers",
        "_acks",
        "_interval",
        "_tx_weight",
        "_cpu",
        "ingress",
        "_consensus_free",
        "down",
        "_incarnation",
        "_core_factory",
        "_driver",
        "_on_recovery",
        "_mixed_tx_sizes",
        "left_at",
        "_slow",
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
        certified: bool = False,
        behavior: NodeBehavior | None = None,
        tx_wire_size: float = 512.0,
        min_block_interval: float = 0.0,
        tx_weight: float = 1.0,
        cpu: CpuConfig | None = None,
        on_commit: Callable[[SimValidator, Sequence[CommitObservation], float], None] | None = None,
        core_factory: Callable[[], MahiMahiCore] | None = None,
        start_down: bool = False,
        on_recovery: Callable[[int, float, float, str], None] | None = None,
        mixed_tx_sizes: bool = False,
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
        certified: Tusk-style header/ack/certificate rounds.
        behavior: Fault injection; defaults to honest and alive.
        tx_wire_size: Real bytes represented by one simulated
            transaction (batch weight x transaction size).
        min_block_interval: Minimum spacing between own proposals,
            modeling the batching/processing cadence of a real validator
            (the Rust implementation paces rounds the same way).  Bare
            quorum-edge proposing would systematically exclude blocks
            from far regions from the next round's parents.
        tx_weight: Real transactions represented by one simulated one
            (scales per-transaction CPU costs).
        cpu: Compute model; ``None`` disables CPU accounting entirely
            (unit tests want pure message-delay arithmetic).
        on_commit: Called as ``(validator, observations, now)`` after
            every step that extended the commit sequence, with the new
            observations in commit order (the validator keeps none).
        core_factory: Builds a fresh core on :meth:`recover` — a restart
            loses all in-memory state.  Without a factory, ``recover``
            resumes with the retained core (a process *pause* rather
            than a restart; unit tests use this).
        start_down: Begin offline (a validator that ``join``\\ s later).
        on_recovery: Called as ``(authority, recovered_at, resumed_at,
            mode)`` when the validator proposes its first block after a
            restart — the recovery-time metric hook.  ``mode`` is the
            path the recovery *actually* took (a warm restart with an
            empty WAL degenerates to, and reports, ``cold``).
        mixed_tx_sizes: Account block wire sizes per transaction (each
            may carry a ``size_hint``) instead of the uniform fast path.
        recover_mode: Restart path, one of
            :data:`~repro.statesync.driver.RECOVER_MODES`.
        wal: Write-ahead log backing warm restarts: own blocks, peer
            blocks, and commit marks are appended during operation and
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
        self.authority = core.authority
        self._network = network
        self._loop = loop
        self._certified = certified
        self.behavior = behavior or NodeBehavior()
        self._tx_wire_size = tx_wire_size
        self._on_commit = on_commit
        # Tusk state: headers seen (down to the store's lowest round),
        # and the ack tally of each own header until its certificate
        # goes out.
        self._headers: dict[Digest, Block] = {}
        self._acks: dict[Digest, set[int]] = {}
        self._interval = min_block_interval
        self._tx_weight = tx_weight
        self._cpu = cpu
        #: The ingress stage and the mempool behind it (the core's).
        self.ingress = Ingress(
            None if cpu is None else cpu.tx_ingress_cost * tx_weight,
            mixed_tx_sizes,
            self.authority,
            tracer,
        )
        core.mempool = self.ingress
        # When the single-threaded consensus CPU stage becomes free.
        self._consensus_free = 0.0
        #: Whether the validator is silent (crashed, left, not yet
        #: joined): the hot-path liveness check, clients' too.  The
        #: incarnation counter invalidates CPU-stage work queued before a
        #: crash (a real restart loses its queues).
        self.down = start_down or self.behavior.crashed
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
        # Headers not yet certified are served to fetches too.
        self._driver.unstored = self._headers
        self._on_recovery = on_recovery
        self._mixed_tx_sizes = mixed_tx_sizes
        #: When this validator actually went silent for good (epoch
        #: reconfiguration: the *activation* of the excluding epoch, not
        #: the leave command's submission — availability accounting uses
        #: the observed instant).
        self.left_at: float | None = None
        # Straggler model: multiplies every CPU stage cost and the
        # proposal pacing interval (1.0 = full speed).
        self._slow = 1.0
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
            self._step()

    def crash(self) -> None:
        """Go silent.  In-flight CPU work is abandoned (the incarnation
        guard drops it) and in-memory state is lost on the next
        :meth:`recover`.  Idempotent."""
        if self.down:
            return
        self.down = True
        self._incarnation += 1

    def close(self) -> None:
        """The run ended: close the log and let go of the driver's port
        and the restart factory (both lead back to this validator or its
        experiment); the core and the counters stay readable."""
        self._driver.close()
        self._core_factory = None

    def leave(self) -> None:
        """Leave the committee permanently (reconfiguration).  The
        transport-level effect equals a crash that never recovers;
        clients retarget away for good."""
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
        self._slow = scale
        self._driver.interval = self._interval * scale
        if self._cpu is not None:
            self.ingress.cost = self._cpu.tx_ingress_cost * self._tx_weight * scale

    def set_equivocating(self, active: bool) -> None:
        """Start or stop an equivocation campaign.  While active, every
        own proposal is split into conflicting siblings across the peer
        set (:meth:`_dispatch_equivocation`); stopping resumes honest
        broadcasts but the validator stays marked
        :attr:`ever_equivocated` once it actually equivocated."""
        self.behavior.equivocate = active

    def recover(self) -> None:
        """Restart after a crash (or come online for the first time —
        a ``join``).

        With a ``core_factory`` the validator restarts from an **empty
        in-memory state**: a fresh core holding only genesis, empty
        mempool and ingress queue (what the old incarnation's ingress
        stage still held is lost with it, and the stage restarts at
        *now*), no certification or fetch state.  Depending on
        ``recover_mode`` it then replays its WAL (warm), requests a
        state-transfer checkpoint (checkpoint), or goes straight to
        deep fetches from genesis (cold) — see
        :mod:`repro.statesync.driver` — and resumes proposing once the
        frontier quorum is causally complete.
        """
        if not self.down:
            return
        self.down = False
        self._incarnation += 1
        if self._core_factory is None:
            # Process pause, not restart: all state retained, nothing
            # to re-sync — resume where we left off.  (The fetch table's
            # retry timer went with the old incarnation.)
            self._driver.synchronizer.reset()
            return
        self.core = self._core_factory()
        self.ingress.clear()
        self.core.mempool = self.ingress
        self._headers.clear()
        self._acks.clear()
        self._consensus_free = 0.0
        driver = self._driver
        driver.restart(self.core)
        replay = driver.replay_wal()
        if replay is not None and replay.blocks and self._cpu is not None:
            # Replay is local CPU work, not network round trips: charge
            # the consensus stage so post-restart messages queue behind
            # it, exactly like a real validator re-indexing its log.
            cost = replay_cost(replay, self._cpu, self._tx_weight) * self._slow
            self._consensus_free = max(self._loop.now, self._consensus_free) + cost
        driver.begin_sync(self._loop.now)

    # ------------------------------------------------------------------
    # ValidatorPort: what the driver asks of this host
    # ------------------------------------------------------------------
    def send(self, dst: int | None, message) -> None:
        """Price ``message`` and put it on the wire (``dst=None``: to
        every peer)."""
        size = self._wire_size(message)
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

    def trace_time(self) -> float:
        return self._loop.now

    def submit(self, tx: Transaction) -> None:
        """Submit ``tx`` as an object (a reconfiguration command, a
        test's transaction; clients' arrivals are routed to
        :meth:`Ingress.arrive` as ids).  It passes the ingress CPU stage
        (signature verification) before reaching the mempool.

        The stage is a FIFO, not a timer: ``tx`` is queued with the time
        the stage will be done with it and the next step at or after
        that time admits it.  Without a CPU model there is no stage and
        nothing queues.  A restart drops the queue with the core it fed;
        a pause (``recover`` without a ``core_factory``) keeps it.
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
        if self._cpu is not None:
            now = self._loop.now
            delay = self._batch_cost(messages)
            self._consensus_free = max(now, self._consensus_free) + delay
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
            body = message.body
            kind = type(body)
            if kind is Header:
                self._headers[body.block.digest] = body.block
                self.send(message.src, Ack(body.block.digest))
            elif kind is Ack:
                self._on_ack(body.digest, message.src)
            elif kind is Certificate:
                self.ingest(body.block, message.src)
            elif self._driver.on_message(body, message.src):
                self._step()

    def _batch_cost(self, messages: "list[Message]") -> float:
        """Consensus-stage cost of verifying ``messages`` as one batch:
        the sum of the per-message costs."""
        cost = 0.0
        for message in messages:
            body = message.body
            block = getattr(body, "block", None)
            if block is not None:
                cost += self._stage_price(block, type(body) is Header)
                continue
            blocks = getattr(body, "blocks", None)
            if blocks is None:
                # Acks, fetch/checkpoint requests and checkpoint
                # responses are cheap (a checkpoint is digests, not
                # blocks).
                cost += 20e-6
                continue
            for block in blocks:
                cost += self._stage_price(block, False)
        return cost * self._slow

    def _stage_price(self, block: Block, header: bool) -> float:
        """Full-speed consensus-stage seconds of receiving ``block`` (as
        a Tusk ``header``: the fraction paid before it is certified),
        memoized on the block like its wire size: every validator of a
        deployment prices blocks alike, and each block is received by
        every one of them.  Both prices share one attribute: a block's
        ``__dict__`` grows to a larger table past fifteen keys."""
        prices = block.__dict__.get("_sim_stage_prices")
        if prices is None:
            cpu = self._cpu
            multiplier = cpu.certified_multiplier if self._certified else 1.0
            per_tx = cpu.tx_consensus_cost * self._tx_weight
            count = len(block.transactions)
            prices = (
                cpu.block_base_cost + per_tx * multiplier * count,
                # A yet-uncertified block: buffered and acked only.
                cpu.block_base_cost + per_tx * (multiplier * cpu.header_cost_factor) * count,
            )
            object.__setattr__(block, "_sim_stage_prices", prices)
        return prices[header]

    # ------------------------------------------------------------------
    # Certified (Tusk) round structure
    # ------------------------------------------------------------------
    def _on_ack(self, digest: Digest, src: int) -> None:
        acks = self._acks.get(digest)
        if acks is None:
            return  # not an own header, or its certificate already went out
        acks.add(src)
        block = self._headers[digest]
        # The certificate quorum follows the epoch of the block's round.
        if len(acks) >= self.core.schedule.quorum_threshold(block.round):
            del self._acks[digest]
            if self._tracer.enabled:
                self._tracer.instant(
                    self.authority,
                    "consensus",
                    _trace.BLOCK_CERTIFIED,
                    self._loop.now,
                    {"author": block.author, "round": block.round, "acks": len(acks)},
                )
            self.send(None, Certificate(block, len(acks)))

    def _forget_headers_below(self, round_number: int) -> None:
        """Drop the headers, and own ack tallies, of the rounds below
        ``round_number`` once the core has garbage-collected them: the
        table then spans the DAG's window, not the run.  Headers arrive
        about in round order, so nothing is scanned while the oldest one
        is still in the window."""
        headers = self._headers
        if headers and next(iter(headers.values())).round < round_number:
            for digest in [d for d, block in headers.items() if block.round < round_number]:
                del headers[digest]
                self._acks.pop(digest, None)

    # ------------------------------------------------------------------
    # Ingestion, proposing, committing
    # ------------------------------------------------------------------
    def ingest(self, block: Block, sender: int, live: bool = True) -> None:
        """ValidatorPort: one received block, through the driver's
        ingest and the step."""
        result = self._driver.ingest(block, sender, self._loop.now, live)
        if not result.accepted:
            return
        if self._stage_observer:
            now = self._loop.now
            for accepted in result.accepted:
                arrival = self._arrivals.pop(accepted.reference, now)
                if accepted.transactions:
                    self._stage_metrics.record_block_times(accepted.transactions, arrival, now)
        self._step()

    def _step(self) -> None:
        """Admit what the ingress stage has completed, run the shared
        validator step and act on what it returns.

        A transaction whose stage completes at exactly ``now`` is
        admitted (``ready <= now``), whatever order the completion and
        this step were set up in."""
        now = self._loop.now
        self.ingress.admit(now)
        driver = self._driver
        step = driver.step(now)
        for block in step.proposed:
            self._dispatch_own(block)
        if step.deadline is not None:
            self._loop.schedule(step.deadline - now, self._on_propose_timer)
        if step.recovered_at is not None and self._on_recovery is not None:
            self._on_recovery(self.authority, step.recovered_at, now, driver.recovery_mode_used)
        if step.committed:
            if self._on_commit is not None:
                self._on_commit(self, step.committed, now)
            if self._certified:
                self._forget_headers_below(self.core.store.lowest_round)
        if driver.left:
            self.leave()

    def _on_propose_timer(self) -> None:
        self._driver.pacing_timer_fired()
        if not self.down:
            self._step()

    def _dispatch_own(self, block: Block) -> None:
        if self._stage_metrics is not None and block.transactions:
            self._stage_metrics.record_inclusion(block.transactions, self._loop.now)
        if self._certified:
            self._headers[block.digest] = block
            self._acks[block.digest] = {self.authority}
            self.send(None, Header(block))
        elif self.behavior.equivocate:
            self._dispatch_equivocation(block)
        else:
            self.send(None, BlockMessage(block))

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

    # ------------------------------------------------------------------
    # Wire sizes
    # ------------------------------------------------------------------
    def _wire_size(self, message) -> int:
        """Simulated wire bytes of any message: the sum of what its
        fields carry (a deep fetch's floor and token ride in the
        request's four count bytes).  The fields are read by name off
        ``__match_args__``, which dataclasses and named tuples both
        define."""
        names = type(message).__match_args__
        if not names:
            return _CKPT_REQ_SIZE
        size = 0
        for name in names:
            value = getattr(message, name)
            if name == "block":
                size += self._block_wire_size(value)
            elif name == "blocks":
                size += sum(map(self._block_wire_size, value))
            elif name == "refs":
                size += _REF_WIRE_SIZE * len(value) + 4
            elif name == "pruned":
                size += _REF_WIRE_SIZE * len(value)
            elif name == "checkpoints":
                size += sum(c.wire_size for c in value) + _CKPT_REQ_SIZE
            elif name == "digest":
                size += _SIGNATURE_SIZE
            elif name == "signatures":
                size += _SIGNATURE_SIZE * value
        return size

    def _block_wire_size(self, block: Block) -> int:
        """The block's simulated wire size, memoized on the block.

        A block's size is asked for once per recipient on broadcast and
        once per fetch served (a ROADMAP profiler peak, dominated by the
        per-transaction sum of mixed-size workloads), yet it never
        changes: blocks are immutable and every validator in a
        deployment shares the same size parameters.  The first
        computation is cached on the (shared) block object itself.
        """
        size = block.__dict__.get("_sim_wire_size")
        if size is None:
            if self._mixed_tx_sizes:
                tx_bytes = sum(
                    self._tx_weight * tx.size_hint
                    if tx.size_hint is not None
                    else self._tx_wire_size
                    for tx in block.transactions
                )
            else:
                tx_bytes = self._tx_wire_size * len(block.transactions)
            size = int(_BLOCK_HEADER_SIZE + _REF_WIRE_SIZE * len(block.parents) + tx_bytes)
            object.__setattr__(block, "_sim_wire_size", size)
        return size
