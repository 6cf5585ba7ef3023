"""The transport-agnostic Mahi-Mahi validator core.

:class:`MahiMahiCore` owns a validator's DAG, mempool, proposer and
committer, and exposes three entry points:

* :meth:`MahiMahiCore.add_transaction` — client payloads;
* :meth:`MahiMahiCore.add_block` — blocks from peers (buffered until
  their causal history is complete, per Section 2.3);
* :meth:`MahiMahiCore.maybe_propose` — emits this validator's next
  block once ``2f + 1`` blocks of the previous round arrived.

Every state change calls ``ExtendCommitSequence`` (Appendix A: "called
every time the validator receives a new block") and newly committed
blocks are surfaced to the host (simulator node or asyncio runtime).
The core keeps no commit history: :meth:`MahiMahiCore.try_commit` hands
each observation over once, and what a validator holds afterwards is its
garbage-collection window.
"""

from __future__ import annotations

from collections import deque
from itertools import repeat, starmap
from typing import Iterable, NamedTuple, Sequence

from ..block import Block, BlockRef, make_genesis
from ..committee import Committee, CommitteeSchedule
from ..config import ProtocolConfig
from ..crypto.coin import CommonCoin
from ..crypto.hashing import Digest
from ..dag.store import DagStore
from ..dag.validation import BlockVerifier
from ..errors import BlockValidationError, DuplicateBlockError, UnknownBlockError
from ..statesync import Checkpoint
from ..transaction import Transaction
from .committer import Committer, CommitObservation


class Mempool(deque):
    """The FIFO of client transactions a core proposes from.

    A host may hand its core another one: proposing asks nothing of it
    but ``take(limit)`` (and :meth:`MahiMahiCore.add_transaction` only
    ``append``).  The runtime's takes a
    :class:`~repro.transaction.TransactionBatch`; the simulator's is its
    validator's ingress stage (:class:`~repro.sim.node.Ingress`), which
    the validator feeds itself.
    """

    def take(self, limit: int) -> tuple[Transaction, ...]:
        """A proposal's transaction section: the oldest ``limit``
        transactions (all of them, if fewer wait), removed."""
        return tuple(starmap(self.popleft, repeat((), min(limit, len(self)))))


class AddBlockResult(NamedTuple):
    """Outcome of ingesting one block.

    Attributes:
        accepted: Blocks that entered the DAG (the given block plus any
            previously buffered blocks it unblocked).
        missing: Parent references we do not have; the host should fetch
            them (the runtime's synchronizer does, the simulator's
            in-order delivery makes this rare).
        rejected: Whether the block failed validation outright.
    """

    accepted: tuple[Block, ...] = ()
    missing: tuple[BlockRef, ...] = ()
    rejected: bool = False


#: The result every duplicate shares.
_DUPLICATE = AddBlockResult()


class MahiMahiCore:
    """One validator's protocol state machine."""

    def __init__(
        self,
        authority: int,
        committee: "Committee | CommitteeSchedule",
        config: ProtocolConfig,
        coin: CommonCoin,
        *,
        verifier: BlockVerifier | None = None,
        sign: "callable | None" = None,
        committer_factory: "callable" = Committer,
        mempool: Mempool | None = None,
        genesis: "Sequence[Block] | None" = None,
    ) -> None:
        """Create a validator core.

        Args:
            authority: This validator's committee index.
            committee: The validator set — a static :class:`Committee`
                or an epoch-versioned
                :class:`~repro.committee.CommitteeSchedule`.  The core
                and its committer share one schedule, so epochs the
                commit walk activates govern quorum counting and
                proposing here too.
            config: Protocol parameters.
            coin: This validator's common-coin instance (must hold the
                secret share for ``authority`` if shares are real).
            verifier: Optional block verifier; when omitted only
                store-level causal completeness is enforced (the
                simulator's default — Byzantine behaviour is modeled).
            sign: Optional ``bytes -> bytes`` signing callback applied to
                each proposed block's digest.
            committer_factory: Called as ``(store, schedule, coin,
                config)`` with this core's own store and schedule; the
                baselines (Tusk, Cordial Miners) install their commit
                rules over the same DAG this way.
            mempool: Where client transactions wait for a proposal (a
                fresh :class:`Mempool` by default, whose sections are
                tuples); a proposal's section is whatever its
                ``take(max_block_transactions)`` returns.
            genesis: The round-0 blocks, one per provisioned identity
                (built afresh by default).  A simulation hands every core
                the same objects, as it does every other block, so what
                is memoized on a block serves all its validators.
        """
        self.authority = authority
        self.schedule = CommitteeSchedule.ensure(committee)
        self.config = config
        self.coin = coin
        self.store = DagStore()
        self._verifier = verifier
        self._sign = sign
        # One schedule object for core and committer: the commit walk
        # is what activates epochs, and thresholds here must follow them.
        self.committer = committer_factory(self.store, self.schedule, coin, config)
        self.committee = self.schedule.genesis_committee

        # Genesis blocks exist for every *provisioned* validator — also
        # the ones outside the genesis committee that may join later —
        # so a joiner's round-1 bootstrap looks like everyone else's.
        if genesis is None:
            genesis = make_genesis(self.schedule.provisioned)
        self.store.add_genesis(genesis)
        self._own_last_ref: BlockRef = genesis[authority].reference

        self.mempool = Mempool() if mempool is None else mempool
        self.round = 0  # round of our latest proposal
        # Blocks waiting for missing ancestors: digest -> block, plus a
        # reverse index from missing digest to the blocks waiting on it.
        self._pending: dict[Digest, Block] = {}
        self._waiting_on: dict[Digest, list[Digest]] = {}
        # DAG tips — blocks no accepted block references yet — grouped
        # by round: round -> digest -> reference, no empty rows.  The
        # next proposal sweeps up those below its parent round.
        self._tips = {0: {b.digest: b.reference for b in genesis}}
        self.total_proposed = 0
        #: Buffered peer blocks that were waiting on the latest own
        #: proposal and entered the DAG with it (a restarted validator
        #: re-deriving a block its peers already built on); the host logs
        #: them like any other accepted block.
        self.last_connected: list[Block] = []
        # ``quorum_round()``'s value and what it was judged against.
        self._rescan_quorum()

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def add_transaction(self, tx: Transaction) -> None:
        """Queue a client transaction for inclusion in the next proposal."""
        self.mempool.append(tx)

    @property
    def pending_count(self) -> int:
        """Blocks buffered while waiting for missing ancestors (a
        re-syncing validator is caught up once this drains to zero)."""
        return len(self._pending)

    def missing_frontier(self) -> tuple[BlockRef, ...]:
        """Every parent reference the buffered (pending) blocks still
        wait for — neither stored nor itself buffered.  A re-syncing
        validator fetches exactly this set to pull the next chunk of
        history."""
        refs: dict[Digest, BlockRef] = {}
        floor = self.store.sync_floor
        for block in self._pending.values():
            for ref in block.parents:
                if (
                    ref.round >= floor
                    and ref.digest not in self.store
                    and ref.digest not in self._pending
                ):
                    refs[ref.digest] = ref
        return tuple(refs.values())

    # ------------------------------------------------------------------
    # State transfer
    # ------------------------------------------------------------------
    def adopt_checkpoint(self, checkpoint: Checkpoint) -> None:
        """Fast-forward a fresh core to a quorum-attested checkpoint.

        The DAG store adopts the checkpoint's floor (parents below it
        count as present — their sub-DAGs are summarized by the
        checkpoint), the committer resumes the commit sequence from the
        checkpoint's cursor with its already-linearized set seeded, and
        the proposal round is floored at the checkpoint round so the
        validator can never re-propose in a round its pre-crash
        incarnation used below the adopted frontier.  The host then
        deep-fetches only the suffix at or above the floor.

        A checkpoint carrying an epoch snapshot also seeds this core's
        committee schedule: the reconfiguration commands behind those
        epochs may sit below the floor, where this validator never
        looks, so the attested snapshot is the only way to learn them.
        """
        if checkpoint.epochs and self.schedule.is_static:
            self.schedule.adopt_epochs(checkpoint.epochs)
        self.store.adopt_floor(checkpoint.floor)
        self.committer.adopt_checkpoint(checkpoint)
        self.round = max(self.round, checkpoint.round)

    def raise_sync_floor(self, round_number: int) -> list[Block]:
        """Raise the state-transfer floor mid-recovery.

        Used when a sync peer reports that history inside the adopted
        span is already behind its pruning horizon: pruning happens only
        ``gc_depth`` rounds behind finality, so that span is globally
        settled and this validator may treat it as such too.  Pending
        blocks that were only waiting on now-floored parents are
        re-flowed into the DAG; returns the blocks accepted that way.
        """
        self.store.adopt_floor(round_number)
        accepted: list[Block] = []
        progress = True
        while progress:
            progress = False
            for digest, block in list(self._pending.items()):
                if digest not in self._pending:
                    continue  # flushed as a waiter of an earlier reflow
                if self._pending.keys() & block.parent_digests:
                    continue
                try:
                    reflowed = self._insert(block)
                except UnknownBlockError:
                    continue
                del self._pending[digest]
                accepted.extend(reflowed)
                progress = True
        return accepted

    # ------------------------------------------------------------------
    # Block ingestion
    # ------------------------------------------------------------------
    def add_block(self, block: Block) -> AddBlockResult:
        """Ingest a block received from a peer (or replayed from the WAL)."""
        digest = block.digest
        pending = self._pending
        if digest in self.store or digest in pending:
            return _DUPLICATE
        if self._verifier is not None:
            try:
                self._verifier.verify(block)
            except BlockValidationError:
                return AddBlockResult(rejected=True)
        if pending and pending.keys() & block.parent_digests:
            # Behind a buffered parent: it waits for that one to enter
            # the DAG, and asks only for what is neither stored nor here.
            missing = [
                ref for ref in self.store.missing_parents(block) if ref.digest not in pending
            ]
            return self._buffer(block, missing)
        try:
            accepted = self._insert(block)
        except UnknownBlockError as refusal:
            return self._buffer(block, refusal.missing)
        return AddBlockResult(accepted)

    def _buffer(self, block: Block, missing: "Iterable[BlockRef]") -> AddBlockResult:
        """Hold ``block`` until its causal history is complete."""
        self._pending[block.digest] = block
        for ref in block.parents:
            if ref.digest not in self.store:
                self._waiting_on.setdefault(ref.digest, []).append(block.digest)
        return AddBlockResult(missing=tuple(missing))

    def _insert(self, block: Block) -> tuple[Block, ...]:
        """Insert ``block``, then every buffered block that completes,
        breadth-first; returns them in insertion order (nothing for a
        duplicate).

        The store's insertion is the causal-completeness check: when a
        parent of ``block`` is missing, the store raises
        :class:`~repro.errors.UnknownBlockError` and nothing changed.  A
        buffered block is released only once its parents are stored.
        The common case — nothing waits on ``block`` — builds no queue.
        """
        if block.digest not in self._waiting_on:
            return (block,) if self._enter(block) else ()
        accepted: list[Block] = []
        queue = deque([block])
        while queue:
            current = queue.popleft()
            if not self._enter(current):
                continue
            accepted.append(current)
            for waiter_digest in self._waiting_on.pop(current.digest, ()):
                waiter = self._pending.get(waiter_digest)
                if waiter is not None and not self.store.missing_parents(waiter):
                    del self._pending[waiter_digest]
                    queue.append(waiter)
        return tuple(accepted)

    def _enter(self, block: Block) -> bool:
        """Store ``block`` and account for it in the tips and the quorum
        round; false for a duplicate."""
        try:
            self.store.add(block)
        except DuplicateBlockError:
            return False
        self._track_tips(block)
        if block.round > self._quorum_round and self._has_quorum(block.round):
            self._quorum_round = block.round
        return True

    def _track_tips(self, block: Block) -> None:
        """``block`` is a tip, and the tips it references are not.  Only
        the rows below its round can hold its parents (a block naming a
        parent from its own round or later is invalid,
        :class:`~repro.dag.validation.BlockVerifier`), and once a round's
        first block cleared the previous round, those rows hold only
        stragglers."""
        tips = self._tips
        round_number = block.round
        parents = block.parent_digests
        for r in tuple(tips):
            if r < round_number and not parents.isdisjoint(row := tips[r]):
                for digest in row.keys() & parents:
                    del row[digest]
                if not row:
                    del tips[r]
        tips.setdefault(round_number, {})[block.digest] = block.reference

    # ------------------------------------------------------------------
    # Proposing
    # ------------------------------------------------------------------
    def quorum_round(self) -> int:
        """Highest round ``r`` such that round ``r`` has blocks from at
        least ``2f + 1`` distinct authors *of ``r``'s epoch committee*
        (the next proposal goes to ``r + 1``; 0 when no round has).

        Kept as blocks enter the DAG: a round only gains blocks, so it
        only gains its quorum, and a block's round is judged as the block
        enters.  A scan down from the top round rebuilds the value when
        what the rounds were judged against moved — an epoch was
        scheduled or adopted, or the store's lowest round rose (garbage
        collection, a state-transfer floor) — which is why every block
        must enter this core's store through the core."""
        if (
            self.store.lowest_round != self._quorum_floor
            or self.schedule.latest is not self._quorum_epoch
        ):
            self._rescan_quorum()
        return self._quorum_round

    def _rescan_quorum(self) -> None:
        store = self.store
        schedule = self.schedule
        self._quorum_floor = store.lowest_round
        self._quorum_epoch = schedule.latest
        # A static contiguous committee covering every provisioned
        # identity: raw author counts are already member counts.
        contiguous = schedule.is_static and schedule.genesis_committee.size >= schedule.provisioned
        self._static_quorum = schedule.genesis_committee.quorum_threshold if contiguous else 0
        r = store.highest_round
        while r > 0 and not self._has_quorum(r):
            r -= 1
        self._quorum_round = r

    def _has_quorum(self, round_number: int) -> bool:
        """Whether the round holds blocks of a quorum of its committee."""
        if self._static_quorum:
            return self.store.num_authors_at_round(round_number) >= self._static_quorum
        committee = self.schedule.committee_at(round_number)
        members = committee.count_members(self.store.authors_at_round(round_number))
        return members >= committee.quorum_threshold

    def ready_to_propose(self) -> bool:
        """Whether a new proposal round is available."""
        return self.quorum_round() + 1 > self.round

    def maybe_propose(self, now: float = 0.0) -> Block | None:
        """Propose a block for the next round if its quorum is complete.

        The proposal references this validator's own previous block
        first (Section 2.3: "starting with their most recent block"),
        then every current DAG tip — which guarantees at least ``2f + 1``
        distinct previous-round parents and sweeps up late blocks from
        older rounds so their transactions still commit.  Buffered peer
        blocks the proposal connects are left in :attr:`last_connected`.
        """
        next_round = self.quorum_round() + 1
        if next_round <= self.round:
            return None
        if not self.schedule.committee_at(next_round).is_member(self.authority):
            # Outside the active committee of the target round: a joiner
            # waits for its epoch to activate, a left validator never
            # proposes again.  (Thresholds stopped counting us at the
            # same boundary, so liveness does not depend on this block.)
            return None
        parents = self._select_parents(next_round)
        transactions = self.mempool.take(self.config.max_block_transactions)
        share = self.coin.share(self.authority, next_round)
        block = Block(
            author=self.authority,
            round=next_round,
            parents=parents,
            transactions=transactions,
            coin_share=share,
        )
        if self._sign is not None:
            block = block.signed(self._sign(block.digest))
        self.round = next_round
        self.total_proposed += 1
        self.last_connected = [b for b in self._insert(block) if b is not block]
        self._own_last_ref = block.reference
        return block

    def restore_own_position(
        self, round_number: int | None = None, ref: BlockRef | None = None
    ) -> None:
        """Restore the proposal round and own-block reference after a
        recovery re-sync (WAL replay, deep fetch, or checkpoint adoption
        plus suffix fetch).

        A freshly restarted core's ``_own_last_ref`` points at its
        genesis block, which garbage collection may have pruned
        everywhere — proposals must lead with the newest *visible*
        own-authored block instead, and never re-use one of its rounds.

        Args:
            round_number: When given, floor the proposal round here (a
                WAL replay knows the exact highest own-authored round).
            ref: When given, lead the next proposal with this reference
                instead of scanning the store (hosts replaying their own
                durable log pass the last logged own block's reference).
        """
        if round_number is not None:
            self.round = max(self.round, round_number)
        if ref is not None:
            self._own_last_ref = ref
            return
        store = self.store
        for r in range(store.highest_round, max(0, store.lowest_round) - 1, -1):
            blocks = store.slot_blocks(r, self.authority)
            if blocks:
                self._own_last_ref = blocks[0].reference
                self.round = max(self.round, r)
                return

    def _select_parents(self, next_round: int) -> tuple[BlockRef, ...]:
        """Pick parent references for a round-``next_round`` proposal.

        Always includes the first-seen block of every author at round
        ``next_round - 1`` (which is a ``2f + 1`` quorum by the propose
        condition, and first-seen only so we never endorse equivocating
        siblings), plus every older DAG tip so late blocks still get
        swept into a causal history.  Our own previous block leads the
        list (Section 2.3) — unless it is no longer in the store (a
        restarted validator whose pre-crash blocks sit behind the GC or
        state-transfer horizon): referencing a pruned block would leave
        every peer unable to complete the causal history.
        """
        previous = next_round - 1
        own = self._own_last_ref
        parents: list[BlockRef] = [own] if own.digest in self.store else []
        seen: set[Digest] = {own.digest} if parents else set()
        for author in sorted(self.store.authors_at_round(previous)):
            ref = self.store.slot_blocks(previous, author)[0].reference
            if ref.digest not in seen:
                seen.add(ref.digest)
                parents.append(ref)
        # Then the older tips, in reference order.  Rows below the
        # store's lowest round go for good (the horizon only rises):
        # referencing a pruned block would leave peers unable to complete
        # causal histories.
        tips, lowest = self._tips, self.store.lowest_round
        for r in [r for r in tips if r < lowest]:
            del tips[r]
        rows = [row.values() for r, row in tips.items() if r < previous]
        parents.extend(sorted(ref for refs in rows for ref in refs if ref.digest not in seen))
        return tuple(parents)

    # ------------------------------------------------------------------
    # Committing
    # ------------------------------------------------------------------
    def try_commit(self) -> list[CommitObservation]:
        """Extend the commit sequence; returns the new observations,
        which the core does not keep (the committer's ledger counts and
        chains them)."""
        observations = self.committer.extend_commit_sequence()
        if observations:
            self._maybe_garbage_collect()
        return observations

    def _maybe_garbage_collect(self) -> None:
        depth = self.config.garbage_collection_depth
        if not depth:
            return
        horizon = self.committer.last_finalized_round - depth
        if horizon > self.store.lowest_round:
            self.committer.forget_linearized_below(horizon)
            self.store.prune_below(horizon)
