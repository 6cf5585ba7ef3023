"""``TryDecide`` / ``ExtendCommitSequence`` — Algorithm 1 of the paper.

The committer visits leader slots from the highest round down to the
first unfinalized one, classifying each with the direct rule and falling
back to the indirect rule (which consults the statuses of the later
slots computed earlier in the same sweep).  It then walks the resulting
slot sequence in ascending order, finalizing every decided prefix slot:
committed leader blocks are linearized into the global commit sequence
(DagRider-style, Section 3.2 step 5) and skipped slots are passed over.
The walk stops at the first undecided slot.

The paper runs this on every received block; most blocks change nothing
for most slots, so a visit only does work where evidence moved:

* Decided classifications are final (Lemmas 4-6): cached, never redone.
* A slot's *direct* verdict is a function of the blocks at its vote
  round ``r+w-2`` (a vote block's votes are fixed when it is inserted:
  its whole causal history is already stored) and its certify round
  ``r+w-1`` (certificates and coin shares), plus the committee schedule.
  A propose-round sibling that arrives later is in no stored vote
  block's history, so it has no votes: it can neither be committed nor
  hold up a skip.  An UNDECIDED verdict is therefore kept with the
  ``(vote-round, certify-round)`` block counts it was judged on, and the
  direct rule re-runs only when one grew (rounds only gain blocks).
* A slot whose certify round holds fewer authors than a quorum has no
  coin, hence no leader and no verdict: UNDECIDED without electing.  A
  sweep stops below the top ``w-1`` rounds, whose certify rounds are
  empty: an UNDECIDED slot anchors no indirect decision, so classifying
  them would change nothing below.
* The indirect rule runs only once the coin is open and the slot's
  anchor is decided; until then it could only say UNDECIDED.
* Most inserts move no verdict at all, so ``ExtendCommitSequence`` polls
  before it sweeps (:meth:`Committer._verdicts_may_move`) and returns
  nothing when every slot from the cursor up is in one of three states
  a sweep would leave as it found them: its coin is closed (certify
  round short of a quorum of authors — every slot of the top ``w-1``
  rounds, and every round the store gained since the last sweep,
  however many: trivially UNDECIDED); it is UNDECIDED on an unchanged
  stamp; or it is decided but behind an UNDECIDED slot.  The indirect
  rule cannot break that: it fires off an anchor that is decided, an
  anchor becomes decided only inside a sweep, and that same sweep
  re-judges every slot below it.  The poll reads the kept verdicts and
  the store — not a record of what was inserted — and asks for a sweep
  when the cursor slot itself is decided, which is how the walk
  restarts after an epoch activation; a checkpoint adoption leaves no
  verdicts, so every open coin above the new cursor asks for one.

Kept verdicts exist for slots at or above the cursor only: finalizing a
slot drops its verdict, leaving a round drops its wave's coin.  (What
blocks vote for and support is kept on the blocks, and a certificate is
re-read from it, so the traversal keeps nothing to drop.)  Garbage collection
and a raised state-transfer floor act below the cursor, so they can
stale nothing; an epoch activation or a checkpoint adoption, which
change the schedule or move the cursor, drop every kept verdict.

Linearizing a committed leader (Algorithm 3's ``LinearizeSubDags``) is a
function of its causal history and of the sequence committed before it,
which Theorem 1 makes the same at every honest validator.  So the answer
is kept on the leader block, as digests, keyed by the commit chain
before it and the store's floor (:meth:`Committer._linearize`): every
validator of a simulation holds the same block object, and the first to
commit the leader linearizes it for all of them on that chain and floor.

The sequencing half — cursor walk, linearization, commit chain and
checkpoint capture (:class:`~repro.statesync.CommitLedger`), epoch
activation, checkpoint adoption, the evictions above — is the same for
every protocol the repo deploys; what differs is how a slot is decided.
Cordial Miners is this class with other constructor arguments, Tusk
(:mod:`repro.baselines.tusk`) a subclass overriding :meth:`try_decide`
and :meth:`coin_round`.  The poll is shared too: it measures the
distance from a leader round to its certify round with
:meth:`coin_round`, so Tusk — whose direct rule reads the blocks at
``r + 1`` and the coin at ``r + 2`` — is polled on exactly those two
rounds, and its ``try_decide`` keeps UNDECIDED verdicts with the same
stamp.  All are built from ``(store, schedule, coin, config)``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..block import Block
from ..committee import Committee, CommitteeSchedule, reconfig_commands_in
from ..config import ProtocolConfig
from ..crypto.coin import CommonCoin
from ..crypto.hashing import Digest
from ..dag.store import DagStore
from ..dag.traversal import DagTraversal
from ..errors import ReproError
from ..statesync import DEFAULT_CHECKPOINT_LAG, Checkpoint, CommitLedger
from .decider import UNKNOWN_AUTHORITY, Decider, LeaderElector
from .slots import Decision, LeaderSlot, SlotStatus

#: The first round that hosts leader slots (genesis round 0 never does).
FIRST_LEADER_ROUND = 1


@dataclass(frozen=True)
class CommitObservation:
    """One finalized leader slot and the blocks it newly linearized."""

    status: SlotStatus
    linearized: tuple[Block, ...]


@dataclass
class CommitterStats:
    """Running counters exposed for the evaluation (Section 5 discusses
    the direct/indirect commit mix and the skip behaviour)."""

    direct_commits: int = 0
    indirect_commits: int = 0
    direct_skips: int = 0
    indirect_skips: int = 0
    blocks_committed: int = 0
    transactions_committed: int = 0

    def record(self, status: SlotStatus, linearized_count: int, tx_count: int) -> None:
        if status.decision is Decision.COMMIT:
            if status.direct:
                self.direct_commits += 1
            else:
                self.indirect_commits += 1
        elif status.decision is Decision.SKIP:
            if status.direct:
                self.direct_skips += 1
            else:
                self.indirect_skips += 1
        self.blocks_committed += linearized_count
        self.transactions_committed += tx_count


class Committer:
    """Drives the decision rules over the whole DAG (Algorithm 1)."""

    #: Whether a block enters the DAG only once certified (Tusk's
    #: header / ack / certificate round, run by the validator driver).
    certified = False

    def __init__(
        self,
        store: DagStore,
        committee: "Committee | CommitteeSchedule",
        coin: CommonCoin,
        config: ProtocolConfig,
        *,
        wave_stride: int = 1,
        direct_skip_enabled: bool = True,
    ) -> None:
        """Create a committer.

        Args:
            store: The local DAG (shared with the protocol core).
            committee: Validator set — a static :class:`Committee` or an
                epoch-versioned
                :class:`~repro.committee.CommitteeSchedule` (shared with
                the protocol core so quorum arithmetic everywhere
                follows the epochs this commit walk activates).
            coin: Common coin used for leader election.
            config: Wave length and leaders-per-round.
            wave_stride: Distance between consecutive propose rounds.
                Mahi-Mahi starts a wave every round (stride 1,
                Section 2.3); Cordial Miners uses non-overlapping waves
                (stride = wave length).
            direct_skip_enabled: Forwarded to the deciders.
        """
        self._store = store
        self.schedule = CommitteeSchedule.ensure(committee)
        self._config = config
        self._wave_stride = wave_stride
        self.traversal = DagTraversal(
            store,
            self.schedule.quorum_threshold,
            membership=self.schedule.committee_at,
        )
        self._elector = LeaderElector(store, self.schedule, coin)
        self._deciders = [
            Decider(
                store,
                self.traversal,
                self.schedule,
                self._elector,
                config.wave_length,
                leader_offset,
                direct_skip_enabled=direct_skip_enabled,
            )
            for leader_offset in range(config.leaders_per_round)
        ]
        # Rounds from a leader round to the round that certifies it and
        # opens its coin: one number per protocol, read off the
        # (overridable) geometry once.
        self._to_certify = self.coin_round(FIRST_LEADER_ROUND) - FIRST_LEADER_ROUND
        # Final (decided) slot classifications; decided statuses never
        # change (Lemmas 4-6), so this is a pure cache.
        self._decided: dict[tuple[int, int], SlotStatus] = {}
        # UNDECIDED direct-rule verdicts with their evidence: slot ->
        # ((vote-round, certify-round) block counts, status).
        self._undecided: dict[tuple[int, int], tuple[tuple[int, int], SlotStatus]] = {}
        # Next slot to finalize in the global sequence.
        self._cursor_round = FIRST_LEADER_ROUND
        self._cursor_offset = 0
        # Digests already emitted into the commit sequence, of the rounds
        # the store still holds (see ``forget_linearized_below``).
        self._output: set[Digest] = set()
        self.stats = CommitterStats()
        # Commit-chain digest + periodic checkpoint capture (state
        # transfer, repro.statesync).  The capture horizon follows the
        # GC depth so the two "history below this is settled" lines
        # coincide; without GC a fixed default lag applies.
        self.ledger = CommitLedger(
            self.schedule.genesis_committee.size,
            interval=config.checkpoint_interval_rounds,
            lag=config.garbage_collection_depth or DEFAULT_CHECKPOINT_LAG,
            schedule=self.schedule,
        )
        # Reconfiguration: with a non-zero activation lag, the walk
        # scans linearized transactions for committed join/leave
        # commands and schedules the resulting epochs.
        self._activation_lag = config.reconfig_activation_lag

    # ------------------------------------------------------------------
    # Slot geometry
    # ------------------------------------------------------------------
    def is_leader_round(self, round_number: int) -> bool:
        """Whether ``round_number`` hosts leader slots."""
        if round_number < FIRST_LEADER_ROUND:
            return False
        return (round_number - FIRST_LEADER_ROUND) % self._wave_stride == 0

    def coin_round(self, leader_round: int) -> int:
        """The round whose blocks open the coin electing
        ``leader_round``'s leaders (the wave's Certify round)."""
        return self._deciders[0].certify_round(leader_round)

    @property
    def leaders_per_round(self) -> int:
        return self._config.leaders_per_round

    # ------------------------------------------------------------------
    # TryDecide (Algorithm 1 line 11)
    # ------------------------------------------------------------------
    def try_decide(self, from_round: int, to_round: int) -> list[SlotStatus]:
        """Classify every leader slot in ``[from_round, to_round]``.

        Slots are processed from the highest down (so the indirect rule
        can consult later slots) and returned in ascending order.
        """
        statuses: deque[SlotStatus] = deque()
        blocks_at = self._store.num_blocks_at_round
        to_certify = self._to_certify
        for round_number in range(to_round, from_round - 1, -1):
            if not self.is_leader_round(round_number):
                continue
            certify_round = round_number + to_certify
            evidence = (blocks_at(certify_round - 1), blocks_at(certify_round))
            for offset in reversed(range(self._config.leaders_per_round)):
                statuses.appendleft(
                    self._classify_slot(round_number, offset, certify_round, evidence, statuses)
                )
        return list(statuses)

    def _classify_slot(
        self,
        round_number: int,
        offset: int,
        certify_round: int,
        evidence: tuple[int, int],
        higher: "deque[SlotStatus]",
    ) -> SlotStatus:
        """One slot's status.  ``evidence`` is the slot's current
        ``(vote-round, certify-round)`` block counts; ``higher`` holds
        the statuses of all later slots, ascending."""
        key = (round_number, offset)
        cached = self._decided.get(key)
        if cached is not None:
            return cached
        decider = self._deciders[offset]
        judged = self._undecided.get(key)
        if judged is not None and judged[0] == evidence:
            status = judged[1]
        else:
            shares = self._store.num_authors_at_round(certify_round)
            if shares < self.schedule.quorum_threshold(certify_round):
                # The coin cannot be open yet: no leader, no verdict.
                status = judged[1] if judged is not None else SlotStatus(
                    LeaderSlot(round_number, offset, UNKNOWN_AUTHORITY), Decision.UNDECIDED
                )
            else:
                status = decider.try_direct_decide(round_number)
                if status.is_decided:
                    return self._settle(key, status)
            self._undecided[key] = (evidence, status)
        if (
            status.slot.authority != UNKNOWN_AUTHORITY
            and higher
            and higher[-1].slot.round > certify_round
        ):
            anchor = decider.find_anchor(certify_round, higher)
            if anchor is not None and anchor.is_decided:
                return self._settle(key, decider.try_indirect_decide(round_number, higher))
        return status

    def _verdicts_may_move(self, highest: int) -> bool:
        """Whether a sweep up to ``highest`` could classify any slot
        differently from the verdicts kept (the poll: see the module
        docstring).  Reads only the kept verdicts and the store, so it
        holds however the blocks got there."""
        if (self._cursor_round, self._cursor_offset) in self._decided:
            return True  # decided outside the walk, or the walk restarted
        store = self._store
        quorum_at = self.schedule.quorum_threshold
        to_certify = self._to_certify
        for round_number in range(self._cursor_round, highest - to_certify + 1, self._wave_stride):
            certify_round = round_number + to_certify
            if store.num_authors_at_round(certify_round) < quorum_at(certify_round):
                continue  # closed coin: UNDECIDED whatever arrived
            evidence = (
                store.num_blocks_at_round(certify_round - 1),
                store.num_blocks_at_round(certify_round),
            )
            for offset in range(self._config.leaders_per_round):
                key = (round_number, offset)
                judged = self._undecided.get(key)
                if judged is None:
                    if key not in self._decided:
                        return True  # never judged with its coin open
                elif judged[0] != evidence:
                    return True
        return False

    def _settle(self, key: tuple[int, int], status: SlotStatus) -> SlotStatus:
        self._decided[key] = status
        self._undecided.pop(key, None)
        return status

    # ------------------------------------------------------------------
    # ExtendCommitSequence (Algorithm 1 line 3)
    # ------------------------------------------------------------------
    def extend_commit_sequence(self) -> list[CommitObservation]:
        """Finalize every decided slot after the cursor, in order.

        Idempotent: calling repeatedly without new blocks returns an
        empty extension.  Returns one observation per finalized slot
        (committed slots carry their newly linearized blocks).
        """
        highest = self._store.highest_round
        if highest < self._cursor_round or not self._verdicts_may_move(highest):
            return []
        # The band the poll reads: a slot above it has an empty certify
        # round, so it is UNDECIDED, and an UNDECIDED slot anchors no
        # indirect decision below it.
        statuses = self.try_decide(self._cursor_round, highest - self._to_certify)
        observations: list[CommitObservation] = []
        for status in statuses:
            expected = (self._cursor_round, self._cursor_offset)
            if (status.slot.round, status.slot.offset) != expected:
                continue  # slots before the cursor were finalized earlier
            if not status.is_decided:
                break  # Algorithm 1 line 7: stop at the first undecided
            linearized: tuple[Block, ...] = ()
            if status.decision is Decision.COMMIT:
                assert status.block is not None
                linearized = self._linearize(status.block)
            tx_count = sum(len(b.transactions) for b in linearized)
            self.stats.record(status, len(linearized), tx_count)
            observations.append(CommitObservation(status=status, linearized=linearized))
            self.ledger.extend(linearized)
            epoch_scheduled = False
            if self._activation_lag and linearized:
                epoch_scheduled = self._apply_reconfig(linearized, status.slot.round)
            self._advance_cursor()
            # Capture is checked after *every* single-slot advance, so a
            # validator that finalizes ten slots in one batch captures
            # the same checkpoints as one that walked them one by one.
            self.ledger.maybe_capture(
                self.last_finalized_round, (self._cursor_round, self._cursor_offset)
            )
            if epoch_scheduled:
                # The remaining pre-computed statuses were classified
                # under the pre-epoch schedule; restart the walk so
                # everything past this slot is re-derived.
                observations.extend(self.extend_commit_sequence())
                break
        return observations

    def _linearize(self, leader: Block) -> tuple[Block, ...]:
        """``LinearizeSubDags([leader])`` against the sequence so far,
        memoized on the leader like its :attr:`~repro.block.Block.chain_link`.

        The answer is a function of the leader's causal history from the
        store's lowest round up and of ``_output`` over the same rounds,
        and ``_output ∩ [floor, ∞)`` is exactly the set the commit chain
        has committed from the floor up: from genesis, after
        :meth:`forget_linearized_below` (which drops only rounds below
        the new floor), and for a checkpoint adopter, whose seeded
        window covers ``[checkpoint.floor, checkpoint.round]`` — every
        block committed before the checkpoint, down to any floor at or
        above the adopted one.  So ``(chain before the leader, floor)``
        keys the answer exactly: a validator on that chain and floor
        takes the digests and resolves them in its own store; any other
        recomputes and keeps its own.  The memo holds digests only (see
        :class:`~repro.block.Block`) and is set on committed leaders
        alone, not declared on every block."""
        store = self._store
        key = (self.ledger.chain, store.lowest_round)
        memo = leader.__dict__.get("_linearized")
        if memo is not None and memo[0] == key:
            self._output.update(memo[1])
            return tuple(map(store.get, memo[1]))
        linearized = tuple(self.traversal.linearize([leader], self._output, floor_round=key[1]))
        object.__setattr__(leader, "_linearized", (key, tuple(b.digest for b in linearized)))
        return linearized

    def _apply_reconfig(self, linearized: tuple[Block, ...], slot_round: int) -> bool:
        """Activate committed reconfiguration commands.

        Commands linearized by the slot at ``slot_round`` activate at
        ``slot_round + reconfig_activation_lag`` — a deterministic
        commit-walk point: every honest validator finalizes the same
        slots with the same linearized blocks in the same order, so all
        schedules agree on every epoch boundary.  The lag keeps the
        activation strictly above every finalized slot, which is what
        makes dropping the not-yet-final decision caches safe: none of
        the dropped classifications was finalized, and they recompute
        under the updated schedule before the cursor reaches them.

        Invalidation is *round-scoped*: only cached state that the new
        epoch can actually change is dropped.  With the activation round
        ``A`` (the minimum ``start_round`` among the epochs just
        scheduled):

        * ``_decided`` — direct decisions at rounds < ``A`` depend only
          on the committee of their own wave (unchanged below ``A``) and
          certificate accumulation is monotone, so they stay.  Cached
          *indirect* decisions are all evicted regardless of round: the
          indirect rule anchors on the first non-skipped slot after the
          certify round, which can sit at rounds >= ``A`` via a skip
          chain, and its classification may change under the new
          committee.  (Everything cached sits above the cursor —
          finalized entries are popped by ``_advance_cursor`` — so this
          still evicts far less than a full clear.)
        * kept UNDECIDED verdicts — all dropped (a handful of slots):
          block counts cannot see that a quorum or the membership moved.
        * elector — the cached certify round always bounds the wave's
          epoch round from above, so dropping certify rounds >= ``A``
          covers every entry the new committee could re-judge.

        Returns whether at least one epoch was scheduled.
        """
        scheduled = False
        activation: int | None = None
        for command in reconfig_commands_in(linearized):
            epoch = self.schedule.apply_command(command, slot_round + self._activation_lag)
            if epoch is not None:
                scheduled = True
                if activation is None or epoch.start_round < activation:
                    activation = epoch.start_round
        if scheduled:
            assert activation is not None
            stale = [
                key
                for key, status in self._decided.items()
                if key[0] >= activation or not status.direct
            ]
            for key in stale:
                del self._decided[key]
            self._undecided.clear()
            self._elector.invalidate_above(activation)
        return scheduled

    def adopt_checkpoint(self, checkpoint: Checkpoint) -> None:
        """Restore commit state from a quorum-attested checkpoint.

        Only a pristine committer (fresh validator core, nothing
        committed) may adopt: the cursor jumps to the checkpoint's
        ``next_slot``, the already-linearized set is seeded from its
        references, and the commit chain continues from its state
        digest.  The caller is responsible for flooring the DAG store
        (:meth:`~repro.dag.store.DagStore.adopt_floor`) so the suffix
        above the checkpoint can be fetched without its pruned history.
        """
        if self.committed_sequence_length or self._output:
            raise ReproError("only a fresh committer may adopt a checkpoint")
        self._cursor_round, self._cursor_offset = checkpoint.next_slot
        self._decided.clear()
        self._undecided.clear()
        self._output = {ref.digest for ref in checkpoint.linearized}
        self.ledger.adopt(checkpoint)

    def forget_linearized_below(self, round_number: int) -> None:
        """Drop the already-linearized digests of the store's rounds
        below ``round_number``, which it is about to prune:
        ``linearize`` passes over every reference below the store's
        lowest round before it would look one up here."""
        for r in range(self._store.lowest_round, round_number):
            self._output.difference_update(block.digest for block in self._store.round_blocks(r))

    def _advance_cursor(self) -> None:
        self._cursor_offset += 1
        if self._cursor_offset >= self._config.leaders_per_round:
            # A round's finalized statuses stay until the cursor leaves
            # it (sweeps start at the cursor *round*); then they and
            # the round's wave's coin go: nothing judges them again.
            for offset in range(self._cursor_offset):
                self._decided.pop((self._cursor_round, offset), None)
            self._cursor_offset = 0
            self._cursor_round += self._wave_stride
            self._elector.invalidate_below(self.coin_round(self._cursor_round))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def next_slot(self) -> LeaderSlot:
        """The next slot the sequence extension will consider."""
        return LeaderSlot(round=self._cursor_round, offset=self._cursor_offset, authority=-1)

    @property
    def committed_sequence_length(self) -> int:
        """Blocks in the global commit sequence so far, an adopted
        checkpoint's included (the ledger keeps the count)."""
        return self.ledger.sequence_length

    @property
    def last_finalized_round(self) -> int:
        """Highest round fully finalized (all its slots decided)."""
        if self._cursor_offset == 0:
            return self._cursor_round - self._wave_stride
        return self._cursor_round - 1

    def slot_statuses(self, up_to: int | None = None) -> list[SlotStatus]:
        """Classify and return all slots from the cursor up to ``up_to``
        (defaults to the highest DAG round) without finalizing anything."""
        highest = self._store.highest_round if up_to is None else up_to
        if highest < self._cursor_round:
            return []
        return self.try_decide(self._cursor_round, highest)
