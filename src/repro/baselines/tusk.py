"""Tusk [18]: certified-DAG asynchronous consensus.

Tusk certifies every DAG vertex with an explicit consistent-broadcast
round (header → acks → certificate, three message delays), so
equivocation never reaches the DAG.  :attr:`TuskCommitter.certified`
says so, and the :class:`~repro.statesync.driver.ValidatorDriver` that
binds a core with this committer runs the round.  Its commit rule uses
2-round waves:

* the leader of wave ``w`` lives in the wave's first round ``r``;
* the common coin electing that leader opens with the blocks of round
  ``r + 2`` (selected "after the fact", like Mahi-Mahi);
* the leader commits *directly* when at least ``f + 1`` round-``r+1``
  blocks reference it;
* otherwise the decision defers to the next committed leader: an
  earlier leader commits iff it lies in that leader's causal history
  (the DAG-Rider-style recursion).

End-to-end this costs at least nine message delays per commit (three
certified rounds at three delays each), the number the paper quotes for
Tusk (Sections 1 and 2.2).

Only that decision rule and the stride-2 / coin-at-``r+2`` geometry live
here.  Sequencing decided slots — cursor, linearization, commit chain,
checkpoints, epoch activation, checkpoint adoption, dropping a wave's
coin and verdict once the cursor leaves it — is
:class:`repro.core.committer.Committer`'s, inherited; kept verdicts sit
in its ``_decided`` under ``(leader round, 0)``.

So is the poll in front of the sweep
(:meth:`~repro.core.committer.Committer._verdicts_may_move`), and its
argument carries over.  The direct rule reads the blocks at ``r + 1``
and the coin at ``r + 2`` — the rounds the inherited poll stamps, given
:meth:`TuskCommitter.coin_round` — so ``try_decide`` keeps every
UNDECIDED verdict in ``_undecided`` with those two block counts, and a
sweep is asked for only when a count grew under an open coin (or a slot
with an open coin was never judged).  A leader-round sibling that
arrives later is referenced by no stored ``r + 1`` block, so it has no
support, and lies in no decided anchor's history; the indirect rule
fires off an anchor that is decided, which happens only inside a sweep,
and that sweep re-judges every slot below it.  Only *whether* to sweep
is polled: inside a sweep every undecided slot is judged again.
"""

from __future__ import annotations

from ..block import Block
from ..committee import Committee, CommitteeSchedule
from ..config import ProtocolConfig
from ..core.committer import CommitObservation, Committer
from ..core.decider import UNKNOWN_AUTHORITY
from ..core.slots import Decision, LeaderSlot, SlotStatus
from ..crypto.coin import CommonCoin
from ..dag.store import DagStore

#: Rounds per Tusk wave (leader round + support round).
TUSK_WAVE = 2
#: Rounds after the leader at which its electing coin opens.
TUSK_COIN_DELAY = 2


class TuskCommitter(Committer):
    """Tusk's decision rule over the shared commit sequencer."""

    certified = True

    def __init__(
        self,
        store: DagStore,
        committee: "Committee | CommitteeSchedule",
        coin: CommonCoin,
        config: ProtocolConfig,
    ) -> None:
        """``config`` supplies the GC depth, checkpoint cadence and
        reconfiguration lag; the wave geometry is Tusk's own (one leader
        every :data:`TUSK_WAVE` rounds) whatever ``config`` says."""
        super().__init__(store, committee, coin, config.with_leaders(1), wave_stride=TUSK_WAVE)

    def coin_round(self, leader_round: int) -> int:
        """The round whose blocks open the wave's coin."""
        return leader_round + TUSK_COIN_DELAY

    # ------------------------------------------------------------------
    # Decision rules
    # ------------------------------------------------------------------
    def _slot(self, leader_round: int) -> tuple[LeaderSlot, list[Block]]:
        """The wave's slot and its candidate blocks in digest order
        (none while the coin is closed)."""
        authority = self._elector.leader(self.coin_round(leader_round), 0, leader_round)
        slot = LeaderSlot(round=leader_round, offset=0, authority=authority)
        if authority == UNKNOWN_AUTHORITY:
            return slot, []
        candidates = self._store.slot_blocks(leader_round, authority)
        return slot, sorted(candidates, key=lambda b: b.digest)

    def _direct_decide(self, leader_round: int) -> SlotStatus:
        slot, candidates = self._slot(leader_round)
        validity = self.schedule.validity_threshold(leader_round)
        for candidate in candidates:
            if self._support(candidate) >= validity:
                return SlotStatus(slot=slot, decision=Decision.COMMIT, block=candidate, direct=True)
        return SlotStatus(slot=slot, decision=Decision.UNDECIDED)

    def _support(self, leader: Block) -> int:
        """Distinct round-``r+1`` authors (members of the wave's epoch)
        whose block references ``leader`` directly (certified DAG:
        references are unequivocal votes)."""
        committee = self.schedule.committee_at(leader.round)
        supporters: set[int] = set()
        for block in self._store.round_blocks(leader.round + 1):
            if block.author in supporters or not committee.is_member(block.author):
                continue
            if leader.digest in block.parent_digests:
                supporters.add(block.author)
        return len(supporters)

    def _indirect_decide(self, leader_round: int, higher: list[SlotStatus]) -> SlotStatus:
        slot, candidates = self._slot(leader_round)
        anchor = next((s for s in higher if s.decision is not Decision.SKIP), None)
        if (
            slot.authority == UNKNOWN_AUTHORITY
            or anchor is None
            or anchor.decision is Decision.UNDECIDED
        ):
            return SlotStatus(slot=slot, decision=Decision.UNDECIDED)
        assert anchor.block is not None
        for candidate in candidates:
            if self.traversal.is_link(candidate, anchor.block):
                return SlotStatus(
                    slot=slot, decision=Decision.COMMIT, block=candidate, direct=False
                )
        return SlotStatus(slot=slot, decision=Decision.SKIP, direct=False)

    # ------------------------------------------------------------------
    # TryDecide / ExtendCommitSequence.  Both names stay in this class
    # body: the benchmark's layer attribution (benchmarks/perf/mmperf/
    # layers.py) patches each method on the class that defines it.
    # ------------------------------------------------------------------
    def try_decide(self, from_round: int, to_round: int) -> list[SlotStatus]:
        """Classify leader slots in ``[from_round, to_round]``, ascending.
        Every slot not yet decided is judged again; an UNDECIDED verdict
        is kept with the stamp the inherited poll compares."""
        statuses: list[SlotStatus] = []
        blocks_at = self._store.num_blocks_at_round
        for round_number in range(to_round, from_round - 1, -1):
            if not self.is_leader_round(round_number):
                continue
            key = (round_number, 0)
            status = self._decided.get(key)
            if status is None:
                status = self._direct_decide(round_number)
                if not status.is_decided:
                    status = self._indirect_decide(round_number, statuses)
                if status.is_decided:
                    self._settle(key, status)
                else:
                    coin_round = self.coin_round(round_number)
                    evidence = (blocks_at(coin_round - 1), blocks_at(coin_round))
                    self._undecided[key] = (evidence, status)
            statuses.insert(0, status)
        return statuses

    def extend_commit_sequence(self) -> list[CommitObservation]:
        """Finalize decided slots in order (the shared sequencer)."""
        return super().extend_commit_sequence()
