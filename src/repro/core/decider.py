"""The per-wave decider — Algorithm 2 of the paper.

A decider instance classifies the leader slot ``(round, leader_offset)``
whose wave spans rounds ``[round, round + wave_length - 1]``:

* **Propose** round ``r`` holds the candidate leader block(s);
* **Boost** rounds ``r+1 .. r+w-3`` propagate them;
* **Vote** round ``r+w-2``: each block votes for the first slot block it
  encounters by depth-first search (``IsVote``);
* **Certify** round ``r+w-1``: a block certifies a proposal when its
  parents include ``2f + 1`` votes for it (``IsCert``); this round's
  coin shares also elect the slot's validator after the fact.

The **direct rule** (Section 3.2 step 2) commits a proposal with
``2f + 1`` certificates and skips a slot when no proposal can ever be
certified.  The **indirect rule** (step 3) consults the slot's *anchor*
— the first non-skipped slot of the next wave — and commits exactly
when the anchor's causal history contains a certificate for the slot.

Both rules are pure functions of the DAG and the committee schedule;
*when* to run them — after a slot's vote or certify round gained a
block, once its anchor is decided — is the committer's business.  The
one cache here is the elector's: an opened coin is final, a failed
attempt is retried once new authors arrive.
"""

from __future__ import annotations

from typing import Iterable

from ..block import Block
from ..committee import Committee, CommitteeSchedule
from ..crypto.coin import CoinShare, CommonCoin
from ..dag.store import DagStore
from ..dag.traversal import DagTraversal
from ..errors import InsufficientShares, InvalidShare
from .slots import Decision, LeaderSlot, SlotStatus

#: Placeholder authority used when the coin cannot be reconstructed yet,
#: so the slot's validator is still unknown.
UNKNOWN_AUTHORITY = -1


class LeaderElector:
    """Reconstructs and caches the common coin per certify round.

    All leader offsets of a round share one coin value (Algorithm 2
    line 14-15), so reconstruction happens once per round.  Share
    counting and the reconstruction threshold resolve against the
    committee *of the certify round itself*: that is the committee the
    DAG structurally guarantees blocks (hence shares) for — every block
    at round ``r + 1`` carries a quorum of round-``r`` parents, so at
    least ``quorum_threshold(r)`` blocks by round-``r`` members
    eventually exist, while nothing guarantees more.  A wave whose
    certify round lands at or after an epoch activation would otherwise
    demand the *old* committee's quorum of shares from a round only the
    *new* committee proposes in — under partial participation (real
    deployments skip rounds; crashed sim validators too) that coin could
    never open and the commit walk would deadlock at the boundary.  The
    value-to-validator mapping still resolves against the committee of
    the wave's epoch (the propose round's — ``epoch_round``), so
    election follows reconfiguration: a joiner is never elected for a
    pre-join wave.  Both coin families reconstruct a share-independent
    value, so which quorum opens the coin never changes who is elected.
    """

    def __init__(
        self,
        store: DagStore,
        committee: "Committee | CommitteeSchedule",
        coin: CommonCoin,
    ) -> None:
        self._store = store
        self._schedule = CommitteeSchedule.ensure(committee)
        self._coin = coin
        # certify round -> (member authors seen at last attempt, value or
        # None).  A failed reconstruction is retried only once new
        # authors' blocks (hence new shares) arrive for that round.
        self._cache: dict[int, tuple[int, int | None]] = {}

    def coin_value(self, certify_round: int) -> int | None:
        """The coin opened by ``certify_round``'s blocks, or ``None`` if
        fewer than ``2f + 1`` valid shares (from members of the
        committee proposing at ``certify_round`` — see the class
        docstring) are available yet."""
        cached = self._cache.get(certify_round)
        if cached is not None and cached[1] is not None:
            return cached[1]  # an opened coin never changes
        committee = self._schedule.committee_at(certify_round)
        authors_now = committee.count_members(self._store.authors_at_round(certify_round))
        if cached is not None and cached[0] == authors_now:
            return None
        shares: list[CoinShare] = []
        seen_authors: set[int] = set()
        for block in self._store.round_blocks(certify_round):
            share = block.coin_share
            if share is None or block.author in seen_authors:
                continue
            if not committee.is_member(block.author):
                continue
            seen_authors.add(block.author)
            shares.append(share)
        value = None
        if len(shares) >= committee.quorum_threshold:
            try:
                value = self._coin.reconstruct(
                    certify_round, shares, threshold=committee.quorum_threshold
                )
            except (InsufficientShares, InvalidShare):
                value = None
        self._cache[certify_round] = (authors_now, value)
        return value

    def invalidate_above(self, round_number: int) -> int:
        """Drop cached reconstruction attempts for certify rounds
        >= ``round_number``.

        Called when an epoch activating at ``round_number`` is
        scheduled.  This is exact: an entry is judged against the
        committee of its own certify round (its cache key), so entries
        keyed below the activation were judged under committees the new
        epoch cannot change.  Returns the number of entries dropped.
        """
        stale = [r for r in self._cache if r >= round_number]
        for r in stale:
            del self._cache[r]
        return len(stale)

    def invalidate_below(self, certify_round: int) -> None:
        """Drop attempts for certify rounds below ``certify_round``:
        the commit walk's cursor left their waves for good."""
        for r in [r for r in self._cache if r < certify_round]:
            del self._cache[r]

    def leader(
        self, certify_round: int, offset: int, epoch_round: int | None = None
    ) -> int:
        """The validator elected for ``(propose round, offset)``, or
        :data:`UNKNOWN_AUTHORITY` when the coin is not yet open.

        ``epoch_round`` names the round whose epoch governs the wave
        (the propose round); it defaults to ``certify_round`` for
        static-committee callers.
        """
        value = self.coin_value(certify_round)
        if value is None:
            return UNKNOWN_AUTHORITY
        committee = self._schedule.committee_at(
            certify_round if epoch_round is None else epoch_round
        )
        return committee.leader_for(value, offset)


class Decider:
    """Algorithm 2: classify one leader slot per propose round."""

    def __init__(
        self,
        store: DagStore,
        traversal: DagTraversal,
        committee: "Committee | CommitteeSchedule",
        elector: LeaderElector,
        wave_length: int,
        leader_offset: int,
        *,
        direct_skip_enabled: bool = True,
    ) -> None:
        """Create a decider.

        Args:
            store: The local DAG.
            traversal: Shared memoizing traversal helper.
            committee: The validator set — a static :class:`Committee`
                or an epoch-versioned
                :class:`~repro.committee.CommitteeSchedule`.  Every
                threshold this decider applies resolves against the
                committee of the wave's *propose* round (a wave
                straddling an epoch boundary is governed by the epoch it
                was proposed in).
            elector: Shared coin/election cache.
            wave_length: Rounds per wave (4 or 5 in the paper).
            leader_offset: Which of the round's leader slots this decider
                classifies (Algorithm 2's ``leaderOffset``).
            direct_skip_enabled: Mahi-Mahi's direct skip rule; disabled
                to emulate Cordial-Miners-style indirect-only skipping.
        """
        self._store = store
        self._traversal = traversal
        self._schedule = CommitteeSchedule.ensure(committee)
        self._elector = elector
        self._wave_length = wave_length
        self._leader_offset = leader_offset
        self._direct_skip_enabled = direct_skip_enabled

    # ------------------------------------------------------------------
    # Wave geometry (Algorithm 2 lines 4-11)
    # ------------------------------------------------------------------
    def vote_round(self, propose_round: int) -> int:
        """The wave's Vote round, ``r + w - 2``."""
        return propose_round + self._wave_length - 2

    def certify_round(self, propose_round: int) -> int:
        """The wave's Certify round, ``r + w - 1``."""
        return propose_round + self._wave_length - 1

    # ------------------------------------------------------------------
    # Election and candidates
    # ------------------------------------------------------------------
    def elect(self, propose_round: int) -> int:
        """Elected validator for this slot (after-the-fact, via the coin,
        drawn from the committee of the propose round's epoch)."""
        return self._elector.leader(
            self.certify_round(propose_round), self._leader_offset, propose_round
        )

    def candidate_blocks(self, propose_round: int, authority: int) -> list[Block]:
        """The slot's proposal block(s) in deterministic (digest) order;
        more than one only under equivocation."""
        blocks = list(self._store.slot_blocks(propose_round, authority))
        blocks.sort(key=lambda b: b.digest)
        return blocks

    # ------------------------------------------------------------------
    # Direct decision rule (Section 3.2 step 2)
    # ------------------------------------------------------------------
    def supported_leader(self, propose_round: int, leader: Block) -> bool:
        """``SupportedLeader``: ``2f + 1`` distinct certify-round authors
        (members of the wave's epoch) produced certificates for
        ``leader``.

        Each certificate is read off the certifier's support memo (kept
        on the shared block) and judged, like ``IsCert``, against the
        committee of the leader's round — the wave's."""
        committee = self._schedule.committee_at(propose_round)
        quorum = committee.quorum_threshold
        members = committee.member_mask
        slot = (leader.author, leader.round)
        digest = leader.digest
        support = self._traversal.support
        certifying = 0  # bitmask of the certifying authors
        for block in self._store.round_blocks(self.certify_round(propose_round)):
            author = 1 << block.author
            if certifying & author or not members & author:
                continue
            if (support(block, slot).get(digest, 0) & members).bit_count() >= quorum:
                certifying |= author
                if certifying.bit_count() >= quorum:
                    return True
        return False

    def skipped_leader(self, propose_round: int, leader: Block) -> bool:
        """``SkippedLeader``: ``2f + 1`` distinct vote-round authors none
        of whose blocks vote for ``leader``, so it can never be certified
        (quorum intersection, Lemma 3)."""
        return (
            self._non_voting_authors(propose_round, leader)
            >= self._schedule.quorum_threshold(propose_round)
        )

    def _non_voting_authors(self, propose_round: int, leader: Block) -> int:
        """Distinct vote-round authors (members of the wave's epoch)
        whose every known block fails ``IsVote`` for ``leader``.
        Counting per author (not per block) keeps the quorum-intersection
        argument sound under vote-round equivocation."""
        vote_round = self.vote_round(propose_round)
        committee = self._schedule.committee_at(propose_round)
        non_voting = 0
        for author in self._store.authors_at_round(vote_round):
            if not committee.is_member(author):
                continue
            blocks = self._store.slot_blocks(vote_round, author)
            if all(not self._traversal.is_vote(block, leader) for block in blocks):
                non_voting += 1
        return non_voting

    def _slot_unskippable_votes_missing(
        self, propose_round: int, authority: int, candidates: list[Block]
    ) -> bool:
        """Whether the *slot* (not just one candidate) is safely skippable.

        An unseen equivocating proposal can only gather votes from
        vote-round blocks, and every vote target lies in our store
        (causal completeness), i.e. among ``candidates``.  The slot is
        therefore skippable when a ``2f + 1``-author quorum exists at the
        vote round and, for every candidate, ``2f + 1`` authors do not
        vote for it.
        """
        vote_round = self.vote_round(propose_round)
        committee = self._schedule.committee_at(propose_round)
        authors = committee.count_members(self._store.authors_at_round(vote_round))
        if authors < committee.quorum_threshold:
            return False
        return all(self.skipped_leader(propose_round, block) for block in candidates)

    def try_direct_decide(self, propose_round: int) -> SlotStatus:
        """Apply the direct decision rule to this slot.

        Returns a COMMIT when some proposal holds ``2f + 1``
        certificates (at most one can, Lemma 2); a SKIP when no proposal
        — seen or unseen — can ever be certified; UNDECIDED otherwise,
        including when the coin has not opened.
        """
        authority = self.elect(propose_round)
        if authority == UNKNOWN_AUTHORITY:
            slot = LeaderSlot(round=propose_round, offset=self._leader_offset, authority=authority)
            return SlotStatus(slot=slot, decision=Decision.UNDECIDED)
        slot = LeaderSlot(round=propose_round, offset=self._leader_offset, authority=authority)
        candidates = self.candidate_blocks(propose_round, authority)
        for candidate in candidates:
            if self.supported_leader(propose_round, candidate):
                return SlotStatus(slot=slot, decision=Decision.COMMIT, block=candidate, direct=True)
        if self._direct_skip_enabled and self._slot_unskippable_votes_missing(
            propose_round, authority, candidates
        ):
            return SlotStatus(slot=slot, decision=Decision.SKIP, direct=True)
        return SlotStatus(slot=slot, decision=Decision.UNDECIDED)

    # ------------------------------------------------------------------
    # Indirect decision rule (Section 3.2 step 3)
    # ------------------------------------------------------------------
    def try_indirect_decide(
        self, propose_round: int, higher_statuses: "Iterable[SlotStatus]"
    ) -> SlotStatus:
        """Apply the indirect (anchor) rule.

        Args:
            propose_round: This slot's propose round.
            higher_statuses: Statuses of all later slots, ascending by
                ``(round, offset)`` — produced by ``TryDecide``'s
                top-down sweep (Algorithm 1).
        """
        authority = self.elect(propose_round)
        slot = LeaderSlot(round=propose_round, offset=self._leader_offset, authority=authority)
        if authority == UNKNOWN_AUTHORITY:
            return SlotStatus(slot=slot, decision=Decision.UNDECIDED)
        certify_round = self.certify_round(propose_round)
        anchor = self.find_anchor(certify_round, higher_statuses)
        if anchor is None or anchor.decision is Decision.UNDECIDED:
            return SlotStatus(slot=slot, decision=Decision.UNDECIDED)
        assert anchor.block is not None
        for candidate in self.candidate_blocks(propose_round, authority):
            if self._is_certified_link(propose_round, anchor.block, candidate):
                return SlotStatus(
                    slot=slot, decision=Decision.COMMIT, block=candidate, direct=False
                )
        return SlotStatus(slot=slot, decision=Decision.SKIP, direct=False)

    @staticmethod
    def find_anchor(
        certify_round: int, higher_statuses: "Iterable[SlotStatus]"
    ) -> SlotStatus | None:
        """Algorithm 2 line 29: the first slot after the certify round
        that is not skipped (i.e. committed or still undecided)."""
        for status in higher_statuses:
            if status.slot.round <= certify_round:
                continue
            if status.decision is not Decision.SKIP:
                return status
        return None

    def _is_certified_link(self, propose_round: int, anchor_block: Block, leader: Block) -> bool:
        """``IsCertifiedLink`` (Algorithm 3 line 16): a certify-round
        block that certifies ``leader`` lies in the anchor's history."""
        for block in self._store.round_blocks(self.certify_round(propose_round)):
            if self._traversal.is_cert(block, leader) and self._traversal.is_link(
                block, anchor_block
            ):
                return True
        return False
