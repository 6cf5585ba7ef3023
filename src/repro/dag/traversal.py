"""DAG traversal helpers — Algorithm 3 of the paper.

* :meth:`DagTraversal.voted_block` — ``VotedBlock(b, id, r)``: the first
  block of slot ``(id, r)`` encountered in a depth-first search from
  ``b`` that follows parent references in their listed order.  A vote
  block supports *at most one* equivocating proposal (Observation 1)
  precisely because this traversal is deterministic.
* :meth:`DagTraversal.is_vote` — ``IsVote(b_vote, b_leader)``.
* :meth:`DagTraversal.is_cert` — ``IsCert(b_cert, b_leader)``: at least
  ``2f + 1`` of the certifier's parents (by distinct author) are votes.
* :meth:`DagTraversal.is_link` — ``IsLink(b_old, b_new)``: reachability.
* :meth:`DagTraversal.linearize` — ``LinearizeSubDags``.

``VotedBlock`` results are memoized per target slot: for a fixed
``(id, r)`` the result is a pure function of the starting block, so each
block in the w-round window is resolved once per wave instead of once
per DFS path.  Beside each slot's memo sits its inverse, the *voter
table*: per block of the slot, the blocks whose ``VotedBlock`` it is
(digest -> author), filled as the memo resolves them.  ``IsCert`` is
then three set operations on the certifier's
:attr:`~repro.block.Block.parent_digests`: the parents the memo has not
seen (only those are fetched and searched), the authors the leader's
voter table gives for the parents, and the members among them.  Like the
memo, a voter table is pure DAG structure — membership is judged when a
certificate is counted, not when a vote is recorded.  All memos are
keyed by the leader's round first, so the advancing commit cursor and an
epoch activation drop whole rounds.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..block import Block
from ..crypto.hashing import Digest
from .store import DagStore

#: One target slot's ``VotedBlock`` memo ``{start digest -> voted block
#: or None}`` and its voter tables ``{voted digest -> {start digest ->
#: start author}}``.
_VoteMemo = tuple[dict[Digest, "Block | None"], dict[Digest, dict[Digest, int]]]


class DagTraversal:
    """Memoizing traversal utilities over a :class:`DagStore`."""

    def __init__(
        self,
        store: DagStore,
        quorum_threshold: "int | Callable[[int], int]",
        *,
        membership: "Callable[[int], object] | None" = None,
    ) -> None:
        """Create a traversal helper.

        Args:
            store: The DAG to traverse.
            quorum_threshold: ``2f + 1`` for the deployment's committee —
                either a fixed int (static committees) or a
                ``round -> threshold`` resolver (epoch-versioned
                committees: certificates for a leader at round ``r`` are
                judged against the quorum of ``r``'s epoch; pass e.g.
                ``CommitteeSchedule.quorum_threshold``).
            membership: Optional ``round -> Committee`` resolver; when
                set, only votes authored by members of the leader
                round's committee count toward a certificate (a joined-
                but-not-yet-active or already-left validator cannot
                contribute to quorums).
        """
        self._store = store
        if callable(quorum_threshold):
            self._quorum_at = quorum_threshold
        else:
            self._quorum_at = lambda round_number: quorum_threshold
        self._membership = membership
        # leader round -> leader author -> memo and voter tables.  Pure
        # DAG structure: committee-independent.
        self._vote_cache: dict[int, dict[int, _VoteMemo]] = {}
        # leader round -> {(certifier digest, leader digest) -> bool}.
        # Entries are valid as long as the leader round's quorum and
        # committee stay fixed: a block's parents are immutable and the
        # DAG is append-only, so only a committee-schedule change at the
        # leader's round can stale a verdict.  Keying the outer dict by
        # leader round makes invalidation round-scoped (epoch activation
        # drops rounds >= the activation; the commit cursor drops the
        # rounds it leaves) instead of wholesale.
        self._cert_cache: dict[int, dict[tuple[Digest, Digest], bool]] = {}

    # ------------------------------------------------------------------
    # VotedBlock / IsVote
    # ------------------------------------------------------------------
    def voted_block(self, start: Block, author: int, round_number: int) -> Block | None:
        """First block of slot ``(author, round_number)`` in DFS preorder
        from ``start`` (Algorithm 3, ``VotedBlock``), or ``None``.

        The search never descends below the target round: a subtree
        rooted at a block with round <= ``round_number`` cannot contain
        the target.
        """
        return self._voted_block_memo(
            start, author, round_number, *self._vote_memo(author, round_number)
        )

    def _vote_memo(self, author: int, round_number: int) -> "_VoteMemo":
        """The ``VotedBlock`` memo of target slot ``(author, round)`` and
        the slot's voter tables."""
        try:
            return self._vote_cache[round_number][author]
        except KeyError:
            return self._vote_cache.setdefault(round_number, {}).setdefault(author, ({}, {}))

    def _voted_block_memo(
        self,
        block: Block,
        author: int,
        round_number: int,
        cache: dict[Digest, Block | None],
        voters: dict[Digest, dict[Digest, int]],
    ) -> Block | None:
        if round_number >= block.round:
            return None
        hit = cache.get(block.digest, _MISS)
        if hit is not _MISS:
            return hit
        result: Block | None = None
        for parent_ref in block.parents:
            if parent_ref.author == author and parent_ref.round == round_number:
                result = self._store.get_ref(parent_ref)
                break
            if parent_ref.round <= round_number:
                continue
            found = self._voted_block_memo(
                self._store.get_ref(parent_ref), author, round_number, cache, voters
            )
            if found is not None:
                result = found
                break
        cache[block.digest] = result
        if result is not None:
            voters.setdefault(result.digest, {})[block.digest] = block.author
        return result

    def is_vote(self, vote: Block, leader: Block) -> bool:
        """``IsVote(b_vote, b_leader)`` — Algorithm 3 line 1."""
        found = self.voted_block(vote, leader.author, leader.round)
        return found is not None and found.digest == leader.digest

    # ------------------------------------------------------------------
    # IsCert
    # ------------------------------------------------------------------
    def is_cert(self, certifier: Block, leader: Block) -> bool:
        """``IsCert(b_cert, b_leader)`` — the certifier's parents include
        votes for the leader from at least ``2f + 1`` distinct authors.
        """
        leader_round = leader.round
        round_cache = self._cert_cache.get(leader_round)
        if round_cache is None:
            round_cache = self._cert_cache[leader_round] = {}
        leader_digest = leader.digest
        key = (certifier.digest, leader_digest)
        cached = round_cache.get(key)
        if cached is not None:
            return cached
        leader_author = leader.author
        votes, voters = self._vote_memo(leader_author, leader_round)
        parents = certifier.parent_digests
        unseen = parents.difference(votes)
        if unseen:
            for parent_ref in certifier.parents:
                if parent_ref.digest not in unseen:
                    continue
                if parent_ref.round <= leader_round:
                    votes[parent_ref.digest] = None  # cannot reach the slot
                else:
                    self._voted_block_memo(
                        self._store.get_ref(parent_ref), leader_author, leader_round, votes, voters
                    )
        result = False
        quorum = self._quorum_at(leader_round)
        table = voters.get(leader_digest)
        if table is not None:
            # Authors count, not references: a certifier may reference
            # several blocks of one author that all vote for the leader.
            authors = set(map(table.get, parents))
            authors.discard(None)  # the parents that are no voters
            if self._membership is not None:
                result = self._membership(leader_round).count_members(authors) >= quorum
            else:
                result = len(authors) >= quorum
        round_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # IsLink (reachability)
    # ------------------------------------------------------------------
    def is_link(self, old: Block, new: Block) -> bool:
        """``IsLink(b_old, b_new)`` — whether ``old`` is in ``new``'s
        causal history (a block links to itself).
        """
        if old.digest == new.digest:
            return True
        if old.round >= new.round:
            return False
        target = old.digest
        stack = [new]
        seen: set[Digest] = {new.digest}
        while stack:
            block = stack.pop()
            for parent_ref in block.parents:
                if parent_ref.digest == target:
                    return True
                if parent_ref.round <= old.round or parent_ref.digest in seen:
                    continue
                seen.add(parent_ref.digest)
                stack.append(self._store.get_ref(parent_ref))
        return False

    # ------------------------------------------------------------------
    # Linearization
    # ------------------------------------------------------------------
    def linearize(
        self,
        leaders: Iterable[Block],
        already_output: set[Digest],
        *,
        floor_round: int = 0,
    ) -> list[Block]:
        """``LinearizeSubDags(L)`` — Algorithm 3 line 20.

        For each committed leader in order, output every block of its
        causal history not yet output, in the deterministic order
        ``(round, author, digest)``; the leader itself closes its
        sub-DAG.  ``already_output`` is updated in place so successive
        calls extend a single global sequence.
        """
        sequence: list[Block] = []
        for leader in leaders:
            # Traversal prunes at already-output blocks: linearization
            # always emits a block's full causal history with it, so an
            # output block's ancestors are all output too.  This keeps
            # each extension proportional to the *new* sub-DAG.
            if leader.digest in already_output:
                continue
            fresh: list[Block] = []
            stack = [leader]
            seen: set[Digest] = {leader.digest}
            while stack:
                block = stack.pop()
                fresh.append(block)
                for parent_ref in block.parents:
                    if (
                        parent_ref.round < floor_round
                        or parent_ref.digest in seen
                        or parent_ref.digest in already_output
                    ):
                        continue
                    seen.add(parent_ref.digest)
                    stack.append(self._store.get_ref(parent_ref))
            fresh.sort(key=lambda b: (b.round, b.author, b.digest))
            for block in fresh:
                already_output.add(block.digest)
            sequence.extend(fresh)
        return sequence

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    def invalidate_above(self, round_number: int) -> int:
        """Drop certificate verdicts for leaders at rounds
        >= ``round_number``.

        Called when an epoch activating at ``round_number`` is
        scheduled: ``is_cert`` judges a certificate against the quorum
        and membership of the *leader's* round, so only verdicts for
        leaders at or above the activation can change.  Vote memos are
        pure DAG structure (committee-independent) and survive.  Returns
        the number of entries dropped (observability).
        """
        stale = [r for r in self._cert_cache if r >= round_number]
        dropped = 0
        for r in stale:
            dropped += len(self._cert_cache.pop(r))
        return dropped

    def invalidate_below(self, round_number: int) -> int:
        """Drop memo entries for target slots and cert-round leaders
        below ``round_number`` (called as the commit cursor leaves a
        round: a finalized slot is never judged again).  Returns the
        number of entries dropped."""
        dropped = 0
        for r in [r for r in self._vote_cache if r < round_number]:
            for votes, voters in self._vote_cache.pop(r).values():
                dropped += len(votes) + sum(map(len, voters.values()))
        for r in [r for r in self._cert_cache if r < round_number]:
            dropped += len(self._cert_cache.pop(r))
        return dropped

    def memo_size(self) -> int:
        """Total cached entries across the vote memos, voter tables and
        cert memos (the accounting hook the invalidation tests assert
        against)."""
        stats = self.cache_stats()
        return stats["vote_entries"] + stats["voter_entries"] + stats["cert_entries"]

    def cache_stats(self) -> dict[str, int]:
        """Size of the vote memos, voter tables and cert memos
        (observability for benchmarks)."""
        vote_memos = [
            memo for by_author in self._vote_cache.values() for memo in by_author.values()
        ]
        return {
            "vote_targets": len(vote_memos),
            "vote_entries": sum(len(votes) for votes, _ in vote_memos),
            "voter_entries": sum(
                len(table) for _, voters in vote_memos for table in voters.values()
            ),
            "cert_rounds": len(self._cert_cache),
            "cert_entries": sum(len(v) for v in self._cert_cache.values()),
        }


class _Miss:
    """Sentinel distinguishing 'not cached' from a cached ``None``."""

    __slots__ = ()


_MISS = _Miss()
