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

**Who owns which memo.**  ``VotedBlock(b, id, r)`` reads nothing but
``b``'s hash-linked causal history, so its answer is a fact about ``b``:
the same in every store that holds ``b``, under every committee, for as
long as ``b`` exists.  It is therefore kept on the block
(:attr:`Block.voted <repro.block.Block.voted>`, per target slot), and so
is what a certifier's parents vote for
(:attr:`Block.support <repro.block.Block.support>`: per target slot,
voted digest -> the authors among the parents that vote for it, as one
int bitmask).  Whoever holds the block object shares the answer — every
validator of a simulation, one holder in the runtime — and it goes when
the block does; the search here only fills it in.  Both hold digests and
author ids, never :class:`Block` objects: a memo that named its voted
block would keep every pruned ancestor alive through the chain of memos
above it.

A *certificate* is not such a fact: whether the supporting authors make a
quorum depends on the committee of the leader's round, which an epoch
activation can change.  So it is not remembered at all: it is read off
the certifier's support memo — one mask and one bit count against the
committee of the leader's round — each time it is asked, and this class
owns no memo.

:meth:`DagTraversal.linearize` keeps none either: its answer depends on
what the asking validator has already output, not on the leader alone.
The committer remembers it on the committed leader, keyed by the commit
chain before it and the store's floor, which together fix that set
(:meth:`Committer._linearize <repro.core.committer.Committer._linearize>`);
so in a simulation it runs once per committed leader, not once per
validator.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..block import Block
from ..committee import Committee
from ..crypto.hashing import Digest
from .store import DagStore

#: A target slot ``(author, round)``: the key of both per-block memos.
_Slot = tuple[int, int]


class DagTraversal:
    """Traversal utilities over a :class:`DagStore`."""

    def __init__(
        self,
        store: DagStore,
        quorum_threshold: "int | Callable[[int], int]",
        *,
        membership: "Callable[[int], Committee] | None" = None,
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

    # ------------------------------------------------------------------
    # VotedBlock / IsVote
    # ------------------------------------------------------------------
    def voted_block(self, start: Block, author: int, round_number: int) -> Block | None:
        """First block of slot ``(author, round_number)`` in DFS preorder
        from ``start`` (Algorithm 3, ``VotedBlock``), or ``None``."""
        if round_number >= start.round:
            return None
        voted = self._voted(start, (author, round_number))
        return None if voted is None else self._store.get(voted)

    def _voted(self, block: Block, slot: _Slot) -> Digest | None:
        """Digest of ``VotedBlock(block, *slot)`` for a ``block`` above
        the slot's round, resolved once per block object.

        The search never descends to the target round or below: a
        subtree rooted there cannot contain the target.
        """
        memo = block.voted
        if memo is None:
            memo = block.new_memo("voted")
        elif slot in memo:
            return memo[slot]
        author, round_number = slot
        result: Digest | None = None
        for parent_ref in block.parents:
            if parent_ref.round > round_number:
                result = self._voted(self._store.get_ref(parent_ref), slot)
                if result is not None:
                    break
            elif parent_ref.round == round_number and parent_ref.author == author:
                result = parent_ref.digest
                break
        memo[slot] = result
        return result

    def is_vote(self, vote: Block, leader: Block) -> bool:
        """``IsVote(b_vote, b_leader)`` — Algorithm 3 line 1."""
        return (
            leader.round < vote.round
            and self._voted(vote, (leader.author, leader.round)) == leader.digest
        )

    # ------------------------------------------------------------------
    # IsCert
    # ------------------------------------------------------------------
    def is_cert(self, certifier: Block, leader: Block) -> bool:
        """``IsCert(b_cert, b_leader)`` — the certifier's parents include
        votes for the leader from at least ``2f + 1`` distinct authors.
        """
        leader_round = leader.round
        # Authors count, not references: a certifier may reference
        # several blocks of one author that all vote for the leader.
        voters = self.support(certifier, (leader.author, leader_round)).get(leader.digest, 0)
        if self._membership is not None:
            voters &= self._membership(leader_round).member_mask
        return voters.bit_count() >= self._quorum_at(leader_round)

    def support(self, certifier: Block, slot: _Slot) -> dict[Digest, int]:
        """What the certifier's parents vote for in ``slot``: voted
        digest -> bitmask of the voting parents' authors, resolved once
        per block object.  Membership is judged when a certificate is
        counted, not here."""
        memo = certifier.support
        if memo is None:
            memo = certifier.new_memo("support")
        else:
            support = memo.get(slot)
            if support is not None:
                return support
        round_number = slot[1]
        support = {}
        for parent_ref in certifier.parents:
            if parent_ref.round > round_number:  # at or below: cannot reach the slot
                parent = self._store.get_ref(parent_ref)
                voted = self._voted(parent, slot)
                if voted is not None:
                    support[voted] = support.get(voted, 0) | (1 << parent.author)
        memo[slot] = support  # only once whole: a failed fetch leaves no half answer
        return support

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
                unvisited = block.parent_digests.difference(seen, already_output)
                if not unvisited:
                    continue
                seen |= unvisited
                for parent_ref in block.parents:
                    if parent_ref.digest in unvisited and parent_ref.round >= floor_round:
                        stack.append(self._store.get_ref(parent_ref))
            fresh.sort(key=lambda b: (b.round, b.author, b.digest))
            for block in fresh:
                already_output.add(block.digest)
            sequence.extend(fresh)
        return sequence
