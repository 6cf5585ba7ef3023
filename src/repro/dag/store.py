"""Equivocation-aware DAG storage.

The paper writes ``DAG[r, v]`` for the block(s) of round ``r`` authored
by validator ``v`` — plural because a Byzantine ``v`` may equivocate
(Appendix A).  The store therefore indexes blocks by digest, by
``(round, author)`` slot (a tuple, in arrival order), and by round.

The store only accepts blocks whose parents are all present, which
upholds the paper's rule that validators admit a block only after
downloading its entire causal history (Section 2.3).  Callers buffer
out-of-order arrivals (see :class:`~repro.core.protocol.MahiMahiCore`
and :mod:`repro.runtime.synchronizer`).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..block import Block, BlockRef, GENESIS_ROUND
from ..crypto.hashing import Digest
from ..errors import DuplicateBlockError, UnknownBlockError


class DagStore:
    """In-memory block store with slot- and round-level indexes."""

    def __init__(self) -> None:
        self._by_digest: dict[Digest, Block] = {}
        # round -> author -> blocks (arrival order; tuples, so that
        # ``slot_blocks`` hands them out uncopied).  Nesting small int
        # keys instead of keying by ``(round, author)`` tuples avoids
        # allocating and hashing a fresh tuple per slot probe in the
        # commit walk, and lets GC drop a whole round with one pop.
        self._by_slot: dict[int, dict[int, tuple[Block, ...]]] = {}
        self._by_round: dict[int, list[Block]] = {}
        # round -> materialized tuple of its blocks / frozenset of its
        # authors, built lazily by ``round_blocks`` / ``authors_at_round``
        # and dropped when the round gains a block / an author.
        self._round_tuples: dict[int, tuple[Block, ...]] = {}
        self._author_sets: dict[int, frozenset[int]] = {}
        self._highest_round = -1
        self._lowest_round = 0
        # State-transfer horizon: parents below this round count as
        # present (the committed history they anchor was adopted from a
        # checkpoint rather than fetched).  0 = normal operation.
        self._sync_floor = 0

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def add(self, block: Block) -> None:
        """Insert ``block`` if its causal history is complete.

        This is the one causal-completeness check of an insertion: a
        caller tries the insertion and learns what is missing from the
        refusal, rather than asking :meth:`missing_parents` first.

        Raises:
            DuplicateBlockError: A block with the same digest exists.
            UnknownBlockError: A parent is missing; its ``missing`` lists
                them all (as :meth:`missing_parents` would).
        """
        digest = block.digest
        by_digest = self._by_digest
        if digest in by_digest:
            raise DuplicateBlockError(f"block {block!r} already in store")
        absent = block.parent_digests.difference(by_digest)
        if absent:
            missing = self._missing_refs(block, absent)
            if missing:
                raise UnknownBlockError(
                    f"block {block!r} is missing {len(missing)} parent(s): {missing[:3]}",
                    tuple(missing),
                )
        by_digest[digest] = block
        round_number, author = block.round, block.author
        round_slots = self._by_slot.get(round_number)
        if round_slots is None:
            round_slots = self._by_slot[round_number] = {}
        if author not in round_slots:
            self._author_sets.pop(round_number, None)
        round_slots[author] = round_slots.get(author, ()) + (block,)
        self._by_round.setdefault(round_number, []).append(block)
        self._round_tuples.pop(round_number, None)
        if round_number > self._highest_round:
            self._highest_round = round_number

    def add_genesis(self, genesis: Iterable[Block]) -> None:
        """Insert the round-0 genesis blocks."""
        for block in genesis:
            if block.round != GENESIS_ROUND:
                raise UnknownBlockError(f"genesis block with round {block.round}")
            self.add(block)

    def missing_parents(self, block: Block) -> list[BlockRef]:
        """Parent references not present in the store.

        References below the state-transfer floor (see
        :meth:`adopt_floor`) are treated as present: their sub-DAGs are
        summarized by the adopted checkpoint and will never be fetched.
        """
        absent = block.parent_digests.difference(self._by_digest)
        return self._missing_refs(block, absent) if absent else []

    def _missing_refs(self, block: Block, absent: frozenset[Digest]) -> list[BlockRef]:
        """``block``'s references to the ``absent`` digests, in parent
        order, but for those below the state-transfer floor."""
        return [
            ref
            for ref in block.parents
            if ref.digest in absent and ref.round >= self._sync_floor
        ]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __contains__(self, digest: Digest) -> bool:
        return digest in self._by_digest

    def get(self, digest: Digest) -> Block:
        """Fetch a block by digest.

        Raises:
            UnknownBlockError: No block with this digest.
        """
        try:
            return self._by_digest[digest]
        except KeyError:
            raise UnknownBlockError(f"no block with digest {digest[:8].hex()}") from None

    def get_ref(self, ref: BlockRef) -> Block:
        """Fetch a block by reference (digest lookup)."""
        return self.get(ref.digest)

    def slot_blocks(self, round_number: int, author: int) -> tuple[Block, ...]:
        """All blocks at ``DAG[round, author]`` — several if equivocating."""
        round_slots = self._by_slot.get(round_number)
        if round_slots is None:
            return ()
        return round_slots.get(author, ())

    def round_blocks(self, round_number: int) -> tuple[Block, ...]:
        """All blocks of a round, in arrival order (``DAG[r, *]``).

        The tuple is memoized per round (the commit walk probes the same
        vote/certify rounds many times per sweep) and rebuilt when the
        round gains a block.
        """
        cached = self._round_tuples.get(round_number)
        if cached is not None:
            return cached
        blocks = self._by_round.get(round_number)
        if blocks is None:
            return ()
        result = self._round_tuples[round_number] = tuple(blocks)
        return result

    def authors_at_round(self, round_number: int) -> frozenset[int]:
        """Distinct authors with at least one block in the round
        (memoized like :meth:`round_blocks`)."""
        cached = self._author_sets.get(round_number)
        if cached is not None:
            return cached
        round_slots = self._by_slot.get(round_number)
        if round_slots is None:
            return frozenset()
        result = self._author_sets[round_number] = frozenset(round_slots)
        return result

    def num_authors_at_round(self, round_number: int) -> int:
        """Count of distinct authors at the round (quorum checks)."""
        return len(self._by_slot.get(round_number, ()))

    def num_blocks_at_round(self, round_number: int) -> int:
        """Count of blocks at the round, equivocating siblings included.
        Rounds only ever gain blocks, so an unchanged count means an
        unchanged round — the commit walk's evidence stamp."""
        return len(self._by_round.get(round_number, ()))

    @property
    def highest_round(self) -> int:
        """Highest round with at least one block (-1 when empty)."""
        return self._highest_round

    @property
    def lowest_round(self) -> int:
        """Lowest retained round (rises under garbage collection)."""
        return self._lowest_round

    def __len__(self) -> int:
        return len(self._by_digest)

    def __iter__(self) -> Iterator[Block]:
        return iter(self._by_digest.values())

    # ------------------------------------------------------------------
    # State transfer
    # ------------------------------------------------------------------
    @property
    def sync_floor(self) -> int:
        """The adopted state-transfer horizon (0 when none)."""
        return self._sync_floor

    def adopt_floor(self, round_number: int) -> None:
        """Adopt a state-transfer horizon: causal completeness is only
        enforced from ``round_number`` up.

        Used when restoring from a checkpoint: the history below the
        committed frontier is represented by the checkpoint's digests
        instead of actual blocks, so blocks whose parents are below the
        floor are accepted without them.  Monotonic (a later, higher
        horizon — e.g. learned from a peer's GC horizon — may replace a
        lower one, never the reverse).
        """
        self._sync_floor = max(self._sync_floor, round_number)
        self._lowest_round = max(self._lowest_round, round_number)

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    def prune_below(self, round_number: int) -> int:
        """Drop all blocks with round < ``round_number``.

        Only safe once every slot below ``round_number`` is finalized and
        linearized.  Returns the number of blocks removed.
        """
        removed = 0
        for r in range(self._lowest_round, round_number):
            for block in self._by_round.pop(r, ()):
                del self._by_digest[block.digest]
                removed += 1
            self._by_slot.pop(r, None)
            self._round_tuples.pop(r, None)
            self._author_sets.pop(r, None)
        self._lowest_round = max(self._lowest_round, round_number)
        return removed
