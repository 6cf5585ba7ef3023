"""Tests for :mod:`repro.dag.store`."""

import pytest

from repro.block import Block, make_genesis
from repro.committee import Committee
from repro.dag.store import DagStore
from repro.errors import DuplicateBlockError, UnknownBlockError

from ..helpers import DagBuilder, FixedCoin


@pytest.fixture
def builder():
    committee = Committee.of_size(4)
    return DagBuilder(committee, FixedCoin(n=4, threshold=3))


class TestInsertion:
    def test_duplicate_digest_rejected(self, builder):
        block = builder.get(0, 0)
        with pytest.raises(DuplicateBlockError):
            builder.store.add(block)

    def test_missing_parents_rejected(self):
        store = DagStore()
        genesis = make_genesis(4)
        orphan = Block(author=0, round=1, parents=(genesis[0].reference,))
        with pytest.raises(UnknownBlockError):
            store.add(orphan)

    def test_missing_parents_listed(self):
        store = DagStore()
        genesis = make_genesis(4)
        store.add(genesis[0])
        block = Block(author=0, round=1, parents=tuple(b.reference for b in genesis))
        missing = store.missing_parents(block)
        assert {ref.author for ref in missing} == {1, 2, 3}

    def test_missing_parents_equals_the_per_reference_scan(self, builder):
        """The set difference answers the common case; the answer is
        always the scan's — absent and at or above the state-transfer
        floor, in parent order — under a raised floor and after pruning
        (pruned rounds lie below no floor: their blocks are missing).
        An insertion's refusal lists the same references, and a block
        whose only absent parents lie below the floor enters."""

        def scan(store, block):
            return [
                ref
                for ref in block.parents
                if ref.digest not in store and ref.round >= store.sync_floor
            ]

        def refusal(store, block):
            with pytest.raises(UnknownBlockError) as caught:
                store.add(block)
            assert block.digest not in store
            return list(caught.value.missing)

        builder.rounds(1, 6)
        store = builder.store
        unknown = Block(author=3, round=5, parents=(builder.ref(3, 4),), salt=b"never stored")
        probe = Block(
            author=0,
            round=7,
            parents=(
                builder.ref(0, 6),
                builder.ref(1, 2),
                unknown.reference,
                builder.ref(2, 6),
                builder.ref(3, 1),
                builder.ref(0, 0),
            ),
        )
        complete = Block(author=1, round=7, parents=tuple(builder.ref(a, 6) for a in range(4)))
        assert store.missing_parents(complete) == []
        assert store.missing_parents(probe) == scan(store, probe) == [unknown.reference]
        assert refusal(store, probe) == [unknown.reference]
        store.prune_below(3)
        assert store.missing_parents(probe) == scan(store, probe) == refusal(store, probe)
        assert [ref.round for ref in store.missing_parents(probe)] == [2, 5, 1, 0]
        store.adopt_floor(2)
        assert store.missing_parents(probe) == scan(store, probe) == refusal(store, probe)
        assert [ref.round for ref in store.missing_parents(probe)] == [2, 5]
        store.adopt_floor(6)
        assert store.missing_parents(probe) == scan(store, probe) == []
        assert store.missing_parents(complete) == []
        store.add(probe)  # every absent parent lies below the floor
        store.add(complete)
        assert probe.digest in store and complete.digest in store

    def test_genesis_must_be_round_zero(self):
        store = DagStore()
        with pytest.raises(UnknownBlockError):
            store.add_genesis([Block(author=0, round=1, parents=())])


class TestIndexes:
    def test_lookup_by_digest(self, builder):
        block = builder.block(1, 1)
        assert builder.store.get(block.digest) == block
        assert block.digest in builder.store

    def test_unknown_digest_raises(self, builder):
        with pytest.raises(UnknownBlockError):
            builder.store.get(b"\x00" * 32)

    def test_slot_index_holds_equivocations(self, builder):
        builder.round(1)
        a = builder.block(0, 2, tag="a")
        b = builder.block(0, 2, tag="b")
        slot = builder.store.slot_blocks(2, 0)
        assert set(slot) == {a, b}

    def test_round_index_in_arrival_order(self, builder):
        blocks = builder.round(1)
        assert list(builder.store.round_blocks(1)) == blocks

    def test_authors_at_round_deduplicates_equivocations(self, builder):
        builder.round(1)
        builder.block(0, 2, tag="a")
        builder.block(0, 2, tag="b")
        assert builder.store.authors_at_round(2) == frozenset({0})
        assert builder.store.num_authors_at_round(2) == 1

    def test_highest_round_tracks_inserts(self, builder):
        assert builder.store.highest_round == 0
        builder.rounds(1, 3)
        assert builder.store.highest_round == 3

    def test_len_and_iteration(self, builder):
        builder.rounds(1, 2)
        assert len(builder.store) == 12  # 4 genesis + 2 rounds x 4
        assert len(list(builder.store)) == 12

    def test_empty_round_queries(self, builder):
        assert builder.store.round_blocks(9) == ()
        assert builder.store.slot_blocks(9, 0) == ()
        assert builder.store.authors_at_round(9) == frozenset()


class TestGarbageCollection:
    def test_prune_below_removes_blocks(self, builder):
        builder.rounds(1, 6)
        removed = builder.store.prune_below(3)
        assert removed == 12  # rounds 0,1,2
        assert builder.store.lowest_round == 3
        assert builder.store.round_blocks(2) == ()
        assert builder.store.num_authors_at_round(1) == 0

    def test_prune_keeps_upper_rounds(self, builder):
        builder.rounds(1, 6)
        kept = builder.get(2, 5)
        builder.store.prune_below(4)
        assert builder.store.get(kept.digest) == kept

    def test_prune_is_idempotent(self, builder):
        builder.rounds(1, 4)
        builder.store.prune_below(2)
        assert builder.store.prune_below(2) == 0

    def test_prune_never_lowers_floor(self, builder):
        builder.rounds(1, 4)
        builder.store.prune_below(3)
        builder.store.prune_below(1)
        assert builder.store.lowest_round == 3
