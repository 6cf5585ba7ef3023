"""Tests for :mod:`repro.dag.store`."""

import tracemalloc

import pytest

from repro.block import Block, make_genesis
from repro.committee import Committee
from repro.dag import store as store_module
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
        single = builder.block(1, 2)
        siblings = [builder.block(0, 2, tag=tag) for tag in ("c", "a", "b")]
        assert builder.store.slot_blocks(2, 0) == tuple(siblings)
        assert builder.store.slot_blocks(2, 1) == (single,)
        assert builder.store.slot_blocks(2, 2) == ()

    def test_round_index_in_arrival_order(self, builder):
        blocks = builder.round(1)
        assert list(builder.store.round_blocks(1)) == blocks

    def test_authors_at_round_deduplicates_equivocations(self, builder):
        builder.round(1)
        for tag in ("a", "b", "c"):
            builder.block(0, 2, tag=tag)
        assert builder.store.authors_at_round(2) == frozenset({0})
        assert builder.store.num_authors_at_round(2) == 1
        builder.block(3, 2)
        assert sorted(builder.store.authors_at_round(2)) == [0, 3]
        assert len(builder.store.authors_at_round(2)) == 2
        assert builder.store.num_authors_at_round(2) == 2
        assert builder.store.num_blocks_at_round(2) == 4

    def test_the_authors_view_is_live(self, builder):
        """``authors_at_round`` is a view of the round's slots: a kept
        view shows an author the moment its first block is added, and
        every round with no blocks reads one shared empty view."""
        builder.round(1)
        builder.block(2, 2)
        view = builder.store.authors_at_round(2)
        assert set(view) == {2} and 1 not in view
        builder.block(1, 2)
        assert 1 in view and set(view) == {1, 2}
        empty = builder.store.authors_at_round(9)
        assert len(empty) == 0 and 0 not in empty
        assert builder.store.authors_at_round(10) is empty

    def test_a_dag_of_single_blocks_holds_no_container_per_block(self):
        """Inserting a 50-author x 20-round DAG of single blocks leaves
        the store's own allocations per round, not per block: 66 live
        allocations made in ``dag/store.py`` for 1,050 blocks (the slot
        and round dicts and lists, the digest index), where a one-block
        tuple per slot held 1,116.  The bound sits between the two."""
        source = DagBuilder(Committee.of_size(50), FixedCoin(n=50, threshold=34))
        source.rounds(1, 20)
        blocks = list(source.store)  # digests and parent sets already derived
        store = DagStore()
        tracemalloc.start()
        try:
            for block in blocks:
                store.add(block)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        mine = snapshot.filter_traces([tracemalloc.Filter(True, store_module.__file__)])
        held = sum(stat.count for stat in mine.statistics("filename"))
        assert len(blocks) == 1050 and len(store) == 1050
        assert held < len(blocks) // 10

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
        builder.rounds(1, 2)
        builder.block(0, 2, tag="twin")
        builder.rounds(3, 6)
        removed = builder.store.prune_below(3)
        assert removed == 13  # rounds 0,1,2 and the twin
        assert builder.store.lowest_round == 3
        assert builder.store.round_blocks(2) == ()
        for r in (1, 2):
            assert builder.store.slot_blocks(r, 0) == ()
            assert len(builder.store.authors_at_round(r)) == 0
            assert builder.store.num_authors_at_round(r) == 0
        assert len(builder.store.authors_at_round(3)) == 4
        assert builder.store.slot_blocks(3, 0) == (builder.get(0, 3),)

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
