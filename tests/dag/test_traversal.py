"""Tests for Algorithm 3's helpers: VotedBlock/IsVote/IsCert/IsLink and
linearization."""

import pytest

from repro.committee import Committee
from repro.dag.traversal import DagTraversal

from ..helpers import DagBuilder, FixedCoin


@pytest.fixture
def setup():
    committee = Committee.of_size(4)
    builder = DagBuilder(committee, FixedCoin(n=4, threshold=3))
    traversal = DagTraversal(builder.store, committee.quorum_threshold)
    return builder, traversal


class TestVotedBlock:
    def test_finds_target_in_full_dag(self, setup):
        builder, traversal = setup
        builder.rounds(1, 4)
        leader = builder.get(2, 1)
        vote = builder.get(0, 4)
        assert traversal.voted_block(vote, 2, 1) == leader
        assert traversal.is_vote(vote, leader)

    def test_returns_none_when_target_absent(self, setup):
        builder, traversal = setup
        builder.round(1)
        # Round 2 avoids validator 3's block entirely.
        for author in range(4):
            builder.block(author, 2, parents=[(0, 1), (1, 1), (2, 1)])
        builder.round(3)
        vote = builder.get(0, 3)
        assert traversal.voted_block(vote, 3, 1) is None
        assert not traversal.is_vote(vote, builder.get(3, 1))

    def test_dfs_follows_parent_order(self, setup):
        """With equivocating targets reachable via different parents, the
        first parent chain in listed order wins (Observation 1)."""
        builder, traversal = setup
        a = builder.block(0, 1, tag="a")
        b = builder.block(0, 1, tag="b")
        builder.block(1, 1)
        builder.block(2, 1)
        # Two round-2 blocks, one preferring each sibling (the first,
        # "via a", is listed before the second in the vote's parents).
        builder.block(1, 2, parents=[(0, 1, "a"), (1, 1), (2, 1)])
        builder.block(2, 2, parents=[(0, 1, "b"), (1, 1), (2, 1)])
        # Round-3 block whose first parent chain leads to sibling a.
        vote = builder.block(3, 3, parents=[(1, 2), (2, 2), (1, 2)][:2] + [(2, 2)])
        found = traversal.voted_block(vote, 0, 1)
        assert found == a  # via_a listed before via_b
        assert traversal.is_vote(vote, a)
        assert not traversal.is_vote(vote, b)

    def test_target_round_at_or_above_start_is_none(self, setup):
        builder, traversal = setup
        builder.rounds(1, 2)
        block = builder.get(0, 1)
        assert traversal.voted_block(block, 1, 1) is None
        assert traversal.voted_block(block, 1, 5) is None

    def test_direct_parent_match(self, setup):
        builder, traversal = setup
        builder.round(1)
        child = builder.block(0, 2)
        assert traversal.voted_block(child, 3, 1) == builder.get(3, 1)

    def test_memoization_consistent_with_fresh_traversal(self, setup):
        builder, traversal = setup
        builder.rounds(1, 5)
        vote = builder.get(2, 5)
        first = traversal.voted_block(vote, 1, 1)
        fresh = DagTraversal(builder.store, 3).voted_block(vote, 1, 1)
        assert first == fresh
        assert traversal.voted_block(vote, 1, 1) == first  # cached path


class TestIsCert:
    def test_full_dag_certifies(self, setup):
        builder, traversal = setup
        builder.rounds(1, 5)
        leader = builder.get(0, 1)
        certifier = builder.get(1, 5)
        assert traversal.is_cert(certifier, leader)

    def test_insufficient_votes_not_cert(self, setup):
        builder, traversal = setup
        builder.rounds(1, 4)
        leader = builder.get(0, 1)
        # Certifier referencing only 2 vote-round blocks by distinct authors.
        certifier = builder.block(0, 5, parents=[(0, 4), (1, 4), (0, 4)][:2] + [(1, 4)])
        # parents [(0,4),(1,4)] + duplicate removal keeps 2 distinct authors
        assert not traversal.is_cert(certifier, leader)

    def test_cert_counts_distinct_authors_not_blocks(self, setup):
        builder, traversal = setup
        builder.rounds(1, 3)
        leader = builder.get(0, 1)
        # Author 0 equivocates twice in the vote round; a certifier
        # referencing both plus one other author has only 2 distinct.
        builder.block(0, 4, tag="a")
        builder.block(0, 4, tag="b")
        builder.block(1, 4)
        certifier = builder.block(
            2, 5, parents=[(0, 4, "a"), (0, 4, "b"), (1, 4)]
        )
        assert not traversal.is_cert(certifier, leader)

    def test_cert_cache_stable(self, setup):
        builder, traversal = setup
        builder.rounds(1, 5)
        leader = builder.get(0, 1)
        certifier = builder.get(1, 5)
        assert traversal.is_cert(certifier, leader)
        assert traversal.is_cert(certifier, leader)  # cached


class TestIsLink:
    def test_self_link(self, setup):
        builder, traversal = setup
        builder.round(1)
        block = builder.get(0, 1)
        assert traversal.is_link(block, block)

    def test_ancestor_link(self, setup):
        builder, traversal = setup
        builder.rounds(1, 4)
        assert traversal.is_link(builder.get(0, 1), builder.get(2, 4))

    def test_no_link_to_disjoint_block(self, setup):
        builder, traversal = setup
        builder.round(1)
        for author in range(4):
            builder.block(author, 2, parents=[(0, 1), (1, 1), (2, 1)])
        assert not traversal.is_link(builder.get(3, 1), builder.get(0, 2))

    def test_no_link_upward(self, setup):
        builder, traversal = setup
        builder.rounds(1, 2)
        assert not traversal.is_link(builder.get(0, 2), builder.get(0, 1))


class TestLinearize:
    def test_includes_full_causal_history_once(self, setup):
        builder, traversal = setup
        builder.rounds(1, 3)
        leader = builder.get(0, 3)
        output = set()
        sequence = traversal.linearize([leader], output)
        assert sequence[-1] == leader
        assert len(sequence) == len({b.digest for b in sequence})
        assert len(sequence) == 1 + 4 + 4 + 4  # leader + rounds 0..2

    def test_deterministic_order(self, setup):
        builder, traversal = setup
        builder.rounds(1, 3)
        leader = builder.get(0, 3)
        a = traversal.linearize([leader], set())
        b = DagTraversal(builder.store, 3).linearize([leader], set())
        assert a == b

    def test_order_respects_rounds(self, setup):
        builder, traversal = setup
        builder.rounds(1, 3)
        sequence = traversal.linearize([builder.get(0, 3)], set())
        rounds = [b.round for b in sequence]
        assert rounds == sorted(rounds)

    def test_second_leader_emits_only_new_blocks(self, setup):
        builder, traversal = setup
        builder.rounds(1, 4)
        output = set()
        first = traversal.linearize([builder.get(0, 3)], output)
        second = traversal.linearize([builder.get(1, 4)], output)
        emitted = {b.digest for b in first}
        assert all(b.digest not in emitted for b in second)
        # Round-4 leader adds its round-3 siblings and itself.
        assert {b.slot for b in second} == {(3, 1), (3, 2), (3, 3), (4, 1)}

    def test_already_output_leader_skipped(self, setup):
        builder, traversal = setup
        builder.rounds(1, 3)
        leader = builder.get(0, 3)
        output = set()
        traversal.linearize([leader], output)
        assert traversal.linearize([leader], output) == []

    def test_floor_round_prunes(self, setup):
        builder, traversal = setup
        builder.rounds(1, 3)
        sequence = traversal.linearize([builder.get(0, 3)], set(), floor_round=2)
        assert min(b.round for b in sequence) == 2


class TestCacheManagement:
    def test_invalidate_below_drops_stale_targets(self, setup):
        builder, traversal = setup
        builder.rounds(1, 5)
        traversal.voted_block(builder.get(0, 5), 1, 1)
        traversal.voted_block(builder.get(0, 5), 1, 3)
        assert traversal.cache_stats()["vote_targets"] == 2
        dropped = traversal.invalidate_below(3)
        assert dropped > 0
        assert traversal.cache_stats()["vote_targets"] == 1

    def test_invalidate_below_drops_stale_cert_rounds(self, setup):
        builder, traversal = setup
        builder.rounds(1, 5)
        leader_low = builder.get(0, 1)
        leader_high = builder.get(0, 4)
        traversal.is_cert(builder.get(1, 3), leader_low)
        traversal.is_cert(builder.get(1, 5), leader_high)
        assert traversal.cache_stats()["cert_rounds"] == 2
        traversal.invalidate_below(3)
        assert traversal.cache_stats()["cert_rounds"] == 1
        # The surviving round is the high one.
        assert traversal.cache_stats()["cert_entries"] >= 1

    def test_invalidate_above_drops_high_cert_rounds_only(self, setup):
        builder, traversal = setup
        builder.rounds(1, 5)
        traversal.is_cert(builder.get(1, 3), builder.get(0, 1))
        traversal.is_cert(builder.get(1, 5), builder.get(0, 4))
        traversal.voted_block(builder.get(0, 5), 1, 1)
        before = traversal.memo_size()
        targets_before = traversal.cache_stats()["vote_targets"]
        dropped = traversal.invalidate_above(4)
        assert dropped > 0
        assert traversal.memo_size() == before - dropped
        # Vote memos are committee-independent and survive.
        assert traversal.cache_stats()["vote_targets"] == targets_before
        assert traversal.cache_stats()["cert_rounds"] == 1

    def test_memo_size_counts_vote_and_cert_entries(self, setup):
        builder, traversal = setup
        builder.rounds(1, 5)
        assert traversal.memo_size() == 0
        traversal.voted_block(builder.get(0, 5), 1, 1)
        traversal.is_cert(builder.get(1, 5), builder.get(0, 4))
        stats = traversal.cache_stats()
        assert traversal.memo_size() == stats["vote_entries"] + stats["cert_entries"]
        traversal.invalidate_above(0)
        assert traversal.cache_stats()["cert_rounds"] == 0
