"""Tests for Algorithm 3's helpers: VotedBlock/IsVote/IsCert/IsLink and
linearization."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.block import Block, make_genesis
from repro.committee import Committee, CommitteeSchedule
from repro.dag.store import DagStore
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


class TestWhoOwnsTheMemos:
    """What a block votes for and what a certifier's parents support live
    on the block; a certificate is read off the support memo each time it
    is asked, against the committee of the leader's round, so the
    traversal keeps nothing of its own to count or drop."""

    def test_voted_block_fills_the_blocks_memo(self, setup):
        builder, traversal = setup
        builder.rounds(1, 5)
        start = builder.get(0, 5)
        traversal.voted_block(start, 1, 1)
        traversal.voted_block(start, 1, 3)
        assert start.voted == {
            (1, 1): builder.get(1, 1).digest,
            (1, 3): builder.get(1, 3).digest,
        }

    def test_is_cert_reads_the_certifiers_support(self, setup):
        builder, traversal = setup
        builder.rounds(1, 5)
        certifier, leader = builder.get(1, 5), builder.get(0, 3)
        assert traversal.is_cert(certifier, leader)
        assert certifier.support == {(0, 3): {leader.digest: 0b1111}}
        assert traversal.support(certifier, (0, 3)) is certifier.support[0, 3]
        # A second traversal over the same blocks reads the same memo.
        assert DagTraversal(builder.store, 3).is_cert(certifier, leader)
        assert certifier.support == {(0, 3): {leader.digest: 0b1111}}

    def test_a_scheduled_epoch_moves_the_verdict_without_an_invalidation(self):
        """The same certifier and leader, judged before and after an
        epoch that raises the leader round's quorum and drops a voter:
        the verdict follows the schedule at once, and the support memo
        it is read from stays as it was."""
        schedule = CommitteeSchedule(Committee.of_size(4), provisioned=7)
        builder = DagBuilder(Committee.of_size(4), FixedCoin(n=4, threshold=3))
        traversal = DagTraversal(
            builder.store, schedule.quorum_threshold, membership=schedule.committee_at
        )
        builder.rounds(1, 5)
        certifier, leader = builder.get(1, 5), builder.get(0, 3)
        assert traversal.is_cert(certifier, leader)
        assert traversal.is_cert(builder.get(1, 3), builder.get(0, 1))
        support = dict(certifier.support)
        schedule.schedule_epoch(3, Committee.of_size(7))  # quorum 5 from round 3
        assert not traversal.is_cert(certifier, leader)
        assert traversal.is_cert(builder.get(1, 3), builder.get(0, 1))  # below the epoch
        assert certifier.support == support

    def test_the_traversal_keeps_no_memo(self, setup):
        builder, traversal = setup
        builder.rounds(1, 5)
        before = dict(vars(traversal))
        for certifier in builder.store.round_blocks(5):
            for leader in builder.store.round_blocks(2):
                assert traversal.is_cert(certifier, leader)
        assert vars(traversal) == before


# ----------------------------------------------------------------------
# IsCert against Algorithm 3, one parent reference at a time
# ----------------------------------------------------------------------
def reference_voted_block(store, start, author, round_number, memo):
    """``VotedBlock``: depth-first, parents in their listed order."""
    if start.round <= round_number:
        return None
    if start.digest not in memo:
        memo[start.digest] = None
        for ref in start.parents:
            if (ref.author, ref.round) == (author, round_number):
                memo[start.digest] = store.get_ref(ref)
                break
            if ref.round > round_number:
                found = reference_voted_block(
                    store, store.get_ref(ref), author, round_number, memo
                )
                if found is not None:
                    memo[start.digest] = found
                    break
    return memo[start.digest]


def reference_is_cert(store, certifier, leader, quorum, is_member=None):
    """``IsCert`` the way :meth:`DagTraversal.is_cert` computed it before
    it treated the parents as a set: walk the certifier's parent
    references, fetch each one above the leader's round — and only
    those — resolve its vote, and collect the authors of the votes for
    ``leader`` that the leader round's committee counts."""
    voting_authors = set()
    memo = {}
    for ref in certifier.parents:
        if ref.round <= leader.round:
            continue
        voted = reference_voted_block(
            store, store.get_ref(ref), leader.author, leader.round, memo
        )
        if (
            voted is not None
            and voted.digest == leader.digest
            and (is_member is None or is_member(ref.author))
        ):
            voting_authors.add(ref.author)
    return len(voting_authors) >= quorum


def tangled_dag(rng, authors, rounds):
    """Blocks of a random DAG in creation order.  A third of the slots
    fork; a block references its author's previous block, a random
    quorum-or-more of the previous round — both siblings of a fork as
    readily as one — and now and then blocks of any older round, the
    genesis included."""
    by_round = [list(make_genesis(len(authors)))]
    blocks = []
    for round_number in range(1, rounds + 1):
        previous = by_round[-1]
        current = []
        for author in authors:
            for fork in range(2 if rng.random() < 0.33 else 1):
                own = [b for b in previous if b.author == author]
                picked = rng.sample(previous, rng.randint(len(authors) * 2 // 3, len(previous)))
                older = [
                    rng.choice(rng.choice(by_round[:-1]))
                    for _ in range(rng.randint(0, 2) if round_number > 1 else 0)
                ]
                parents = dict.fromkeys(b.reference for b in own[:1] + picked + older)
                block = Block(
                    author=author, round=round_number, parents=tuple(parents), salt=b"f" * fork
                )
                current.append(block)
                blocks.append(block)
        by_round.append(current)
    return blocks


def assert_is_cert_matches_reference(rng, store, traversal, quorum_at, member_at, wave):
    """Every (certify-round block, candidate) pair, in a random order
    (the memos fill differently each time), then again off the memos."""
    by_round = {}
    for block in store:
        by_round.setdefault(block.round, []).append(block)
    pairs = [
        (certifier, leader)
        for leader in store
        if leader.round >= max(1, store.sync_floor)
        for certifier in by_round.get(leader.round + wave - 1, ())
    ]
    rng.shuffle(pairs)
    expected = {
        (certifier.digest, leader.digest): reference_is_cert(
            store, certifier, leader, quorum_at(leader.round), member_at(leader.round)
        )
        for certifier, leader in pairs
    }
    for _ in range(2):
        for certifier, leader in pairs:
            assert traversal.is_cert(certifier, leader) == expected[certifier.digest, leader.digest]
    return expected


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([4, 7]), st.sampled_from([4, 5]))
def test_is_cert_matches_the_per_reference_loop(seed, n, wave):
    rng = random.Random(seed)
    committee = Committee.of_size(n)
    store = DagStore()
    store.add_genesis(make_genesis(n))
    blocks = tangled_dag(rng, range(n), 3 * wave)
    for block in blocks:
        store.add(block)
    expected = assert_is_cert_matches_reference(
        rng,
        store,
        DagTraversal(store, committee.quorum_threshold),
        lambda r: committee.quorum_threshold,
        lambda r: None,
        wave,
    )
    assert any(expected.values()) and not all(expected.values())

    # The same DAG behind a raised state-transfer floor: parents below
    # it are absent, and none is ever fetched (a fetch would raise).
    floor = rng.randint(2, wave)
    floored = DagStore()
    floored.adopt_floor(floor)
    for block in blocks:
        if block.round >= floor:
            floored.add(block)
    assert any(ref.digest not in floored for block in floored for ref in block.parents)
    assert_is_cert_matches_reference(
        rng,
        floored,
        DagTraversal(floored, committee.quorum_threshold),
        lambda r: committee.quorum_threshold,
        lambda r: None,
        wave,
    )


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([4, 5]))
def test_is_cert_counts_only_the_leader_rounds_committee(seed, wave):
    """Five validators write every round while the committee goes
    4 -> 5 -> 4: validator 4's votes count for leaders of the middle
    epoch only, and the quorum moves with the leader's round."""
    rng = random.Random(seed)
    schedule = CommitteeSchedule(Committee.of_size(4), provisioned=5)
    schedule.schedule_epoch(wave + 1, Committee.of_size(5))
    schedule.schedule_epoch(2 * wave + 2, Committee.of_size(4))
    store = DagStore()
    store.add_genesis(make_genesis(5))
    for block in tangled_dag(rng, range(5), 4 * wave):
        store.add(block)
    traversal = DagTraversal(store, schedule.quorum_threshold, membership=schedule.committee_at)
    assert_is_cert_matches_reference(
        rng,
        store,
        traversal,
        schedule.quorum_threshold,
        lambda r: schedule.committee_at(r).is_member,
        wave,
    )


def test_two_blocks_of_one_author_voting_for_the_leader_are_one_vote():
    """Both siblings of an equivocating voter vote for the leader and
    the certifier references both: with a third author that is two
    votes, short of the quorum of three — and a quorum once a third
    author's vote joins them."""
    committee = Committee.of_size(4)
    builder = DagBuilder(committee, FixedCoin(n=4, threshold=3))
    traversal = DagTraversal(builder.store, committee.quorum_threshold)
    builder.rounds(1, 3)
    leader = builder.get(0, 1)
    for tag in ("a", "b"):
        assert traversal.is_vote(builder.block(0, 4, tag=tag), leader)
    builder.block(1, 4)
    builder.block(2, 4)
    two_authors = builder.block(2, 5, parents=[(0, 4, "a"), (0, 4, "b"), (1, 4)])
    three_authors = builder.block(
        3, 5, parents=[(0, 4, "a"), (0, 4, "b"), (1, 4), (2, 4)]
    )
    for certifier, expected in ((two_authors, False), (three_authors, True)):
        assert traversal.is_cert(certifier, leader) is expected
        assert reference_is_cert(builder.store, certifier, leader, 3) is expected


# ----------------------------------------------------------------------
# LinearizeSubDags against the loop over every parent reference
# ----------------------------------------------------------------------
def reference_linearize(store, leaders, already_output, floor_round=0):
    """``LinearizeSubDags`` the way :meth:`DagTraversal.linearize` walked
    it before it read the parents as a set: every reference of every
    fresh block is probed against the floor, this leader's visited set
    and what was already output."""
    sequence = []
    for leader in leaders:
        if leader.digest in already_output:
            continue
        fresh = []
        stack = [leader]
        seen = {leader.digest}
        while stack:
            block = stack.pop()
            fresh.append(block)
            for ref in block.parents:
                if ref.round < floor_round or ref.digest in seen or ref.digest in already_output:
                    continue
                seen.add(ref.digest)
                stack.append(store.get_ref(ref))
        fresh.sort(key=lambda b: (b.round, b.author, b.digest))
        already_output.update(block.digest for block in fresh)
        sequence.extend(fresh)
    return sequence


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([4, 7]), st.integers(0, 6))
def test_linearize_matches_the_per_reference_loop(seed, n, floor):
    """A tangled DAG with forks (both siblings of a fork get referenced)
    behind a floor that cuts off some parents — the skipped-over older
    references first of all — linearized a few leaders per call, of any
    round and in any order, with ``already_output`` carried from call to
    call: same blocks, same order, same set at the end."""
    rng = random.Random(seed)
    store = DagStore()
    if floor:
        store.adopt_floor(floor)
    else:
        store.add_genesis(make_genesis(n))
    for block in tangled_dag(rng, range(n), 14):
        if block.round >= floor:
            store.add(block)
    if floor:
        assert any(ref.digest not in store for block in store for ref in block.parents)
    traversal = DagTraversal(store, Committee.of_size(n).quorum_threshold)
    candidates = [block for block in store if block.round > floor]
    ours, expected = set(), set()
    emitted = 0
    for _ in range(8):
        leaders = rng.sample(candidates, rng.randint(1, 4))
        if rng.random() < 0.5:
            leaders.sort(key=lambda b: b.round)
        leaders.append(leaders[0])  # already output by the time it comes up
        # At the store's lowest round, or above parents it still holds.
        floor_round = store.lowest_round + rng.choice([0, 0, 1, 3])
        sequence = traversal.linearize(leaders, ours, floor_round=floor_round)
        assert sequence == reference_linearize(store, leaders, expected, floor_round)
        assert ours == expected
        emitted += len(sequence)
    assert emitted == len(ours) > n
