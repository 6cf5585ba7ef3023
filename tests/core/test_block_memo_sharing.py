"""Sharing a block's vote memos between validators is unobservable.

``VotedBlock`` and a certifier's support are kept on the
:class:`~repro.block.Block` they describe (``Block.voted`` /
``Block.support``), so every validator holding the same block *object*
— all of a simulation's — shares one answer, filled in by whoever asked
first, over whatever that validator's store held at the time.  The
oracle is the same code with nothing shared: validators fed a private
copy of every block (``Block.decode(block.encode())`` or
``dataclasses.replace``, alternately), each of which searches for
itself.  Under the scenarios of ``test_committer_incremental.py``
(``n`` in {4, 7, 10}, ``w`` in {4, 5}, equivocators, stragglers), across
epoch activations, garbage collection and a checkpoint adoption, the two
must classify every slot alike after every insertion and commit the
same sequence.

A committed leader carries its linearization too, keyed by the commit
chain before it and the store's floor.  Validators on one chain with
different GC floors, a checkpoint adopter that prunes to its peers'
floor, and ledgers on two chains over one floor each commit what a twin
fed private copies commits; a key without the floor fails the first, a
key without the chain the last.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.block import Block, make_genesis
from repro.committee import Committee, CommitteeSchedule
from repro.config import ProtocolConfig
from repro.core.committer import Committer
from repro.core.protocol import MahiMahiCore
from repro.crypto.coin import FastCoin
from repro.dag.store import DagStore
from repro.dag.traversal import DagTraversal
from repro.errors import UnknownBlockError

from ..dag.test_traversal import reference_is_cert, reference_voted_block, tangled_dag
from ..helpers import DagBuilder, FixedCoin, record_commits
from ..statesync.test_checkpoint import drive_rounds, make_core
from .commit_walk import _StreamCoin, build_epoch_resize_stream
from .test_committer_incremental import (
    build_scenario,
    causal_order,
    random_dag,
    scenarios,
    sequence_view,
)


def private_copy(block: Block, index: int = 0) -> Block:
    """An equal block that shares no memo with ``block``."""
    if index % 2:
        return Block.decode(block.encode())[0]
    return dataclasses.replace(block)


def by_round(blocks) -> dict[int, list[Block]]:
    grouped: dict[int, list[Block]] = {}
    for block in blocks:
        grouped.setdefault(block.round, []).append(block)
    return grouped


def statuses_view(committer: Committer) -> list:
    return [
        (status.slot, status.decision, status.direct, status.block and status.block.digest)
        for status in committer.slot_statuses()
    ]


# ----------------------------------------------------------------------
# (a) shared objects against private copies
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(scenarios())
def test_validators_sharing_blocks_decide_what_private_copies_decide(scenario):
    """Three validators receive the same blocks in three different causal
    orders — so the one that fills a memo in holds a different part of
    the DAG each time — once as shared objects, once as private copies."""
    _, order, make_committer, _ = build_scenario(scenario)
    n = scenario["n"]
    rng = random.Random(scenario["seed"])
    stragglers = {block.author for block in order[-2:]}
    orders = [order] + [causal_order(rng, n, order, stragglers, lag) for lag in (0, 3)]

    def validator():
        own = DagStore()
        own.add_genesis(make_genesis(n))
        return own, make_committer(over=own), []

    sharing = [validator() for _ in orders]
    private = [validator() for _ in orders]
    for step in range(len(order)):
        for blocks, shared, alone in zip(orders, sharing, private):
            block = blocks[step]
            shared[0].add(block)
            alone[0].add(private_copy(block, step))
            assert statuses_view(shared[1]) == statuses_view(alone[1])
            shared[2].extend(shared[1].extend_commit_sequence())
            alone[2].extend(alone[1].extend_commit_sequence())
            assert sequence_view(shared[2]) == sequence_view(alone[2])
    assert any(block.voted for block in order)
    assert not any(copy.voted or copy.support for copy in map(private_copy, order))


@pytest.mark.parametrize("chunks", [(1, 30), (9, 4)])
def test_sharing_across_epoch_activations(chunks):
    """The committee goes 4 -> 5 -> 4 mid-stream; the blocks arrive with
    the memos the stream's builder filled in under its own schedule, and
    two validators extending at different cadences share them further."""
    stream = build_epoch_resize_stream(
        genesis_size=4, provisioned=5, rounds=36, lag=6, txs_per_block=1
    )
    blocks = [block for round_blocks in stream.rounds for block in round_blocks]
    assert any(block.voted for block in blocks) and any(block.support for block in blocks)
    config = ProtocolConfig(wave_length=5, leaders_per_round=1, reconfig_activation_lag=6)

    def validator():
        store = DagStore()
        store.add_genesis(make_genesis(stream.genesis_size))
        schedule = CommitteeSchedule(
            Committee.of_size(stream.genesis_size), provisioned=stream.provisioned
        )
        return store, Committer(store, schedule, _StreamCoin(), config), []

    sharing = [validator() for _ in chunks]
    private = [validator() for _ in chunks]
    for index, block in enumerate(blocks, start=1):
        for chunk, shared, alone in zip(chunks, sharing, private):
            shared[0].add(block)
            alone[0].add(private_copy(block, index))
            if index % chunk == 0 or index == len(blocks):
                shared[2].extend(shared[1].extend_commit_sequence())
                alone[2].extend(alone[1].extend_commit_sequence())
                assert sequence_view(shared[2]) == sequence_view(alone[2])
            if index % 7 == 0:
                assert statuses_view(shared[1]) == statuses_view(alone[1])
    for shared, alone in zip(sharing, private):
        assert len(shared[1].schedule.epochs()) == len(alone[1].schedule.epochs()) == 3
        assert len(shared[2]) > 20


@pytest.mark.parametrize("seed", range(3))
def test_sharing_across_garbage_collection(seed):
    """A pruning and a keeping core share every block; a second pair
    holds private copies.  The pruning one drops ancestors whose
    descendants' memos the keeping one goes on reading."""
    rng = random.Random(seed)
    n, rounds, depth = 7, 40, 6
    committee = Committee.of_size(n)
    coin = FastCoin(seed=b"incremental", n=n, threshold=committee.quorum_threshold)
    blocks = random_dag(rng, coin, n, 5, rounds, {rng.randrange(n): 9}, {rng.randrange(n)}, set())

    def cores():
        return [
            MahiMahiCore(
                0,
                committee,
                ProtocolConfig(wave_length=5, leaders_per_round=2, garbage_collection_depth=gc_depth),
                coin,
            )
            for gc_depth in (depth, 0)
        ]

    sharing, private = cores(), cores()
    commits = {core: record_commits(core) for core in sharing + private}
    for index, block in enumerate(causal_order(rng, n, blocks, set(), 0)):
        for shared, alone in zip(sharing, private):
            assert shared.add_block(block).accepted
            assert alone.add_block(private_copy(block, index)).accepted
            assert statuses_view(shared.committer) == statuses_view(alone.committer)
            shared.try_commit()
            alone.try_commit()
            assert sequence_view(commits[shared]) == sequence_view(commits[alone])
    assert sharing[0].store.lowest_round > rounds - 3 * depth
    assert sequence_view(commits[sharing[0]]) == sequence_view(commits[sharing[1]])


def test_sharing_with_a_checkpoint_adopter():
    """An adopter behind a state-transfer floor is fed the very objects
    its peers — which hold the whole history — already searched, or
    private copies it has to search over its floored store: the same
    slots settle the same way."""
    cores = [make_core(i, interval=2) for i in range(4)]
    drive_rounds(cores, 40)
    source = cores[0]
    checkpoint = source.committer.ledger.checkpoints[0]
    suffix = sorted(
        (block for block in source.store if block.round >= checkpoint.floor),
        key=lambda block: block.round,
    )
    assert checkpoint.floor > 0 and any(block.voted for block in suffix)
    shared, alone = make_core(3, interval=2), make_core(3, interval=2)
    ours, theirs = record_commits(shared), record_commits(alone)
    for adopter in (shared, alone):
        adopter.adopt_checkpoint(checkpoint)
    for index, block in enumerate(suffix):
        assert shared.add_block(block).accepted
        assert alone.add_block(private_copy(block, index)).accepted
        assert statuses_view(shared.committer) == statuses_view(alone.committer)
        shared.try_commit()
        alone.try_commit()
        assert sequence_view(ours) == sequence_view(theirs)
    assert len(ours) > 10


def straggling_dag(shunned: range, rounds: int) -> list[Block]:
    """Lockstep blocks of four validators, but for the rounds in
    ``shunned``: there only validator 3's own next block names its
    block, so its chain through them is in no committed history until
    round ``shunned.stop`` names it again."""
    committee = Committee.of_size(4)
    builder = DagBuilder(
        committee, FastCoin(seed=b"ckpt-test", n=4, threshold=committee.quorum_threshold)
    )
    blocks = []
    for r in range(1, rounds + 1):
        for author in range(4):
            peers = range(4) if r - 1 not in shunned or author == 3 else range(3)
            blocks.append(builder.block(author, r, [(a, r - 1) for a in peers]))
    return blocks


@pytest.mark.parametrize("depths", [(4, 8, 0), (0, 8, 4)])
def test_sharing_across_different_gc_horizons(depths):
    """Three validators prune at three depths, and validator 3's chain
    through rounds 4-14 straggles between their horizons: the leader of
    round 15, which names it, reaches it down to a different floor at
    each.  They commit on one chain up to that leader, so the floor alone
    tells their linearizations apart (``depths`` sets who commits first,
    and so who fills the memo in); each matches its private twin."""
    blocks = straggling_dag(range(4, 15), 30)
    sharing = [make_core(0, gc=depth) for depth in depths]
    private = [make_core(0, gc=depth) for depth in depths]
    commits = {core: record_commits(core) for core in sharing + private}
    for index, block in enumerate(blocks):
        for shared, alone in zip(sharing, private):
            assert shared.add_block(block).accepted
            assert alone.add_block(private_copy(block, index)).accepted
            shared.try_commit()
            alone.try_commit()
            assert sequence_view(commits[shared]) == sequence_view(commits[alone])
    # The straggler's chain went below two of the three floors, so the
    # three sequences part at that leader.
    counts = {
        depth: core.committer.committed_sequence_length for depth, core in zip(depths, sharing)
    }
    assert counts[0] > counts[8] > counts[4]


def test_sharing_with_a_checkpoint_adopter_on_its_peers_floor():
    """Peers prune at depth 6 and capture a checkpoint every two rounds,
    whose floor is their own GC horizon; an adopter that catches up
    prunes to the same floor on the same chain, so it takes the peers'
    linearizations off the leaders instead of recomputing them, and
    still commits what a twin fed private copies commits."""
    cores = [make_core(i, gc=6, interval=2) for i in range(4)]
    drive_rounds(cores, 30)
    source = cores[0]
    checkpoint = source.committer.ledger.checkpoints[-1]
    assert checkpoint.floor == source.store.lowest_round > 0
    shared, alone = make_core(3, gc=6, interval=2), make_core(3, gc=6, interval=2)
    ours, theirs = record_commits(shared), record_commits(alone)
    computed = []
    linearize = shared.committer.traversal.linearize

    def counting_linearize(*args, **kwargs):
        computed.append(args[0])
        return linearize(*args, **kwargs)

    shared.committer.traversal.linearize = counting_linearize
    for adopter in (shared, alone):
        adopter.adopt_checkpoint(checkpoint)
    suffix = sorted(
        (block for block in source.store if block.round >= checkpoint.floor),
        key=lambda block: block.round,
    )
    index = 0
    for step in range(21):
        if step:  # the peers commit the next round first, and the adopter follows
            drive_rounds(cores, 1)
            suffix = source.store.round_blocks(source.store.highest_round)
        for block in suffix:
            assert shared.add_block(block).accepted
            assert alone.add_block(private_copy(block, index)).accepted
            index += 1
            shared.try_commit()
            alone.try_commit()
            assert sequence_view(ours) == sequence_view(theirs)
    # Every leader it committed, the peers had linearized on its chain
    # and floor first: it recomputed none.
    assert len(ours) > 20 and not computed
    assert shared.committer.ledger.chain == source.committer.ledger.chain
    assert shared.store.lowest_round == source.store.lowest_round


def test_sharing_with_a_ledger_on_another_chain():
    """A Mahi-Mahi and a Cordial Miners committer over the same blocks,
    on the same (genesis) floor, commit the same leader of round 6 after
    different sequences: the chain alone tells their linearizations
    apart.  Both orders of who commits first; each matches its twin."""
    committee = Committee.of_size(4)
    coin = FastCoin(seed=b"chains", n=4, threshold=committee.quorum_threshold)
    config = ProtocolConfig(wave_length=5, leaders_per_round=1)

    def fresh_blocks():
        """The same lockstep DAG, as objects no committer has seen."""
        builder = DagBuilder(committee, coin)
        builder.rounds(1, 25)
        return sorted(
            (block for block in builder.store if block.round > 0), key=lambda block: block.round
        )

    def validator(cordial):
        store = DagStore()
        store.add_genesis(make_genesis(4))
        if cordial:
            return store, Committer(
                store, committee, coin, config, wave_stride=5, direct_skip_enabled=False
            ), []
        return store, Committer(store, committee, coin, config), []

    for kinds in ((False, True), (True, False)):
        sharing = [validator(cordial) for cordial in kinds]
        private = [validator(cordial) for cordial in kinds]
        for index, block in enumerate(fresh_blocks()):
            for shared, alone in zip(sharing, private):
                shared[0].add(block)
                alone[0].add(private_copy(block, index))
                shared[2].extend(shared[1].extend_commit_sequence())
                alone[2].extend(alone[1].extend_commit_sequence())
                assert sequence_view(shared[2]) == sequence_view(alone[2])
        common = {obs.status.block.digest for obs in sharing[0][2]} & {
            obs.status.block.digest for obs in sharing[1][2]
        }
        assert len(common) > 1
        assert sharing[0][1].ledger.chain != sharing[1][1].ledger.chain


# ----------------------------------------------------------------------
# (b) a block's memo does not depend on which store resolved it
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([4, 7]), st.sampled_from([4, 5]), st.booleans())
def test_stores_holding_different_parts_of_the_dag_resolve_a_block_alike(
    seed, n, wave, floored_first
):
    """One store holds the whole DAG, one only what lies at or above a
    state-transfer floor.  Whichever of the two answers a ``(certifier,
    leader)`` pair first leaves the memo the other reads, and both agree
    with the per-reference loop, which keeps no memo on any block."""
    committee = Committee.of_size(n)
    blocks = tangled_dag(random.Random(seed), range(n), 3 * wave)
    floor = random.Random(seed).randint(2, wave)
    whole, floored = DagStore(), DagStore()
    whole.add_genesis(make_genesis(n))
    floored.adopt_floor(floor)
    for block in blocks:
        whole.add(block)
        if block.round >= floor:
            floored.add(block)
    stores = [floored, whole] if floored_first else [whole, floored]
    traversals = [DagTraversal(store, committee.quorum_threshold) for store in stores]
    at_round = by_round(floored)
    verdicts = []
    for leader in floored:
        for certifier in at_round.get(leader.round + wave - 1, ()):
            expected = reference_is_cert(whole, certifier, leader, committee.quorum_threshold)
            for traversal in traversals:
                assert traversal.is_cert(certifier, leader) is expected
            for vote in at_round.get(leader.round + wave - 2, ()):
                voted = reference_voted_block(whole, vote, leader.author, leader.round, {})
                for traversal in traversals:
                    assert traversal.is_vote(vote, leader) is (voted == leader)
            verdicts.append(expected)
    assert any(verdicts) and not all(verdicts)
    # The memos the two orders leave behind are the same facts: compare
    # with a third traversal over copies that never met either store.
    fresh = DagStore()
    fresh.add_genesis(make_genesis(n))
    copies = {block.digest: private_copy(block) for block in blocks}
    for block in blocks:
        fresh.add(copies[block.digest])
    scratch = DagTraversal(fresh, committee.quorum_threshold)
    for block in floored:
        copy = copies[block.digest]
        for author, round_number in block.voted or ():
            voted = scratch.voted_block(copy, author, round_number)
            assert block.voted[author, round_number] == (voted and voted.digest)
        for slot, support in (block.support or {}).items():
            assert scratch.support(copy, slot) == support


def test_a_search_that_cannot_finish_leaves_no_half_answer_on_the_block():
    """A store asked about a slot below its floor cannot fetch the
    ancestors the search needs (the committer never asks: the cursor is
    above the floor).  It raises, and what it found on the way stays off
    the shared blocks: the store that holds the history answers as if
    nobody had tried."""
    n, wave = 4, 4
    committee = Committee.of_size(n)
    blocks = tangled_dag(random.Random(5), range(n), 2 * wave)
    whole, floored = DagStore(), DagStore()
    whole.add_genesis(make_genesis(n))
    floored.adopt_floor(3)
    for block in blocks:
        whole.add(block)
        if block.round >= 3:
            floored.add(block)
    at_round = by_round(blocks)
    behind, informed = (DagTraversal(s, committee.quorum_threshold) for s in (floored, whole))
    failed = 0
    for leader in at_round[1]:
        for certifier in at_round[wave + 1]:
            try:
                behind.is_cert(certifier, leader)
            except UnknownBlockError:
                failed += 1
            expected = reference_is_cert(whole, certifier, leader, committee.quorum_threshold)
            assert informed.is_cert(certifier, leader) is expected
    assert failed


# ----------------------------------------------------------------------
# (c) the search runs once per (block, slot) per process
# ----------------------------------------------------------------------
class CountingStore(DagStore):
    """A store that counts the blocks fetched by reference."""

    fetched = 0

    def get_ref(self, ref):
        self.fetched += 1
        return super().get_ref(ref)


def fetches_of_ten_validators(blocks, n, wave, copy) -> list[int]:
    """``get_ref`` calls each of ten validators makes answering every
    ``is_cert`` / ``is_vote`` question a wave can ask, one validator
    after the other, over ``copy(block)`` of every block."""
    quorum = Committee.of_size(n).quorum_threshold
    fetched = []
    for _ in range(10):
        store = CountingStore()
        store.add_genesis(make_genesis(n))
        for block in blocks:
            store.add(copy(block))
        traversal = DagTraversal(store, quorum)
        at_round = by_round(store)
        for leader in store:
            for certifier in at_round.get(leader.round + wave - 1, ()):
                traversal.is_cert(certifier, leader)
            for vote in at_round.get(leader.round + wave - 2, ()):
                traversal.is_vote(vote, leader)
        fetched.append(store.fetched)
    return fetched


@pytest.mark.parametrize("n, wave", [(4, 4), (7, 5), (10, 5)])
def test_ten_validators_over_shared_blocks_search_once(n, wave):
    blocks = tangled_dag(random.Random(n * wave), range(n), 3 * wave)
    alone = fetches_of_ten_validators(blocks, n, wave, private_copy)
    assert len(set(alone)) == 1 and alone[0] > len(blocks)
    sharing = fetches_of_ten_validators(blocks, n, wave, lambda block: block)
    # The first validator searches as much as one that shares nothing;
    # the other nine find every answer on the block.
    assert sharing == [alone[0]] + [0] * 9
    assert sum(sharing) * 5 <= sum(alone)


# ----------------------------------------------------------------------
# (d) a memo keeps no block alive
# ----------------------------------------------------------------------
def test_a_pruned_block_dies_while_its_descendants_memos_live():
    """The vote memos of the blocks that stay, and the linearization
    memo of the committed leader that stays (round 4's, which lists
    round 3's blocks), name the pruned blocks by digest only."""
    committee = Committee.of_size(4)
    coin = FixedCoin(n=4, threshold=committee.quorum_threshold)
    builder = DagBuilder(committee, coin)
    traversal = DagTraversal(builder.store, committee.quorum_threshold)
    builder.rounds(1, 8)
    for round_number in range(1, 5):
        leader = builder.get(0, round_number)
        for author in range(4):
            assert traversal.is_cert(builder.get(author, round_number + 4), leader)
    committer = Committer(
        builder.store, committee, coin, ProtocolConfig(wave_length=5, leaders_per_round=1)
    )
    committed = [obs.status.block for obs in committer.extend_commit_sequence()]
    assert committed == [builder.get(0, r) for r in range(1, 5)]
    survivor = committed[-1]
    memo = survivor.__dict__["_linearized"]
    assert builder.get(1, 3).digest in memo[1]
    assert all(type(digest) is bytes for digest in memo[1])
    del committed
    descendants = [builder.get(author, 8) for author in range(4)]
    descendants += [builder.get(author, 5) for author in range(4)]
    pruned = [weakref.ref(builder.get(author, r)) for author in range(4) for r in (0, 1, 3)]
    voted_for = builder.get(0, 1).digest
    builder.blocks.clear()
    was_enabled = gc.isenabled()
    gc.disable()  # by reference counting alone: no cycle through a memo
    try:
        committer.forget_linearized_below(4)
        assert builder.store.prune_below(4) == 16
        assert all(ref() is None for ref in pruned)
    finally:
        if was_enabled:
            gc.enable()
    assert all(block.voted or block.support for block in descendants)
    assert descendants[-1].support[0, 1] == {voted_for: 0b1111}
    assert survivor.__dict__["_linearized"] is memo


# ----------------------------------------------------------------------
# (e) the memo is no part of the block's value
# ----------------------------------------------------------------------
def test_copies_start_empty_and_identity_ignores_the_memo():
    committee = Committee.of_size(4)
    builder = DagBuilder(committee, FixedCoin(n=4, threshold=committee.quorum_threshold))
    traversal = DagTraversal(builder.store, committee.quorum_threshold)
    builder.rounds(1, 5)
    block = builder.get(1, 5)
    untouched = private_copy(block)
    before = (block.encode(), hash(block), block.digest, repr(block))
    assert traversal.is_cert(block, builder.get(0, 1))
    assert traversal.is_vote(block, builder.get(0, 2))
    assert block.voted and block.support
    assert (block.encode(), hash(block), block.digest, repr(block)) == before
    assert block == untouched and hash(block) == hash(untouched)
    for copy in (
        block.signed(b"signature"),
        dataclasses.replace(block),
        dataclasses.replace(block, salt=b"other"),
        Block.decode(block.encode())[0],
    ):
        assert copy.voted is None and copy.support is None
    assert block.signed(b"signature").digest == block.digest
    with pytest.raises(ValueError):
        dataclasses.replace(block, voted={})  # no way to hand a copy a memo
