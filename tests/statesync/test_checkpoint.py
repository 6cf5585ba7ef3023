"""Unit tests for the state-sync checkpoint primitives.

:class:`CommitLedger` keeps its window of linearized references in the
order a checkpoint lists them, so a capture is a pass, not a sort.  Its
oracle is :class:`SortingLedger` below — the capture as it was before:
one bucket of references per round, flattened and ``sorted()`` with
``BlockRef``'s own ``__lt__`` at every capture.  Every checkpoint the
two capture over one stream must share its ``checkpoint_id``.
"""

import dataclasses
import random
from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

from repro.block import Block, BlockRef, make_genesis
from repro.committee import Committee
from repro.config import ProtocolConfig
from repro.core.committer import Committer
from repro.core.protocol import MahiMahiCore
from repro.crypto.coin import FastCoin
from repro.crypto.hashing import hash_bytes
from repro.errors import ConfigError, ReproError
from repro.dag.store import DagStore
from repro.statesync import (
    GENESIS_STATE,
    Checkpoint,
    CommitLedger,
    best_attested,
    chain_digest,
    digest_executor_state,
)
from repro.sim.faults import make_equivocating_sibling
from repro.statesync.checkpoint import _REF_ORDER

from ..helpers import committed_blocks, record_commits


def make_checkpoint(round_number=8, floor=0, refs=(), chain=GENESIS_STATE, length=12):
    return Checkpoint(
        round=round_number,
        floor=floor,
        next_slot=(round_number + 1, 0),
        chain=chain,
        sequence_length=length,
        committee_size=10,
        linearized=tuple(refs),
    )


def ref(author, round_number, tag=b"r"):
    return BlockRef(
        author=author,
        round=round_number,
        digest=hash_bytes(tag + bytes([author, round_number])),
    )


class TestCheckpointCodec:
    def test_encode_decode_roundtrip(self):
        refs = (ref(0, 7), ref(3, 8))
        checkpoint = make_checkpoint(refs=refs)
        decoded, offset = Checkpoint.decode(checkpoint.encode())
        assert decoded == checkpoint
        assert offset == len(checkpoint.encode())
        assert decoded.checkpoint_id == checkpoint.checkpoint_id

    def test_content_address_changes_with_content(self):
        a = make_checkpoint(round_number=8)
        b = make_checkpoint(round_number=10)
        c = make_checkpoint(round_number=8, chain=hash_bytes(b"other"))
        assert a.checkpoint_id != b.checkpoint_id
        assert a.checkpoint_id != c.checkpoint_id
        assert a.checkpoint_id == make_checkpoint(round_number=8).checkpoint_id

    def test_wire_size_is_encoded_length(self):
        checkpoint = make_checkpoint(refs=(ref(0, 8),))
        assert checkpoint.wire_size == len(checkpoint.encode())

    def test_frontier_is_highest_round_refs(self):
        refs = (ref(0, 6), ref(1, 8), ref(2, 8), ref(3, 7))
        checkpoint = make_checkpoint(refs=refs)
        assert set(checkpoint.frontier) == {refs[1], refs[2]}
        assert make_checkpoint(refs=()).frontier == ()


class TestChainDigest:
    def test_chain_is_order_sensitive(self):
        a, b = hash_bytes(b"a"), hash_bytes(b"b")
        ab = chain_digest(chain_digest(GENESIS_STATE, a), b)
        ba = chain_digest(chain_digest(GENESIS_STATE, b), a)
        assert ab != ba

    def test_executor_digest_binds_index_and_root(self):
        root = hash_bytes(b"root")
        assert digest_executor_state(1, root) != digest_executor_state(2, root)
        assert digest_executor_state(1, root) != digest_executor_state(1, hash_bytes(b"x"))
        assert digest_executor_state(3, root) == digest_executor_state(3, root)


class TestBestAttested:
    def test_requires_quorum(self):
        checkpoint = make_checkpoint()
        votes = {checkpoint.checkpoint_id: (checkpoint, {1, 2})}
        assert best_attested(votes, quorum=3) is None
        votes[checkpoint.checkpoint_id][1].add(3)
        assert best_attested(votes, quorum=3) == checkpoint

    def test_highest_attested_round_wins(self):
        low, high = make_checkpoint(round_number=4), make_checkpoint(round_number=8)
        votes = {
            low.checkpoint_id: (low, {1, 2, 3, 4}),
            high.checkpoint_id: (high, {2, 3, 4}),
        }
        assert best_attested(votes, quorum=3) == high
        # A higher round attested below quorum does not win.
        higher = make_checkpoint(round_number=12)
        votes[higher.checkpoint_id] = (higher, {5})
        assert best_attested(votes, quorum=3) == high


def make_core(authority=0, n=4, interval=0, gc=0, committer_factory=Committer):
    committee = Committee.of_size(n)
    coin = FastCoin(seed=b"ckpt-test", n=n, threshold=committee.quorum_threshold)
    config = ProtocolConfig(
        wave_length=5,
        leaders_per_round=2,
        garbage_collection_depth=gc,
        checkpoint_interval_rounds=interval,
    )
    return MahiMahiCore(authority, committee, config, coin, committer_factory=committer_factory)


def drive_rounds(cores, rounds):
    """Propose lockstep rounds across all cores, committing as we go."""
    for _ in range(rounds):
        blocks = [core.maybe_propose() for core in cores]
        for core in cores:
            for block in blocks:
                if block is not None and block.author != core.authority:
                    core.add_block(block)
            core.try_commit()


class TestLedgerCapture:
    def test_disabled_ledger_still_chains(self):
        cores = [make_core(i) for i in range(4)]
        drive_rounds(cores, 12)
        ledgers = [core.committer.ledger for core in cores]
        assert all(ledger.captured_total == 0 for ledger in ledgers)
        assert ledgers[0].sequence_length > 0
        assert ledgers[0].chain != GENESIS_STATE
        assert len({ledger.chain for ledger in ledgers}) == 1

    def test_capture_is_identical_across_validators(self):
        cores = [make_core(i, interval=2) for i in range(4)]
        drive_rounds(cores, 14)
        ledgers = [core.committer.ledger for core in cores]
        assert ledgers[0].captured_total >= 2
        ids = [[c.checkpoint_id for c in ledger.checkpoints] for ledger in ledgers]
        assert all(seq == ids[0] for seq in ids)
        rounds = [c.round for c in ledgers[0].checkpoints]
        assert rounds == sorted(rounds)

    def test_retention_bounds_served_list(self):
        cores = [make_core(i, interval=1) for i in range(4)]
        drive_rounds(cores, 20)
        ledger = cores[0].committer.ledger
        assert ledger.captured_total > ledger.retain
        assert len(ledger.checkpoints) == ledger.retain

    def test_config_rejects_interval_beyond_gc_depth(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(garbage_collection_depth=4, checkpoint_interval_rounds=8)


class TestAdoption:
    def test_fresh_core_adopts_and_continues(self):
        cores = [make_core(i, interval=2) for i in range(4)]
        drive_rounds(cores, 14)
        checkpoint = cores[0].committer.ledger.checkpoints[-1]

        fresh = make_core(3, interval=2)
        fresh.adopt_checkpoint(checkpoint)
        assert fresh.store.sync_floor == checkpoint.floor
        assert fresh.round >= checkpoint.round
        assert fresh.committer.ledger.adopted_base == checkpoint
        assert fresh.committer.ledger.chain == checkpoint.chain
        # The adopted checkpoint is itself served to later recoverers.
        assert checkpoint in fresh.committer.ledger.checkpoints

    def test_non_fresh_core_refuses(self):
        cores = [make_core(i, interval=2) for i in range(4)]
        drive_rounds(cores, 14)
        checkpoint = cores[0].committer.ledger.checkpoints[-1]
        with pytest.raises(ReproError):
            cores[1].adopt_checkpoint(checkpoint)


# ----------------------------------------------------------------------
# The ordered window against sort-per-capture
# ----------------------------------------------------------------------
class SortingLedger(CommitLedger):
    """The reference capture: buckets per round, pruned below the floor
    and sorted by ``BlockRef.__lt__`` every time."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self._buckets: dict[int, list[BlockRef]] = {}

    def extend(self, linearized) -> None:
        linearized = list(linearized)
        super().extend(linearized)
        if self._next_boundary is not None:
            for block in linearized:
                self._buckets.setdefault(block.round, []).append(block.reference)

    def _capture(self, last_finalized, next_slot) -> Checkpoint:
        floor = max(0, last_finalized - self.lag)
        for round_number in [r for r in self._buckets if r < floor]:
            del self._buckets[round_number]
        refs = sorted(
            ref
            for round_number, bucket in self._buckets.items()
            if round_number <= last_finalized
            for ref in bucket
        )
        checkpoint = super()._capture(last_finalized, next_slot)
        return dataclasses.replace(checkpoint, linearized=tuple(refs))

    def adopt(self, checkpoint: Checkpoint) -> None:
        super().adopt(checkpoint)
        self._buckets = {}
        for reference in checkpoint.linearized:
            self._buckets.setdefault(reference.round, []).append(reference)


def ledger_pair(interval, lag):
    return [cls(DagStore(), 10, interval=interval, lag=lag) for cls in (CommitLedger, SortingLedger)]


@st.composite
def commit_streams(draw):
    """``(interval, lag, steps)``; a step is ``(rounds of the blocks one
    slot linearized, last finalized round after it)``.  The frontier
    stalls (several slots a round) and jumps (a stride, or several
    boundaries crossed at once); most blocks sit just below it, some are
    linearized late — below the newest round, and now and then below the
    floor an earlier capture already pruned to — and some sit above it
    (a slot finalized before its round is), to be listed by a later
    capture only."""
    interval = draw(st.sampled_from([1, 2, 10]))
    lag = draw(st.sampled_from([16, 64]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    steps, frontier = [], 0
    for _ in range(draw(st.integers(20, 150))):
        frontier += rng.choice([0, 1, 1, 1, 2, 5])
        rounds = [
            max(1, frontier + rng.choice([-lag - 3, -lag, -9, -3, -2, -1, -1, 0, 0, 0, 1, 2]))
            for _ in range(rng.randrange(12))
        ]
        steps.append((rounds, frontier))
    return interval, lag, steps


def linearize(ledgers, rng, rounds, frontier):
    """One slot: ``extend`` by fresh blocks at ``rounds``, then the
    capture check, on every ledger."""
    blocks = [
        Block(author=rng.randrange(10), round=r, parents=(), salt=rng.randbytes(4)) for r in rounds
    ]
    for ledger in ledgers:
        ledger.extend(blocks)
        ledger.maybe_capture(frontier, (frontier + 1, 0))


def captured(ledger):
    return ledger.captured_total, [c.checkpoint_id for c in ledger.checkpoints]


@settings(max_examples=60, deadline=None)
@given(commit_streams(), st.integers(0, 2**16))
def test_ordered_window_captures_what_sorting_every_time_captures(stream, adopt_at):
    interval, lag, steps = stream
    ledger, oracle = ledger_pair(interval, lag)
    adopters: list[CommitLedger] = []
    rng = random.Random(adopt_at)
    for index, (rounds, frontier) in enumerate(steps):
        before = ledger.captured_total
        linearize([ledger, oracle, *adopters], rng, rounds, frontier)
        assert captured(ledger) == captured(oracle)
        if ledger.captured_total > before:  # a capture leaves nothing below its floor
            assert all(r.round >= ledger.checkpoints[-1].floor for r in ledger._recent)
        if adopters:
            assert captured(adopters[0]) == captured(adopters[1])
        elif ledger.checkpoints and index >= adopt_at % len(steps):
            # A fresh validator adopts the newest checkpoint and from
            # then on linearizes what everyone else does.
            adopters = ledger_pair(interval, lag)
            for adopter in adopters:
                adopter.adopt(ledger.checkpoints[-1])
            assert adopters[0]._recent == sorted(adopters[1].checkpoints[-1].linearized)
    assert ledger._recent == sorted(ledger._recent)


def test_references_above_the_frontier_wait_for_a_later_capture():
    """Both filters by hand: a reference above ``last_finalized`` is
    kept, not listed, until the frontier reaches it; one linearized
    below an earlier capture's floor is never listed."""
    ledger, oracle = ledger_pair(interval=1, lag=16)
    rng = random.Random(0)
    linearize([ledger, oracle], rng, [18, 19, 20, 21], 20)
    assert sorted(r.round for r in ledger.checkpoints[-1].linearized) == [18, 19, 20]
    assert ledger.checkpoints[-1].floor == 4
    linearize([ledger, oracle], rng, [3, 4], 20)  # late; no boundary crossed
    assert ledger.captured_total == 1 and len(ledger._recent) == 6
    linearize([ledger, oracle], rng, [], 21)
    assert sorted(r.round for r in ledger.checkpoints[-1].linearized) == [18, 19, 20, 21]
    assert ledger.checkpoints[-1].floor == 5 and len(ledger._recent) == 4
    assert captured(ledger) == captured(oracle)


@pytest.mark.parametrize("interval, gc, commit_every", [(1, 0, 1), (2, 16, 7), (10, 64, 23)])
def test_cores_capture_the_same_checkpoints_with_either_ledger(interval, gc, commit_every):
    """Through the real commit walk: core 1 carries the sorting ledger.
    Committing only every few rounds finalizes several slots — and
    captures several checkpoints — in one walk."""
    cores = [make_core(i, interval=interval, gc=gc) for i in range(4)]
    committer = cores[1].committer
    committer.ledger = SortingLedger(
        committer.ledger.store,
        committer.ledger.committee_size,
        interval=interval,
        lag=committer.ledger.lag,
        schedule=committer.schedule,
    )
    seen: list[list] = [[] for _ in cores]
    most_in_one_walk = 0
    for round_number in range(1, 70):
        blocks = [core.maybe_propose() for core in cores]
        for core, ids in zip(cores, seen):
            for block in blocks:
                if block.author != core.authority:
                    core.add_block(block)
            if round_number % commit_every == 0:
                before = core.committer.ledger.captured_total
                core.try_commit()
                new = core.committer.ledger.captured_total - before
                most_in_one_walk = max(most_in_one_walk, new)
                ids.extend(c.checkpoint_id for c in core.committer.ledger.checkpoints[-new:] if new)
    assert len(seen[0]) >= 5 and all(ids == seen[0] for ids in seen)
    assert (most_in_one_walk > 1) == (commit_every > 1) and most_in_one_walk <= committer.ledger.retain


def test_the_ledger_never_compares_two_references(monkeypatch):
    """A count that repeats exactly: over 200 rounds at ``n = 10``
    (interval 1, lag 64) the ordered window calls ``BlockRef.__lt__``
    zero times — it orders by key tuples — where sorting a ~650-reference
    window at every capture calls it some 730,000 times."""
    calls = [0]
    less_than = BlockRef.__lt__

    def counting(self, other):
        calls[0] += 1
        return less_than(self, other)

    monkeypatch.setattr(BlockRef, "__lt__", counting)
    rng = random.Random(18)
    counts = []
    for ledger in ledger_pair(interval=1, lag=64):
        calls[0] = 0
        for round_number in range(1, 201):
            linearize([ledger], rng, [round_number] * 10, round_number)
        assert ledger.captured_total == 200 and len(ledger.checkpoints[-1].linearized) == 650
        counts.append(calls[0])
    assert counts[0] == 0 and counts[1] > 500_000


@given(
    st.lists(
        st.builds(
            BlockRef,
            author=st.integers(0, 3),
            round=st.integers(0, 3),
            digest=st.binary(min_size=0, max_size=2),
        ),
        max_size=30,
    )
)
def test_the_window_key_is_blockref_order(references):
    """The key can never drift from ``BlockRef``'s own order — the one
    ``Checkpoint.linearized`` is defined in."""
    by_key = sorted(references, key=_REF_ORDER)
    assert sorted(references) == by_key
    assert by_key == sorted(references, key=attrgetter("author", "round", "digest"))
    assert [f.name for f in dataclasses.fields(BlockRef)] == ["author", "round", "digest"]


# ----------------------------------------------------------------------
# The commit chain's steps kept on the blocks, against hashing each one
# ----------------------------------------------------------------------
class MemoFreeLedger(CommitLedger):
    """The chain as it was before its steps were kept on the blocks: one
    hash per block per ledger, nothing read or written on the block."""

    def extend(self, linearized) -> None:
        chain = self.chain
        count = 0
        for block in linearized:
            chain = chain_digest(chain, block.digest)
            count += 1
        self.chain = chain
        self.sequence_length += count


@pytest.fixture(scope="module")
def committed():
    """One lockstep run's commit sequence, in commit order."""
    cores = [make_core(i) for i in range(4)]
    log = record_commits(cores[0])
    drive_rounds(cores, 16)
    blocks = committed_blocks(log)
    assert len(blocks) > 20
    return blocks


def fresh_copies(blocks):
    """The same blocks as new objects: equal, but with no memo on them."""
    return [dataclasses.replace(block) for block in blocks]


def extend_in_step(pairs, chunks) -> None:
    """Extend each ``(ledger, oracle)`` pair with its chunk in turn, and
    compare chains after every call."""
    for (ledger, oracle), blocks in zip(pairs, chunks):
        ledger.extend(blocks)
        oracle.extend(blocks)
        assert (ledger.chain, ledger.sequence_length) == (oracle.chain, oracle.sequence_length)


class TestChainMemo:
    def test_ledgers_on_different_chains_share_blocks(self, committed, monkeypatch):
        """A checkpoint adopter whose chain reaches the shared blocks by
        another path (it adopted past one of them) and a ledger from
        genesis, extending in turns over the same block objects: each
        keeps the chain a memo-free ledger computes, whatever the other
        left on the blocks; a third ledger that follows the first hashes
        nothing."""
        blocks = fresh_copies(committed)
        skip = 5
        base = MemoFreeLedger(DagStore(), 4)
        base.extend(blocks[:skip])
        adopted = make_checkpoint(chain=base.chain, length=skip)
        pairs = [
            (CommitLedger(DagStore(), 4), MemoFreeLedger(DagStore(), 4)),
            (CommitLedger(DagStore(), 4), MemoFreeLedger(DagStore(), 4)),
        ]
        for ledger in pairs[1]:
            ledger.adopt(adopted)
        for start in range(0, len(blocks), 4):
            # The adopter never commits blocks[skip], and extends second.
            end = start + 4
            extend_in_step(pairs, [blocks[start:end], blocks[max(start, skip + 1) : end]])
        assert pairs[0][0].chain != pairs[1][0].chain
        hashed = []
        monkeypatch.setattr(
            "repro.statesync.checkpoint.chain_digest",
            lambda chain, digest: hashed.append(digest) or chain_digest(chain, digest),
        )
        follower = CommitLedger(DagStore(), 4)
        follower.extend(blocks)
        assert follower.chain == pairs[0][1].chain
        # The adopter wrote the last links past ``skip``; the follower
        # re-hashed those.
        assert len(hashed) == len(blocks) - skip - 1
        hashed.clear()
        again = CommitLedger(DagStore(), 4)
        again.extend(blocks)
        assert again.chain == follower.chain and hashed == []

    def test_an_equivocating_sibling_chains_apart(self, committed):
        """Two ledgers that commit one slot's sibling blocks — a
        different block each, the rest shared — and a third that commits
        an equal copy of the first's (same digest, no memo yet): each
        chain is the memo-free one."""
        blocks = fresh_copies(committed)
        at = len(blocks) // 2
        sibling = make_equivocating_sibling(blocks[at])
        twin = dataclasses.replace(blocks[at])
        streams = [
            blocks,
            blocks[:at] + [sibling] + blocks[at + 1 :],
            blocks[:at] + [twin] + blocks[at + 1 :],
        ]
        pairs = [(CommitLedger(DagStore(), 4), MemoFreeLedger(DagStore(), 4)) for _ in streams]
        for start in range(0, len(blocks), 3):
            extend_in_step(pairs, [stream[start : start + 3] for stream in streams])
        chains = [ledger.chain for ledger, _ in pairs]
        assert chains[0] == chains[2] != chains[1]
        assert blocks[at].chain_link[1] != sibling.chain_link[1]

    def test_a_simulation_hashes_each_committed_block_once(self, monkeypatch):
        """Every validator of a simulation holds one object per block —
        the round-0 blocks included — so the whole committee's ledgers
        hash each committed block's chain step once between them."""
        from repro.sim.runner import Experiment, ExperimentConfig

        hashed = []
        monkeypatch.setattr(
            "repro.statesync.checkpoint.chain_digest",
            lambda chain, digest: hashed.append(digest) or chain_digest(chain, digest),
        )
        experiment = Experiment(
            ExperimentConfig(num_validators=7, load_tps=500.0, duration=3.0, warmup=0.5, seed=1)
        )
        result = experiment.run()
        genesis = [node.core.store.round_blocks(0) for node in experiment.nodes]
        assert all(blocks == genesis[0] for blocks in genesis)
        assert all(a is b for blocks in genesis for a, b in zip(blocks, genesis[0]))
        assert result.blocks_committed > 50
        assert len(hashed) == len(set(hashed)) >= result.blocks_committed
