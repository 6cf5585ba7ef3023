"""Differential test of the event-driven commit walk.

:class:`~repro.core.committer.Committer` re-runs a slot's direct rule
only when the slot's vote or certify round gained a block, and the
indirect rule only once the slot's anchor is decided.  The reference it
is compared with is the same class with nothing remembered: a committer
built on the spot over the same store has no evidence stamps and no
vote/cert memos, so its sweep evaluates every slot in full.  There is no
second implementation to keep in step.

After every single block insertion, in a random causal order:

* ``slot_statuses()`` equals, status for status, what a fresh committer
  that was told only the *settled* classifications (final by Lemmas 4-6)
  computes over the same range.  Seeding those is what makes the
  comparison exact, ``direct`` flag included: which rule fired first
  depends on arrival order, which a committer built later cannot see.
* the finalized sequence so far agrees with a from-scratch walk by a
  committer that was told nothing at all — slot, decision, leader and
  every linearized digest, everything but the ``direct`` flag.  Without
  equivocators the two are equally long; a late equivocating vote-round
  sibling can make the from-scratch walk *less* decisive than the one
  that settled a direct skip before the sibling arrived (the skip stays
  safe: at most ``f`` authors can change sides), so there only the common
  prefix is compared.

``extend_commit_sequence()`` also polls before it sweeps.  Its oracle is
:class:`SweepingCommitter` — the same class with the poll answering
"sweep" every time, which is ``ExtendCommitSequence`` as the paper runs
it: call for call, over the same store, the two must return equal
observations, whether the calls come after every insertion or a whole
wave of rounds apart, across epoch activations and after a checkpoint
adoption, while a spy on ``try_decide`` shows that the polled one did
return early.  (``slot_statuses()`` sweeps and settles, so none of these
tests calls it between two polls.)
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.block import Block, make_genesis
from repro.committee import Committee, CommitteeSchedule, reconfig_commands_in
from repro.config import ProtocolConfig
from repro.core.committer import Committer
from repro.core.protocol import MahiMahiCore
from repro.core.slots import Decision
from repro.crypto.coin import FastCoin
from repro.dag.store import DagStore

from ..helpers import DagBuilder, FixedCoin, record_commits
from ..statesync.test_checkpoint import drive_rounds, make_core
from .commit_walk import (
    _StreamCoin,
    build_epoch_resize_stream,
    replay_stream_oneshot,
)


def status_view(status):
    """A status without its ``direct`` flag."""
    return (status.slot, status.decision, status.block.digest if status.block else None)


def sequence_view(observations):
    return [
        (status_view(obs.status), tuple(block.digest for block in obs.linearized))
        for obs in observations
    ]


def check_against_scratch(observations, make_committer, equivocators) -> None:
    """The sequence finalized so far against a from-scratch walk (see
    the module docstring)."""
    ours = sequence_view(observations)
    scratch = sequence_view(make_committer().extend_commit_sequence())
    common = min(len(ours), len(scratch))
    assert ours[:common] == scratch[:common]
    if not equivocators:
        assert len(ours) == len(scratch)


def statuses_from(observations, slot: tuple[int, int]) -> list:
    """What ``observations`` finalized from ``slot`` on, without
    ``direct`` flags."""
    views = [status_view(obs.status) for obs in observations]
    first = next(
        i
        for i, obs in enumerate(observations)
        if (obs.status.slot.round, obs.status.slot.offset) == slot
    )
    return views[first:]


class SweepingCommitter(Committer):
    """``ExtendCommitSequence`` with no poll: every call sweeps."""

    def _verdicts_may_move(self, highest: int) -> bool:
        return True


def spy_on_sweeps(committer: Committer) -> list[tuple[int, int]]:
    """The ``(from_round, to_round)`` of every sweep from now on."""
    sweeps: list[tuple[int, int]] = []
    try_decide = committer.try_decide

    def spy(from_round: int, to_round: int):
        sweeps.append((from_round, to_round))
        return try_decide(from_round, to_round)

    committer.try_decide = spy
    return sweeps


def check_statuses(committer: Committer, make_committer) -> None:
    """``slot_statuses()`` against a fresh committer seeded with the
    settled classifications (see the module docstring)."""
    settled = dict(committer._decided)
    statuses = committer.slot_statuses()
    reference = make_committer()
    reference._decided.update(settled)
    highest = reference._store.highest_round
    start = committer.next_slot.round
    expected = reference.try_decide(start, highest) if highest >= start else []
    assert statuses == expected


# ----------------------------------------------------------------------
# Random DAGs
# ----------------------------------------------------------------------
def random_dag(rng, coin, n, wave, rounds, crash_round, equivocators, stragglers):
    """Blocks of a random DAG in creation order (genesis excluded).

    Every block references its author's previous block and a random
    quorum (sometimes more) of the previous round, mostly passing over
    the stragglers (whose blocks then hang unreferenced until they are
    delivered, rounds late) and over one more author of the previous
    round, half the time its first leader — so that leaders with few or
    no votes, hence skips and indirect decisions, are common.
    ``crash_round[a]`` is the first round author ``a`` no longer proposes
    in; equivocators fork half the time.
    """
    committee = Committee.of_size(n)
    quorum = committee.quorum_threshold
    previous = {block.author: [block] for block in make_genesis(n)}
    blocks = []
    for round_number in range(1, rounds + 1):
        current = {}
        certify = round_number - 1 + wave - 1
        coin_value = coin.reconstruct(certify, [coin.share(a, certify) for a in range(n)])
        leader = committee.leader_for(coin_value, 0)
        shunned = stragglers | {leader if rng.random() < 0.5 else rng.randrange(n)}
        for author in range(n):
            if round_number >= crash_round.get(author, rounds + 1):
                continue
            forks = 2 if author in equivocators and rng.random() < 0.5 else 1
            for fork in range(forks):
                others = [a for a in previous if a != author]
                liked = [a for a in others if a not in shunned or rng.random() < 0.2]
                pool = liked if len(liked) >= quorum - 1 else others
                extra = rng.randint(0, len(pool) - (quorum - 1)) if rng.random() < 0.4 else 0
                chosen = rng.sample(pool, quorum - 1 + extra)
                parents = [rng.choice(previous[author]).reference]
                parents += [rng.choice(previous[a]).reference for a in chosen]
                block = Block(
                    author=author,
                    round=round_number,
                    parents=tuple(parents),
                    coin_share=coin.share(author, round_number),
                    salt=b"fork" * fork,
                )
                current.setdefault(author, []).append(block)
                blocks.append(block)
        previous = current
    return blocks


def causal_order(rng, n, blocks, stragglers, lag):
    """A random delivery order that respects causality: always the
    deliverable block with the lowest ``round + lag + jitter``."""
    due = {
        block.digest: block.round + rng.uniform(0, 1.5) + lag * (block.author in stragglers)
        for block in blocks
    }
    waiting = sorted(blocks, key=lambda block: due[block.digest])
    delivered = {block.digest for block in make_genesis(n)}
    order = []
    while waiting:
        index = next(
            i
            for i, block in enumerate(waiting)
            if all(ref.digest in delivered for ref in block.parents)
        )
        block = waiting.pop(index)
        delivered.add(block.digest)
        order.append(block)
    return order


@st.composite
def scenarios(draw):
    n = draw(st.sampled_from([4, 7, 10]))
    wave = draw(st.sampled_from([4, 5]))
    cordial = draw(st.booleans())  # Cordial Miners: stride = wave, no direct skip
    leaders = 1 if cordial else draw(st.integers(1, 3))
    faulty = draw(st.integers(0, (n - 1) // 3))
    crashed = draw(st.integers(0, faulty))
    return dict(
        seed=draw(st.integers(0, 2**32)),
        n=n,
        wave=wave,
        cordial=cordial,
        leaders=leaders,
        crashed=crashed,
        equivocators=faulty - crashed,
        stragglers=draw(st.integers(0, n // 3)),
        lag=draw(st.integers(1, 4)),
    )


def build_scenario(scenario):
    """``(store holding genesis, delivery order, make_committer(cls,
    over=that store), equivocators)`` of a drawn scenario."""
    rng = random.Random(scenario["seed"])
    n, wave = scenario["n"], scenario["wave"]
    rounds = 4 * wave
    committee = Committee.of_size(n)
    coin = FastCoin(seed=b"incremental", n=n, threshold=committee.quorum_threshold)
    config = ProtocolConfig(wave_length=wave, leaders_per_round=scenario["leaders"])
    authors = list(range(n))
    rng.shuffle(authors)
    crash_round = {a: rng.randint(1, rounds) for a in authors[: scenario["crashed"]]}
    del authors[: scenario["crashed"]]
    equivocators = set(authors[: scenario["equivocators"]])
    stragglers = set(authors[scenario["equivocators"] :][: scenario["stragglers"]])
    blocks = random_dag(rng, coin, n, wave, rounds, crash_round, equivocators, stragglers)

    store = DagStore()
    store.add_genesis(make_genesis(n))

    def make_committer(cls=Committer, over=store):
        if scenario["cordial"]:
            return cls(over, committee, coin, config, wave_stride=wave, direct_skip_enabled=False)
        return cls(over, committee, coin, config)

    order = causal_order(rng, n, blocks, stragglers, scenario["lag"])
    return store, order, make_committer, equivocators


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_incremental_walk_matches_fresh_committer(scenario):
    store, order, make_committer, equivocators = build_scenario(scenario)
    committer = make_committer()
    observations = []
    for block in order:
        store.add(block)
        check_statuses(committer, make_committer)
        observations.extend(committer.extend_commit_sequence())
        check_against_scratch(observations, make_committer, equivocators)


# ----------------------------------------------------------------------
# The poll: equal, call for call, to sweeping every time
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(scenarios(), st.sampled_from(["every insert", "every third", "a wave apart"]))
def test_polled_extension_returns_what_sweeping_every_call_returns(scenario, cadence):
    store, order, make_committer, equivocators = build_scenario(scenario)
    polled, sweeping = make_committer(), make_committer(SweepingCommitter)
    sweeps = spy_on_sweeps(polled)
    # A wave apart: at least ``wave_length`` rounds between two calls, so
    # slots no sweep has seen yet already have an open coin.
    gap = {"every insert": 1, "every third": 3}.get(
        cadence, (scenario["wave"] + 1) * scenario["n"]
    )
    observations = []
    polls = 0
    for index, block in enumerate(order, start=1):
        store.add(block)
        if index % gap and index != len(order):
            continue
        polls += 1
        extension = polled.extend_commit_sequence()
        assert extension == sweeping.extend_commit_sequence()
        observations.extend(extension)
        check_against_scratch(observations, make_committer, equivocators)
    assert polled.slot_statuses() == sweeping.slot_statuses()
    if gap == 1:
        # No coin is open before the first certify round has a quorum.
        assert len(sweeps) <= polls - (scenario["wave"] - 1) * (scenario["n"] - scenario["crashed"])


@pytest.mark.parametrize("stride", [1, 5])
def test_lockstep_rounds_cost_one_sweep_each_and_a_burst_costs_one(stride):
    """Block by block over full rounds (``n = 4``, one leader a round)
    the only insert that moves a verdict is the one that opens a coin,
    and that sweep commits the slot.  Then ``wave_length`` and more
    rounds arrive between two calls: the slots they opened were never
    swept — a sweep stops at the slots whose coin can be open, so the
    committer holds no verdict at all at that point — and one sweep
    finalizes them."""
    committee = Committee.of_size(4)
    builder = DagBuilder(committee, FixedCoin(n=4, threshold=committee.quorum_threshold))
    config = ProtocolConfig(wave_length=5, leaders_per_round=1)
    polled, sweeping = (
        cls(builder.store, committee, builder.coin, config, wave_stride=stride)
        for cls in (Committer, SweepingCommitter)
    )
    sweeps = spy_on_sweeps(polled)
    for round_number in range(1, 11):
        for author in range(4):
            builder.block(author, round_number)
            extension = polled.extend_commit_sequence()
            assert extension == sweeping.extend_commit_sequence()
            # The third block of a certify round opens its coin.
            opens = author == 2 and round_number >= 5 and (round_number - 5) % stride == 0
            assert len(extension) == (1 if opens else 0)
    assert len(sweeps) == (6 if stride == 1 else 2)
    assert not polled._undecided and not polled._decided

    del sweeps[:]
    builder.rounds(11, 17)
    extension = polled.extend_commit_sequence()
    assert extension == sweeping.extend_commit_sequence()
    assert [obs.status.slot.round for obs in extension] == (
        list(range(7, 14)) if stride == 1 else [11]
    )
    assert polled.extend_commit_sequence() == [] and len(sweeps) == 1


def poll_across_epoch_activations(polled_cls, sweeping_cls, config, blocks_per_call):
    """Replay the 4 -> 5 -> 4 epoch-resize stream into one store,
    extending a ``polled_cls`` and a ``sweeping_cls`` committer every
    ``blocks_per_call`` insertions: equal observations and schedules
    call for call.  Returns ``(stream, observations, polls, sweeps of
    the polled one, calls in which the restart after an activation
    finalized further slots)``."""
    stream = build_epoch_resize_stream(
        genesis_size=4, provisioned=5, rounds=36, lag=config.reconfig_activation_lag,
        txs_per_block=1,
    )
    store = DagStore()
    store.add_genesis(make_genesis(stream.genesis_size))

    def make(cls):
        # An activation is the committer's own doing: one schedule each.
        schedule = CommitteeSchedule(
            Committee.of_size(stream.genesis_size), provisioned=stream.provisioned
        )
        return cls(store, schedule, _StreamCoin(), config)

    polled, sweeping = make(polled_cls), make(sweeping_cls)
    sweeps = spy_on_sweeps(polled)
    observations = []
    polls = restarts_that_finalized = 0
    blocks = [block for round_blocks in stream.rounds for block in round_blocks]
    for index, block in enumerate(blocks, start=1):
        store.add(block)
        if index % blocks_per_call and index != len(blocks):
            continue
        polls += 1
        extension = polled.extend_commit_sequence()
        assert extension == sweeping.extend_commit_sequence()
        assert polled.schedule.epochs() == sweeping.schedule.epochs()
        observations.extend(extension)
        activating = [
            i for i, obs in enumerate(extension) if any(reconfig_commands_in(obs.linearized))
        ]
        restarts_that_finalized += bool(activating) and activating[-1] < len(extension) - 1
    assert len(polled.schedule.epochs()) == 3
    return stream, observations, polls, sweeps, restarts_that_finalized


@pytest.mark.parametrize("blocks_per_call", [1, 4, 9, 14, 30])
def test_poll_across_epoch_activations(blocks_per_call):
    """The committee goes 4 -> 5 -> 4 mid-stream.  An activation drops
    the kept UNDECIDED verdicts and restarts the walk from a poll: the
    slots after the activating one that were already decided under the
    old epoch are finalized in the same call, as by sweeping."""
    config = ProtocolConfig(wave_length=5, leaders_per_round=1, reconfig_activation_lag=6)
    stream, observations, polls, sweeps, restarts_that_finalized = poll_across_epoch_activations(
        Committer, SweepingCommitter, config, blocks_per_call
    )
    assert sequence_view(observations) == sequence_view(replay_stream_oneshot(stream)[0])
    if blocks_per_call == 1:
        assert len(sweeps) < polls / 2
    elif blocks_per_call > 4:  # more than a round a call: sweeps finalize several slots
        assert restarts_that_finalized


def poll_right_after_checkpoint_adoption(committer_factory, sweeping_cls) -> int:
    """A ``committer_factory`` committer that has polled — and kept
    verdicts — over a floored store adopts a checkpoint: the verdicts
    go, the cursor jumps, and the very next poll finalizes from the
    checkpoint's cursor what a ``sweeping_cls`` sweep would.  Returns
    how many slots that was."""
    cores = [make_core(i, interval=2, committer_factory=committer_factory) for i in range(4)]
    source = cores[0]
    source_commits = record_commits(source)
    drive_rounds(cores, 40)
    checkpoint = source.committer.ledger.checkpoints[0]
    adopter = make_core(3, interval=2, committer_factory=committer_factory)
    adopter.store.adopt_floor(checkpoint.floor)
    for block in sorted(source.store, key=lambda block: block.round):
        if block.round >= checkpoint.floor:
            adopter.store.add(block)
    polled = adopter.committer
    sweeping = sweeping_cls(adopter.store, adopter.schedule, adopter.coin, adopter.config)
    sweeps = spy_on_sweeps(polled)
    for committer in (polled, sweeping):
        # Nothing below the floor can be decided: the cursor stays put.
        assert committer.extend_commit_sequence() == []
        assert committer._undecided and committer._decided
        committer.adopt_checkpoint(checkpoint)
        assert not committer._undecided and not committer._decided
    extension = polled.extend_commit_sequence()
    assert len(sweeps) == 2
    assert extension == sweeping.extend_commit_sequence()
    assert [status_view(obs.status) for obs in extension] == statuses_from(
        source_commits, checkpoint.next_slot
    )[: len(extension)]
    assert polled.extend_commit_sequence() == [] and len(sweeps) == 2
    return len(extension)


def test_poll_right_after_checkpoint_adoption():
    assert poll_right_after_checkpoint_adoption(Committer, SweepingCommitter) > 10


# ----------------------------------------------------------------------
# The walk across everything that drops or moves its memos
# ----------------------------------------------------------------------
def test_late_vote_round_block_alone_settles_a_skip():
    """The vote round is half of a slot's evidence: a straggler's
    non-voting block tips the direct skip with the certify round
    untouched (``n = 4``; validator 3 leads slot 1 and only its own
    chain ever references its proposal)."""
    committee = Committee.of_size(4)
    coin = FixedCoin(n=4, threshold=committee.quorum_threshold)
    coin.elect(certify_round=5, validator=3)
    builder = DagBuilder(committee, coin)
    config = ProtocolConfig(wave_length=5, leaders_per_round=1)
    committer = Committer(builder.store, committee, coin, config)
    shunning = [(0, 1), (1, 1), (2, 1)]
    builder.round(1)
    for round_number in (2, 3, 4):
        for author in (1, 2):
            builder.block(author, round_number, parents=shunning)
        builder.block(3, round_number, parents=[(3, round_number - 1), *shunning[1:]])
        if round_number < 4:
            builder.block(0, round_number, parents=shunning)
        shunning = [(a, round_number) for a in (0, 1, 2)]
    for author in (1, 2, 3):
        builder.block(author, 5, parents=[(1, 4), (2, 4), (3, 4)])

    def make_reference():
        return Committer(builder.store, committee, coin, config)

    check_statuses(committer, make_reference)
    undecided = committer.slot_statuses()[0]
    assert (undecided.slot.authority, undecided.decision) == (3, Decision.UNDECIDED)
    builder.block(0, 4, parents=[(0, 3), (1, 3), (2, 3)])
    check_statuses(committer, make_reference)
    skipped = committer.slot_statuses()[0]
    assert skipped.decision is Decision.SKIP and skipped.direct


@pytest.mark.parametrize("seed", range(4))
def test_across_epoch_activations(seed):
    """Join/leave commands commit mid-stream (``n`` goes 4, 5, 4, so the
    quorum grows and shrinks); every activation drops the kept verdicts
    and restarts the walk.  The sequence is extended only now and then,
    so the verdicts kept at an activation span many rounds, partial ones
    included."""
    rng = random.Random(seed)
    stream = build_epoch_resize_stream(
        genesis_size=4, provisioned=5, rounds=36, lag=6, txs_per_block=1
    )
    store = DagStore()
    store.add_genesis(make_genesis(stream.genesis_size))
    config = ProtocolConfig(wave_length=5, leaders_per_round=1, reconfig_activation_lag=stream.lag)
    schedule = CommitteeSchedule(
        Committee.of_size(stream.genesis_size), provisioned=stream.provisioned
    )
    committer = Committer(store, schedule, _StreamCoin(), config)

    def make_reference():
        # Shares the schedule the incremental walk keeps extending.
        return Committer(store, schedule, _StreamCoin(), config)

    observations = []
    for blocks in stream.rounds:
        for block in rng.sample(blocks, len(blocks)):
            store.add(block)
            check_statuses(committer, make_reference)
            if rng.random() < 0.04:
                observations.extend(committer.extend_commit_sequence())
                check_statuses(committer, make_reference)
    observations.extend(committer.extend_commit_sequence())
    assert len(schedule.epochs()) == 3
    assert sequence_view(observations) == sequence_view(replay_stream_oneshot(stream)[0])


@pytest.mark.parametrize("seed", range(3))
def test_across_garbage_collection(seed):
    """A core that prunes behind its commit frontier (dropping the
    traversal memos with the blocks) finalizes exactly what one that
    keeps everything does."""
    rng = random.Random(seed)
    n, rounds, depth = 7, 40, 6
    committee = Committee.of_size(n)
    coin = FastCoin(seed=b"incremental", n=n, threshold=committee.quorum_threshold)
    blocks = random_dag(rng, coin, n, 5, rounds, {rng.randrange(n): 9}, set(), set())
    pruning, keeping = (
        MahiMahiCore(
            0,
            committee,
            ProtocolConfig(wave_length=5, leaders_per_round=2, garbage_collection_depth=gc),
            coin,
        )
        for gc in (depth, 0)
    )
    pruned, kept = record_commits(pruning), record_commits(keeping)
    for block in causal_order(rng, n, blocks, set(), 0):
        for core in (pruning, keeping):
            assert core.add_block(block).accepted
            check_statuses(
                core.committer,
                lambda core=core: Committer(core.store, committee, coin, core.config),
            )
            core.try_commit()
        assert sequence_view(pruned) == sequence_view(kept)
    assert pruning.store.lowest_round > rounds - 3 * depth
    assert keeping.store.lowest_round == 0


@pytest.mark.parametrize("seed", range(3))
def test_across_checkpoint_adoption_and_floor_raise(seed):
    """A fresh core adopts a checkpoint, has its state-transfer floor
    raised past history its peers already pruned, then catches up block
    by block: it settles every slot from the checkpoint's cursor on the
    way the validators that never stopped did."""
    rng = random.Random(seed)
    cores = [make_core(i, interval=2) for i in range(4)]
    source = cores[0]
    source_commits = record_commits(source)
    drive_rounds(cores, 40)
    checkpoint = source.committer.ledger.checkpoints[0]
    adopter = make_core(3, interval=2)
    adopter_commits = record_commits(adopter)
    adopter.adopt_checkpoint(checkpoint)
    raised = checkpoint.floor + 2
    assert 0 < checkpoint.floor and raised <= checkpoint.round + 1
    suffix = sorted(
        (block for block in source.store if block.round >= raised),
        key=lambda block: (block.round, rng.random()),
    )

    def make_reference():
        reference = Committer(adopter.store, adopter.schedule, adopter.coin, adopter.config)
        reference.adopt_checkpoint(checkpoint)
        return reference

    for index, block in enumerate(suffix):
        accepted = adopter.add_block(block).accepted
        if index < 3:
            assert not accepted  # waiting on parents below ``raised``
        if index == 2:
            assert len(adopter.raise_sync_floor(raised)) == 3
        check_statuses(adopter.committer, make_reference)
        adopter.try_commit()
    ours = [status_view(obs.status) for obs in adopter_commits]
    assert len(ours) > 10
    assert ours == statuses_from(source_commits, checkpoint.next_slot)[: len(ours)]


def block_memo_entries(block: Block) -> int:
    """Entries in what ``block`` remembers of its votes: one per slot it
    was searched for, one per (slot, voted digest) its parents support."""
    return len(block.voted or ()) + sum(len(votes) for votes in (block.support or {}).values())


@pytest.mark.parametrize("depth", [0, 8])
def test_memos_follow_the_walk_window_not_the_round_number(depth):
    """The kept verdicts go as the cursor passes their slot and the
    wave's coin as it leaves their leader round (garbage
    collection, where configured, finds nothing left to drop), so their
    size follows ``wave_length x n`` — not how long the validator has
    been running.  What a block remembers of its own votes follows the
    wave geometry alone: it is searched for the leader slots of the
    ``wave_length - 1`` rounds below it, never for more however long the
    run, and goes with the block."""
    rng = random.Random(depth)
    n, wave, leaders, rounds = 4, 5, 2, 200
    committee = Committee.of_size(n)
    coin = FastCoin(seed=b"incremental", n=n, threshold=committee.quorum_threshold)
    config = ProtocolConfig(
        wave_length=wave, leaders_per_round=leaders, garbage_collection_depth=depth
    )
    core = MahiMahiCore(0, committee, config, coin)
    committer = core.committer
    blocks = random_dag(rng, coin, n, wave, rounds, {}, set(), {3})
    largest = largest_on_a_block = 0
    for block in causal_order(rng, n, blocks, {3}, 2):
        core.add_block(block)
        core.try_commit()
        largest = max(largest, len(committer._elector._cache))
        window = core.store.highest_round - committer.next_slot.round + 1
        assert window <= 3 * wave
        # One coin per certify round from the cursor's wave up.
        assert len(committer._elector._cache) <= window
        assert len(committer._undecided) + len(committer._decided) <= window * leaders
    for block in blocks:
        largest_on_a_block = max(largest_on_a_block, block_memo_entries(block))
        # A block is a certifier of one leader round and on the search
        # path of the leader rounds between that one and its own.
        assert block_memo_entries(block) <= wave * leaders
        assert all(block.round - wave < r < block.round for _, r in block.voted or ())
        assert all(r == block.round - wave + 1 for _, r in block.support or ())
    assert largest > 0 and largest_on_a_block > 1
    assert committer.next_slot.round > rounds - 3 * wave


# ----------------------------------------------------------------------
# The already-linearized set under garbage collection
# ----------------------------------------------------------------------
def test_linearized_digests_are_forgotten_with_the_rounds_the_store_prunes():
    """300 rounds at ``gc_depth = 8``: the set ``linearize`` consults
    holds digests of blocks still in the store and nothing else — so it
    stays within the GC window times ``n`` — while the core commits what
    one that never prunes (and never forgets) commits."""
    rng = random.Random(8)
    n, wave, rounds, depth = 4, 5, 300, 8
    committee = Committee.of_size(n)
    coin = FastCoin(seed=b"incremental", n=n, threshold=committee.quorum_threshold)
    pruning, keeping = (
        MahiMahiCore(
            0,
            committee,
            ProtocolConfig(wave_length=wave, leaders_per_round=2, garbage_collection_depth=gc),
            coin,
        )
        for gc in (depth, 0)
    )
    pruned, kept = record_commits(pruning), record_commits(keeping)
    blocks = random_dag(rng, coin, n, wave, rounds, {}, set(), {3})
    largest = 0
    for block in causal_order(rng, n, blocks, {3}, 2):
        for core in (pruning, keeping):
            core.add_block(block)
            core.try_commit()
        output, store = pruning.committer._output, pruning.store
        window = store.highest_round - store.lowest_round + 1
        assert window <= depth + 3 * wave
        assert len(output) <= window * n
        assert all(digest in store for digest in output)
        largest = max(largest, len(output))
    assert largest > depth * n / 2
    assert sequence_view(pruned) == sequence_view(kept)
    assert len(keeping.committer._output) == keeping.committer.committed_sequence_length
    assert keeping.committer.committed_sequence_length > (rounds - 3 * wave) * (n - 1)


def test_an_adopters_seeded_digests_go_as_its_store_prunes_their_rounds():
    """``adopt_checkpoint`` seeds the set from the checkpoint's
    references (so nothing below the cursor is linearized twice); the
    seeds are dropped like any other digest once their blocks, fetched
    since, are pruned."""
    cores = [make_core(i, interval=2, gc=8) for i in range(4)]
    source = cores[0]
    source_commits = record_commits(source)
    drive_rounds(cores, 30)
    checkpoint = source.committer.ledger.checkpoints[-1]
    adopter = make_core(3, interval=2, gc=8)
    adopter_commits = record_commits(adopter)
    adopter.adopt_checkpoint(checkpoint)
    seeds = {ref.digest for ref in checkpoint.linearized}
    assert seeds and adopter.committer._output == seeds
    for block in sorted(source.store, key=lambda block: block.round):
        if block.round >= checkpoint.floor:
            adopter.add_block(block)
    adopter.try_commit()
    cores[3] = adopter
    drive_rounds(cores, 30)
    assert adopter.store.lowest_round > checkpoint.round
    assert not adopter.committer._output & seeds
    assert all(digest in adopter.store for digest in adopter.committer._output)
    ours = [status_view(obs.status) for obs in adopter_commits]
    assert len(ours) > 20
    assert ours == statuses_from(source_commits, checkpoint.next_slot)[: len(ours)]
