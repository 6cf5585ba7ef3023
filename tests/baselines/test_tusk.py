"""Tests for the Tusk baseline committer.

The second half is the poll's: ``TuskCommitter`` inherits
``Committer._verdicts_may_move`` and feeds it by stamping its UNDECIDED
verdicts with the block counts of rounds ``(r + 1, r + 2)``.  The oracle
is :class:`SweepingTusk` — the same class with the poll answering
"sweep" every time, which is how Tusk ran before — compared call for
call over one store, the pattern of
``tests/core/test_committer_incremental.py``.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.tusk import TUSK_WAVE, TuskCommitter
from repro.block import make_genesis
from repro.committee import Committee
from repro.config import ProtocolConfig
from repro.core.committer import Committer
from repro.core.slots import Decision
from repro.crypto.coin import FastCoin
from repro.dag.store import DagStore

from ..core.test_committer_incremental import (
    causal_order,
    poll_across_epoch_activations,
    poll_right_after_checkpoint_adoption,
    random_dag,
    spy_on_sweeps,
    status_view,
)
from ..helpers import DagBuilder, FixedCoin


def make():
    committee = Committee.of_size(4)
    coin = FixedCoin(n=4, threshold=committee.quorum_threshold)
    builder = DagBuilder(committee, coin)
    committer = TuskCommitter(builder.store, committee, coin, ProtocolConfig())
    return coin, builder, committer


class TestWaveStructure:
    def test_leader_every_two_rounds(self):
        _, _, committer = make()
        assert [r for r in range(1, 10) if committer.is_leader_round(r)] == [1, 3, 5, 7, 9]

    def test_coin_opens_two_rounds_later(self):
        _, _, committer = make()
        assert committer.coin_round(1) == 3
        assert committer.coin_round(5) == 7


class TestDirectCommit:
    def test_f_plus_one_support_commits(self):
        coin, builder, committer = make()
        coin.elect(certify_round=3, validator=0)
        builder.rounds(1, 3)
        status = committer.try_decide(1, 3)[0]
        assert status.decision is Decision.COMMIT
        assert status.direct
        assert status.block == builder.get(0, 1)

    def test_no_commit_before_coin_round(self):
        coin, builder, committer = make()
        builder.rounds(1, 2)
        status = committer.try_decide(1, 2)[0]
        assert status.decision is Decision.UNDECIDED

    def test_insufficient_support_stays_undecided(self):
        coin, builder, committer = make()
        coin.elect(certify_round=3, validator=3)
        builder.round(1)
        # Round-2 blocks skip validator 3's round-1 block entirely, and
        # round-3 references give the coin its quorum.
        for author in range(4):
            builder.block(author, 2, parents=[(0, 1), (1, 1), (2, 1)])
        builder.round(3)
        status = committer.try_decide(1, 3)[0]
        # 0 supporters < f+1 = 2: undecided (Tusk has no direct skip).
        assert status.decision is Decision.UNDECIDED

    def test_support_counts_distinct_authors(self):
        coin, builder, committer = make()
        coin.elect(certify_round=3, validator=0)
        builder.round(1)
        # Only validator 1 references leader (0,1); others skip it.
        builder.block(1, 2, parents=[(0, 1), (1, 1), (2, 1)])
        for author in (0, 2, 3):
            builder.block(author, 2, parents=[(1, 1), (2, 1), (3, 1)])
        builder.round(3)
        status = committer.try_decide(1, 3)[0]
        assert status.decision is Decision.UNDECIDED  # 1 < f+1


class TestIndirectRule:
    def test_undecided_leader_resolved_by_next_committed_leader(self):
        coin, builder, committer = make()
        coin.elect(certify_round=3, validator=3)
        coin.elect(certify_round=5, validator=0)
        builder.round(1)
        for author in range(4):
            builder.block(author, 2, parents=[(0, 1), (1, 1), (2, 1)])
        builder.rounds(3, 5)
        statuses = committer.try_decide(1, 5)
        assert statuses[0].decision is Decision.SKIP  # dead leader skipped
        assert statuses[1].decision is Decision.COMMIT

    def test_earlier_leader_in_history_commits_indirectly(self):
        coin, builder, committer = make()
        coin.elect(certify_round=3, validator=0)
        coin.elect(certify_round=5, validator=1)
        builder.round(1)
        # Support split: only validator 1 references leader block, so
        # round-1 leader is undecided directly...
        builder.block(1, 2, parents=[(0, 1), (1, 1), (2, 1)])
        for author in (0, 2, 3):
            builder.block(author, 2, parents=[(1, 1), (2, 1), (3, 1)])
        # ...but the round-3 leader (committed) reaches it causally.
        builder.rounds(3, 5)
        statuses = committer.try_decide(1, 5)
        assert statuses[1].decision is Decision.COMMIT
        first = statuses[0]
        assert first.decision is Decision.COMMIT
        assert not first.direct


class TestSequenceExtension:
    def test_lockstep_commits_every_wave(self):
        coin, builder, committer = make()
        builder.rounds(1, 13)
        observations = committer.extend_commit_sequence()
        committed = [o for o in observations if o.status.decision is Decision.COMMIT]
        assert len(committed) >= 4
        assert committer.last_finalized_round >= 7

    def test_cursor_advances_by_wave(self):
        coin, builder, committer = make()
        builder.rounds(1, 13)
        committer.extend_commit_sequence()
        assert (committer._cursor_round - 1) % TUSK_WAVE == 0

    def test_idempotent(self):
        _, builder, committer = make()
        builder.rounds(1, 13)
        assert committer.extend_commit_sequence()
        assert committer.extend_commit_sequence() == []

    def test_transactions_linearize_once(self):
        from repro.transaction import Transaction

        _, builder, committer = make()
        tx = 0
        for r in range(1, 14):
            for author in range(4):
                tx += 1
                builder.block(author, r, transactions=(Transaction.dummy(tx),))
        seen = []
        for obs in committer.extend_commit_sequence():
            for block in obs.linearized:
                seen.extend(t.tx_id for t in block.transactions)
        assert len(seen) == len(set(seen))


def test_memos_follow_the_cursor_not_the_round_number():
    """Tusk twin of ``test_memos_follow_the_walk_window_not_the_round_number``
    (tests/core/test_committer_incremental.py): the shared sequencer
    drops a wave's coin and its kept verdict as the cursor leaves the
    leader round, so both stay within a few waves of the cursor however
    long the validator has been running."""
    _, builder, committer = make()
    for round_number in range(1, 201):
        builder.round(round_number)
        committer.extend_commit_sequence()
        window = round_number - committer.next_slot.round + 1
        assert window <= 3 * TUSK_WAVE
        assert len(committer._elector._cache) <= window
        assert len(committer._decided) + len(committer._undecided) <= window
    assert committer.next_slot.round > 200 - 3 * TUSK_WAVE


def test_layer_attribution_names_are_tusk_own():
    # benchmarks/perf/mmperf/layers.py patches each target on the class
    # in the MRO that defines it: inherited, these two would wrap the
    # shared method twice and book every Mahi-Mahi commit to Tusk.
    assert {"try_decide", "extend_commit_sequence"} <= set(vars(TuskCommitter))
    assert {"try_decide", "extend_commit_sequence"} <= set(vars(Committer))


# ----------------------------------------------------------------------
# The poll: equal, call for call, to sweeping every time
# ----------------------------------------------------------------------
class SweepingTusk(TuskCommitter):
    """``ExtendCommitSequence`` with no poll: every call sweeps."""

    def _verdicts_may_move(self, highest: int) -> bool:
        return True


class MisstampedTusk(TuskCommitter):
    """The mutant: UNDECIDED verdicts stamped with the counts of rounds
    ``(r, r + 1)`` — one round below the two the direct rule reads."""

    def try_decide(self, from_round: int, to_round: int):
        statuses = super().try_decide(from_round, to_round)
        blocks_at = self._store.num_blocks_at_round
        for (leader_round, offset), (_, status) in list(self._undecided.items()):
            stamp = (blocks_at(leader_round), blocks_at(leader_round + 1))
            self._undecided[leader_round, offset] = (stamp, status)
        return statuses


def check_call_for_call(polled, sweeping, deliveries) -> list:
    """Run ``deliveries`` — callables that each insert some blocks —
    extending both committers after each: equal observations every
    time.  Returns everything finalized."""
    observations = []
    for deliver in deliveries:
        deliver()
        extension = polled.extend_commit_sequence()
        assert extension == sweeping.extend_commit_sequence()
        observations.extend(extension)
    assert polled.slot_statuses() == sweeping.slot_statuses()
    return observations


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n=st.sampled_from([4, 7, 10]),
    wave_length=st.sampled_from([3, 5]),
    crashed=st.integers(0, 1),
    equivocators=st.integers(0, 1),
    stragglers=st.integers(0, 2),
    lag=st.integers(1, 4),
    cadence=st.sampled_from(["every insert", "every third", "a wave apart"]),
)
def test_polled_extension_returns_what_sweeping_every_call_returns(
    seed, n, wave_length, crashed, equivocators, stragglers, lag, cadence
):
    """Random DAGs in a random causal order — stragglers delivered
    rounds late, a crash, an equivocator (the committer's rule does not
    rely on the certified mode that keeps forks out of the simulator's
    DAG), leaders often shunned so that indirect commits and skips are
    common.  ``wave_length`` is the caller's and must not matter."""
    rng = random.Random(seed)
    rounds = 16
    committee = Committee.of_size(n)
    coin = FastCoin(seed=b"tusk-poll", n=n, threshold=committee.quorum_threshold)
    authors = rng.sample(range(n), crashed + equivocators + stragglers)
    crash_round = {a: rng.randint(1, rounds) for a in authors[:crashed]}
    forking = set(authors[crashed : crashed + equivocators])
    late = set(authors[crashed + equivocators :])
    # ``wave=3`` makes ``random_dag`` shun the leader Tusk elects: the
    # coin of leader round ``r`` opens at ``r + 2``.
    blocks = random_dag(rng, coin, n, 3, rounds, crash_round, forking, late)
    store = DagStore()
    store.add_genesis(make_genesis(n))
    config = ProtocolConfig(wave_length=wave_length)
    polled, sweeping = (cls(store, committee, coin, config) for cls in (TuskCommitter, SweepingTusk))
    sweeps = spy_on_sweeps(polled)
    order = causal_order(rng, n, blocks, late, lag)
    gap = {"every insert": 1, "every third": 3}.get(cadence, 3 * n)
    chunks = [order[start : start + gap] for start in range(0, len(order), gap)]
    deliveries = [lambda chunk=chunk: [store.add(block) for block in chunk] for chunk in chunks]
    observations = check_call_for_call(polled, sweeping, deliveries)
    scratch = TuskCommitter(store, committee, coin, config).extend_commit_sequence()
    if not forking:
        assert [status_view(obs.status) for obs in observations] == [
            status_view(obs.status) for obs in scratch
        ]
    if gap == 1:
        # No coin is open before round 3 has a quorum of authors.
        assert len(sweeps) <= len(chunks) - 2 * (n - crashed)


@pytest.mark.parametrize("wave_length", [3, 4, 5])
def test_lockstep_rounds_cost_one_sweep_each_and_a_burst_costs_one(wave_length):
    """Block by block over full rounds (``n = 4``) the only insert that
    moves a verdict is the one that opens a coin, and that sweep commits
    the wave's leader; then several waves arrive between two calls and
    one sweep finalizes them.  The certify distance is Tusk's own
    (``coin_round``): whatever ``wave_length`` the caller's config
    carries, the same rounds are polled and the same sweeps made."""
    committee = Committee.of_size(4)
    builder = DagBuilder(committee, FixedCoin(n=4, threshold=committee.quorum_threshold))
    config = ProtocolConfig(wave_length=wave_length)
    polled, sweeping = (
        cls(builder.store, committee, builder.coin, config) for cls in (TuskCommitter, SweepingTusk)
    )
    sweeps = spy_on_sweeps(polled)
    for round_number in range(1, 12):
        for author in range(4):
            builder.block(author, round_number)
            extension = polled.extend_commit_sequence()
            assert extension == sweeping.extend_commit_sequence()
            # The third block of round ``r + 2`` opens leader round ``r``'s coin.
            opens = author == 2 and round_number >= 3 and round_number % TUSK_WAVE == 1
            assert len(extension) == (1 if opens else 0)
    assert sweeps == [(leader, leader) for leader in (1, 3, 5, 7, 9)]

    del sweeps[:]
    builder.rounds(12, 18)
    extension = polled.extend_commit_sequence()
    assert extension == sweeping.extend_commit_sequence()
    assert [obs.status.slot.round for obs in extension] == [11, 13, 15]
    assert polled.extend_commit_sequence() == [] and sweeps == [(11, 16)]


def late_supporter(cls):
    """``(committers, deliveries)``: validator 3 leads round 1 and only
    validator 2's round-2 block references its proposal, so the sweep
    that opens the coin (third block of round 3) leaves the slot
    UNDECIDED on one supporter of the ``f + 1 = 2`` it needs; validator
    3's own round-2 block, delivered last, is the second."""
    committee = Committee.of_size(4)
    coin = FixedCoin(n=4, threshold=committee.quorum_threshold)
    coin.elect(certify_round=3, validator=3)
    builder = DagBuilder(committee, coin)
    committers = [
        c(builder.store, committee, coin, ProtocolConfig()) for c in (cls, SweepingTusk)
    ]
    shunning = [(0, 1), (1, 1), (2, 1)]
    deliveries = [
        lambda: builder.round(1),
        lambda: [builder.block(author, 2, parents=shunning) for author in (0, 1)],
        lambda: builder.block(2, 2),
        lambda: [builder.block(a, 3, parents=[(0, 2), (1, 2), (2, 2)]) for a in (0, 1, 2)],
        lambda: builder.block(3, 2, parents=[(3, 1), (0, 1), (1, 1)]),
    ]
    return committers, deliveries


def test_late_support_round_block_alone_commits():
    """The support round is half of a slot's stamp: a straggler's
    round-``r + 1`` block tips the direct commit with the coin round
    untouched."""
    (polled, sweeping), deliveries = late_supporter(TuskCommitter)
    sweeps = spy_on_sweeps(polled)
    (committed,) = check_call_for_call(polled, sweeping, deliveries)
    assert committed.status.decision is Decision.COMMIT and committed.status.direct
    assert committed.status.slot.authority == 3
    # The coin opening, the supporter — and the check's closing ``slot_statuses()``.
    assert sweeps == [(1, 1), (1, 1), (3, 3)]


def test_a_mutant_stamping_one_round_low_is_caught():
    """Stamped ``(r, r + 1)``, the verdict above reads ``(4, 3)`` — what
    the poll then finds at ``(r + 1, r + 2)`` once the supporter is in:
    no sweep, no commit."""
    (mutant, sweeping), deliveries = late_supporter(MisstampedTusk)
    with pytest.raises(AssertionError):
        check_call_for_call(mutant, sweeping, deliveries)
    assert mutant.next_slot.round == 1 and sweeping.next_slot.round == 3


@pytest.mark.parametrize("blocks_per_call", [1, 4, 9, 30])
def test_poll_across_epoch_activations(blocks_per_call):
    """The committee goes 4 -> 5 -> 4 mid-stream (the stream's blocks
    follow a Mahi-Mahi driver's activations; Tusk commits the commands
    at its own slots and activates at its own rounds).  An activation
    drops the kept stamps and restarts the walk from a poll — the
    cursor slot decided under the old epoch asks for the sweep."""
    _, observations, polls, sweeps, restarts_that_finalized = poll_across_epoch_activations(
        TuskCommitter, SweepingTusk, ProtocolConfig(reconfig_activation_lag=6), blocks_per_call
    )
    assert [obs.status.slot.round for obs in observations] == list(range(1, 35, TUSK_WAVE))
    if blocks_per_call == 1:
        assert len(sweeps) < polls / 4
    elif blocks_per_call == 30:
        assert restarts_that_finalized


def test_poll_right_after_checkpoint_adoption():
    # Tusk finalizes a slot every other round: fewer sit above the
    # oldest retained checkpoint than in the Mahi-Mahi twin.
    assert poll_right_after_checkpoint_adoption(TuskCommitter, SweepingTusk) >= 3
