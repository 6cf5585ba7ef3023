"""Tests for Algorithm 1's commit-sequence machinery."""

from repro.committee import Committee
from repro.config import ProtocolConfig
from repro.core.committer import Committer
from repro.core.slots import Decision

from ..helpers import DagBuilder, FixedCoin


def make(leaders=1, wave=5, stride=1, direct_skip=True):
    committee = Committee.of_size(4)
    coin = FixedCoin(n=4, threshold=committee.quorum_threshold)
    config = ProtocolConfig(wave_length=wave, leaders_per_round=leaders)
    builder = DagBuilder(committee, coin)
    committer = Committer(
        builder.store,
        committee,
        coin,
        config,
        wave_stride=stride,
        direct_skip_enabled=direct_skip,
    )
    return coin, builder, committer


class TestExtendCommitSequence:
    def test_empty_dag_commits_nothing(self):
        _, _, committer = make()
        assert committer.extend_commit_sequence() == []

    def test_lockstep_commits_in_slot_order(self):
        coin, builder, committer = make(leaders=2)
        builder.rounds(1, 12)
        observations = committer.extend_commit_sequence()
        slots = [(o.status.slot.round, o.status.slot.offset) for o in observations]
        assert slots == sorted(slots)
        assert slots[0] == (1, 0) and slots[1] == (1, 1)
        assert all(o.status.decision is Decision.COMMIT for o in observations)

    def test_idempotent_without_new_blocks(self):
        _, builder, committer = make()
        builder.rounds(1, 10)
        first = committer.extend_commit_sequence()
        assert first
        assert committer.extend_commit_sequence() == []

    def test_incremental_extension_matches_oneshot(self):
        """Committing round-by-round must produce the same sequence as
        committing once at the end (determinism of the rules)."""
        _, builder_a, committer_a = make(leaders=2)
        _, builder_b, committer_b = make(leaders=2)
        incremental = []
        for r in range(1, 13):
            builder_a.round(r)
            builder_b.round(r)
            for obs in committer_a.extend_commit_sequence():
                incremental.extend(obs.linearized)
        oneshot = []
        for obs in committer_b.extend_commit_sequence():
            oneshot.extend(obs.linearized)
        assert [b.digest for b in incremental] == [b.digest for b in oneshot]

    def test_stops_at_first_undecided_slot(self):
        """A skipped-crashed leader decides, but an undecided slot stalls
        the sequence (Algorithm 1 line 7)."""
        coin, builder, committer = make()
        coin.elect(certify_round=5, validator=0)
        builder.rounds(1, 5)
        # Wave of round 2 is incomplete (certify round 6 missing), so the
        # sequence extends exactly one slot.
        observations = committer.extend_commit_sequence()
        assert [o.status.slot.round for o in observations] == [1]
        assert committer.next_slot.round == 2

    def test_skipped_slots_emit_empty_observations(self):
        coin, builder, committer = make()
        coin.elect(certify_round=5, validator=3)
        builder.rounds(1, 10, authors=[0, 1, 2])  # validator 3 crashed
        observations = committer.extend_commit_sequence()
        skipped = [o for o in observations if o.status.decision is Decision.SKIP]
        assert skipped
        assert all(o.linearized == () for o in skipped)

    def test_every_transaction_committed_exactly_once(self):
        from repro.transaction import Transaction

        _, builder, committer = make()
        tx_counter = 0
        for r in range(1, 15):
            for author in range(4):
                tx_counter += 1
                builder.block(
                    author, r, transactions=(Transaction.dummy(tx_counter),)
                )
        seen = []
        for obs in committer.extend_commit_sequence():
            for block in obs.linearized:
                seen.extend(tx.tx_id for tx in block.transactions)
        assert len(seen) == len(set(seen))

    def test_commit_stats_track_decisions(self):
        _, builder, committer = make(leaders=2)
        builder.rounds(1, 12)
        committer.extend_commit_sequence()
        stats = committer.stats
        assert stats.direct_commits > 0
        assert stats.blocks_committed == committer.committed_sequence_length


class TestWaveStride:
    def test_stride_one_has_leader_every_round(self):
        _, _, committer = make(stride=1)
        assert [r for r in range(6) if committer.is_leader_round(r)] == [1, 2, 3, 4, 5]

    def test_stride_five_matches_cordial_miners(self):
        _, _, committer = make(stride=5)
        assert [r for r in range(13) if committer.is_leader_round(r)] == [1, 6, 11]

    def test_round_zero_never_hosts_leaders(self):
        _, _, committer = make()
        assert not committer.is_leader_round(0)
        assert not committer.is_leader_round(-3)

    def test_stride_commits_once_per_wave(self):
        _, builder, committer = make(stride=5)
        builder.rounds(1, 16)
        observations = committer.extend_commit_sequence()
        rounds = [o.status.slot.round for o in observations]
        assert rounds == [1, 6, 11]


class TestLastFinalizedRound:
    def test_advances_with_cursor(self):
        _, builder, committer = make(leaders=2)
        assert committer.last_finalized_round == 0
        builder.rounds(1, 10)
        committer.extend_commit_sequence()
        assert committer.last_finalized_round == committer.next_slot.round - 1
