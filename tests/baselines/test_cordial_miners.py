"""Tests for the Cordial Miners baseline committer."""

from repro.baselines.cordial_miners import make_cordial_miners_committer
from repro.committee import Committee
from repro.config import MAHI_MAHI_5
from repro.core.slots import Decision

from ..helpers import DagBuilder, FixedCoin


def make():
    committee = Committee.of_size(4)
    coin = FixedCoin(n=4, threshold=committee.quorum_threshold)
    builder = DagBuilder(committee, coin)
    committer = make_cordial_miners_committer(builder.store, committee, coin, MAHI_MAHI_5)
    return coin, builder, committer


class TestWaveStructure:
    def test_one_leader_every_five_rounds(self):
        _, _, committer = make()
        assert [r for r in range(17) if committer.is_leader_round(r)] == [1, 6, 11, 16]
        assert committer.leaders_per_round == 1

    def test_lockstep_commits_one_leader_per_wave(self):
        coin, builder, committer = make()
        builder.rounds(1, 16)
        observations = committer.extend_commit_sequence()
        committed_rounds = [
            o.status.slot.round
            for o in observations
            if o.status.decision is Decision.COMMIT
        ]
        assert committed_rounds == [1, 6, 11]

    def test_commit_includes_whole_wave_history(self):
        """All 5 rounds' blocks linearize under the wave's single leader
        — this is why non-leader latency is higher than Mahi-Mahi's."""
        coin, builder, committer = make()
        builder.rounds(1, 11)
        observations = committer.extend_commit_sequence()
        commits = [o for o in observations if o.status.decision is Decision.COMMIT]
        second_commit = commits[1]
        # The round-6 leader linearizes rounds 1..6 minus what round-1's
        # leader already output.
        rounds_covered = {b.round for b in second_commit.linearized}
        assert 6 in rounds_covered
        assert min(rounds_covered) <= 2


class TestNoDirectSkip:
    def test_crashed_leader_stays_undecided_until_anchor(self):
        """Without Mahi-Mahi's direct skip, a dead leader's slot resolves
        only via the next wave's committed leader (Section 5.3: ~2 rounds
        later than Mahi-Mahi)."""
        coin, builder, committer = make()
        coin.elect(certify_round=5, validator=3)  # crashed
        coin.elect(certify_round=10, validator=0)
        builder.rounds(1, 5, authors=[0, 1, 2])
        statuses = committer.try_decide(1, 5)
        assert statuses[0].decision is Decision.UNDECIDED  # no direct skip
        builder.rounds(6, 10, authors=[0, 1, 2])
        statuses = committer.try_decide(1, 10)
        assert statuses[0].decision is Decision.SKIP
        assert not statuses[0].direct

    def test_dead_leader_blocks_sequence_until_next_wave(self):
        coin, builder, committer = make()
        coin.elect(certify_round=5, validator=3)
        builder.rounds(1, 5, authors=[0, 1, 2])
        assert committer.extend_commit_sequence() == []
        builder.rounds(6, 10, authors=[0, 1, 2])
        observations = committer.extend_commit_sequence()
        assert [o.status.decision for o in observations] == [
            Decision.SKIP,
            Decision.COMMIT,
        ]


class TestAgreementWithMahiMahi:
    def test_uses_same_certificates(self):
        """CM's direct commit rule is Mahi-Mahi's: 2f+1 certificates at
        the certify round."""
        coin, builder, committer = make()
        coin.elect(certify_round=5, validator=1)
        builder.rounds(1, 5)
        status = committer.try_decide(1, 5)[0]
        assert status.decision is Decision.COMMIT
        assert status.direct
        assert status.block == builder.get(1, 1)
