"""Checkpoint agreement under random schedules.

Checkpoint recovery adopts the checkpoint that ``2f + 1`` validators
attest by content address (:class:`~repro.statesync.CheckpointVotes`),
so honest validators must capture the same checkpoints at the same
rounds, whatever order their blocks arrived in.  The
lockstep case is in ``test_checkpoint.py``; these drive the cores of
the randomized agreement tests — a random quorum of each round
delivered at once, the rest later — with a crashed or an equivocating
peer, and compare every honest validator's captures.
"""

from __future__ import annotations

import pytest

from ..core.test_agreement_random import RandomScheduleCluster

#: Capture every other round: a 40-step run captures a dozen or more.
INTERVAL = 2


def assert_checkpoints_agree(cluster):
    """Once the schedule has delivered everything, every honest
    validator has captured as many checkpoints as the others and retains
    the same ones: where a capture falls is a function of the commit
    sequence, not of when its blocks arrived."""
    ledgers = [core.committer.ledger for core in cluster.honest()]
    assert ledgers[0].captured_total >= 2
    assert {ledger.captured_total for ledger in ledgers} == {ledgers[0].captured_total}
    ids = [[c.checkpoint_id for c in ledger.checkpoints] for ledger in ledgers]
    assert all(sequence == ids[0] for sequence in ids)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("wave", [4, 5])
def test_checkpoints_agree_under_random_schedule(seed, wave):
    cluster = RandomScheduleCluster(wave=wave, seed=seed, checkpoint_interval=INTERVAL)
    cluster.run(40)
    cluster.assert_agreement()
    assert_checkpoints_agree(cluster)


@pytest.mark.parametrize("seed", range(4))
def test_checkpoints_agree_with_crash_fault(seed):
    cluster = RandomScheduleCluster(seed=seed, crashed={3}, checkpoint_interval=INTERVAL)
    cluster.run(40)
    assert_checkpoints_agree(cluster)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("wave", [4, 5])
def test_checkpoints_agree_with_equivocator(seed, wave):
    cluster = RandomScheduleCluster(
        wave=wave, seed=seed, equivocators={2}, checkpoint_interval=INTERVAL
    )
    cluster.run(40)
    assert_checkpoints_agree(cluster)


@pytest.mark.parametrize("seed", range(4))
def test_checkpoints_agree_in_a_larger_committee_with_both_faults(seed):
    """Seven validators finalize several slots in one walk at times, so
    this also checks that a batch captures at every boundary it
    crosses, as a slot-by-slot walk does."""
    cluster = RandomScheduleCluster(
        n=7, wave=4, seed=seed, crashed={6}, equivocators={5}, checkpoint_interval=INTERVAL
    )
    cluster.run(35)
    assert_checkpoints_agree(cluster)


@pytest.mark.parametrize("seed", range(4))
def test_each_capture_extends_the_one_before(seed):
    """Rounds and sequence lengths rise capture by capture, the floor
    never falls, and a capture sits at least one interval past the one
    before it."""
    cluster = RandomScheduleCluster(seed=seed, checkpoint_interval=INTERVAL)
    cluster.run(40)
    for core in cluster.honest():
        checkpoints = core.committer.ledger.checkpoints
        assert len(checkpoints) >= 2
        for before, after in zip(checkpoints, checkpoints[1:]):
            assert after.round >= before.round + INTERVAL
            assert after.sequence_length > before.sequence_length
            assert after.floor >= before.floor
