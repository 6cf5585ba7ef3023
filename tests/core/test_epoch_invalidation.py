"""Round-scoped invalidation across epoch activations.

An epoch activation drops only cached state at rounds >= the activation
round (plus cached indirect decisions and the undecided-verdict memo).
These tests pin the safety side of that: the walk must finalize
*byte-identical* observation sequences to the from-scratch walk, no
matter how the block stream is chunked around the activations — and the
memo caches must actually shrink/survive the way the round-scoped rule
promises.

The workload (``tests/core/commit_walk.py``) replays a lockstep stream
whose transactions carry committed join/leave commands, so the committee
grows 6 -> 10 and shrinks back to 9 while the walk is in flight.
"""

from __future__ import annotations

import pytest

from repro.core.decider import LeaderElector
from repro.dag.store import DagStore

from .commit_walk import (
    _StreamCoin,
    build_epoch_resize_stream,
    observation_fingerprint,
    replay_stream,
    replay_stream_oneshot,
)


@pytest.fixture(scope="module")
def stream():
    return build_epoch_resize_stream(
        genesis_size=4, provisioned=7, rounds=36, lag=6, txs_per_block=1
    )


@pytest.fixture(scope="module")
def oneshot_fingerprint(stream):
    observations, committer = replay_stream_oneshot(stream)
    # The workload is only meaningful if the walk actually crossed epoch
    # activations and finalized slots.
    assert len(committer.schedule.epochs()) >= 3, "stream scheduled no epochs"
    assert observations, "stream finalized nothing"
    return observation_fingerprint(observations)


@pytest.mark.parametrize("chunk_rounds", [1, 3, 7, 100])
def test_incremental_walk_matches_from_scratch(stream, oneshot_fingerprint, chunk_rounds):
    """Epoch activation mid-batch: the round-scoped committer's
    observation sequence is byte-identical to a from-scratch replay,
    for smooth (chunk=1), bursty, and all-at-once delivery."""
    observations, _ = replay_stream(stream, chunk_rounds=chunk_rounds)
    assert observation_fingerprint(observations) == oneshot_fingerprint


def test_activation_evicts_high_rounds_but_keeps_direct_low_decisions(stream):
    """Memo accounting through a real activation: cached decisions and
    memos at rounds below the activation survive, everything at or
    above it is gone, and cached *indirect* decisions are dropped
    regardless of round."""
    observations, committer = replay_stream(stream, chunk_rounds=100)
    activations = [epoch.start_round for epoch in committer.schedule.epochs()[1:]]
    assert activations, "no epochs activated"
    # The replayed committer ended past every activation and dropped
    # each round's memos as its cursor left it; judging the whole range
    # again rebuilds them for every round.
    committer.try_decide(1, len(stream.rounds))
    assert committer.traversal.memo_size() > 0
    assert committer._elector.memo_size() > 0

    # Re-run the eviction rule at a hypothetical future activation and
    # check the accounting: every cert verdict >= the cut is gone, the
    # rest survive, and so does what the blocks themselves remember of
    # their votes (committee-independent, not the traversal's to drop).
    cut = activations[-1]
    blocks = list(committer._store)
    votes_before = [(dict(block.voted or ()), dict(block.support or ())) for block in blocks]
    assert any(voted for voted, _ in votes_before) and any(sup for _, sup in votes_before)
    stats_before = committer.traversal.cache_stats()
    dropped_certs = committer.traversal.invalidate_above(cut)
    dropped_coins = committer._elector.invalidate_above(cut)
    stats_after = committer.traversal.cache_stats()
    assert dropped_certs > 0
    assert dropped_coins > 0
    assert stats_after["cert_entries"] == stats_before["cert_entries"] - dropped_certs
    assert stats_after["cert_rounds"] < stats_before["cert_rounds"]
    assert all(r < cut for r in committer.traversal._cert_cache)
    assert all(r < cut for r in committer._elector._cache)
    assert committer.traversal.memo_size() == stats_after["cert_entries"]
    assert [(block.voted or {}, block.support or {}) for block in blocks] == votes_before


def test_elector_invalidate_above_is_round_scoped(stream):
    """LeaderElector.invalidate_above drops exactly the certify rounds
    at or above the cut and reports the count via memo_size."""
    store = DagStore()
    from repro.block import make_genesis
    from repro.committee import Committee

    store.add_genesis(make_genesis(stream.genesis_size))
    for blocks in stream.rounds:
        for block in blocks:
            store.add(block)
    elector = LeaderElector(store, Committee.of_size(stream.genesis_size), _StreamCoin())
    for certify_round in (4, 9, 14, 19):
        assert elector.coin_value(certify_round) is not None
    assert elector.memo_size() == 4
    assert elector.invalidate_above(14) == 2
    assert elector.memo_size() == 2
    assert elector.invalidate_above(0) == 2
    assert elector.memo_size() == 0
