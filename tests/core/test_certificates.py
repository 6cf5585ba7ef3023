"""Certificates read off the certifier's support memo.

``Decider.supported_leader`` (the direct rule) reads each certify-round
block's :attr:`Block.support` memo and judges membership and quorum at
the leader's round itself, and ``DagTraversal.is_cert`` (the indirect
rule's) does the same; neither keeps a verdict.  The oracle is the
cached ``IsCert`` they replaced — a verdict memo per leader round over
the per-reference loop, dropped at an epoch activation — and the direct
rule's loop over it, kept here.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.block import make_genesis
from repro.committee import Committee, CommitteeSchedule
from repro.core.decider import Decider, LeaderElector
from repro.dag.store import DagStore
from repro.dag.traversal import DagTraversal

from ..dag.test_traversal import reference_is_cert, tangled_dag
from ..helpers import DagBuilder, FixedCoin


class CachedIsCert:
    """``IsCert`` with a verdict memo keyed by leader round, filled from
    the per-reference loop (no memo on any block) and dropped from an
    activation up, as the traversal kept it."""

    def __init__(self, store: DagStore, schedule: CommitteeSchedule) -> None:
        self._store = store
        self._schedule = schedule
        self._cache: dict[int, dict[tuple[bytes, bytes], bool]] = {}

    def is_cert(self, certifier, leader) -> bool:
        verdicts = self._cache.setdefault(leader.round, {})
        key = (certifier.digest, leader.digest)
        if key not in verdicts:
            committee = self._schedule.committee_at(leader.round)
            verdicts[key] = reference_is_cert(
                self._store, certifier, leader, committee.quorum_threshold, committee.is_member
            )
        return verdicts[key]

    def invalidate_above(self, round_number: int) -> None:
        for r in [r for r in self._cache if r >= round_number]:
            del self._cache[r]


def reference_supported_leader(store, schedule, cached, propose_round, leader, wave) -> bool:
    """``SupportedLeader`` as a loop of cached ``IsCert`` calls over the
    certify round's member authors."""
    certifying: set[int] = set()
    committee = schedule.committee_at(propose_round)
    for block in store.round_blocks(propose_round + wave - 1):
        if block.author in certifying or not committee.is_member(block.author):
            continue
        if cached.is_cert(block, leader):
            certifying.add(block.author)
            if len(certifying) >= committee.quorum_threshold:
                return True
    return False


def assert_certificates_match(rng, store, schedule, traversal, decider, cached, wave):
    """Every leader candidate, in a random order, through both rules."""
    leaders = [block for block in store if block.round >= 1]
    rng.shuffle(leaders)
    verdicts = []
    for leader in leaders:
        certifiers = store.round_blocks(leader.round + wave - 1)
        if not certifiers:
            continue
        assert decider.supported_leader(leader.round, leader) == reference_supported_leader(
            store, schedule, cached, leader.round, leader, wave
        )
        for certifier in certifiers:
            verdict = traversal.is_cert(certifier, leader)
            assert verdict == cached.is_cert(certifier, leader)
            verdicts.append(verdict)
    return verdicts


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([4, 5]))
def test_certificates_match_the_cached_is_cert(seed, wave):
    """Five validators write a tangled DAG — forks in a third of the
    slots, so certifiers and voters equivocate — while the committee is
    4, then 5 from an activation mid-run: validator 4 is a non-member
    author before it.  Both rules agree with the cached reference, then
    again once a second activation (back to 4) is scheduled over memos
    the first pass filled: the reference drops its verdicts from the
    activation up, the rules have nothing to drop."""
    rng = random.Random(seed)
    schedule = CommitteeSchedule(Committee.of_size(4), provisioned=5)
    schedule.schedule_epoch(wave + 1, Committee.of_size(5))
    store = DagStore()
    store.add_genesis(make_genesis(5))
    for block in tangled_dag(rng, range(5), 4 * wave):
        store.add(block)
    traversal = DagTraversal(store, schedule.quorum_threshold, membership=schedule.committee_at)
    elector = LeaderElector(store, schedule, FixedCoin(n=5, threshold=3))
    decider = Decider(store, traversal, schedule, elector, wave, 0)
    cached = CachedIsCert(store, schedule)

    verdicts = assert_certificates_match(rng, store, schedule, traversal, decider, cached, wave)
    assert any(verdicts) and not all(verdicts)

    activation = 2 * wave + 2
    schedule.schedule_epoch(activation, Committee.of_size(4))
    cached.invalidate_above(activation)
    assert_certificates_match(rng, store, schedule, traversal, decider, cached, wave)


def test_the_direct_rule_counts_member_certifiers_up_to_the_quorum():
    """Every certify-round block certifies the leader, but only members'
    blocks count and one author counts once: a non-member's certificate
    and an equivocating member's second one leave the rule short, the
    third member's completes the quorum."""
    committee = Committee.of_size(4)
    schedule = CommitteeSchedule(committee, provisioned=5)
    coin = FixedCoin(n=4, threshold=3)
    builder = DagBuilder(committee, coin)
    builder.rounds(1, 3)
    leader = builder.get(0, 1)
    traversal = DagTraversal(
        builder.store, schedule.quorum_threshold, membership=schedule.committee_at
    )
    elector = LeaderElector(builder.store, schedule, coin)
    decider = Decider(builder.store, traversal, schedule, elector, 4, 0)
    cached = CachedIsCert(builder.store, schedule)
    steps = [(0, "", False), (4, "", False), (1, "", False), (1, "twin", False), (2, "", True)]
    for author, tag, supported in steps:
        certifier = builder.block(author, 4, tag=tag)
        assert traversal.is_cert(certifier, leader)
        assert decider.supported_leader(1, leader) is supported
        reference = reference_supported_leader(builder.store, schedule, cached, 1, leader, 4)
        assert reference is supported
