"""Randomized-schedule agreement tests.

These exercise the safety theorems (Total Order, Integrity — Appendix C)
against adversarial-ish schedules that hand-built DAGs cannot cover:
each round, every validator receives a random quorum of the previous
round's blocks immediately and the rest later (the random network
model), with optional crashes and equivocators.  After a final full
synchronization, all honest validators must report identical commit
sequences.
"""

from __future__ import annotations

import random

import pytest

from repro.committee import Committee
from repro.config import ProtocolConfig
from repro.core.protocol import MahiMahiCore
from repro.crypto.coin import FastCoin
from repro.sim.faults import make_equivocating_sibling
from repro.transaction import Transaction

from ..helpers import committed_blocks, record_commits


class RandomScheduleCluster:
    """Drives cores under a seeded random delivery schedule."""

    def __init__(
        self, n=4, wave=5, leaders=2, seed=0, crashed=(), equivocators=(), checkpoint_interval=0
    ):
        self.committee = Committee.of_size(n)
        coin = FastCoin(seed=b"agree", n=n, threshold=self.committee.quorum_threshold)
        config = ProtocolConfig(
            wave_length=wave,
            leaders_per_round=leaders,
            checkpoint_interval_rounds=checkpoint_interval,
        )
        self.cores = [MahiMahiCore(i, self.committee, config, coin) for i in range(n)]
        #: Each validator's commit stream, by authority.
        self.commits = {core.authority: record_commits(core) for core in self.cores}
        self.rng = random.Random(repr(("schedule", seed)))
        self.crashed = set(crashed)
        self.equivocators = set(equivocators)
        # Blocks delayed for later delivery: (recipient, block).
        self.backlog: list[tuple[int, object]] = []
        # Every block ever broadcast (including equivocating siblings);
        # stands in for the synchronizer: a validator missing an
        # ancestor fetches it from whoever sent the descendant.
        self.registry: dict[bytes, object] = {}
        self.tx_id = 0

    def deliver(self, recipient: int, block) -> None:
        """Deliver a block, synchronizing missing ancestors on demand
        (Lemma 8's synchronizer, collapsed to an instant fetch)."""
        core = self.cores[recipient]
        result = core.add_block(block)
        pending = list(result.missing)
        while pending:
            ref = pending.pop()
            ancestor = self.registry.get(ref.digest)
            if ancestor is None:
                continue
            outcome = core.add_block(ancestor)
            pending.extend(outcome.missing)

    def make_transaction(self, tx_id: int) -> Transaction:
        """Transaction injected each step (subclasses supply payloads)."""
        return Transaction(tx_id=tx_id)

    def honest(self):
        return [
            c
            for c in self.cores
            if c.authority not in self.crashed and c.authority not in self.equivocators
        ]

    def step(self):
        """One scheduling step: deliver some backlog, propose, scatter."""
        # Deliver a random half of the backlog first.
        self.rng.shuffle(self.backlog)
        keep = len(self.backlog) // 2
        deliver_now, self.backlog = self.backlog[keep:], self.backlog[:keep]
        for recipient, block in deliver_now:
            self.deliver(recipient, block)
        for core in self.cores:
            if core.authority in self.crashed:
                continue
            self.tx_id += 1
            core.add_transaction(self.make_transaction(self.tx_id))
            block = core.maybe_propose()
            if block is None:
                continue
            targets = [c.authority for c in self.cores if c.authority != core.authority]
            self.registry[block.digest] = block
            if core.authority in self.equivocators:
                sibling = make_equivocating_sibling(block)
                self.registry[sibling.digest] = sibling
                half = len(targets) // 2
                sends = [(t, block) for t in targets[:half]]
                sends += [(t, sibling) for t in targets[half:]]
            else:
                sends = [(t, block) for t in targets]
            # A random quorum-sized subset is delivered immediately; the
            # rest joins the backlog (random network model).
            self.rng.shuffle(sends)
            quorum = self.committee.quorum_threshold
            for target, payload in sends[:quorum]:
                self.deliver(target, payload)
            self.backlog.extend(sends[quorum:])
        for core in self.cores:
            if core.authority not in self.crashed:
                core.try_commit()

    def drain(self):
        """Deliver every delayed block and let commits settle."""
        for recipient, block in self.backlog:
            self.deliver(recipient, block)
        self.backlog.clear()
        for core in self.cores:
            if core.authority not in self.crashed:
                core.try_commit()

    def run(self, steps):
        for _ in range(steps):
            self.step()
        self.drain()

    def assert_agreement(self, require_progress=True):
        sequences = [
            [b.digest for b in committed_blocks(self.commits[core.authority])]
            for core in self.honest()
        ]
        if require_progress:
            assert max(len(s) for s in sequences) > 0, "no honest validator committed"
        shortest = min(len(s) for s in sequences)
        for sequence in sequences:
            assert sequence[:shortest] == sequences[0][:shortest]

    def assert_integrity(self):
        for core in self.honest():
            digests = [b.digest for b in committed_blocks(self.commits[core.authority])]
            assert len(digests) == len(set(digests)), "block delivered twice"


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("wave", [4, 5])
def test_agreement_under_random_schedule(seed, wave):
    cluster = RandomScheduleCluster(n=4, wave=wave, leaders=2, seed=seed)
    cluster.run(40)
    cluster.assert_agreement()
    cluster.assert_integrity()


@pytest.mark.parametrize("seed", range(4))
def test_agreement_with_crash_fault(seed):
    cluster = RandomScheduleCluster(n=4, wave=5, leaders=2, seed=seed, crashed={3})
    cluster.run(40)
    cluster.assert_agreement()


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("wave", [4, 5])
def test_agreement_with_equivocator(seed, wave):
    cluster = RandomScheduleCluster(
        n=4, wave=wave, leaders=2, seed=seed, equivocators={2}
    )
    cluster.run(40)
    cluster.assert_agreement()
    cluster.assert_integrity()


@pytest.mark.parametrize("seed", range(4))
def test_agreement_larger_committee(seed):
    cluster = RandomScheduleCluster(n=7, wave=5, leaders=2, seed=seed)
    cluster.run(30)
    cluster.assert_agreement()
    cluster.assert_integrity()


@pytest.mark.parametrize("seed", range(4))
def test_agreement_with_crash_and_equivocator(seed):
    cluster = RandomScheduleCluster(
        n=7, wave=4, leaders=2, seed=seed, crashed={6}, equivocators={5}
    )
    cluster.run(35)
    cluster.assert_agreement()
    cluster.assert_integrity()


def test_safety_holds_at_wave_three():
    """Appendix C.3: w=3 keeps safety (liveness is separately lost under
    asynchrony; the benign schedule here still makes progress)."""
    cluster = RandomScheduleCluster(n=4, wave=3, leaders=1, seed=1)
    cluster.run(40)
    cluster.assert_agreement(require_progress=False)
    cluster.assert_integrity()


@pytest.mark.parametrize("wave", [4, 5])
def test_validity_every_honest_transaction_commits(wave):
    """Theorem 3/5 (Validity): transactions submitted to honest
    validators eventually commit once the schedule delivers everything."""
    cluster = RandomScheduleCluster(n=4, wave=wave, leaders=2, seed=3)
    cluster.run(20)
    submitted_early = set(range(1, 4 * 10))  # txs from the first ~10 steps
    # Run more steps so the commit frontier passes those rounds.
    cluster.run(25)
    committed = {
        tx.tx_id for b in committed_blocks(cluster.commits[0]) for tx in b.transactions
    }
    missing = submitted_early - committed
    assert not missing, f"{len(missing)} early transactions never committed"
