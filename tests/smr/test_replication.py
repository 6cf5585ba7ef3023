"""End-to-end SMR: replicated key-value stores over Mahi-Mahi.

Attaches one :class:`ReplicatedStateMachine` to every validator and
checks that state roots agree at matching applied indexes — under
lockstep, randomized schedules, crash faults and equivocation.
"""

from __future__ import annotations

import random

import pytest

from repro.smr.commands import PutCommand, TransferCommand
from repro.smr.executor import ReplicatedStateMachine
from repro.smr.state_machine import KeyValueStore
from repro.transaction import Transaction

from ..core.test_agreement_random import RandomScheduleCluster


class SmrCluster(RandomScheduleCluster):
    """A random-schedule cluster whose validators execute commands."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.replicas = {
            core.authority: ReplicatedStateMachine(KeyValueStore())
            for core in self.cores
        }
        self.command_rng = random.Random(repr(("smr", kwargs.get("seed", 0))))

    def next_command(self) -> bytes:
        accounts = [b"alice", b"bob", b"carol"]
        if self.command_rng.random() < 0.5:
            key = self.command_rng.choice(accounts)
            return PutCommand(
                key=key, value=(1000).to_bytes(8, "little", signed=True)
            ).encode()
        return TransferCommand(
            source=self.command_rng.choice(accounts),
            dest=self.command_rng.choice(accounts),
            amount=self.command_rng.randrange(1, 200),
        ).encode()

    def make_transaction(self, tx_id: int) -> Transaction:
        return Transaction(tx_id=tx_id, payload=self.next_command())

    def step(self):
        super().step()
        self.execute()

    def drain(self):
        super().drain()
        self.execute()

    def execute(self):
        for core in self.cores:
            if core.authority in self.crashed:
                continue
            replica = self.replicas[core.authority]
            already = getattr(replica, "_consumed", 0)
            new = self.commits[core.authority][already:]
            replica._consumed = already + len(new)
            replica.apply_observations(new)

    def assert_replicated_state(self):
        replicas = [
            self.replicas[c.authority]
            for c in self.honest()
        ]
        reference = replicas[0]
        for replica in replicas[1:]:
            pairs = reference.common_prefix_roots(replica)
            assert pairs, "replicas share no checkpoints"
            for index, ours, theirs in pairs:
                assert ours == theirs, f"state divergence at applied index {index}"


@pytest.mark.parametrize("seed", range(4))
def test_replicated_kv_store_converges(seed):
    cluster = SmrCluster(n=4, wave=5, leaders=2, seed=seed)
    cluster.run(30)
    cluster.assert_agreement()
    cluster.assert_replicated_state()


def test_replication_with_crash_fault():
    cluster = SmrCluster(n=4, wave=5, leaders=2, seed=7, crashed={3})
    cluster.run(30)
    cluster.assert_replicated_state()


def test_replication_with_equivocator():
    cluster = SmrCluster(n=4, wave=4, leaders=2, seed=9, equivocators={2})
    cluster.run(30)
    cluster.assert_replicated_state()


def test_transfers_conserve_total_balance():
    """Money is neither created nor destroyed by replicated transfers."""
    cluster = SmrCluster(n=4, wave=5, leaders=2, seed=11)
    cluster.run(30)
    store = cluster.replicas[0].machine
    total = sum(store.balance(a) for a in (b"alice", b"bob", b"carol"))
    assert total % 1000 == 0  # every balance unit came from a seed PUT

def test_checkpoints_monotonic():
    cluster = SmrCluster(n=4, wave=5, leaders=2, seed=2)
    cluster.run(25)
    for replica in cluster.replicas.values():
        indexes = [i for i, _ in replica.checkpoints]
        assert indexes == sorted(indexes)
        assert all(b > a for a, b in zip(indexes, indexes[1:]))


def test_snapshot_transfer_bootstraps_fresh_replica():
    """A fresh replica restored from a snapshot reaches the same root
    as one that executed the full history (state-sync path)."""
    cluster = SmrCluster(n=4, wave=5, leaders=2, seed=3)
    cluster.run(25)
    full = cluster.replicas[0]
    fresh = KeyValueStore()
    fresh.restore(full.machine.snapshot())
    assert fresh.state_root() == full.machine.state_root()


def test_state_summary_attests_equal_prefixes():
    """Replicas at the same applied index produce the same state
    summary (the executor's contribution to a state-transfer
    checkpoint), and the summary changes as soon as state diverges."""
    cluster = SmrCluster(n=4, wave=5, leaders=2, seed=5)
    cluster.run(25)
    replicas = list(cluster.replicas.values())
    reference = replicas[0]
    for other in replicas[1:]:
        if other.applied_index == reference.applied_index:
            assert other.state_summary() == reference.state_summary()
    # Advancing a replica's state changes its summary.
    before = reference.state_summary()
    reference.machine.apply(PutCommand(key=b"fork", value=b"x").encode())
    reference.applied_index += 1
    assert reference.state_summary() != before
