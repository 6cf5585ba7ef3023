"""Integration tests for the asyncio runtime.

These run real multi-validator clusters in-process — the "asyncio
prototype works" bar: transactions commit, all validators agree, crash
recovery via the WAL works, and the synchronizer repairs gaps.
"""

import asyncio

import pytest

from repro.config import ProtocolConfig
from repro.crypto.schnorr import SchnorrSignatureScheme
from repro.runtime.cluster import LocalCluster
from repro.transaction import Transaction


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


@pytest.mark.slow
class TestMemoryCluster:
    def test_transactions_commit(self):
        async def scenario():
            async with LocalCluster(n=4) as cluster:
                for i in range(10):
                    cluster.submit(Transaction.dummy(i + 1), validator=i % 4)
                blocks = await cluster.wait_for_commits(20)
                committed = {tx.tx_id for b in blocks for tx in b.transactions}
                assert set(range(1, 11)) <= committed

        run(scenario())

    def test_all_validators_agree(self):
        async def scenario():
            async with LocalCluster(n=4) as cluster:
                cluster.submit(Transaction.dummy(1))
                await cluster.wait_for_commits(30, validator=0)
                sequences = [
                    [b.digest for b in node.committed_blocks]
                    for node in cluster.nodes
                ]
                shortest = min(len(s) for s in sequences)
                assert shortest > 0
                for sequence in sequences:
                    assert sequence[:shortest] == sequences[0][:shortest]

        run(scenario())

    def test_wave_length_4_cluster(self):
        async def scenario():
            config = ProtocolConfig(wave_length=4, leaders_per_round=2)
            async with LocalCluster(n=4, config=config) as cluster:
                cluster.submit(Transaction.dummy(7))
                await cluster.wait_for_transaction(7)

        run(scenario())

    def test_schnorr_signed_cluster(self):
        """Full public-key crypto end to end (slower, 4 validators)."""

        async def scenario():
            async with LocalCluster(
                n=4, signature_scheme=SchnorrSignatureScheme()
            ) as cluster:
                cluster.submit(Transaction.dummy(3))
                await cluster.wait_for_transaction(3, timeout=45)

        run(scenario())

    def test_threshold_coin_cluster(self):
        """The verifiable threshold coin end to end."""

        async def scenario():
            async with LocalCluster(n=4, threshold_coin=True) as cluster:
                cluster.submit(Transaction.dummy(4))
                await cluster.wait_for_transaction(4, timeout=45)

        run(scenario())

    def test_commit_queue_surfaces_observations(self):
        async def scenario():
            async with LocalCluster(n=4) as cluster:
                observation = await asyncio.wait_for(
                    cluster.nodes[0].commits.get(), timeout=30
                )
                assert observation.status.is_decided

        run(scenario())


@pytest.mark.slow
class TestTcpCluster:
    def test_transactions_commit_over_tcp(self):
        async def scenario():
            async with LocalCluster(n=4, transport="tcp", base_port=29500) as cluster:
                cluster.submit(Transaction.dummy(11), validator=1)
                await cluster.wait_for_transaction(11)

        run(scenario())


@pytest.mark.slow
class TestCrashRecovery:
    def test_validator_recovers_from_wal(self, tmp_path):
        async def scenario():
            cluster = LocalCluster(n=4, wal_dir=tmp_path)
            await cluster.start()
            try:
                cluster.submit(Transaction.dummy(21))
                await cluster.wait_for_transaction(21)
            finally:
                await cluster.stop()

            # Restart validator 0 from its log alone.
            node = cluster.nodes[0]
            recovered_round = node.core.round
            fresh = LocalCluster(n=4, wal_dir=tmp_path)
            restarted = fresh.nodes[0]
            restarted._recover()
            restarted._step()  # syncing: proposes nothing, commits the replayed DAG
            assert restarted.core.round >= recovered_round
            assert restarted.core.store.highest_round >= recovered_round
            committed = {
                tx.tx_id
                for b in restarted.committed_blocks
                for tx in b.transactions
            }
            assert 21 in committed

        run(scenario())

    def test_recovered_validator_does_not_equivocate(self, tmp_path):
        """After recovery, the validator proposes above its logged rounds
        — re-proposing a logged round would be equivocation."""

        async def scenario():
            cluster = LocalCluster(n=4, wal_dir=tmp_path)
            await cluster.start()
            try:
                await cluster.wait_for_commits(5)
            finally:
                await cluster.stop()
            logged_round = cluster.nodes[2].core.round

            fresh = LocalCluster(n=4, wal_dir=tmp_path)
            restarted = fresh.nodes[2]
            restarted._recover()
            block = restarted.core.maybe_propose()
            if block is not None:
                assert block.round > logged_round

        run(scenario())


@pytest.mark.slow
class TestRecoveryModes:
    """Live restarts through :meth:`LocalCluster.restart` in each of the
    three recovery modes, with the rest of the committee still running."""

    def test_cold_restart_refetches_history(self, tmp_path):
        async def scenario():
            async with LocalCluster(n=4, wal_dir=tmp_path) as cluster:
                await cluster.wait_for_commits(10)
                await cluster.nodes[3].stop()
                await _survivors_ahead_of(cluster, cluster.nodes[3])
                node = await cluster.restart(3, recover_mode="cold")
                await _wait(lambda: node.recovery_time is not None)
                assert node.recovery_mode_used == "cold"
                assert node.recovery_error is None
                # A cold restart starts empty and must rebuild from peers.
                await cluster.wait_for_commits(25, validator=3)

        run(scenario())

    def test_warm_restart_replays_wal_then_syncs(self, tmp_path):
        async def scenario():
            async with LocalCluster(n=4, wal_dir=tmp_path) as cluster:
                await cluster.wait_for_commits(10)
                await cluster.nodes[3].stop()
                before = len(cluster.nodes[3].committed_blocks)
                await cluster.wait_for_commits(20)
                node = await cluster.restart(3, recover_mode="warm")
                await _wait(lambda: node.recovery_time is not None)
                assert node.recovery_mode_used == "warm"
                assert node.recovery_error is None
                # The WAL seeded it at least to where it left off (the
                # commit queue drains just after recovery is stamped).
                await _wait(lambda: len(node.committed_blocks) >= before)
                await cluster.wait_for_commits(25, validator=3)

        run(scenario())

    def test_warm_restart_on_empty_wal_degenerates_to_cold(self, tmp_path):
        async def scenario():
            async with LocalCluster(n=4, wal_dir=tmp_path) as cluster:
                await cluster.wait_for_commits(10)
                await cluster.nodes[3].stop()
                (tmp_path / "validator-3.wal").unlink()
                # Open a gap wide enough that the restarted node detects
                # it has fallen behind (that detection is what stamps
                # recovery_time on a cold path).
                await _survivors_ahead_of(cluster, cluster.nodes[3])
                node = await cluster.restart(3, recover_mode="warm")
                await _wait(lambda: node.recovery_time is not None)
                assert node.recovery_mode_used == "cold"
                assert node.recovery_error is None

        run(scenario())

    def test_checkpoint_restart_adopts_attested_base(self, tmp_path):
        """With GC on, a long-dead validator cannot refetch to genesis:
        it must adopt a ``2f + 1``-attested checkpoint and fetch only the
        suffix above the transferred floor."""

        async def scenario():
            config = ProtocolConfig(
                wave_length=5,
                leaders_per_round=2,
                garbage_collection_depth=64,
                checkpoint_interval_rounds=10,
            )
            async with LocalCluster(n=4, config=config, wal_dir=tmp_path) as cluster:
                await cluster.wait_for_commits(30)
                await cluster.nodes[3].stop()
                # Let the survivors race far ahead so validator 3's old
                # frontier falls behind their GC horizon.
                target = len(cluster.nodes[0].committed_blocks) + 120
                await cluster.wait_for_commits(target, timeout=60)
                node = await cluster.restart(3, recover_mode="checkpoint")
                await _wait(lambda: node.recovery_time is not None, timeout=30)
                assert node.recovery_mode_used == "checkpoint"
                assert node.recovery_error is None
                ledger = node.core.committer.ledger
                assert ledger.adopted_base is not None
                # Post-adoption commits extend the transferred state.
                resumed = len(node.committed_blocks)
                await _wait(lambda: len(node.committed_blocks) > resumed)
                # The suffix it commits agrees with a survivor's sequence.
                survivor = cluster.nodes[0].committed_blocks
                digests = {b.digest for b in survivor}
                assert all(b.digest in digests for b in node.committed_blocks[-5:])

        run(scenario())


async def _wait(condition, timeout: float = 20.0):
    async def poll():
        while not condition():
            await asyncio.sleep(0.01)

    await asyncio.wait_for(poll(), timeout)


async def _survivors_ahead_of(cluster, stopped, waves: int = 3):
    """Wait until the running committee's rounds are far enough past the
    stopped node's frontier that a restart will detect it has fallen
    behind (the detection threshold is two waves)."""
    target = stopped.core.round + waves * cluster.config.wave_length
    await _wait(lambda: cluster.nodes[0].core.round > target)


@pytest.mark.slow
class TestProcessCluster:
    def test_multiprocess_kill_and_warm_recovery(self, tmp_path):
        """The multi-process harness end to end (short): real processes
        on real sockets, ``kill -9``, warm restart, and byte-identical
        commit prefixes across every incarnation."""

        async def scenario():
            from repro.runtime.process_cluster import ProcessCluster

            cluster = ProcessCluster(
                4,
                base_port=29710,
                run_dir=tmp_path,
                config={"wave_length": 5, "leaders_per_round": 2},
                min_block_interval=0.02,
            )
            async with cluster:
                steady = await cluster.wait_status(
                    0, lambda s: s["committed_blocks"] > 10, what="steady commits"
                )
                # The status JSON carries the live committee view and a
                # metrics-registry snapshot (telemetry consumers key on
                # these).
                assert steady["epoch"] == 0
                assert steady["committee_size"] == 4
                assert steady["metrics"]["blocks_committed"] > 0
                assert steady["metrics"]["transport_frames_sent"] > 0
                cluster.kill(3)
                await asyncio.sleep(0.5)
                await cluster.restart(3, recover_mode="warm")
                status = await cluster.wait_status(
                    3,
                    lambda s: s["recovery_time"] is not None
                    and s["recovery_error"] is None,
                    what="warm recovery",
                )
                assert status["recovery_mode_used"] == "warm"
            assert cluster.assert_consistent_prefixes() > 0

        asyncio.run(asyncio.wait_for(scenario(), timeout=120))


@pytest.mark.slow
class TestSynchronizerIntegration:
    def test_late_joiner_catches_up(self):
        """A validator started late fetches missing history and commits."""

        async def scenario():
            cluster = LocalCluster(n=4)
            await cluster.start(validators=[0, 1, 2])
            try:
                cluster.submit(Transaction.dummy(31))
                await cluster.wait_for_transaction(31)
                # Validator 3 joins; the synchronizer must backfill.
                await cluster.nodes[3].start()
                await cluster.wait_for_transaction(31, validator=3, timeout=30)
            finally:
                await cluster.stop()

        run(scenario())
