"""Integration tests for the asyncio runtime.

These run real multi-validator clusters in-process — the "asyncio
prototype works" bar: transactions commit, all validators agree, crash
recovery via the WAL works, and the synchronizer repairs gaps.
"""

import asyncio
import json
import time
from types import SimpleNamespace

import pytest

from repro.block import Block, make_genesis
from repro.config import ProtocolConfig
from repro.crypto.schnorr import SchnorrSignatureScheme
from repro.obs.trace import BLOCK_PROPOSED, Tracer
from repro.runtime.cluster import Deployment, LocalCluster
from repro.statesync import RECOVER_MODES
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
                assert all(node.committed_blocks for node in cluster.nodes)
                assert cluster.assert_consistent_prefixes() >= 30

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
            restarted.recover()
            # The driver's port calls, recorded on the way to the node.
            observed = []
            hand_out = restarted.committed
            restarted.committed = lambda obs: (observed.extend(obs), hand_out(obs))
            restarted.announce = lambda block: pytest.fail("a re-syncing validator proposed")
            restarted._driver.start()  # syncing: proposes nothing, commits the replayed DAG
            assert restarted.core.round >= recovered_round
            assert restarted.core.store.highest_round >= recovered_round
            linearized = [b for observation in observed for b in observation.linearized]
            assert 21 in {tx.tx_id for b in linearized for tx in b.transactions}
            assert restarted.committed_blocks == linearized

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
            restarted.recover()
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


@pytest.mark.slow
@pytest.mark.parametrize("mode", RECOVER_MODES)
def test_a_restarted_incarnation_resyncs_before_it_signs(tmp_path, monkeypatch, mode):
    """Regression: a cold :meth:`LocalCluster.restart` never entered
    re-sync, so the new incarnation proposed from round 1 at once and
    signed a second, different block for a round its predecessor had
    signed (an equivocation).  In every mode the restart now runs the
    driver's one restart sequence: ``recovery_started`` comes before the
    first proposal, no round signed before the crash is signed again,
    and ``recovery_time`` counts from the restart."""
    tracer = Tracer()
    build = Deployment.node
    monkeypatch.setattr(
        Deployment, "node", lambda self, *a, **kw: build(self, *a, tracer=tracer, **kw)
    )
    config = ProtocolConfig(wave_length=5, leaders_per_round=2, checkpoint_interval_rounds=10)

    def own(events, name):
        return [e for e in events if e.validator == 3 and e.name == name]

    async def scenario():
        async with LocalCluster(n=4, config=config, wal_dir=tmp_path) as cluster:
            # A transaction in every round-1 block: a re-signed round 1
            # would differ from the first.
            for v in range(4):
                cluster.submit(Transaction.dummy(100 + v), validator=v)
            await cluster.wait_for_commits(10)
            await cluster.nodes[3].stop()
            signed = {e.args["round"] for e in own(tracer.events, BLOCK_PROPOSED)}
            await _survivors_ahead_of(cluster, cluster.nodes[3])
            since, restarted_at = len(tracer.events), time.time()
            node = await cluster.restart(3, recover_mode=mode)
            await _wait(lambda: node.recovery_time is not None, timeout=30)
            assert node.recovery_error is None
            return signed, restarted_at, node.recovery_time, tracer.events[since:]

    signed, restarted_at, recovery_time, events = run(scenario())
    started = own(events, "recovery_started")
    proposals = own(events, BLOCK_PROPOSED)
    assert 1 in signed and proposals
    assert started and started[0].ts < proposals[0].ts
    assert not signed & {e.args["round"] for e in proposals}
    assert started[0].args["mode"] == mode
    until_proposal = proposals[0].ts - restarted_at
    assert until_proposal - 0.1 <= recovery_time <= until_proposal + 0.005


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


def test_wait_status_notices_an_exited_validator(tmp_path):
    """A validator whose process has exited is reported at once, with
    its stderr log named, instead of waiting out the timeout."""
    from repro.runtime.process_cluster import ProcessCluster

    cluster = ProcessCluster(4, run_dir=tmp_path)
    cluster._procs[2] = SimpleNamespace(poll=lambda: 1, returncode=1)  # nothing spawned
    for wait in (
        cluster.wait_status(2, lambda status: True, timeout=30.0, what="steady commits"),
        cluster.wait_ready([2], timeout=30.0),
    ):
        with pytest.raises(RuntimeError, match="stderr-2.log"):
            asyncio.run(asyncio.wait_for(wait, timeout=1.0))


def test_spawn_closes_its_copy_of_the_stderr_log(tmp_path, monkeypatch):
    """The child keeps its own descriptor; the driver holds no open
    file per spawn."""
    from repro.runtime import process_cluster

    handed = []

    def popen(args, *, stderr, **kwargs):
        handed.append(stderr)
        return SimpleNamespace(poll=lambda: None)

    monkeypatch.setattr(process_cluster.subprocess, "Popen", popen)
    process_cluster.ProcessCluster(4, run_dir=tmp_path).spawn(1)
    [stderr] = handed
    assert stderr.name.endswith("stderr-1.log") and stderr.closed


def test_a_respawn_or_a_joiner_runs_the_restart_sequence(tmp_path, monkeypatch):
    """What a spawned process is told: a genesis member's first
    incarnation boots with ``start()``; a respawn, and a joiner coming
    online, call ``recover()`` first."""
    from repro.runtime import process_cluster

    monkeypatch.setattr(
        process_cluster.subprocess, "Popen", lambda *a, **kw: SimpleNamespace(poll=lambda: 0)
    )
    cluster = process_cluster.ProcessCluster(4, run_dir=tmp_path, provisioned=5)

    def recovers(validator, **options):
        cluster.spawn(validator, **options)
        return json.loads((tmp_path / f"spec-{validator}.json").read_text())["recover"]

    assert not recovers(1)
    assert recovers(1, recover_mode="cold")
    assert recovers(4, recover_mode="checkpoint")


def test_a_commit_is_stamped_when_observed_not_at_the_next_status():
    """Regression: the validator process stamped a commit's latency only
    when its status publication drained the commit queue, every
    ``STATUS_INTERVAL`` (0.2 s), rounding every latency up by as much as
    that.  The recorder stamps it as soon as the commit is observed."""
    from repro.runtime import process_cluster

    class Log(list):
        def write(self, line):
            self.append(line)

        def flush(self):
            pass

    parents = tuple(b.reference for b in make_genesis(4))

    def block(tx_id, submitted_at):
        tx = Transaction.dummy(tx_id, submitted_at=submitted_at)
        return Block(author=0, round=1, parents=parents, transactions=(tx,))

    async def scenario():
        ledger = SimpleNamespace(sequence_length=0)
        node = SimpleNamespace(
            commits=asyncio.Queue(), core=SimpleNamespace(committer=SimpleNamespace(ledger=ledger))
        )
        log = Log()
        recorder = process_cluster._CommitRecorder(node, log)
        task = asyncio.create_task(recorder.run())
        try:
            for tx_id in (1, 2):
                committed = block(tx_id, time.time() - 0.05)
                ledger.sequence_length += 1
                node.commits.put_nowait(SimpleNamespace(linearized=(committed,)))
                await asyncio.sleep(0)  # one turn of the loop, well inside 0.2 s
                assert log[-1] == f"{tx_id - 1} {committed.digest.hex()}\n"
        finally:
            task.cancel()
        return recorder

    recorder = asyncio.run(asyncio.wait_for(scenario(), timeout=5))
    assert recorder.logged == 2
    assert all(0.05 <= latency < 0.1 for latency in recorder.latencies)
    assert len(recorder.latencies) == 2


def _digests(count: int) -> list[bytes]:
    return [bytes([index]) * 32 for index in range(1, count + 1)]


class TestProcessClusterPrefixCheck:
    """``ProcessCluster.assert_consistent_prefixes`` over commit logs and
    status files written by hand into its ``run_dir`` (no process runs)."""

    CHAIN = _digests(12)
    EPOCHS = [[0, 0, [0, 1, 2, 3]], [1, 40, [0, 1, 2, 3, 4]]]

    @staticmethod
    def cluster(run_dir, logs, statuses=()):
        from repro.runtime.process_cluster import ProcessCluster

        for name, start, digests in logs:
            numbered = enumerate(digests, start)
            (run_dir / name).write_text("".join(f"{i} {d.hex()}\n" for i, d in numbered))
        for validator, epochs in statuses:
            status = {"final": True, "epochs": epochs}
            (run_dir / f"status-{validator}.json").write_text(json.dumps(status))
        return ProcessCluster(4, run_dir=run_dir, provisioned=5)

    def test_logs_that_disagree_at_one_index_fail_naming_both(self, tmp_path):
        other = list(self.CHAIN)
        other[5] = bytes(32)
        cluster = self.cluster(
            tmp_path, [("commits-0-1.log", 0, self.CHAIN), ("commits-1-1.log", 0, other)]
        )
        with pytest.raises(
            AssertionError,
            match=r"commits-1-1\.log committed other blocks than commits-0-1\.log "
            r"from global index 5",
        ):
            cluster.assert_consistent_prefixes()

    def test_a_gap_fails_naming_the_first_missing_index(self, tmp_path):
        cluster = self.cluster(
            tmp_path,
            [("commits-0-1.log", 0, self.CHAIN[:4]), ("commits-4-1.log", 6, self.CHAIN[6:])],
        )
        with pytest.raises(
            AssertionError, match=r"commits-4-1.log starts at global index 6 \(first missing: 4\)"
        ):
            cluster.assert_consistent_prefixes()

    def test_a_checkpoint_adopters_later_agreeing_log_passes(self, tmp_path):
        """The adopter's log starts at its checkpoint's sequence length,
        inside what the others logged, and runs past them."""
        logs = [
            ("commits-0-1.log", 0, self.CHAIN[:8]),
            ("commits-1-1.log", 0, self.CHAIN[:7]),
            ("commits-4-1.log", 5, self.CHAIN[5:]),
        ]
        statuses = [(0, self.EPOCHS), (1, self.EPOCHS[:1]), (4, self.EPOCHS)]
        assert self.cluster(tmp_path, logs, statuses).assert_consistent_prefixes() == 12

    def test_statuses_whose_epochs_disagree_fail(self, tmp_path):
        moved = [self.EPOCHS[0], [1, 45, [0, 1, 2, 3, 4]]]
        cluster = self.cluster(
            tmp_path,
            [("commits-0-1.log", 0, self.CHAIN)],
            [(0, self.EPOCHS), (1, self.EPOCHS), (2, moved)],
        )
        with pytest.raises(AssertionError, match="honest validators diverged on epoch 1"):
            cluster.assert_consistent_prefixes()

    def test_an_unfinished_last_line_is_no_claim(self, tmp_path):
        """A line still being written (no newline yet) is skipped, not
        read as a truncated digest."""
        cluster = self.cluster(tmp_path, [("commits-0-1.log", 0, self.CHAIN)])
        with open(tmp_path / "commits-0-1.log", "a") as log:
            log.write(f"12 {bytes(32).hex()[:20]}")
        assert cluster.assert_consistent_prefixes() == 12


@pytest.mark.slow
class TestLocalClusterPrefixCheck:
    """``LocalCluster.assert_consistent_prefixes``, which every clean
    exit from ``async with`` runs."""

    @staticmethod
    async def swap_two_commits(cluster, validator):
        """Once every validator committed 10 blocks, swap ``validator``'s
        global indexes 3 and 4."""
        for v in range(4):
            await cluster.wait_for_commits(10, validator=v)
        blocks = cluster.nodes[validator].committed_blocks
        blocks[3], blocks[4] = blocks[4], blocks[3]

    def test_a_block_altered_at_one_index_fails_the_exit_check(self):
        async def scenario():
            async with LocalCluster(n=4) as cluster:
                await self.swap_two_commits(cluster, 2)

        expected = "validator 2 committed other blocks than validator 0 from global index 3"
        with pytest.raises(AssertionError, match=expected):
            run(scenario())

    def test_a_restarted_validators_earlier_incarnation_is_still_checked(self):
        async def scenario():
            async with LocalCluster(n=4) as cluster:
                await self.swap_two_commits(cluster, 3)
                await cluster.nodes[3].stop()
                await cluster.restart(3)

        expected = "validator 3 committed other blocks than validator 0 from global index 3"
        with pytest.raises(AssertionError, match=expected):
            run(scenario())

    def test_an_exception_inside_the_block_surfaces_unchanged(self):
        class Failure(Exception):
            pass

        async def scenario():
            async with LocalCluster(n=4) as cluster:
                await self.swap_two_commits(cluster, 2)
                raise Failure

        with pytest.raises(Failure) as raised:
            run(scenario())
        assert raised.value.__context__ is None


def test_wait_for_transaction_reads_each_committed_block_once():
    """Each poll scans only the blocks committed since the previous one."""
    cluster = LocalCluster(n=4)  # never started: the test commits by hand
    reads = []

    class Committed:
        def __init__(self, tx_id):
            self.tx_id = tx_id

        @property
        def transactions(self):
            reads.append(self.tx_id)
            return (SimpleNamespace(tx_id=self.tx_id),)

    async def scenario():
        async def commit_one_every_few_polls():
            for tx_id in range(5):
                await asyncio.sleep(0.025)
                cluster.nodes[0].committed_blocks.append(Committed(tx_id))

        task = asyncio.create_task(commit_one_every_few_polls())
        await cluster.wait_for_transaction(4, timeout=5)
        await task

    run(scenario())
    assert reads == [0, 1, 2, 3, 4]


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
