"""Message-level tests of :class:`ValidatorNode`'s re-sync chain: one
node, a recording transport, scripted peers."""

import asyncio

from repro.committee import Committee
from repro.config import ProtocolConfig
from repro.crypto.coin import FastCoin
from repro.messages import (
    BlockMessage,
    CheckpointRequest,
    CheckpointResponse,
    SyncRequest,
    SyncResponse,
)
from repro.runtime.cluster import LocalCluster
from repro.runtime.node import ValidatorNode
from repro.runtime.transport import Transport
from repro.runtime.wal import WriteAheadLog
from repro.statesync import recovery as recovery_module
from repro.statesync import replay_wal
from repro.transaction import Transaction, TransactionBatch
from tests.statesync.test_checkpoint import make_core
from tests.statesync.test_driver import history, peer_blocks, suffix


class RecordingTransport(Transport):
    """Captures outgoing messages instead of sending them."""

    def __init__(self, authority=0):
        super().__init__(authority)
        self.sent: list[tuple[int, object]] = []

    async def start(self):
        pass

    async def stop(self):
        pass

    def _encode(self, message):
        return message  # recorded as sent, never put on a wire

    async def _write(self, dst, data):
        self.sent.append((dst, data))


def make_node(recover_mode, *, sync_chunk_blocks, interval=0, wal_path=None, pacing=0.0):
    """Validator 3 of the deployment ``tests.statesync`` histories come
    from, so their blocks and checkpoints are valid input to it."""
    committee = Committee.of_size(4)
    coin = FastCoin(seed=b"ckpt-test", n=4, threshold=committee.quorum_threshold)
    config = ProtocolConfig(
        wave_length=5, leaders_per_round=2, checkpoint_interval_rounds=interval
    )
    transport = RecordingTransport(authority=3)
    node = ValidatorNode(
        3,
        committee,
        config,
        coin,
        transport,
        wal_path=wal_path,
        min_block_interval=pacing,
        recover_mode=recover_mode,
        sync_chunk_blocks=sync_chunk_blocks,
    )
    return node, transport


def sync_requests(transport):
    return [(dst, m) for dst, m in transport.sent if isinstance(m, SyncRequest)]


def test_full_capped_chunk_continues_the_resync(monkeypatch):
    """Regression: the serving side caps every chunk at SYNC_MAX_BLOCKS,
    so a node configured with a larger ``sync_chunk_blocks`` must treat
    a cap-sized chunk as *full* (more history follows) — not as the
    peer's whole closure, which would end the re-sync, and resume
    proposing, with history still missing."""
    source = history(30, interval=2)[0]
    checkpoint = source.committer.ledger.checkpoints[-1]
    above_floor = suffix(source, checkpoint.floor - 1)
    monkeypatch.setattr(recovery_module, "SYNC_MAX_BLOCKS", 8)

    async def scenario():
        node, transport = make_node("checkpoint", sync_chunk_blocks=10_000, interval=2)
        node.recover()
        await node.start()
        try:
            assert any(isinstance(m, CheckpointRequest) for _, m in transport.sent)
            for peer in (1, 0, 2):
                await node._on_message(peer, CheckpointResponse(checkpoints=(checkpoint,)))
            [(peer, request)] = sync_requests(transport)
            assert peer == 1 and request.floor == checkpoint.floor - 1
            # What an honest peer serves for that request: the lowest
            # rounds of the suffix, cut at the cap.
            chunk = tuple(above_floor[:8])
            await node._on_message(
                1, SyncResponse(blocks=chunk, pruned=(), token=request.token)
            )
            assert node.core.pending_count == 0  # the chunk connected cleanly
            assert node.syncing, "a cap-sized chunk was mistaken for the whole closure"
            # A live block names the frontier; the chain resumes, and a
            # genuinely short chunk ends it.
            monkeypatch.setattr(recovery_module, "SYNC_MAX_BLOCKS", 4096)
            await node._on_message(2, BlockMessage(block=above_floor[-1]))
            (_, _), (peer, request) = sync_requests(transport)
            assert peer == 2 and request.floor == chunk[-1].round
            rest = tuple(above_floor[8:-1])
            await node._on_message(
                2, SyncResponse(blocks=rest, pruned=(), token=request.token)
            )
            assert not node.syncing and node.recovery_mode_used == "checkpoint"
        finally:
            await node.stop()

    asyncio.run(asyncio.wait_for(scenario(), timeout=30))


def test_a_timer_armed_while_start_waits_on_its_barrier_still_fires():
    """Peers' blocks can arrive while ``start`` waits for the other
    listeners: the paced proposal they make ready arms its timer before
    the node counts as running.  Dropping that timer (as a stopped
    node's are) left the pacing deadline marked armed for good, and the
    validator never proposed off a timer again."""
    by_round = {r: [b for b in peer_blocks(2) if b.round == r] for r in (1, 2)}

    async def scenario():
        node, transport = make_node("cold", sync_chunk_blocks=4096, pacing=0.05)
        release = asyncio.Event()
        starting = asyncio.create_task(node.start(barrier=release.wait))
        await asyncio.sleep(0)  # the transport is up, the barrier holds
        try:
            for block in by_round[1]:
                await node._on_message(block.author, BlockMessage(block=block))
            assert node.core.round == 1  # round 2 is ready, and paced
            await asyncio.sleep(0.1)  # its timer fires: not running yet
            release.set()
            await starting
            assert node.core.round == 2
            for block in by_round[2]:
                await node._on_message(block.author, BlockMessage(block=block))
            await asyncio.sleep(0.15)  # nothing else arrives: only a timer can propose
            assert node.core.round == 3
        finally:
            await node.stop()

    asyncio.run(asyncio.wait_for(scenario(), timeout=30))


def test_falling_behind_again_right_after_a_live_finish_refetches():
    """Regression: ending a re-sync off a *live* block left the deep
    fetch marked in flight, so falling behind again within the retry
    window had its first deep request silently suppressed."""
    blocks = suffix(history(30, interval=2)[0])
    by_round = {r: [b for b in blocks if b.round == r] for r in range(1, 31)}

    async def scenario():
        node, transport = make_node("cold", sync_chunk_blocks=4096)
        await node.start()
        try:
            # A live block 14 rounds ahead: fallen behind, deep re-sync.
            await node._on_message(0, BlockMessage(block=by_round[14][0]))
            assert node.syncing and len(sync_requests(transport)) == 1
            # The response is still in flight when live traffic happens
            # to connect everything: caught up off a live block.
            for r in range(1, 14):
                for block in by_round[r]:
                    node.core.add_block(block)
            await node._on_message(1, BlockMessage(block=by_round[14][1]))
            assert not node.syncing
            # Partitioned away again, well inside the retry window.
            await node._on_message(0, BlockMessage(block=by_round[30][0]))
            assert node.syncing
            assert len(sync_requests(transport)) == 2, "the second deep fetch was suppressed"
        finally:
            await node.stop()

    asyncio.run(asyncio.wait_for(scenario(), timeout=30))


def test_own_blocks_fetched_back_after_a_cold_restart_are_logged(tmp_path):
    """The WAL rule: every block accepted from the network is logged,
    own-authored ones included.  A validator that lost its log re-syncs
    cold and fetches its own pre-crash blocks back with everyone else's;
    logging them too means a later warm restart replays a causally
    complete DAG (the runtime used to skip them, leaving every peer
    block that names one pending after the replay)."""
    blocks = suffix(history(30, interval=2)[0])
    path = tmp_path / "validator-3.wal"

    async def scenario():
        node, transport = make_node("cold", sync_chunk_blocks=4096, interval=2, wal_path=path)
        await node.start()  # an empty log: proposes round 1 again (the same block)
        try:
            await node._on_message(0, BlockMessage(block=blocks[-4]))
            [(peer, request)] = sync_requests(transport)
            await node._on_message(
                0, SyncResponse(blocks=tuple(blocks), pruned=(), token=request.token)
            )
            assert not node.syncing and node.core.round == 31
        finally:
            await node.stop()

    asyncio.run(asyncio.wait_for(scenario(), timeout=30))
    logged = WriteAheadLog.recover(path)
    # Round 1 proposed, rounds 2-30 fetched back, round 31 proposed.
    assert [b.round for b in logged if b.author == 3] == [1, *range(2, 31), 31]
    # A warm restart from that log: nothing left pending.
    restarted = make_core(3, interval=2)
    replay = replay_wal(restarted, path)
    assert replay.blocks == len(blocks) + 1 and restarted.pending_count == 0
    assert replay.own_top_round == 31 and restarted.round == 31
    # Had it crashed just before proposing round 31, its newest own
    # block would be a fetched-back one: the proposal round is floored
    # at it, the highest logged block it authored.
    earlier = tmp_path / "crashed-before-31.wal"
    with WriteAheadLog(earlier) as log:
        for block in logged[:-1]:
            log.append_block(block)
    restarted = make_core(3, interval=2)
    assert replay_wal(restarted, earlier).own_top_round == 30
    assert restarted.round == 30 and restarted.maybe_propose().round == 31


def test_warm_restart_over_a_log_of_batch_backed_blocks(tmp_path):
    """WAL round trip of the bytes-backed data plane: the log holds each
    block as the bytes it was proposed or received in, so a warm restart
    restores the same digests (signatures still verify: the replay runs
    the verifier), still carries the transactions as batches, and
    proposes strictly above every round it signed before."""

    async def first_life():
        cluster = LocalCluster(
            4, config=ProtocolConfig(max_block_transactions=10), wal_dir=tmp_path, seed=5
        )
        for v in range(4):
            for i in range(30):
                cluster.submit(Transaction.dummy(v * 100 + i, size=48), validator=v)
        async with cluster:
            await cluster.wait_for_commits(40, validator=2)
        return cluster.nodes[2]

    before = asyncio.run(asyncio.wait_for(first_life(), timeout=30))
    logged = {b.digest: b for b in before.core.store if b.round > 0}
    assert any(len(b.transactions) for b in logged.values())

    second_life = LocalCluster(4, wal_dir=tmp_path, seed=5)
    restarted = second_life.nodes[2]
    restarted.recover()
    store = restarted.core.store
    assert restarted.core.pending_count == 0
    assert {b.digest for b in store if b.round > 0} == set(logged)
    for digest, block in logged.items():
        twin = store.get(digest)
        assert isinstance(twin.transactions, TransactionBatch)
        assert twin.encode() == block.encode()
    # No equivocation: the next own block is above every logged own round.
    own_top = max(b.round for b in logged.values() if b.author == 2)
    assert restarted.core.round == own_top == before.core.round
    restarted._driver.finish()
    block = restarted.core.maybe_propose()  # None while round own_top lacks a quorum
    assert block is None or block.round > own_top
    asyncio.run(second_life.stop())  # never started: closes the logs
