"""The runtime's data plane, pinned by count rather than by time: a
section is encoded once (by its proposer) in bulk, never one
``Transaction`` at a time, and read only when a consumer iterates it, a
block's payload is hashed once per validator that holds it, and a
stopped validator is freed by reference counting."""

import asyncio
import gc
import socket
import weakref

from repro import block as block_module
from repro import transaction as transaction_module
from repro.block import Block
from repro.committee import Committee, CommitteeSchedule
from repro.config import ProtocolConfig
from repro.crypto.coin import FastCoin
from repro.crypto.signing import NullSignatureScheme, generate_keys
from repro.dag.validation import BlockVerifier
from repro.runtime.cluster import LocalCluster
from repro.runtime.node import ValidatorNode
from repro.runtime.transport import TcpTransport
from repro.transaction import Transaction, TransactionBatch

N = 4
PER_VALIDATOR = 60


def count_calls(monkeypatch, owner, name, log, check=None):
    """Count calls of ``owner.name`` (a function, method or classmethod)
    in ``log[name]``; ``check(*args)`` may assert on each call."""
    raw = vars(owner)[name]
    fn = getattr(raw, "__func__", raw)

    def counted(*args, **kwargs):
        log[name] = log.get(name, 0) + 1
        if check is not None:
            check(*args, **kwargs)
        return fn(*args, **kwargs)

    is_classmethod = isinstance(raw, classmethod)
    monkeypatch.setattr(owner, name, classmethod(counted) if is_classmethod else counted)


def committed_transactions(node) -> int:
    return sum(len(block.transactions) for block in node.committed_blocks)


async def drain(cluster, total):
    """Run until every validator committed ``total`` transactions
    (counted from the batches' lengths: nothing is decoded)."""
    while min(committed_transactions(node) for node in cluster.nodes) < total:
        await asyncio.sleep(0.01)


def run_cluster(tmp_path):
    """A signed, verified, WAL-backed 4-validator in-memory cluster
    draining ``N * PER_VALIDATOR`` transactions; returns its nodes."""

    async def scenario():
        cluster = LocalCluster(
            N, config=ProtocolConfig(max_block_transactions=25), wal_dir=tmp_path, seed=3
        )
        for v in range(N):
            for i in range(PER_VALIDATOR):
                cluster.submit(Transaction.dummy(v * 1000 + i, size=64), validator=v)
        async with cluster:
            await asyncio.wait_for(drain(cluster, N * PER_VALIDATOR), timeout=30)
        return cluster.nodes

    return asyncio.run(scenario())


def test_a_drain_makes_no_single_record_codec_call_and_builds_transactions_on_demand(
    tmp_path, monkeypatch
):
    calls = {}
    count_calls(monkeypatch, Transaction, "encode", calls)
    count_calls(monkeypatch, Transaction, "decode", calls)
    nodes = run_cluster(tmp_path)
    # Every section was encoded by its proposer, and checked by every
    # receiver, in bulk; digest, signature check, three peer frames and
    # four WAL records per block all reused those bytes — and no
    # validator built a Transaction to order, log or count one.
    assert calls == {}
    block = next(b for b in nodes[0].committed_blocks if len(b.transactions))
    assert isinstance(block.transactions, TransactionBatch)
    built = []

    def counted(*fields):
        built.append(fields[0])
        return Transaction(*fields)

    monkeypatch.setattr(transaction_module, "Transaction", counted)
    assert all(tx.size == 64 for tx in block.transactions)
    assert len(built) == len(set(built)) == len(block.transactions)
    assert calls == {}


def test_a_block_is_hashed_once_per_validator_and_the_signature_covers_the_digest(
    tmp_path, monkeypatch
):
    calls = {}

    def only_block_digests(parts, *, person=b""):
        assert person == b"block"

    def message_is_a_digest(self, key, message, *signature):
        assert len(message) == 32

    count_calls(monkeypatch, block_module, "hash_parts", calls, only_block_digests)
    count_calls(monkeypatch, Block, "decode", calls)
    count_calls(monkeypatch, NullSignatureScheme, "sign", calls, message_is_a_digest)
    count_calls(monkeypatch, NullSignatureScheme, "verify", calls, message_is_a_digest)
    nodes = run_cluster(tmp_path)
    proposed = sum(node.core.total_proposed for node in nodes)
    assert calls["sign"] == proposed and 0 < calls["verify"] <= calls["decode"]
    # One pass over a block's bytes per validator that holds it: its
    # author's (digest and signature share it) and one per received
    # frame (identity and signature check share it) — plus each core's
    # own genesis blocks.
    assert calls["hash_parts"] == N * N + proposed + calls["decode"]


def test_a_stopped_node_is_freed_without_the_cyclic_collector(tmp_path):
    """Built as ``benchmarks/perf/mmperf/workloads.py`` builds a runtime
    validator.  Everything that benchmark reads after ``stop()`` stays
    readable; dropping the node then frees it — and the committed
    history it holds — by reference counting alone."""
    scheme = NullSignatureScheme()
    keys = generate_keys(scheme, N, seed=b"teardown")
    committee = Committee.of_size(N, public_keys=[k.public_key for k in keys])
    coin = FastCoin(seed=b"teardown-coin", n=N, threshold=committee.quorum_threshold)
    config = ProtocolConfig(wave_length=5, leaders_per_round=2, max_block_transactions=25)
    sockets = [socket.socket() for _ in range(N)]
    for sock in sockets:
        sock.bind(("127.0.0.1", 0))
    addresses = {i: ("127.0.0.1", sock.getsockname()[1]) for i, sock in enumerate(sockets)}
    for sock in sockets:
        sock.close()
    nodes = [
        ValidatorNode(
            i,
            CommitteeSchedule(committee, provisioned=N),
            config,
            coin,
            TcpTransport(i, addresses),
            wal_path=tmp_path / f"validator-{i}.wal",
            wal_sync=False,
            verifier=BlockVerifier(committee, scheme, coin),
            sign=lambda data, _k=keys[i].private_key: scheme.sign(_k, data),
            min_block_interval=0.0,
        )
        for i in range(N)
    ]
    for v in range(N):  # (no loop variable may outlive the nodes)
        for i in range(PER_VALIDATOR):
            nodes[v].submit_transaction(Transaction.dummy(v * 1000 + i, size=64))

    async def scenario():
        await asyncio.gather(*(node.start() for node in nodes))
        try:
            while min(committed_transactions(node) for node in nodes) < N * PER_VALIDATOR:
                await asyncio.sleep(0.01)
        finally:
            await asyncio.gather(*(node.stop() for node in nodes))
        for node in nodes:
            assert node.core.total_proposed > 0 and node.core.round > 0
            assert len(node.committed_blocks) == node.core.committer.committed_sequence_length
            assert node.metrics.snapshot()["transport_frames_sent"] > 0
            assert node.synchronizer.requests_sent >= 0
            assert node.authority in range(N)
        history = weakref.ref(nodes[0].committed_blocks[-1])
        refs = [weakref.ref(node) for node in nodes]
        del node
        nodes.clear()
        assert [ref() for ref in refs] == [None] * N
        assert history() is None

    gc.collect()
    gc.disable()
    try:
        asyncio.run(asyncio.wait_for(scenario(), timeout=30))
    finally:
        gc.enable()
