"""A runtime validator hashes a received block with a long transaction
section on its hashing thread: the digest it sets is the one the block
computes inline, a block that already carries its digest stays on the
loop, one peer's messages still reach the driver in arrival order, a
TCP cluster keeps Theorem 1 with the thread at work, ``stop()``
leaves none of the node's threads running, and a node that may run on
one CPU only starts no thread and hashes on the loop."""

import asyncio
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.block import Block, BlockRef
from repro.config import ProtocolConfig
from repro.crypto.coin import CoinShare
from repro.messages import BlockMessage, FetchResponse, encode_message
from repro.runtime import node as node_module
from repro.runtime.cluster import Deployment, LocalCluster
from repro.runtime.node import OFFLOAD_SECTION_BYTES
from repro.runtime.transport import MemoryHub, MemoryTransport
from repro.transaction import Transaction, TransactionBatch

N = 4


def hashing_threads() -> list[threading.Thread]:
    """The live hashing threads of every node in this process."""
    return [t for t in threading.enumerate() if t.name.startswith("validator-") and "-hash" in t.name]


def spy_on_offloads(monkeypatch, off_the_loop: bool = True) -> list[str]:
    """The thread name of every digest the node hands its hashing thread,
    with nodes built from here on hashing off the loop (``off_the_loop``)
    or not, whatever CPUs the test may run on."""
    monkeypatch.setattr(node_module, "HASH_OFF_THE_LOOP", off_the_loop)
    names: list[str] = []
    digest = node_module.block_digest

    def spied(parts):
        names.append(threading.current_thread().name)
        return digest(parts)

    monkeypatch.setattr(node_module, "block_digest", spied)
    return names


def lone_node(hub: MemoryHub | None = None):
    """Validator 0 of a 4-validator deployment whose driver only records
    what reaches it: ``(node, [(block, digest cached at delivery), ...])``."""
    transport = MemoryTransport(0, hub or MemoryHub())
    node = Deployment(N, N, seed=5).node(0, ProtocolConfig(), transport)
    delivered: list[tuple[Block, bytes | None]] = []

    def on_message(message, sender):
        for block in getattr(message, "blocks", None) or (message.block,):
            delivered.append((block, block.__dict__.get("digest")))

    node._driver.on_message = on_message
    return node, delivered


def received(block: Block) -> Block:
    """A fresh decoded copy of ``block``, as a transport hands it over."""
    decoded, _ = Block.decode(block.encode())
    return decoded


def section_block(payload_sizes: list[int], round_number: int = 3, salt: bytes = b"") -> Block:
    transactions = TransactionBatch(
        [Transaction(tx_id=i, payload=b"\x5a" * size) for i, size in enumerate(payload_sizes)]
    )
    parents = tuple(BlockRef(a, round_number - 1, bytes([a]) * 32) for a in range(3))
    share = CoinShare(author=1, round=round_number, value=b"share")
    return Block(1, round_number, parents, transactions, share, signature=b"sig", salt=salt)


payloads = st.one_of(
    st.lists(st.integers(0, 2048), min_size=0, max_size=4),
    st.lists(
        st.integers(OFFLOAD_SECTION_BYTES // 2 - 64, OFFLOAD_SECTION_BYTES // 2 + 64),
        min_size=2,
        max_size=2,
    ),
    st.lists(st.integers(OFFLOAD_SECTION_BYTES, 2 * OFFLOAD_SECTION_BYTES), min_size=1, max_size=2),
)


@settings(max_examples=40, deadline=None)
@given(sizes=payloads, salt=st.binary(max_size=8), in_fetch=st.booleans())
def test_the_thread_sets_the_inline_digest_on_both_sides_of_the_size_rule(sizes, salt, in_fetch):
    block = section_block(sizes, salt=salt)
    inline = received(block).digest
    copy = received(block)
    large = len(copy.transactions.wire) >= OFFLOAD_SECTION_BYTES
    message = FetchResponse(blocks=(copy,)) if in_fetch else BlockMessage(block=copy)

    async def scenario():
        try:
            await node._on_message(2, message)
        finally:
            await node.stop()

    with pytest.MonkeyPatch.context() as monkeypatch:
        offloads = spy_on_offloads(monkeypatch)
        node, delivered = lone_node()
        asyncio.run(scenario())
    [(block_seen, cached)] = delivered
    assert block_seen is copy
    if large:
        assert offloads == ["validator-0-hash_0"]
        assert cached == inline
    else:
        assert offloads == [] and cached is None
    assert copy.digest == inline


def test_a_block_carrying_its_digest_is_never_offloaded(monkeypatch):
    offloads = spy_on_offloads(monkeypatch)
    node, delivered = lone_node()
    block = received(section_block([OFFLOAD_SECTION_BYTES]))
    known = block.digest
    fresh = received(section_block([OFFLOAD_SECTION_BYTES], salt=b"other"))

    async def scenario():
        try:
            await node._on_message(2, FetchResponse(blocks=(block, fresh)))
        finally:
            await node.stop()

    asyncio.run(scenario())
    assert offloads == ["validator-0-hash_0"]  # the fresh one only
    assert delivered == [(block, known), (fresh, fresh.digest)]


def test_one_peers_messages_reach_the_driver_in_arrival_order(monkeypatch):
    """Only the first message is offloaded; the two after it are ready
    first, yet are delivered after it."""
    offloads = spy_on_offloads(monkeypatch)
    hub = MemoryHub()
    node, delivered = lone_node(hub)
    blocks = [
        section_block([4 * OFFLOAD_SECTION_BYTES], round_number=3),
        section_block([16], round_number=4),
        section_block([], round_number=5),
    ]

    async def scenario():
        await node.transport.start()
        try:
            for block in blocks:
                hub.deliver(2, 0, encode_message(BlockMessage(block=block)))
            while len(delivered) < len(blocks):
                await asyncio.sleep(0.001)
        finally:
            await node.stop()

    asyncio.run(asyncio.wait_for(scenario(), timeout=30))
    assert len(offloads) == 1
    assert [seen.round for seen, _ in delivered] == [3, 4, 5]
    assert [seen.digest for seen, _ in delivered] == [block.digest for block in blocks]


def test_a_node_that_may_run_on_one_cpu_only_hashes_on_the_loop(monkeypatch):
    offloads = spy_on_offloads(monkeypatch, off_the_loop=False)
    node, delivered = lone_node()
    block = received(section_block([4 * OFFLOAD_SECTION_BYTES]))

    async def scenario():
        try:
            await node._on_message(2, BlockMessage(block=block))
        finally:
            await node.stop()

    asyncio.run(scenario())
    assert offloads == [] and hashing_threads() == []
    assert delivered == [(block, None)]


def large_cluster(**options) -> LocalCluster:
    """Blocks of 8 transactions of 8 KiB: every section is above the rule."""
    cluster = LocalCluster(N, config=ProtocolConfig(max_block_transactions=8), seed=9, **options)
    for v in range(N):
        for i in range(24):
            cluster.submit(Transaction.dummy(v * 1000 + i, size=8 * 1024), validator=v)
    return cluster


def test_a_tcp_cluster_with_long_sections_keeps_total_order_and_uses_the_thread(monkeypatch):
    offloads = spy_on_offloads(monkeypatch)

    async def scenario():
        async with large_cluster(transport="tcp", base_port=29840) as cluster:
            await cluster.wait_for_commits(8, timeout=30)
            return cluster

    cluster = asyncio.run(asyncio.wait_for(scenario(), timeout=60))
    # ``async with`` judged every incarnation on exit; judge once more.
    assert cluster.assert_consistent_prefixes() > 0
    assert offloads and {name.rsplit("-hash", 1)[0] for name in offloads} == {
        f"validator-{v}" for v in range(N)
    }


def test_after_stop_none_of_the_nodes_threads_is_alive(monkeypatch):
    monkeypatch.setattr(node_module, "HASH_OFF_THE_LOOP", True)

    async def scenario():
        cluster = large_cluster()
        await cluster.start()
        try:
            while len(hashing_threads()) < N:
                await asyncio.sleep(0.01)
            running = {t.name for t in hashing_threads()}
        finally:
            await cluster.stop()
        return running

    running = asyncio.run(asyncio.wait_for(scenario(), timeout=60))
    assert running == {f"validator-{v}-hash_0" for v in range(N)}
    assert hashing_threads() == []
