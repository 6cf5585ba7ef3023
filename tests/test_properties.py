"""Property-based tests (hypothesis) on core data structures and
protocol invariants."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

import pytest

from repro.block import Block, BlockRef, _decode_coin_share, make_genesis
from repro.committee import Committee
from repro.config import ProtocolConfig
from repro.core.protocol import MahiMahiCore
from repro.crypto.coin import FastCoin
from repro.crypto.hashing import hash_parts
from repro.crypto.threshold import combine_shares, deal
from repro.dag.traversal import DagTraversal
from repro.errors import ReproError, TransportError
from repro.messages import (
    BlockMessage,
    CheckpointRequest,
    CheckpointResponse,
    FetchRequest,
    FetchResponse,
    SyncRequest,
    SyncResponse,
    TransactionMessage,
    decode_message,
    encode_message,
)
from repro.statesync import Checkpoint
from repro.transaction import (
    Transaction,
    TransactionBatch,
    decode_transactions,
    encode_transactions,
)

from .helpers import DagBuilder, FixedCoin, committed_blocks, record_commits

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
transactions = st.builds(
    Transaction,
    tx_id=st.integers(min_value=0, max_value=2**63 - 1),
    submitted_at=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    payload=st.binary(max_size=200),
    # ``st.builds`` fills a named tuple's defaulted fields too; the size
    # hint never travels (test_size_hint_is_not_on_the_wire).
    size_hint=st.none(),
)

coin_shares = st.builds(
    lambda a, r, v: __import__("repro.crypto.coin", fromlist=["CoinShare"]).CoinShare(
        author=a, round=r, value=v
    ),
    a=st.integers(min_value=0, max_value=100),
    r=st.integers(min_value=0, max_value=10_000),
    v=st.binary(min_size=1, max_size=64),
)


@st.composite
def blocks(draw):
    genesis = make_genesis(4)
    parent_subset = draw(st.sets(st.integers(0, 3), min_size=1, max_size=4))
    return Block(
        author=draw(st.integers(0, 3)),
        round=draw(st.integers(1, 100)),
        parents=tuple(genesis[i].reference for i in sorted(parent_subset)),
        transactions=tuple(draw(st.lists(transactions, max_size=5))),
        coin_share=draw(st.one_of(st.none(), coin_shares)),
        signature=draw(st.binary(max_size=64)),
        salt=draw(st.binary(max_size=16)),
    )


block_refs = st.builds(
    BlockRef,
    author=st.integers(0, 2**32 - 1),
    round=st.integers(0, 2**64 - 1),
    digest=st.binary(min_size=32, max_size=32),
)

checkpoints = st.builds(
    Checkpoint,
    round=st.integers(0, 2**64 - 1),
    floor=st.integers(0, 2**64 - 1),
    next_slot=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1)),
    chain=st.binary(min_size=32, max_size=32),
    sequence_length=st.integers(0, 2**64 - 1),
    committee_size=st.integers(0, 2**32 - 1),
    linearized=st.lists(block_refs, max_size=4).map(tuple),
    epochs=st.lists(
        st.tuples(
            st.integers(0, 2**64 - 1),
            st.integers(0, 2**64 - 1),
            st.lists(st.integers(0, 2**32 - 1), max_size=6).map(tuple),
        ),
        max_size=3,
    ).map(tuple),
)


ref_tuples = st.lists(block_refs, max_size=4).map(tuple)
block_tuples = st.lists(blocks(), max_size=3).map(tuple)
tokens = st.integers(0, 2**64 - 1)

#: All eight kinds of :mod:`repro.messages`.
messages = st.one_of(
    st.builds(BlockMessage, block=blocks()),
    st.builds(FetchRequest, refs=ref_tuples),
    st.builds(FetchResponse, blocks=block_tuples),
    st.just(CheckpointRequest()),
    st.builds(CheckpointResponse, checkpoints=st.lists(checkpoints, max_size=2).map(tuple)),
    st.builds(SyncRequest, refs=ref_tuples, floor=st.integers(-1, 2**63 - 1), token=tokens),
    st.builds(SyncResponse, blocks=block_tuples, pruned=ref_tuples, token=tokens),
    st.builds(TransactionMessage, transactions=st.lists(transactions, max_size=4).map(tuple)),
)


# ----------------------------------------------------------------------
# Codec properties
# ----------------------------------------------------------------------
@given(transactions)
def test_transaction_roundtrip(tx):
    decoded, consumed = Transaction.decode(tx.encode())
    assert decoded == tx
    assert consumed == len(tx.encode())


@given(transactions, st.integers(min_value=0, max_value=2**31))
def test_size_hint_is_not_on_the_wire(tx, size_hint):
    """``size_hint`` is simulation-only: it changes no byte of the
    encoding, and what is decoded has none."""
    hinted = tx._replace(size_hint=size_hint)
    assert hinted.encode() == tx.encode()
    decoded, _ = Transaction.decode(hinted.encode())
    assert decoded.size_hint is None and decoded == tx


def test_transaction_repr_eq_and_hash_are_those_of_the_dataclass():
    """Pinned across the move from a frozen dataclass to a named tuple:
    the same ``repr``, equality between transactions field by field, and
    the hash of the field tuple (what ``dataclass(frozen=True)`` hashed)."""
    tx = Transaction(7, 0.25, b"ab", 512)
    assert repr(tx) == "Transaction(tx_id=7, submitted_at=0.25, payload=b'ab', size_hint=512)"
    assert repr(Transaction(1)) == (
        "Transaction(tx_id=1, submitted_at=0.0, payload=b'', size_hint=None)"
    )
    assert tx == Transaction(tx_id=7, submitted_at=0.25, payload=b"ab", size_hint=512)
    assert tx != Transaction(7, 0.25, b"ab") and tx != Transaction(8, 0.25, b"ab", 512)
    assert hash(tx) == hash((7, 0.25, b"ab", 512))
    assert len({tx, Transaction(7, 0.25, b"ab", 512), Transaction(7, 0.25, b"ab")}) == 2


@given(st.lists(transactions, max_size=20))
def test_transaction_batch_roundtrip(batch):
    decoded, _ = decode_transactions(encode_transactions(tuple(batch)))
    assert decoded == tuple(batch)


@given(blocks())
@settings(max_examples=50)
def test_block_roundtrip(block):
    decoded, _ = Block.decode(block.encode())
    assert decoded == block
    assert decoded.digest == block.digest


@given(blocks())
@settings(max_examples=50)
def test_decoded_twin_carries_the_bytes_it_arrived_in(block):
    """A tuple-built block and its decoded (batch-backed) twin are one
    block: same wire bytes, same signed parts, same digest."""
    wire = block.encode()
    twin, consumed = Block.decode(wire)
    assert consumed == len(wire)
    assert isinstance(twin.transactions, TransactionBatch)
    assert twin.encode() == wire
    assert twin._signable_parts() == block._signable_parts()
    assert twin.digest == block.digest
    assert twin.signed(b"other").digest == block.digest


@given(blocks())
@settings(max_examples=25)
def test_block_truncated_at_any_offset_is_a_repro_error(block):
    wire = block.encode()
    for cut in range(len(wire)):
        with pytest.raises(ReproError):
            Block.decode(wire[:cut])


@given(checkpoints, st.binary(max_size=8))
@settings(max_examples=50)
def test_checkpoint_roundtrip_and_truncation_at_any_offset(checkpoint, trailing):
    """A checkpoint decodes to itself and stops at its own end (a
    response frames several back to back); cut anywhere — inside the
    header, the chain, a reference, an epoch header or a member list —
    it is a ``ReproError``, never a shorter checkpoint."""
    wire = checkpoint.encode()
    decoded, consumed = Checkpoint.decode(b"\x00" + wire + trailing, 1)
    assert decoded == checkpoint and decoded.checkpoint_id == checkpoint.checkpoint_id
    assert consumed == 1 + len(wire)
    for cut in range(len(wire)):
        with pytest.raises(ReproError):
            Checkpoint.decode(wire[:cut])


@given(messages)
@settings(max_examples=100)
def test_message_roundtrip_and_truncation_at_any_offset(message):
    """Every kind decodes to itself, and cut anywhere — inside a count,
    a fixed header, a length prefix or an item — it is a
    ``TransportError``, never a shorter message."""
    wire = encode_message(message)
    assert decode_message(wire) == message
    for cut in range(len(wire)):
        with pytest.raises(TransportError):
            decode_message(wire[:cut])


@given(st.integers(0, 9), st.binary(max_size=120))
@settings(max_examples=400)
def test_message_decoder_raises_only_transport_error_on_garbage(kind, tail):
    """Any kind byte in front of arbitrary bytes decodes or raises
    ``TransportError`` — ``struct.error`` used to leak from the counts
    and fixed headers of five kinds."""
    try:
        decode_message(bytes([kind]) + tail)
    except TransportError:
        pass


@given(messages, st.integers(min_value=0), st.integers(min_value=1, max_value=255))
@settings(max_examples=200)
def test_a_flipped_byte_decodes_to_a_message_or_a_transport_error(message, position, flip):
    wire = bytearray(encode_message(message))
    wire[position % len(wire)] ^= flip
    try:
        decode_message(bytes(wire))
    except TransportError:
        pass


@given(st.binary(max_size=300))
@settings(max_examples=300)
def test_codec_boundary_raises_only_repro_error_on_garbage(data):
    """Arbitrary bytes either decode or raise ``ReproError`` — never
    ``struct.error`` / ``IndexError``, and never a long loop over a
    count the buffer cannot hold."""
    for decode in (
        Block.decode,
        BlockRef.decode,
        TransactionBatch.decode,
        _decode_coin_share,
        Checkpoint.decode,
    ):
        try:
            decode(data)
        except ReproError:
            pass


@given(blocks(), st.integers(min_value=0), st.integers(min_value=1, max_value=255))
@settings(max_examples=100)
def test_a_flipped_byte_decodes_to_another_block_or_a_repro_error(block, position, flip):
    wire = bytearray(block.encode())
    wire[position % len(wire)] ^= flip
    try:
        mutant, consumed = Block.decode(bytes(wire))
    except ReproError:
        return
    assert mutant.encode() == bytes(wire[:consumed])  # what decodes re-encodes to itself
    assert mutant.digest != block.digest or mutant.signature != block.signature


@given(blocks(), blocks())
@settings(max_examples=50)
def test_distinct_signed_content_has_distinct_digests(a, b):
    """The digest covers exactly the signed contents — blocks differing
    only in their (unsigned-over) signature share a digest."""
    if a._signable_parts() != b._signable_parts():
        assert a.digest != b.digest
    else:
        assert a.digest == b.digest


@given(st.lists(st.binary(max_size=30), max_size=10))
def test_hash_parts_injective_framing(parts):
    """Concatenating two adjacent parts must change the hash."""
    if len(parts) >= 2 and parts[0]:
        merged = [parts[0] + parts[1]] + parts[2:]
        assert hash_parts(parts) != hash_parts(merged)


# ----------------------------------------------------------------------
# Threshold sharing properties
# ----------------------------------------------------------------------
@given(
    st.integers(min_value=4, max_value=10),
    st.integers(min_value=0, max_value=1_000),
    st.randoms(use_true_random=False),
)
@settings(max_examples=20, deadline=None)
def test_any_quorum_reconstructs_same_secret(n, seed, rng):
    threshold = n - (n - 1) // 3
    setup, shares = deal(n, threshold, seed=seed)
    subset_a = rng.sample(shares, threshold)
    subset_b = rng.sample(shares, threshold)
    assert combine_shares(setup, subset_a) == combine_shares(setup, subset_b)


# ----------------------------------------------------------------------
# Linearization properties
# ----------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=5, max_value=12))
@settings(max_examples=15, deadline=None)
def test_linearize_is_topological_and_complete(seed, rounds):
    """Over random sparse DAGs: linearization emits each block once, in
    an order where every block follows its causal ancestors."""
    committee = Committee.of_size(4)
    builder = DagBuilder(committee, FixedCoin(n=4, threshold=3))
    rng = random.Random(seed)
    for r in range(1, rounds + 1):
        previous = sorted(builder.store.authors_at_round(r - 1))
        for author in range(4):
            if rng.random() < 0.15 and r > 1 and len(previous) >= 4:
                continue  # author skips the round sometimes
            k = min(len(previous), max(3, len(previous) - 1))
            quorum = rng.sample(previous, k)
            builder.block(author, r, parents=[(a, r - 1) for a in sorted(quorum)])
    traversal = DagTraversal(builder.store, 3)
    tips = builder.store.round_blocks(builder.store.highest_round)
    sequence = traversal.linearize(list(tips), set())
    digests = [b.digest for b in sequence]
    assert len(digests) == len(set(digests))
    position = {digest: i for i, digest in enumerate(digests)}
    for block in sequence:
        for parent in block.parents:
            if parent.digest in position:
                assert position[parent.digest] < position[block.digest]


# ----------------------------------------------------------------------
# End-to-end agreement property
# ----------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_lockstep_cluster_total_order(seed):
    """Random per-round delivery orders never change the committed
    sequence prefix agreement."""
    committee = Committee.of_size(4)
    coin = FastCoin(seed=b"prop", n=4, threshold=3)
    config = ProtocolConfig(wave_length=5, leaders_per_round=2)
    cores = [MahiMahiCore(i, committee, config, coin) for i in range(4)]
    logs = [record_commits(core) for core in cores]
    rng = random.Random(seed)
    for _ in range(14):
        proposals = [c.maybe_propose() for c in cores]
        deliveries = [
            (c, b) for b in proposals if b for c in cores if c.authority != b.author
        ]
        rng.shuffle(deliveries)
        for core, block in deliveries:
            core.add_block(block)
        for core in cores:
            core.try_commit()
    sequences = [[b.digest for b in committed_blocks(log)] for log in logs]
    shortest = min(len(s) for s in sequences)
    assert shortest > 0
    for sequence in sequences:
        assert sequence[:shortest] == sequences[0][:shortest]
