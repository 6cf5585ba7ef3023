"""Tests for :mod:`repro.block`."""

import hashlib
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.block import PAYLOAD_RUN, Block, BlockRef, GENESIS_ROUND, make_genesis
from repro.crypto.coin import CoinShare
from repro.crypto.hashing import hash_parts
from repro.transaction import (
    Transaction,
    TransactionBatch,
    TransactionSlice,
    encode_transactions,
)


def sample_block(**overrides) -> Block:
    genesis = make_genesis(4)
    fields = dict(
        author=1,
        round=1,
        parents=tuple(b.reference for b in genesis),
        transactions=(Transaction.dummy(1), Transaction.dummy(2)),
        coin_share=CoinShare(author=1, round=1, value=b"\xaa" * 32),
        signature=b"sig-bytes",
    )
    fields.update(overrides)
    return Block(**fields)


class TestDigest:
    def test_digest_is_stable(self):
        assert sample_block().digest == sample_block().digest

    def test_digest_excludes_signature(self):
        """The digest covers the signed contents; the signature itself
        (computed over those contents) cannot be part of them."""
        assert sample_block(signature=b"a").digest == sample_block(signature=b"b").digest

    @pytest.mark.parametrize(
        "field,value",
        [
            ("author", 2),
            ("round", 3),
            ("transactions", ()),
            ("salt", b"equivocation"),
            ("coin_share", CoinShare(author=1, round=1, value=b"\xbb" * 32)),
        ],
    )
    def test_digest_covers_field(self, field, value):
        assert sample_block().digest != sample_block(**{field: value}).digest

    def test_digest_covers_parent_order(self):
        genesis = make_genesis(4)
        refs = tuple(b.reference for b in genesis)
        a = sample_block(parents=refs)
        b = sample_block(parents=refs[::-1])
        assert a.digest != b.digest

    def test_reference_matches_identity(self):
        block = sample_block()
        assert block.reference == BlockRef(author=1, round=1, digest=block.digest)


def reference_digest(block: Block) -> bytes:
    """The block digest part by part: a header, one ``(author, round)``
    header plus digest per parent, the section as the tuple of its
    transactions encodes, the share, the salt — each length-prefixed and
    fed to the hasher on its own."""
    parts = [
        struct.pack("<IQI", block.author, block.round, len(block.parents)),
        *(struct.pack("<IQ", ref.author, ref.round) + ref.digest for ref in block.parents),
        encode_transactions(tuple(block.transactions)),
        block.coin_share.encode() if block.coin_share is not None else b"",
        block.salt,
    ]
    hasher = hashlib.blake2b(digest_size=32, person=b"block")
    for part in parts:
        hasher.update(len(part).to_bytes(8, "little"))
        hasher.update(part)
    return hasher.digest()


u32, u64 = st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1)
refs = st.builds(BlockRef, u32, u64, st.binary(min_size=32, max_size=32))
shares = st.builds(CoinShare, st.integers(0, 99), st.integers(0, 99), st.binary(max_size=40))
transactions = st.builds(
    Transaction,
    u64,
    st.floats(allow_nan=False),
    st.one_of(st.just(b""), st.binary(max_size=40), st.just(b"\x05" * 5000)),
)
sections = st.one_of(
    st.lists(transactions, max_size=4).map(tuple),
    st.lists(transactions, max_size=4).map(TransactionBatch),
    st.lists(u64, max_size=300).map(
        lambda ids: TransactionSlice(ids, [i / 7 for i in range(len(ids))])
    ),
)


class TestDigestFraming:
    @settings(max_examples=150, deadline=None)
    @given(
        u32,
        u64,
        st.lists(refs, max_size=60),
        sections,
        st.one_of(st.none(), shares),
        st.one_of(st.just(b""), st.binary(max_size=20)),
    )
    def test_digest_is_the_part_by_part_framing(
        self, author, round_number, parents, section, share, salt
    ):
        """0-60 parents, each section kind (a slice past the run limit, a
        payload past it), with and without a share and a salt: one framed
        pass hashes the bytes the part-by-part framing hashes."""
        block = Block(author, round_number, tuple(parents), section, share, b"sig", salt)
        assert block.digest == reference_digest(block)
        assert block.digest == hash_parts(block._signable_parts(), person=b"block")
        decoded, _ = Block.decode(block.encode())
        assert decoded.digest == block.digest


class TestSerialization:
    def test_roundtrip(self):
        block = sample_block()
        decoded, consumed = Block.decode(block.encode())
        assert decoded == block
        assert decoded.digest == block.digest
        assert consumed == len(block.encode())

    def test_roundtrip_without_coin_share(self):
        block = sample_block(coin_share=None)
        decoded, _ = Block.decode(block.encode())
        assert decoded.coin_share is None
        assert decoded == block

    def test_roundtrip_genesis(self):
        for genesis in make_genesis(4):
            decoded, _ = Block.decode(genesis.encode())
            assert decoded == genesis

    def test_roundtrip_with_salt(self):
        block = sample_block(salt=b"sibling-2")
        decoded, _ = Block.decode(block.encode())
        assert decoded.salt == b"sibling-2"

    def test_ref_roundtrip(self):
        ref = sample_block().reference
        decoded, consumed = BlockRef.decode(ref.encode())
        assert decoded == ref
        assert consumed == len(ref.encode())


def spelled_out_encoding(block: Block) -> bytes:
    """The wire layout, field by field: header | parents | section |
    share | salt | signature, the last three each after its length."""
    share = block.coin_share.encode() if block.coin_share is not None else b""
    out = struct.pack("<IQI", block.author, block.round, len(block.parents))
    out += b"".join(struct.pack("<IQ32s", p.author, p.round, p.digest) for p in block.parents)
    out += encode_transactions(tuple(block.transactions))
    for chunk in (share, block.salt, block.signature):
        out += struct.pack("<I", len(chunk)) + chunk
    return out


class TestEncodeParts:
    """``encode_parts`` is the encoding in four parts — what a frame
    joins and a WAL record writes out — the third the payload run."""

    @pytest.mark.parametrize(
        "transactions",
        [
            pytest.param(None, id="genesis"),
            pytest.param((Transaction.dummy(1), Transaction(2, 0.5, b"pay")), id="tuple"),
            pytest.param(
                TransactionBatch((Transaction.dummy(3, size=64), Transaction(4, 1.5, b"x"))),
                id="batch",
            ),
            pytest.param(TransactionSlice([5, 6, 7], [0.25, 0.5, 0.75]), id="slice"),
        ],
    )
    def test_the_parts_join_to_the_encoding(self, transactions):
        block = make_genesis(4)[2] if transactions is None else sample_block(
            transactions=transactions
        )
        parts = block.encode_parts()
        assert len(parts) == 4
        assert b"".join(parts) == block.encode() == spelled_out_encoding(block)
        section = encode_transactions(tuple(block.transactions))
        payloads = b"".join(tx.payload for tx in block.transactions)
        assert bytes(parts[PAYLOAD_RUN]) == payloads
        assert bytes(parts[PAYLOAD_RUN - 1]) + payloads == section


class TestHelpers:
    def test_slot(self):
        assert sample_block().slot == (1, 1)

    def test_genesis_shape(self):
        genesis = make_genesis(7)
        assert len(genesis) == 7
        for i, block in enumerate(genesis):
            assert block.author == i
            assert block.round == GENESIS_ROUND
            assert block.parents == ()
            assert block.transactions == ()

    def test_genesis_digests_distinct(self):
        digests = {b.digest for b in make_genesis(10)}
        assert len(digests) == 10

    def test_refs_order_lexicographically(self):
        genesis = make_genesis(4)
        refs = sorted(b.reference for b in genesis)
        assert [r.author for r in refs] == [0, 1, 2, 3]
