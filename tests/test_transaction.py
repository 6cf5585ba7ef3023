"""Tests for :mod:`repro.transaction`."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.block import Block, make_genesis
from repro.errors import ReproError
from repro.transaction import (
    DEFAULT_TX_SIZE,
    Transaction,
    TransactionBatch,
    TransactionSlice,
    decode_transactions,
    encode_transactions,
)

from .test_properties import coin_shares, transactions


class TestRoundtrip:
    def test_encode_decode(self):
        tx = Transaction(tx_id=42, submitted_at=1.5, payload=b"hello world")
        decoded, offset = Transaction.decode(tx.encode())
        assert decoded == tx
        assert offset == len(tx.encode())

    def test_empty_payload(self):
        tx = Transaction(tx_id=1)
        decoded, _ = Transaction.decode(tx.encode())
        assert decoded.payload == b""

    def test_batch_roundtrip(self):
        batch = tuple(Transaction.dummy(i, submitted_at=i / 10) for i in range(25))
        decoded, offset = decode_transactions(encode_transactions(batch))
        assert decoded == batch
        assert offset == len(encode_transactions(batch))

    def test_empty_batch(self):
        decoded, _ = decode_transactions(encode_transactions(()))
        assert decoded == ()

    def test_decode_at_offset(self):
        tx = Transaction.dummy(7)
        data = b"\xff" * 10 + tx.encode()
        decoded, _ = Transaction.decode(data, offset=10)
        assert decoded == tx


class TestErrors:
    def test_truncated_header(self):
        with pytest.raises(ReproError):
            Transaction.decode(b"\x01\x02")

    def test_truncated_payload(self):
        data = Transaction(tx_id=1, payload=b"abcdef").encode()
        with pytest.raises(ReproError):
            Transaction.decode(data[:-3])

    def test_truncated_batch_count(self):
        with pytest.raises(ReproError):
            decode_transactions(b"\x01")


class TestBatch:
    """The bytes-backed transaction section of runtime blocks."""

    TXS = tuple(Transaction.dummy(i, submitted_at=i / 10, size=40 + i) for i in range(6))

    def test_holds_the_wire_bytes_and_hands_them_back_unencoded(self):
        batch = TransactionBatch(self.TXS)
        assert batch.wire == encode_transactions(self.TXS)
        assert encode_transactions(batch) is batch.wire

    def test_is_a_sequence_equal_to_the_tuple_it_encodes(self):
        batch = TransactionBatch(self.TXS)
        assert len(batch) == 6 and tuple(batch) == self.TXS
        assert batch[2] == self.TXS[2] and batch[-1] == self.TXS[-1]
        assert batch == self.TXS and self.TXS == batch
        assert batch == TransactionBatch(self.TXS) and hash(batch) == hash(self.TXS)
        assert batch != self.TXS[:5] and batch != TransactionBatch(self.TXS[:5])
        assert TransactionBatch() == () and not TransactionBatch()

    def test_length_and_slicing_build_no_transaction(self, monkeypatch):
        data = b"\xee" * 3 + encode_transactions(self.TXS) + b"tail"

        def no_decode(*args):
            raise AssertionError("a structural walk decodes nothing")

        monkeypatch.setattr(Transaction, "decode", no_decode)
        batch, end = TransactionBatch.decode(data, 3)
        assert len(batch) == 6 and end == len(data) - 4
        assert batch.wire == data[3:end]

    def test_decode_on_demand_is_one_decode_per_transaction(self, monkeypatch):
        batch = TransactionBatch(self.TXS)
        calls = []
        real = Transaction.decode.__func__
        monkeypatch.setattr(
            Transaction, "decode", classmethod(lambda cls, *a: calls.append(1) or real(cls, *a))
        )
        assert [tx.tx_id for tx in batch] == list(range(6))
        assert len(calls) == 6

    def test_a_count_the_buffer_cannot_hold_is_rejected_before_any_walk(self):
        huge = (0xFFFFFFFF).to_bytes(4, "little") + b"\x00" * 64
        with pytest.raises(ReproError, match="count exceeds"):
            TransactionBatch.decode(huge)

    def test_truncation_inside_the_section_is_rejected(self):
        wire = encode_transactions(self.TXS)
        for cut in (2, 4 + 10, len(wire) - 1):
            with pytest.raises(ReproError):
                TransactionBatch.decode(wire[:cut])
        lying = bytearray(wire)
        lying[4 + 16 : 4 + 20] = (10_000).to_bytes(4, "little")  # first payload length
        with pytest.raises(ReproError):
            TransactionBatch.decode(bytes(lying))


@st.composite
def slices(draw):
    """``(slice, the tuple of transactions it stands for)``: random ids,
    arrival times, sizes (or none) and entries submitted as objects."""
    count = draw(st.integers(0, 12))
    column = lambda elements: st.lists(elements, min_size=count, max_size=count)  # noqa: E731
    ids = draw(column(st.integers(0, 2**64 - 1)))
    times = draw(column(st.floats(min_value=0, max_value=1e6, allow_nan=False)))
    sizes = draw(st.one_of(st.none(), column(st.one_of(st.none(), st.integers(1, 2**20)))))
    objects = draw(column(st.one_of(st.none(), transactions)))
    entries = [entry if entry is not None else tx_id for entry, tx_id in zip(objects, ids)]
    expected = tuple(
        entry if entry is not None else Transaction(tx_id, time, b"", size)
        for entry, tx_id, time, size in zip(objects, ids, times, sizes or [None] * count)
    )
    section = TransactionSlice(
        entries, times, sizes, sum(entry is not None for entry in objects)
    )
    return section, expected


class TestSlice:
    """The column-backed transaction section of simulated blocks."""

    @settings(max_examples=300, deadline=None)
    @given(pair=slices())
    def test_is_the_tuple_it_stands_for(self, pair):
        section, expected = pair
        assert tuple(section) == expected and len(section) == len(expected)
        assert section == expected and expected == section
        assert hash(section) == hash(expected)
        assert encode_transactions(section) == encode_transactions(expected)
        as_objects = list(section)
        as_times = [tx.submitted_at for tx in section]
        assert section == TransactionSlice(as_objects, as_times, None, len(section))
        if expected:
            assert section[-1] == expected[-1]
            assert section != expected[:-1] and bool(section)
        if all(tx.size_hint is None for tx in expected):
            assert section == TransactionBatch(expected) and TransactionBatch(expected) == section

    @settings(max_examples=150, deadline=None)
    @given(
        pair=slices(),
        share=st.one_of(st.none(), coin_shares),
        salt=st.binary(max_size=8),
    )
    def test_a_block_carrying_it_is_the_block_carrying_the_tuple(self, pair, share, salt):
        section, expected = pair
        parents = tuple(block.reference for block in make_genesis(4))
        ours, theirs = (
            Block(author=1, round=7, parents=parents, transactions=txs, coin_share=share, salt=salt)
            for txs in (section, expected)
        )
        assert ours.digest == theirs.digest and ours == theirs and hash(ours) == hash(theirs)
        decoded, _ = Block.decode(ours.encode())
        assert decoded.digest == ours.digest
        if all(tx.size_hint is None for tx in expected):  # a size hint never travels
            assert decoded == ours

    def test_without_objects_it_packs_in_one_call(self, monkeypatch):
        def no_encode(self):
            raise AssertionError("a slice of ids and times encodes no Transaction")

        monkeypatch.setattr(Transaction, "encode", no_encode)
        section = TransactionSlice([3, 5, 9], [0.25, 0.5, 1.0])
        assert section.wire[:4] == (3).to_bytes(4, "little") and len(section.wire) == 4 + 3 * 20


class TestDummy:
    def test_dummy_matches_paper_size(self):
        """Benchmark transactions are 512 bytes (Section 5.1)."""
        assert Transaction.dummy(1).size == DEFAULT_TX_SIZE == 512

    def test_dummy_custom_size(self):
        assert Transaction.dummy(1, size=100).size == 100

    def test_dummy_below_header_size_clamps(self):
        tx = Transaction.dummy(1, size=1)
        assert tx.payload == b""

    def test_size_accounts_header_and_payload(self):
        tx = Transaction(tx_id=1, payload=b"x" * 10)
        assert tx.size == len(tx.encode())
