"""Tests for :mod:`repro.transaction`."""

import pytest

from repro.errors import ReproError
from repro.transaction import (
    DEFAULT_TX_SIZE,
    Transaction,
    TransactionBatch,
    decode_transactions,
    encode_transactions,
)


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
