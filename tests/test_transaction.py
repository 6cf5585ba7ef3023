"""Tests for :mod:`repro.transaction`."""

import struct
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro import transaction as transaction_module
from repro.block import Block, make_genesis
from repro.errors import ReproError
from repro.messages import MAX_FRAME, TransactionMessage, decode_message, encode_message
from repro.transaction import (
    DEFAULT_TX_SIZE,
    Transaction,
    TransactionBatch,
    TransactionSlice,
    decode_transactions,
    encode_transactions,
)

from .test_properties import coin_shares, transactions


# ----------------------------------------------------------------------
# The section layout, written out one field at a time: the oracle
# ----------------------------------------------------------------------
def reference_encode(txs) -> bytes:
    """``u32 count | count x (u64 id, f64 submitted_at, u32 payload
    length) | the payloads back to back``."""
    out = struct.pack("<I", len(txs))
    for tx in txs:
        out += struct.pack("<Q", tx.tx_id) + struct.pack("<d", tx.submitted_at)
        out += struct.pack("<I", len(tx.payload))
    for tx in txs:
        out += tx.payload
    return out


def reference_decode(data: bytes, offset: int = 0):
    """``(transactions, end)`` of the section at ``offset``, one header
    and one payload at a time; ``ReproError`` where the layout does not
    fit the buffer."""
    if offset + 4 > len(data):
        raise ReproError("no count")
    (count,) = struct.unpack_from("<I", data, offset)
    table = offset + 4
    if table + 20 * count > len(data):
        raise ReproError("header table past the end")
    headers = [struct.unpack_from("<QdI", data, table + 20 * i) for i in range(count)]
    start, txs = table + 20 * count, []
    for tx_id, submitted_at, length in headers:
        if start + length > len(data):
            raise ReproError("payload past the end")
        txs.append(Transaction(tx_id, submitted_at, data[start : start + length]))
        start += length
    return tuple(txs), start


def interleaved_encode(txs) -> bytes:
    """The layout before the header table: each header followed by its
    own payload (what :meth:`Transaction.encode` emits, one record at a
    time)."""
    return struct.pack("<I", len(txs)) + b"".join(tx.encode() for tx in txs)


#: Random transaction lists at the layout's edges: empty lists, empty and
#: 600-byte payloads, ids and timestamps at their extremes.
edge_transactions = st.builds(
    Transaction,
    tx_id=st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([0, 2**64 - 1])),
    submitted_at=st.one_of(
        st.floats(allow_nan=False),
        st.sampled_from([0.0, -0.0, 5e-324, 1.7976931348623157e308, float("inf")]),
    ),
    payload=st.one_of(st.just(b""), st.binary(max_size=24), st.binary(min_size=600, max_size=600)),
    size_hint=st.none(),
)
edge_lists = st.lists(edge_transactions, max_size=5).map(tuple)


class TestLayout:
    """A section is a header table and a payload run, equal byte for byte
    whichever of the four section encoders writes it."""

    @settings(max_examples=200, deadline=None)
    @given(txs=edge_lists, trailing=st.binary(max_size=8))
    def test_every_encoder_writes_the_layout_and_decode_reads_it_back(self, txs, trailing):
        wire = reference_encode(txs)
        assert encode_transactions(txs) == wire == encode_transactions(list(txs))
        assert TransactionBatch(txs).wire == wire
        entries = [tx if tx.payload else tx.tx_id for tx in txs]
        times = [tx.submitted_at for tx in txs]
        objects = sum(type(entry) is Transaction for entry in entries)
        assert TransactionSlice(entries, times, None, objects).wire == wire
        assert TransactionSlice(list(txs), times, None, len(txs)).wire == wire
        bare = tuple(Transaction(tx.tx_id, tx.submitted_at) for tx in txs)
        ids = [tx.tx_id for tx in txs]
        assert TransactionSlice(ids, times).wire == reference_encode(bare)
        message = encode_message(TransactionMessage(transactions=txs))
        assert message[1:] == wire
        assert decode_message(message) == TransactionMessage(transactions=txs)
        # Round trips, at an offset and with trailing bytes: the end is exact.
        data = b"\xee" * 3 + wire + trailing
        batch, end = TransactionBatch.decode(data, 3)
        assert end == 3 + len(wire) and batch.wire == wire and len(batch) == len(txs)
        assert tuple(batch) == txs == decode_transactions(data, 3)[0]
        assert reference_decode(data, 3) == (txs, end)

    @settings(max_examples=100, deadline=None)
    @given(txs=edge_lists)
    def test_every_truncation_and_byte_flip_is_refused_or_reencodes_to_what_it_consumed(
        self, txs
    ):
        wire = reference_encode(txs)

        def decodes_honestly(data: bytes) -> None:
            try:
                batch, end = TransactionBatch.decode(data)
            except ReproError:
                with pytest.raises(ReproError):
                    reference_decode(data)
                return
            expected, expected_end = reference_decode(data)
            assert end == expected_end and batch.wire == data[:end]
            assert reference_encode(tuple(batch)) == data[:end]
            assert reference_encode(expected) == data[:end]

        for cut in range(len(wire)):
            with pytest.raises(ReproError):
                TransactionBatch.decode(wire[:cut])
        for position in range(len(wire)):
            flipped = bytearray(wire)
            flipped[position] ^= 0xFF
            decodes_honestly(bytes(flipped))

    @settings(max_examples=100, deadline=None)
    @given(txs=edge_lists)
    def test_a_section_without_payloads_is_the_interleaved_encoding(self, txs):
        """Why no simulated digest moved with the header table: a
        simulated section carries no payload, and without payloads the
        two layouts are the same bytes."""
        bare = tuple(Transaction(tx.tx_id, tx.submitted_at) for tx in txs)
        assert encode_transactions(bare) == interleaved_encode(bare)

    def test_the_single_record_codec_is_a_one_transaction_section(self):
        tx = Transaction(9, 2.5, b"payload")
        assert encode_transactions((tx,)) == struct.pack("<I", 1) + tx.encode()
        assert Transaction.decode(encode_transactions((tx,)), 4) == (tx, 4 + tx.size)

    def test_a_count_filling_a_frame_is_checked_in_constant_memory(self):
        """A count as large as a largest frame can hold (zero-length
        payloads, about 3.35 M headers) decodes, and checking it holds
        no more than one header at a time: no format string built from
        the count, no tuple of its lengths."""
        count = (MAX_FRAME - 4) // 20
        data = struct.pack("<I", count) + bytes(20 * count)
        tracemalloc.start()
        try:
            batch, end = TransactionBatch.decode(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(batch) == count and end == len(data)
        copied = 0 if batch.wire is data else len(batch.wire)
        assert peak - copied < 2**20
        del batch, data
        # One header past what the buffer holds is refused before any
        # header is read.
        too_many = bytearray(4 + 20 * count)
        struct.pack_into("<I", too_many, 0, count + 1)
        with pytest.raises(ReproError, match="count exceeds"):
            TransactionBatch.decode(too_many)


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

    def test_iteration_builds_each_transaction_once_on_demand(self, monkeypatch):
        batch = TransactionBatch(self.TXS)
        built = []

        def no_codec(*args):
            raise AssertionError("a section is read without the single-record codec")

        def counted(*fields):
            built.append(fields[0])
            return Transaction(*fields)

        monkeypatch.setattr(Transaction, "encode", no_codec)
        monkeypatch.setattr(Transaction, "decode", no_codec)
        monkeypatch.setattr(transaction_module, "Transaction", counted)
        transactions = iter(batch)
        assert built == []
        assert next(transactions) == self.TXS[0] and built == [0]
        assert list(transactions) == list(self.TXS[1:])
        assert built == list(range(6))

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
