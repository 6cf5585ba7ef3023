"""Tests for the write-ahead log and crash recovery."""

import os
import struct

import pytest

from repro import block as block_module
from repro.block import Block, make_genesis
from repro.errors import WalCorruptionError
from repro.runtime.wal import RECORD_BLOCK, WalRecord, WriteAheadLog
from repro.transaction import Transaction, TransactionBatch, encode_transactions


class TestAppendAndRead:
    def test_records_roundtrip(self, tmp_path):
        path = tmp_path / "test.wal"
        with WriteAheadLog(path) as wal:
            wal.append(RECORD_BLOCK, b"payload-1")
            wal.append(RECORD_BLOCK, b"payload-2")
        records = list(WriteAheadLog.read_records(path))
        assert records == [
            WalRecord(RECORD_BLOCK, b"payload-1"),
            WalRecord(RECORD_BLOCK, b"payload-2"),
        ]

    def test_blocks_roundtrip(self, tmp_path):
        path = tmp_path / "blocks.wal"
        genesis = make_genesis(4)
        with WriteAheadLog(path) as wal:
            wal.append_block(genesis[0])
            wal.append_block(genesis[1])
        assert WriteAheadLog.recover(path) == [genesis[0], genesis[1]]

    def test_missing_file_yields_nothing(self, tmp_path):
        assert list(WriteAheadLog.read_records(tmp_path / "absent.wal")) == []

    def test_append_after_reopen(self, tmp_path):
        path = tmp_path / "reopen.wal"
        with WriteAheadLog(path) as wal:
            wal.append(RECORD_BLOCK, b"first")
        with WriteAheadLog(path) as wal:
            wal.append(RECORD_BLOCK, b"second")
        payloads = [r.payload for r in WriteAheadLog.read_records(path)]
        assert payloads == [b"first", b"second"]


class TestCrashTolerance:
    def write_then_truncate(self, path, cut):
        with WriteAheadLog(path) as wal:
            wal.append(RECORD_BLOCK, b"intact-record")
            wal.append(RECORD_BLOCK, b"doomed-record")
        data = path.read_bytes()
        path.write_bytes(data[:-cut])

    def test_truncated_tail_discarded(self, tmp_path):
        path = tmp_path / "torn.wal"
        self.write_then_truncate(path, cut=4)
        records = list(WriteAheadLog.read_records(path))
        assert [r.payload for r in records] == [b"intact-record"]

    def test_truncated_tail_strict_raises(self, tmp_path):
        path = tmp_path / "torn.wal"
        self.write_then_truncate(path, cut=4)
        with pytest.raises(WalCorruptionError):
            list(WriteAheadLog.read_records(path, strict=True))

    def test_corrupt_crc_discarded(self, tmp_path):
        path = tmp_path / "flipped.wal"
        with WriteAheadLog(path) as wal:
            wal.append(RECORD_BLOCK, b"good")
            wal.append(RECORD_BLOCK, b"bad-crc")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a payload byte of the last record
        path.write_bytes(bytes(data))
        records = list(WriteAheadLog.read_records(path))
        assert [r.payload for r in records] == [b"good"]

    def test_corrupt_crc_strict_raises(self, tmp_path):
        path = tmp_path / "flipped.wal"
        with WriteAheadLog(path) as wal:
            wal.append(RECORD_BLOCK, b"payload")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(WalCorruptionError):
            list(WriteAheadLog.read_records(path, strict=True))

    def test_recovery_after_partial_header(self, tmp_path):
        path = tmp_path / "header.wal"
        with WriteAheadLog(path) as wal:
            wal.append(RECORD_BLOCK, b"complete")
        with open(path, "ab") as handle:
            handle.write(b"\x05\x00")  # 2 bytes of a 9-byte header
        records = list(WriteAheadLog.read_records(path))
        assert [r.payload for r in records] == [b"complete"]

    def test_mid_file_corruption_discards_the_rest(self, tmp_path):
        """Non-strict reads stop at the first bad record even when valid
        bytes follow: everything after an unreadable record is
        unreachable (record boundaries cannot be re-synchronized)."""
        path = tmp_path / "mid.wal"
        with WriteAheadLog(path) as wal:
            wal.append(RECORD_BLOCK, b"first")
            wal.append(RECORD_BLOCK, b"second")
            wal.append(RECORD_BLOCK, b"third")
        data = bytearray(path.read_bytes())
        # Flip a byte inside the *second* record's payload.
        offset = data.index(b"second")
        data[offset] ^= 0xFF
        path.write_bytes(bytes(data))
        records = list(WriteAheadLog.read_records(path))
        assert [r.payload for r in records] == [b"first"]
        with pytest.raises(WalCorruptionError, match="CRC mismatch"):
            list(WriteAheadLog.read_records(path, strict=True))

    def test_strict_reports_offset_of_damage(self, tmp_path):
        path = tmp_path / "offsets.wal"
        with WriteAheadLog(path) as wal:
            wal.append(RECORD_BLOCK, b"x" * 10)
        intact = path.read_bytes()
        path.write_bytes(intact[:-3])
        with pytest.raises(WalCorruptionError, match="truncated record at offset 0"):
            list(WriteAheadLog.read_records(path, strict=True))

    def test_strict_accepts_clean_log(self, tmp_path):
        path = tmp_path / "clean.wal"
        with WriteAheadLog(path) as wal:
            wal.append(RECORD_BLOCK, b"a")
            wal.append(RECORD_BLOCK, b"b")
        records = list(WriteAheadLog.read_records(path, strict=True))
        assert [r.payload for r in records] == [b"a", b"b"]


class TestRecoverMixedSizes:
    def mixed_block(self, author, round_number, parents):
        """A block carrying the tx_size_mix shape: mostly-small payloads
        with a heavy tail, like the mixed-workload sweeps produce."""
        sizes = (128, 128, 512, 4096)
        return Block(
            author=author,
            round=round_number,
            parents=parents,
            transactions=tuple(
                Transaction.dummy(tx_id=round_number * 10 + i, size=size)
                for i, size in enumerate(sizes)
            ),
        )

    def test_recover_roundtrips_mixed_size_blocks(self, tmp_path):
        genesis = make_genesis(4)
        parents = tuple(b.reference for b in genesis)
        own = self.mixed_block(0, 1, parents)
        peers = [self.mixed_block(author, 1, parents) for author in (1, 2)]
        path = tmp_path / "mixed.wal"
        with WriteAheadLog(path) as wal:
            for block in (own, *peers):
                wal.append_block(block)
        recovered = WriteAheadLog.recover(path)
        assert recovered == [own, *peers]
        # Digests (and hence DAG identity) survive the round trip, and
        # so do the heterogeneous payload sizes.
        assert [b.digest for b in recovered] == [b.digest for b in (own, *peers)]
        for original, replayed in zip([own, *peers], recovered):
            assert [t.size for t in replayed.transactions] == [
                t.size for t in original.transactions
            ]

    def test_recover_tolerates_torn_mixed_tail(self, tmp_path):
        genesis = make_genesis(4)
        parents = tuple(b.reference for b in genesis)
        intact = self.mixed_block(0, 1, parents)
        doomed = self.mixed_block(1, 1, parents)
        path = tmp_path / "torn-mixed.wal"
        with WriteAheadLog(path) as wal:
            wal.append_block(intact)
            wal.append_block(doomed)
        data = path.read_bytes()
        path.write_bytes(data[:-100])  # tear mid-way through the tail block
        assert WriteAheadLog.recover(path) == [intact]


class TestRefusesWhatItCannotRead:
    """A whole, CRC-valid block record that is not exactly one block
    stops recovery with a typed refusal naming its offset; only a torn
    tail still ends the replay silently."""

    def payload_block(self, author: int = 0) -> Block:
        parents = tuple(b.reference for b in make_genesis(4))
        return Block(
            author=author,
            round=1,
            parents=parents,
            transactions=(
                Transaction(7, 1.0, b"pay alice 10 coins from bob"),
                Transaction(8, 2.0, b"pay carol 20 coins from dave"),
            ),
        )

    def interleaved_record(self, block: Block) -> bytes:
        """``block`` in the layout before the header table, where each
        transaction's header is followed by its own payload."""
        txs = block.transactions
        section = encode_transactions(txs)
        interleaved = struct.pack("<I", len(txs)) + b"".join(tx.encode() for tx in txs)
        wire = block.encode()
        assert wire.count(section) == 1 and interleaved != section
        return wire.replace(section, interleaved)

    def log(self, path, *block_records: bytes) -> int:
        """A log of a valid block, then ``block_records``; returns the
        offset of the first of those."""
        with WriteAheadLog(path) as wal:
            wal.append_block(self.payload_block())
        offset = path.stat().st_size
        with WriteAheadLog(path) as wal:
            for record in block_records:
                wal.append(RECORD_BLOCK, record)
        return offset

    def test_a_log_in_the_interleaved_layout_is_refused(self, tmp_path):
        path = tmp_path / "interleaved.wal"
        offset = self.log(path, self.interleaved_record(self.payload_block(1)))
        with pytest.raises(WalCorruptionError, match=f"block record at offset {offset}:"):
            WriteAheadLog.recover(path)

    def test_bytes_past_the_block_are_refused(self, tmp_path):
        path = tmp_path / "trailing.wal"
        offset = self.log(path, self.payload_block(1).encode() + b"\x00")
        with pytest.raises(WalCorruptionError, match=f"offset {offset} holds 1 bytes past"):
            WriteAheadLog.recover(path)

    def test_a_torn_refusable_tail_still_ends_the_replay_silently(self, tmp_path):
        path = tmp_path / "torn.wal"
        self.log(path, self.interleaved_record(self.payload_block(1)))
        path.write_bytes(path.read_bytes()[:-5])
        assert WriteAheadLog.recover(path) == [self.payload_block()]


def views(value):
    """Every ``memoryview`` reachable from ``value`` through sequences,
    instance dicts and slots."""
    if isinstance(value, memoryview):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from views(item)
    else:
        fields = dict(getattr(value, "__dict__", {}))
        for slot in getattr(type(value), "__slots__", ()):
            if hasattr(value, slot):
                fields[slot] = getattr(value, slot)
        for item in fields.values():
            yield from views(item)


def logged_block(author: int, signature: bytes = b"signed") -> Block:
    """A round-1 block as the runtime logs it: a ``TransactionBatch``
    with payloads, a signature, four parents."""
    parents = tuple(b.reference for b in make_genesis(4))
    transactions = TransactionBatch(
        [Transaction(author * 10 + i, float(i), bytes([65 + i]) * 40) for i in range(3)]
    )
    block = Block(author=author, round=1, parents=parents, transactions=transactions)
    return block.signed(signature)


class TestTornHeader:
    def test_a_strict_read_refuses_a_torn_header(self, tmp_path):
        path = tmp_path / "header.wal"
        with WriteAheadLog(path) as wal:
            wal.append(RECORD_BLOCK, b"complete")
        offset = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b"\x05\x00")
        with pytest.raises(WalCorruptionError, match=f"truncated record at offset {offset}"):
            list(WriteAheadLog.read_records(path, strict=True))
        assert [r.payload for r in WriteAheadLog.read_records(path)] == [b"complete"]


class TestBlockRecords:
    """A block record is written from the block's parts in one
    ``writev``; its CRC skips the section's payload run, which the block
    digest named in its header covers."""

    def test_a_raw_record_round_trips(self, tmp_path):
        path = tmp_path / "raw.wal"
        with WriteAheadLog(path) as wal:
            wal.append(7, b"raw bytes, all of them under the CRC")
        assert list(WriteAheadLog.read_records(path, strict=True)) == [
            WalRecord(7, b"raw bytes, all of them under the CRC", digest=None)
        ]

    def test_a_log_written_by_append_block_replays_the_same_blocks_in_order(
        self, tmp_path, monkeypatch
    ):
        blocks = [logged_block(author) for author in (2, 0, 3, 1)] + make_genesis(2)
        writes = []
        real = os.writev
        monkeypatch.setattr(
            os, "writev", lambda fd, parts: writes.append(len(parts)) or real(fd, parts)
        )
        path = tmp_path / "blocks.wal"
        with WriteAheadLog(path) as wal:
            for block in blocks:
                wal.append_block(block)
        # One writev per record: its length-and-CRC prefix, the rest of
        # its header, and the block's four parts as they lie.
        assert writes == [6] * len(blocks)
        recovered = WriteAheadLog.recover(path, strict=True)
        assert recovered == blocks
        assert [b.signature for b in recovered] == [b.signature for b in blocks]

    def test_a_short_write_is_completed(self, tmp_path, monkeypatch):
        def short_writev(fd, parts):
            return os.write(fd, b"".join(parts)[:7])

        monkeypatch.setattr(os, "writev", short_writev)
        path = tmp_path / "short.wal"
        with WriteAheadLog(path) as wal:
            wal.append_block(logged_block(1))
            wal.append(RECORD_BLOCK, logged_block(2).encode())
        assert WriteAheadLog.recover(path, strict=True) == [logged_block(1), logged_block(2)]

    def test_replay_derives_each_digest_once_and_keeps_it(self, tmp_path, monkeypatch):
        """The digest comparison is the hash replay pays anyway: one per
        block record, cached on the block the core then ingests."""
        path = tmp_path / "hash.wal"
        with WriteAheadLog(path) as wal:
            for author in range(3):
                wal.append_block(logged_block(author))
        hashed = []
        real = block_module.hash_parts
        monkeypatch.setattr(
            block_module, "hash_parts", lambda *a, **k: hashed.append(1) or real(*a, **k)
        )
        recovered = WriteAheadLog.recover(path)
        assert len(hashed) == 3
        assert all("digest" in vars(block) for block in recovered)

    def test_replayed_blocks_keep_no_view_of_the_log(self, tmp_path):
        """Replay decodes each block from a view of the log as read, so
        the transaction section is copied once, by the decode; a block
        that kept a view instead would pin the whole log in memory for
        as long as the block lives."""
        blocks = [logged_block(author) for author in range(3)] + make_genesis(2)
        path = tmp_path / "views.wal"
        with WriteAheadLog(path) as wal:
            for block in blocks:
                wal.append_block(block)
        recovered = WriteAheadLog.recover(path, strict=True)
        assert recovered == blocks
        assert [b.digest for b in recovered] == [b.digest for b in blocks]
        assert [len(b.transactions) for b in recovered] == [3, 3, 3, 0, 0]
        for block in recovered:
            assert not list(views(block)), block

    @staticmethod
    def place(block: Block, where: str) -> int:
        """The offset, within ``block``'s encoding, of one byte in
        ``where``."""
        head, table, run, tail = block.encode_parts()
        return {
            "payload-run": len(head) + len(table) + 5,
            "header-table": len(head) + 4 + 16,  # the first row's payload length
            "parent-reference": 16 + 44 + 12,  # the second parent's digest
            "signature": len(head) + len(table) + len(run) + len(tail) - 1,
        }[where]

    @pytest.mark.parametrize(
        "where, fault",
        [
            ("payload-run", "digest mismatch"),
            ("header-table", "CRC mismatch"),
            ("parent-reference", "CRC mismatch"),
            ("signature", "CRC mismatch"),
        ],
    )
    def test_a_flipped_byte_ends_the_replay_before_its_record(self, tmp_path, where, fault):
        intact, damaged, after = logged_block(0), logged_block(1), logged_block(2)
        path = tmp_path / f"{where}.wal"
        with WriteAheadLog(path) as wal:
            wal.append_block(intact)
        offset = path.stat().st_size
        with WriteAheadLog(path) as wal:
            wal.append_block(damaged)
            wal.append_block(after)
        data = bytearray(path.read_bytes())
        payload_at = offset + (path.stat().st_size - offset) // 2 - len(damaged.encode())
        data[payload_at + self.place(damaged, where)] ^= 0x01
        path.write_bytes(bytes(data))
        assert WriteAheadLog.recover(path) == [intact]
        with pytest.raises(WalCorruptionError, match=f"^{fault} at offset {offset}$"):
            WriteAheadLog.recover(path, strict=True)
