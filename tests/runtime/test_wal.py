"""Tests for the write-ahead log and crash recovery."""

import struct

import pytest

from repro.block import Block, make_genesis
from repro.errors import WalCorruptionError
from repro.runtime.wal import (
    RECORD_OWN_BLOCK,
    RECORD_PEER_BLOCK,
    WalRecord,
    WriteAheadLog,
)
from repro.transaction import Transaction, encode_transactions


class TestAppendAndRead:
    def test_records_roundtrip(self, tmp_path):
        path = tmp_path / "test.wal"
        with WriteAheadLog(path) as wal:
            wal.append(RECORD_OWN_BLOCK, b"payload-1")
            wal.append(RECORD_PEER_BLOCK, b"payload-2")
        records = list(WriteAheadLog.read_records(path))
        assert records == [
            WalRecord(RECORD_OWN_BLOCK, b"payload-1"),
            WalRecord(RECORD_PEER_BLOCK, b"payload-2"),
        ]

    def test_blocks_roundtrip(self, tmp_path):
        path = tmp_path / "blocks.wal"
        genesis = make_genesis(4)
        with WriteAheadLog(path) as wal:
            wal.append_own_block(genesis[0])
            wal.append_peer_block(genesis[1])
            wal.append_commit_mark(17)
        own, peers, commit = WriteAheadLog.recover(path)
        assert own == [genesis[0]]
        assert peers == [genesis[1]]
        assert commit == 17

    def test_missing_file_yields_nothing(self, tmp_path):
        assert list(WriteAheadLog.read_records(tmp_path / "absent.wal")) == []

    def test_append_after_reopen(self, tmp_path):
        path = tmp_path / "reopen.wal"
        with WriteAheadLog(path) as wal:
            wal.append(RECORD_OWN_BLOCK, b"first")
        with WriteAheadLog(path) as wal:
            wal.append(RECORD_OWN_BLOCK, b"second")
        payloads = [r.payload for r in WriteAheadLog.read_records(path)]
        assert payloads == [b"first", b"second"]

    def test_highest_commit_mark_wins(self, tmp_path):
        path = tmp_path / "marks.wal"
        with WriteAheadLog(path) as wal:
            wal.append_commit_mark(5)
            wal.append_commit_mark(9)
            wal.append_commit_mark(7)
        _, _, commit = WriteAheadLog.recover(path)
        assert commit == 9


class TestCrashTolerance:
    def write_then_truncate(self, path, cut):
        with WriteAheadLog(path) as wal:
            wal.append(RECORD_OWN_BLOCK, b"intact-record")
            wal.append(RECORD_PEER_BLOCK, b"doomed-record")
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
            wal.append(RECORD_OWN_BLOCK, b"good")
            wal.append(RECORD_OWN_BLOCK, b"bad-crc")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a payload byte of the last record
        path.write_bytes(bytes(data))
        records = list(WriteAheadLog.read_records(path))
        assert [r.payload for r in records] == [b"good"]

    def test_corrupt_crc_strict_raises(self, tmp_path):
        path = tmp_path / "flipped.wal"
        with WriteAheadLog(path) as wal:
            wal.append(RECORD_OWN_BLOCK, b"payload")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(WalCorruptionError):
            list(WriteAheadLog.read_records(path, strict=True))

    def test_recovery_after_partial_header(self, tmp_path):
        path = tmp_path / "header.wal"
        with WriteAheadLog(path) as wal:
            wal.append(RECORD_OWN_BLOCK, b"complete")
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
            wal.append(RECORD_OWN_BLOCK, b"first")
            wal.append(RECORD_PEER_BLOCK, b"second")
            wal.append(RECORD_PEER_BLOCK, b"third")
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
            wal.append(RECORD_OWN_BLOCK, b"x" * 10)
        intact = path.read_bytes()
        path.write_bytes(intact[:-3])
        with pytest.raises(WalCorruptionError, match="truncated record at offset 0"):
            list(WriteAheadLog.read_records(path, strict=True))

    def test_strict_accepts_clean_log(self, tmp_path):
        path = tmp_path / "clean.wal"
        with WriteAheadLog(path) as wal:
            wal.append(RECORD_OWN_BLOCK, b"a")
            wal.append(RECORD_PEER_BLOCK, b"b")
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
            wal.append_own_block(own)
            for block in peers:
                wal.append_peer_block(block)
            wal.append_commit_mark(1)
        recovered_own, recovered_peers, commit = WriteAheadLog.recover(path)
        assert recovered_own == [own]
        assert recovered_peers == peers
        assert commit == 1
        # Digests (and hence DAG identity) survive the round trip, and
        # so do the heterogeneous payload sizes.
        assert [b.digest for b in recovered_peers] == [b.digest for b in peers]
        for original, replayed in zip([own, *peers], recovered_own + recovered_peers):
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
            wal.append_own_block(intact)
            wal.append_peer_block(doomed)
        data = path.read_bytes()
        path.write_bytes(data[:-100])  # tear mid-way through the tail block
        own, peers, commit = WriteAheadLog.recover(path)
        assert own == [intact]
        assert peers == []
        assert commit == -1


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
        """A log of a valid own block, a commit mark, then ``block_records``
        as peer blocks; returns the offset of the first of those."""
        with WriteAheadLog(path) as wal:
            wal.append_own_block(self.payload_block())
            wal.append_commit_mark(1)
        offset = path.stat().st_size
        with WriteAheadLog(path) as wal:
            for record in block_records:
                wal.append(RECORD_PEER_BLOCK, record)
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
        own, peers, commit = WriteAheadLog.recover(path)
        assert own == [self.payload_block()] and peers == [] and commit == 1
