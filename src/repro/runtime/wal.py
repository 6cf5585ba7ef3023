"""Write-ahead log with crash recovery.

The paper's validator persists blocks in a WAL "tailored to the unique
requirements of our consensus protocol" (Section 4).  The essential
requirements reproduced here:

* **own proposals are durable before broadcast** — a recovering
  validator must never sign two different blocks for the same round
  (that would be equivocation, indistinguishable from Byzantine
  behaviour);
* **accepted blocks are durable** so recovery rebuilds the DAG without
  re-downloading history;
* **torn tails are tolerated**: a crash mid-append leaves a truncated or
  corrupt final record, which recovery silently discards (everything
  before it is protected by a CRC);
* **what cannot be read is refused**: a whole, CRC-valid block record
  that does not decode to exactly one block (a log written in another
  block layout, say) stops recovery with a
  :class:`~repro.errors.WalCorruptionError` naming its offset — it is
  never replayed as some other block.

Record layout: ``<u32 length> <u32 crc32> <u8 type> <payload>``.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from ..block import Block
from ..errors import ReproError, WalCorruptionError

_HEADER = struct.Struct("<IIB")

#: Record types.
RECORD_OWN_BLOCK = 1
RECORD_PEER_BLOCK = 2
RECORD_COMMIT_MARK = 3


@dataclass(frozen=True)
class WalRecord:
    """One durable log entry."""

    record_type: int
    payload: bytes


class WriteAheadLog:
    """Append-only, CRC-protected record log."""

    def __init__(self, path: str | Path, *, sync: bool = False) -> None:
        """Args:
        path: Log file location (created if absent).
        sync: fsync after every append.  Durability against machine
            crashes requires it; tests and benchmarks leave it off
            (process-crash durability only), like most deployments'
            group-commit settings.
        """
        self._path = Path(path)
        self._sync = sync
        self._file = open(self._path, "ab")

    @property
    def path(self) -> Path:
        """The log file's location (replay reads it independently)."""
        return self._path

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(self, record_type: int, payload: bytes) -> None:
        """Durably append one record."""
        crc = zlib.crc32(payload)
        self._file.write(_HEADER.pack(len(payload), crc, record_type))
        self._file.write(payload)
        self._file.flush()
        if self._sync:
            os.fsync(self._file.fileno())

    def append_own_block(self, block: Block) -> None:
        """Persist a block we authored (before broadcasting it)."""
        self.append(RECORD_OWN_BLOCK, block.encode())

    def append_peer_block(self, block: Block) -> None:
        """Persist a block accepted into the DAG."""
        self.append(RECORD_PEER_BLOCK, block.encode())

    def append_commit_mark(self, round_number: int) -> None:
        """Persist the commit frontier (bounds replay work)."""
        self.append(RECORD_COMMIT_MARK, round_number.to_bytes(8, "little"))

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    @classmethod
    def read_records(cls, path: str | Path, *, strict: bool = False) -> Iterator[WalRecord]:
        """Yield records from a log file.

        A truncated or CRC-corrupt record ends iteration (crash-tail
        tolerance); with ``strict`` it raises instead — useful in tests
        asserting exactly where a log was damaged.
        """
        path = Path(path)
        if not path.exists():
            return
        with open(path, "rb") as handle:
            data = handle.read()
        offset = 0
        while offset + _HEADER.size <= len(data):
            length, crc, record_type = _HEADER.unpack_from(data, offset)
            start = offset + _HEADER.size
            end = start + length
            if end > len(data):
                if strict:
                    raise WalCorruptionError(f"truncated record at offset {offset}")
                return
            payload = data[start:end]
            if zlib.crc32(payload) != crc:
                if strict:
                    raise WalCorruptionError(f"CRC mismatch at offset {offset}")
                return
            yield WalRecord(record_type=record_type, payload=payload)
            offset = end

    @classmethod
    def recover(cls, path: str | Path) -> tuple[list[Block], list[Block], int]:
        """Replay a log into ``(own blocks, peer blocks, commit round)``.

        Returns all durable own/peer blocks in append order and the
        highest recorded commit mark (-1 if none).

        Raises:
            WalCorruptionError: If a block record's payload is not
                exactly one block.
        """
        own: list[Block] = []
        peers: list[Block] = []
        commit_round = -1
        offset = 0
        for record in cls.read_records(path):
            if record.record_type == RECORD_OWN_BLOCK:
                own.append(_decode_block_record(record.payload, offset))
            elif record.record_type == RECORD_PEER_BLOCK:
                peers.append(_decode_block_record(record.payload, offset))
            elif record.record_type == RECORD_COMMIT_MARK:
                commit_round = max(commit_round, int.from_bytes(record.payload, "little"))
            offset += _HEADER.size + len(record.payload)
        return own, peers, commit_round


def _decode_block_record(payload: bytes, offset: int) -> Block:
    """The block a record's payload holds, all of it and nothing else."""
    try:
        block, end = Block.decode(payload)
    except ReproError as error:
        raise WalCorruptionError(f"unreadable block record at offset {offset}: {error}") from error
    if end != len(payload):
        raise WalCorruptionError(
            f"block record at offset {offset} holds {len(payload) - end} bytes past its block"
        )
    return block
