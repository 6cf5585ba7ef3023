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
* **the log holds blocks and nothing else** — one record kind, whoever
  authored the block: a restart re-derives every commit from the
  replayed DAG, and floors its proposal round at the highest block the
  log holds whose (signed) author is this validator;
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

#: The one record type: an encoded block.
RECORD_BLOCK = 1


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

    def append_block(self, block: Block) -> None:
        """Persist a block: an own proposal before it is broadcast, or a
        block accepted into the DAG."""
        self.append(RECORD_BLOCK, block.encode())

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
    def recover(cls, path: str | Path) -> list[Block]:
        """Every durable block of a log, in append order.

        Raises:
            WalCorruptionError: If a block record's payload is not
                exactly one block.
        """
        blocks: list[Block] = []
        offset = 0
        for record in cls.read_records(path):
            if record.record_type == RECORD_BLOCK:
                blocks.append(_decode_block_record(record.payload, offset))
            offset += _HEADER.size + len(record.payload)
        return blocks


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
