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
  before it is protected by a CRC, or by the block digest);
* **what cannot be read is refused**: a whole, CRC-valid block record
  that does not decode to exactly one block (a log written in another
  block layout, say) stops recovery with a
  :class:`~repro.errors.WalCorruptionError` naming its offset — it is
  never replayed as some other block.

Record layout::

    <u32 crc32> <u32 length> <u8 type> <u32 run start> <u32 run length> <32 B digest> <payload>

A block record's payload is the block's wire encoding, written with one
``writev`` from :meth:`~repro.block.Block.encode_parts` as they lie (no
join, no copy but the kernel's).  Each byte is checked once:

* the CRC covers every byte after itself — the length, the type, the
  run's span, the digest and the payload — except the *run*: the
  payload bytes from ``run start`` on for ``run length`` bytes, which
  for a block record are its transaction section's payload run;
* the digest, of the block the record holds, covers the run.  Replay
  derives every block's digest anyway (it is the block's identity in the
  DAG), so :meth:`WriteAheadLog.recover` compares it with the one the
  record names at no extra pass, and treats a difference like a CRC
  failure.

A raw record (:meth:`WriteAheadLog.append` with one payload) has an
empty run, and so has a block without payload bytes (genesis, say): the
CRC covers the whole payload, and the digest is not read.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from ..block import PAYLOAD_RUN, Block
from ..errors import ReproError, WalCorruptionError

_CRC = struct.Struct("<I")
_META = struct.Struct("<IBII32s")  # payload length, type, run start, run length, digest
_HEADER_SIZE = _CRC.size + _META.size

#: The one record type: an encoded block.
RECORD_BLOCK = 1


@dataclass(frozen=True)
class WalRecord:
    """One durable log entry."""

    record_type: int
    #: A read record's is a view of the log as read
    #: (:meth:`WriteAheadLog.read_records`).
    payload: bytes | memoryview
    #: The digest the record names for the payload bytes its CRC
    #: skipped, or ``None`` if it skipped none: a reader of a record
    #: with a digest must check it (:meth:`WriteAheadLog.recover` does).
    digest: bytes | None = None


class WriteAheadLog:
    """Append-only record log, each record checked by its CRC and a
    block's payload run by the block's digest."""

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
        self._file = open(self._path, "ab", buffering=0)

    @property
    def path(self) -> Path:
        """The log file's location (replay reads it independently)."""
        return self._path

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(
        self, record_type: int, *parts: bytes, run: int | None = None, digest: bytes = b""
    ) -> None:
        """Durably append one record whose payload is ``parts`` joined
        — written with one ``writev``, never joined here.  ``parts[run]``,
        if given, is the record's run: the CRC skips it and ``digest``
        must cover it."""
        start = sum(map(len, parts[:run])) if run is not None else 0
        run_length = len(parts[run]) if run is not None else 0
        meta = _META.pack(sum(map(len, parts)), record_type, start, run_length, digest)
        crc = zlib.crc32(meta)
        for index, part in enumerate(parts):
            if index != run:
                crc = zlib.crc32(part, crc)
        self._write([_CRC.pack(crc), meta, *parts])
        if self._sync:
            os.fsync(self._file.fileno())

    def append_block(self, block: Block) -> None:
        """Persist a block: an own proposal before it is broadcast, or a
        block accepted into the DAG.  Its transaction section's payload
        run is the record's run, covered by the block's digest."""
        self.append(RECORD_BLOCK, *block.encode_parts(), run=PAYLOAD_RUN, digest=block.digest)

    def _write(self, buffers: list) -> None:
        """Write ``buffers`` in order with one ``writev``; a short write
        is completed, not dropped."""
        fd = self._file.fileno()
        written = os.writev(fd, buffers)
        if written < sum(map(len, buffers)):
            rest = memoryview(b"".join(buffers))[written:]
            while rest:
                rest = rest[os.write(fd, rest) :]

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

        A truncated or CRC-corrupt record — a torn header among them —
        ends iteration (crash-tail tolerance); with ``strict`` it raises
        instead — useful in tests asserting exactly where a log was
        damaged.  A record's run is not checked here: see
        :attr:`WalRecord.digest`.  Each payload is a view of the log as
        read, not a copy: it pins all of the log while anything holds
        it, so copy what you keep.
        """
        path = Path(path)
        if not path.exists():
            return
        with open(path, "rb") as handle:
            data = handle.read()
        view = memoryview(data)
        offset = 0
        while offset < len(data):
            found = _record_at(view, offset)
            if isinstance(found, str):
                if strict:
                    raise WalCorruptionError(f"{found} at offset {offset}")
                return
            record, offset = found
            yield record

    @classmethod
    def recover(cls, path: str | Path, *, strict: bool = False) -> list[Block]:
        """Every durable block of a log, in append order; a block whose
        digest is not the one its record names ends the replay like a
        CRC failure (``strict``: raises, as :meth:`read_records` does).

        Raises:
            WalCorruptionError: If a block record's payload is not
                exactly one block.
        """
        blocks: list[Block] = []
        offset = 0
        # Each payload is a view of the log: decoding copies what the
        # block keeps (its transaction section once), and nothing else.
        for record in cls.read_records(path, strict=strict):
            if record.record_type == RECORD_BLOCK:
                block = _decode_block_record(record.payload, offset)
                if record.digest is not None and block.digest != record.digest:
                    if strict:
                        raise WalCorruptionError(f"digest mismatch at offset {offset}")
                    break
                blocks.append(block)
            offset += _HEADER_SIZE + len(record.payload)
        return blocks


def _record_at(data: memoryview, offset: int) -> tuple[WalRecord, int] | str:
    """The record at ``offset`` (its payload a view of ``data``) and the
    offset past it, or what is wrong with it."""
    start = offset + _HEADER_SIZE
    if start > len(data):
        return "truncated record"
    (crc,) = _CRC.unpack_from(data, offset)
    length, record_type, run_start, run_length, digest = _META.unpack_from(
        data, offset + _CRC.size
    )
    end = start + length
    if end > len(data):
        return "truncated record"
    run_end = start + run_start + run_length
    checked = zlib.crc32(data[offset + _CRC.size : start + run_start])
    if run_end > end or zlib.crc32(data[run_end:end], checked) != crc:
        return "CRC mismatch"
    return WalRecord(record_type, data[start:end], digest if run_length else None), end


def _decode_block_record(payload: memoryview, offset: int) -> Block:
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
