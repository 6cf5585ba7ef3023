"""Wire messages and framing for the runtime.

The protocol itself needs only one message type — the block
(Section 2.3) — plus the synchronizer's fetch request/response pair
(Lemma 8's "request missing ancestors" path).  Recovery adds the
state-transfer exchange (checkpoint request/response, mirroring the
simulator's ``ckpt_req``/``ckpt_resp``) and the chunked deep-fetch pair
(token-tagged sync request/response with pruned-reference flags,
mirroring ``sync_resp``), and clients submit transactions over the same
framed streams.  Frames are ``<u32 length> <u8 kind> <body>``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..block import Block, BlockRef
from ..errors import TransportError
from ..statesync import Checkpoint
from ..transaction import Transaction, decode_transactions, encode_transactions

_KIND_BLOCK = 1
_KIND_FETCH_REQUEST = 2
_KIND_FETCH_RESPONSE = 3
_KIND_CHECKPOINT_REQUEST = 4
_KIND_CHECKPOINT_RESPONSE = 5
_KIND_SYNC_REQUEST = 6
_KIND_SYNC_RESPONSE = 7
_KIND_TRANSACTIONS = 8

_SYNC_REQUEST_HEADER = struct.Struct("<qQI")  # floor, token, ref count
_SYNC_RESPONSE_HEADER = struct.Struct("<QII")  # token, block count, pruned count

#: Maximum accepted frame size (64 MiB) — guards against corrupt length
#: prefixes taking the process down.
MAX_FRAME = 64 * 1024 * 1024


@dataclass(frozen=True)
class BlockMessage:
    """A block broadcast or relayed to a peer."""

    block: Block


@dataclass(frozen=True)
class FetchRequest:
    """Ask a peer for blocks we are missing (shallow: exactly these)."""

    refs: tuple[BlockRef, ...]


@dataclass(frozen=True)
class FetchResponse:
    """Blocks served in response to a :class:`FetchRequest`."""

    blocks: tuple[Block, ...]


@dataclass(frozen=True)
class CheckpointRequest:
    """A recovering validator asking for attested checkpoints
    (the runtime's ``ckpt_req``)."""


@dataclass(frozen=True)
class CheckpointResponse:
    """A peer's retained checkpoints (the runtime's ``ckpt_resp``)."""

    checkpoints: tuple[Checkpoint, ...]


@dataclass(frozen=True)
class SyncRequest:
    """A deep (ancestor-closure) fetch: serve ``refs`` plus their stored
    ancestors above ``floor``.  The token tags the response so only the
    request currently in flight drives the re-sync chain."""

    refs: tuple[BlockRef, ...]
    floor: int
    token: int


@dataclass(frozen=True)
class SyncResponse:
    """One chunk of a deep fetch, lowest rounds first.

    ``pruned`` flags requested references the serving peer has already
    garbage-collected, so a re-sync that needs pruned history fails fast
    (or, after a checkpoint adoption, raises its floor past them)
    instead of livelocking.
    """

    blocks: tuple[Block, ...]
    pruned: tuple[BlockRef, ...]
    token: int


@dataclass(frozen=True)
class TransactionMessage:
    """Client-submitted transactions for the receiving validator's
    mempool (the open-loop client fleet's submission path)."""

    transactions: tuple[Transaction, ...]


Message = (
    BlockMessage
    | FetchRequest
    | FetchResponse
    | CheckpointRequest
    | CheckpointResponse
    | SyncRequest
    | SyncResponse
    | TransactionMessage
)


def _encode_refs(refs: tuple[BlockRef, ...]) -> bytes:
    return b"".join(ref.encode() for ref in refs)


def _decode_refs(data: bytes, offset: int, count: int) -> tuple[list[BlockRef], int]:
    refs = []
    for _ in range(count):
        ref, offset = BlockRef.decode(data, offset)
        refs.append(ref)
    return refs, offset


def _encode_blocks(blocks: tuple[Block, ...]) -> bytes:
    parts = []
    for block in blocks:
        encoded = block.encode()
        parts.append(struct.pack("<I", len(encoded)))
        parts.append(encoded)
    return b"".join(parts)


def _decode_blocks(data: bytes, offset: int, count: int) -> tuple[list[Block], int]:
    blocks = []
    for _ in range(count):
        (length,) = struct.unpack_from("<I", data, offset)
        offset += 4
        block, _ = Block.decode(data[offset : offset + length])
        blocks.append(block)
        offset += length
    return blocks, offset


def encode_message(message: Message) -> bytes:
    """Serialize a message body (kind byte + payload)."""
    if isinstance(message, BlockMessage):
        return bytes([_KIND_BLOCK]) + message.block.encode()
    if isinstance(message, FetchRequest):
        body = struct.pack("<I", len(message.refs)) + _encode_refs(message.refs)
        return bytes([_KIND_FETCH_REQUEST]) + body
    if isinstance(message, FetchResponse):
        body = struct.pack("<I", len(message.blocks)) + _encode_blocks(message.blocks)
        return bytes([_KIND_FETCH_RESPONSE]) + body
    if isinstance(message, CheckpointRequest):
        return bytes([_KIND_CHECKPOINT_REQUEST])
    if isinstance(message, CheckpointResponse):
        body = struct.pack("<I", len(message.checkpoints)) + b"".join(
            checkpoint.encode() for checkpoint in message.checkpoints
        )
        return bytes([_KIND_CHECKPOINT_RESPONSE]) + body
    if isinstance(message, SyncRequest):
        body = _SYNC_REQUEST_HEADER.pack(
            message.floor, message.token, len(message.refs)
        ) + _encode_refs(message.refs)
        return bytes([_KIND_SYNC_REQUEST]) + body
    if isinstance(message, SyncResponse):
        body = (
            _SYNC_RESPONSE_HEADER.pack(
                message.token, len(message.blocks), len(message.pruned)
            )
            + _encode_blocks(message.blocks)
            + _encode_refs(message.pruned)
        )
        return bytes([_KIND_SYNC_RESPONSE]) + body
    if isinstance(message, TransactionMessage):
        return bytes([_KIND_TRANSACTIONS]) + encode_transactions(message.transactions)
    raise TransportError(f"cannot encode message of type {type(message).__name__}")


def decode_message(data: bytes) -> Message:
    """Deserialize a message body produced by :func:`encode_message`."""
    if not data:
        raise TransportError("empty message")
    kind = data[0]
    if kind == _KIND_BLOCK:
        # In place: the block slices its transaction section out of the
        # frame, the one copy of a 256 KB payload on the receive path.
        block, _ = Block.decode(data, 1)
        return BlockMessage(block=block)
    body = data[1:]
    if kind == _KIND_FETCH_REQUEST:
        (count,) = struct.unpack_from("<I", body, 0)
        refs, _ = _decode_refs(body, 4, count)
        return FetchRequest(refs=tuple(refs))
    if kind == _KIND_FETCH_RESPONSE:
        (count,) = struct.unpack_from("<I", body, 0)
        blocks, _ = _decode_blocks(body, 4, count)
        return FetchResponse(blocks=tuple(blocks))
    if kind == _KIND_CHECKPOINT_REQUEST:
        return CheckpointRequest()
    if kind == _KIND_CHECKPOINT_RESPONSE:
        (count,) = struct.unpack_from("<I", body, 0)
        offset = 4
        checkpoints = []
        for _ in range(count):
            checkpoint, offset = Checkpoint.decode(body, offset)
            checkpoints.append(checkpoint)
        return CheckpointResponse(checkpoints=tuple(checkpoints))
    if kind == _KIND_SYNC_REQUEST:
        floor, token, count = _SYNC_REQUEST_HEADER.unpack_from(body, 0)
        refs, _ = _decode_refs(body, _SYNC_REQUEST_HEADER.size, count)
        return SyncRequest(refs=tuple(refs), floor=floor, token=token)
    if kind == _KIND_SYNC_RESPONSE:
        token, block_count, pruned_count = _SYNC_RESPONSE_HEADER.unpack_from(body, 0)
        blocks, offset = _decode_blocks(body, _SYNC_RESPONSE_HEADER.size, block_count)
        pruned, _ = _decode_refs(body, offset, pruned_count)
        return SyncResponse(blocks=tuple(blocks), pruned=tuple(pruned), token=token)
    if kind == _KIND_TRANSACTIONS:
        transactions, _ = decode_transactions(body, 0)
        return TransactionMessage(transactions=transactions)
    raise TransportError(f"unknown message kind {kind}")


def frame(body: bytes) -> bytes:
    """Length-prefix a message body for the stream transport."""
    if len(body) > MAX_FRAME:
        raise TransportError(f"frame too large ({len(body)} bytes)")
    return struct.pack("<I", len(body)) + body
