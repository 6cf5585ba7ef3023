"""The wire vocabulary: what validators say to each other, on both fabrics.

The protocol itself needs only one message — the block (Section 2.3) —
plus the synchronizer's fetch request/response pair (Lemma 8's "request
missing ancestors" path).  Recovery adds the state-transfer exchange
(checkpoint request/response) and the chunked deep-fetch pair
(token-tagged sync request/response with pruned-reference flags), and
clients submit transactions over the same framed streams.

The simulator carries these objects as they are and prices them with
its wire-size model; the runtime frames them as ``<u32 length> <u8 kind>
<body>``.  Either way the seven validator messages have one reader,
:meth:`repro.statesync.driver.ValidatorDriver.on_message`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .block import Block, BlockRef
from .errors import ReproError, TransportError
from .statesync.checkpoint import Checkpoint
from .transaction import Transaction, decode_transactions, encode_transactions

_KIND_BLOCK = 1
_KIND_FETCH_REQUEST = 2
_KIND_FETCH_RESPONSE = 3
_KIND_CHECKPOINT_REQUEST = 4
_KIND_CHECKPOINT_RESPONSE = 5
_KIND_SYNC_REQUEST = 6
_KIND_SYNC_RESPONSE = 7
_KIND_TRANSACTIONS = 8

_COUNT = struct.Struct("<I")
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
    """A recovering validator asking for attested checkpoints."""


@dataclass(frozen=True)
class CheckpointResponse:
    """A peer's retained checkpoints."""

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


def _encode_blocks(blocks: tuple[Block, ...]) -> bytes:
    parts = []
    for block in blocks:
        encoded = block.encode()
        parts.append(_COUNT.pack(len(encoded)))
        parts.append(encoded)
    return b"".join(parts)


def encode_message(message: Message) -> bytes:
    """Serialize a message body (kind byte + payload)."""
    if isinstance(message, BlockMessage):
        return bytes([_KIND_BLOCK]) + message.block.encode()
    if isinstance(message, FetchRequest):
        body = _COUNT.pack(len(message.refs)) + _encode_refs(message.refs)
        return bytes([_KIND_FETCH_REQUEST]) + body
    if isinstance(message, FetchResponse):
        body = _COUNT.pack(len(message.blocks)) + _encode_blocks(message.blocks)
        return bytes([_KIND_FETCH_RESPONSE]) + body
    if isinstance(message, CheckpointRequest):
        return bytes([_KIND_CHECKPOINT_REQUEST])
    if isinstance(message, CheckpointResponse):
        body = _COUNT.pack(len(message.checkpoints)) + b"".join(
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


def _unpack(header: struct.Struct, data: bytes, offset: int) -> tuple:
    if offset + header.size > len(data):
        raise TransportError("truncated message header")
    return header.unpack_from(data, offset)


def _fits(count: int, data: bytes, offset: int) -> int:
    """``count``, once it is known not to exceed the bytes left (every
    item takes at least one): a declared count or length is checked
    before anything is allocated or looped over for it."""
    if count > len(data) - offset:
        raise TransportError(f"message declares {count} items or bytes and holds fewer")
    return count


def _decode_refs(data: bytes, offset: int, count: int) -> tuple[tuple[BlockRef, ...], int]:
    refs = []
    for _ in range(_fits(count, data, offset)):
        ref, offset = BlockRef.decode(data, offset)
        refs.append(ref)
    return tuple(refs), offset


def _decode_blocks(data: bytes, offset: int, count: int) -> tuple[tuple[Block, ...], int]:
    blocks = []
    for _ in range(_fits(count, data, offset)):
        (length,) = _unpack(_COUNT, data, offset)
        offset += _COUNT.size
        end = offset + _fits(length, data, offset)
        block, _ = Block.decode(data[offset:end])
        blocks.append(block)
        offset = end
    return tuple(blocks), offset


def _decode(data: bytes) -> Message:
    kind = data[0]
    if kind == _KIND_BLOCK:
        # In place: the block slices its transaction section out of the
        # frame, the one copy of a 256 KB payload on the receive path.
        block, _ = Block.decode(data, 1)
        return BlockMessage(block=block)
    if kind == _KIND_FETCH_REQUEST:
        (count,) = _unpack(_COUNT, data, 1)
        refs, _ = _decode_refs(data, 1 + _COUNT.size, count)
        return FetchRequest(refs=refs)
    if kind == _KIND_FETCH_RESPONSE:
        (count,) = _unpack(_COUNT, data, 1)
        blocks, _ = _decode_blocks(data, 1 + _COUNT.size, count)
        return FetchResponse(blocks=blocks)
    if kind == _KIND_CHECKPOINT_REQUEST:
        return CheckpointRequest()
    if kind == _KIND_CHECKPOINT_RESPONSE:
        (count,) = _unpack(_COUNT, data, 1)
        offset = 1 + _COUNT.size
        checkpoints = []
        for _ in range(_fits(count, data, offset)):
            checkpoint, offset = Checkpoint.decode(data, offset)
            checkpoints.append(checkpoint)
        return CheckpointResponse(checkpoints=tuple(checkpoints))
    if kind == _KIND_SYNC_REQUEST:
        floor, token, count = _unpack(_SYNC_REQUEST_HEADER, data, 1)
        refs, _ = _decode_refs(data, 1 + _SYNC_REQUEST_HEADER.size, count)
        return SyncRequest(refs=refs, floor=floor, token=token)
    if kind == _KIND_SYNC_RESPONSE:
        token, block_count, pruned_count = _unpack(_SYNC_RESPONSE_HEADER, data, 1)
        blocks, offset = _decode_blocks(data, 1 + _SYNC_RESPONSE_HEADER.size, block_count)
        pruned, _ = _decode_refs(data, offset, pruned_count)
        return SyncResponse(blocks=blocks, pruned=pruned, token=token)
    if kind == _KIND_TRANSACTIONS:
        transactions, _ = decode_transactions(data, 1)
        return TransactionMessage(transactions=transactions)
    raise TransportError(f"unknown message kind {kind}")


def decode_message(data: bytes) -> Message:
    """Deserialize a message body produced by :func:`encode_message`;
    raises :class:`~repro.errors.TransportError`, and nothing else, on
    bytes that are not one."""
    if not data:
        raise TransportError("empty message")
    try:
        return _decode(data)
    except TransportError:
        raise
    except ReproError as error:
        raise TransportError(f"malformed message of kind {data[0]}: {error}") from error


def frame(body: bytes) -> bytes:
    """Length-prefix a message body for the stream transport."""
    if len(body) > MAX_FRAME:
        raise TransportError(f"frame too large ({len(body)} bytes)")
    return _COUNT.pack(len(body)) + body
