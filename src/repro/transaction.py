"""Transactions: the opaque client payloads ordered by consensus.

The paper's benchmarks use arbitrary 512-byte transactions (Section 5.1).
Here a transaction carries an id (used by the metrics pipeline to match
submission and commit events), a submission timestamp, and a payload.

A block's transaction section is laid out as a header table and a
payload run::

    u32 count | count x (u64 id, f64 submitted_at, u32 payload length) | payloads

so every section operation is a handful of C-level calls, never one
Python step per transaction: encoding packs the table in one call and
joins the payloads in one more, and checking a received section reads
the length column in one streaming unpack and one ``sum``.
(:meth:`Transaction.encode` / :meth:`Transaction.decode` are the
single-record codec — one table row followed by its payload — which no
section operation calls.)

Consensus orders transactions and never interprets them, so on the
runtime's data plane a block's transaction section is a
:class:`TransactionBatch`: the section's wire bytes, encoded once by the
proposer (or sliced out of the received frame after that bulk check)
and spliced as they are into the block's digest, every peer frame and
every WAL record.  ``Transaction`` objects are built only when a
consumer iterates the batch.

The simulator's blocks carry a :class:`TransactionSlice` instead: a
stretch of one validator's ingress columns (ids and arrival times), so a
simulated transaction is never an object unless something iterates it.
Its entries carry no payload, so its bytes are the header table alone.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator, Sequence
from itertools import repeat
from operator import itemgetter
from typing import NamedTuple

from .errors import ReproError

#: Benchmark transaction payload size used throughout Section 5.
DEFAULT_TX_SIZE = 512

_HEADER = struct.Struct("<QdI")  # tx_id, submitted_at, payload length
_PAYLOAD_LENGTH = struct.Struct("<16xI")  # the header's last field alone
_COUNT = struct.Struct("<I")


class Transaction(NamedTuple):
    """A client transaction.

    A named tuple: a loaded simulation builds one per simulated
    transaction, and a tuple is the cheapest immutable record to build.
    Two transactions are equal when every field is, and the hash is that
    of the field tuple.

    Attributes:
        tx_id: Globally unique identifier assigned by the submitting client.
        submitted_at: Client-side submission timestamp (simulation seconds
            or wall-clock seconds for the runtime).
        payload: Opaque bytes; contents are never interpreted.
        size_hint: Simulation-only: real wire bytes this transaction
            represents when the experiment draws from a mixed
            transaction-size distribution, without materializing the
            payload.  ``None`` means the experiment's uniform size
            applies.  Not part of the wire format.
    """

    tx_id: int
    submitted_at: float = 0.0
    payload: bytes = b""
    size_hint: int | None = None

    @property
    def size(self) -> int:
        """Serialized size in bytes (header + payload)."""
        return _HEADER.size + len(self.payload)

    def encode(self) -> bytes:
        """This transaction alone: its header-table row, then its payload
        (a one-transaction section is its count prefix and these bytes)."""
        return _HEADER.pack(self.tx_id, self.submitted_at, len(self.payload)) + self.payload

    @classmethod
    def decode(cls, data: bytes, offset: int = 0) -> tuple["Transaction", int]:
        """Deserialize one :meth:`encode` record starting at ``offset``.

        Returns:
            The transaction and the offset just past it.

        Raises:
            ReproError: If the buffer is truncated.
        """
        end = offset + _HEADER.size
        if end > len(data):
            raise ReproError("truncated transaction header")
        tx_id, submitted_at, length = _HEADER.unpack_from(data, offset)
        payload_end = end + length
        if payload_end > len(data):
            raise ReproError("truncated transaction payload")
        tx = cls(tx_id=tx_id, submitted_at=submitted_at, payload=data[end:payload_end])
        return tx, payload_end

    @classmethod
    def dummy(
        cls, tx_id: int, submitted_at: float = 0.0, size: int = DEFAULT_TX_SIZE
    ) -> "Transaction":
        """Create a benchmark transaction of ``size`` bytes total."""
        body = max(0, size - _HEADER.size)
        return cls(tx_id=tx_id, submitted_at=submitted_at, payload=b"\x00" * body)


class TransactionBatch(Sequence):
    """An immutable sequence of transactions held as its wire bytes.

    ``len()`` is O(1) and one pass of iteration decodes each
    ``Transaction`` once, on demand (nothing is cached: the bytes are
    the only retained copy of the payload).  Those two are the cheap
    operations, and the only ones ``src/`` uses.  Indexing, ``hash()``
    and comparison with a tuple each decode the *whole* batch — so the
    ``Sequence`` mixins built on indexing (``reversed``, ``index``, an
    index loop) are quadratic, and hashing a batch-backed ``Block``
    decodes its transactions: they exist so a batch is a drop-in for
    the tuple that hand-built blocks carry, to which it is equal and
    like which it hashes.
    """

    __slots__ = ("wire", "_count")

    def __init__(self, transactions: Sequence[Transaction] = ()) -> None:
        """Encode ``transactions`` — the one time a proposed batch is."""
        #: The count-prefixed encoding, as :func:`encode_transactions` emits it.
        self.wire = encode_transactions(transactions)
        self._count = len(transactions)

    @classmethod
    def decode(cls, data: bytes, offset: int = 0) -> tuple["TransactionBatch", int]:
        """Slice one transaction section out of ``data``.

        Checks the count against the buffer, then sums the header
        table's length column in one streaming unpack, so a count the
        buffer cannot hold (a truncated table among them) or payloads
        running past its end are rejected here, at the boundary,
        without building a ``Transaction``.

        Raises:
            ReproError: If the section is malformed.
        """
        size = len(data)
        table = offset + _COUNT.size
        if table > size:
            raise ReproError("truncated transaction list")
        (count,) = _COUNT.unpack_from(data, offset)
        if count > (size - table) // _HEADER.size:
            raise ReproError("transaction count exceeds the buffer")
        payloads = table + count * _HEADER.size
        lengths = _PAYLOAD_LENGTH.iter_unpack(memoryview(data)[table:payloads])
        end = payloads + sum(map(itemgetter(0), lengths))
        if end > size:
            raise ReproError("truncated transaction payload")
        batch = cls.__new__(cls)
        batch.wire = bytes(data[offset:end])
        batch._count = count
        return batch, end

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Transaction]:
        data = self.wire
        start = _COUNT.size + self._count * _HEADER.size
        headers = _HEADER.iter_unpack(memoryview(data)[_COUNT.size : start])
        for tx_id, submitted_at, length in headers:
            end = start + length
            yield Transaction(tx_id, submitted_at, data[start:end])
            start = end

    def __getitem__(self, index):
        return tuple(self)[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TransactionBatch):
            return self.wire == other.wire
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))


class TransactionSlice(Sequence):
    """An immutable sequence of transactions held as columns.

    The transaction section of a simulated block: the stretch of its
    proposer's ingress a proposal took, as parallel lists — ``ids``,
    the ``times`` each transaction arrived (its ``submitted_at``) and,
    on mixed-size runs, their ``sizes`` (``size_hint``).  Every entry
    stands for ``Transaction(id, time, b"", size)``, except that an
    entry submitted as an object (a reconfiguration command, a test's
    transaction) is that object, in ``ids``.

    Like :class:`TransactionBatch` it equals, and hashes like, the
    tuple of transactions it stands for (each one built on demand; so
    do indexing and ``hash()``, which build them all), and
    :attr:`wire` is that tuple's encoding — with no object entry, the
    header table of the columns as they are.
    """

    __slots__ = ("ids", "times", "sizes", "objects", "books")

    def __init__(self, ids: list, times: list, sizes: list | None = None, objects: int = 0):
        self.ids = ids
        self.times = times
        self.sizes = sizes
        #: How many entries of ``ids`` are ``Transaction`` objects.
        self.objects = objects
        #: Whatever an observer records about this section (the
        #: simulator's metrics keep their per-section record here); no
        #: part of its value.
        self.books = None

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Transaction]:
        sizes = self.sizes
        if not self.objects:
            if sizes is None:
                return map(Transaction, self.ids, self.times)
            return map(Transaction, self.ids, self.times, repeat(b""), sizes)
        return (
            entry if type(entry) is Transaction else Transaction(entry, time, b"", size)
            for entry, time, size in zip(self.ids, self.times, sizes or repeat(None))
        )

    def __getitem__(self, index):
        return tuple(self)[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (tuple, TransactionSlice, TransactionBatch)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    @property
    def wire(self) -> bytes:
        """The count-prefixed encoding, as :func:`encode_transactions`
        emits it for the tuple (built on every call, never kept)."""
        if self.objects:
            return encode_transactions(tuple(self))
        return _section(self.ids, self.times)


def _section(ids: Sequence[int], times: Sequence[float], payloads: Sequence[bytes] = ()) -> bytes:
    """The section of the transactions ``(ids[i], times[i], payloads[i])``
    (no payloads: every one empty) — the count and the header table
    packed in one call, then the payloads joined in one more."""
    count = len(ids)
    fields = [0] * (3 * count)
    fields[0::3] = ids
    fields[1::3] = times
    if payloads:
        fields[2::3] = map(len, payloads)
    table = struct.pack(f"<I{'QdI' * count}", count, *fields)
    return b"".join([table, *payloads]) if payloads else table


def encode_transactions(transactions: Sequence[Transaction]) -> bytes:
    """Serialize a sequence of transactions as a section (a
    :class:`TransactionSlice` packs itself, and a
    :class:`TransactionBatch` already is that encoding: its bytes are
    returned as they are)."""
    if isinstance(transactions, (TransactionSlice, TransactionBatch)):
        return transactions.wire
    if not transactions:
        return _section((), ())
    ids, times, payloads, _ = zip(*transactions)
    return _section(ids, times, payloads)


def decode_transactions(data: bytes, offset: int = 0) -> tuple[tuple[Transaction, ...], int]:
    """Deserialize a transaction section."""
    batch, end = TransactionBatch.decode(data, offset)
    return tuple(batch), end
