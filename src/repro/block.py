"""Blocks: the single message type of the protocol (Section 2.3).

A block carries (1) its author and signature, (2) a round number, (3)
transactions, (4) hash references to at least ``2f + 1`` distinct blocks
from the previous round (plus optionally older blocks), and (5) a share
of the global perfect coin.

Parent references carry ``(author, round, digest)`` rather than a bare
digest: the extra fields are redundant (they are bound by the digest)
but let traversal code walk the DAG without store lookups for pruning
decisions, exactly like the reference implementation's ``BlockRef``.

**Who owns the bytes.**  A block the runtime decodes or proposes carries
its transactions as a :class:`~repro.transaction.TransactionBatch` — the
section's wire bytes (a header table, then the payloads), the only
retained copy of the payload.  Its proposer packs the section in bulk
and :meth:`Block.decode` checks a received one in bulk (the count
against the frame, one ``sum`` over the length column) before slicing
it out.  The digest and :meth:`Block.encode_parts` splice those bytes
in, so a block is encoded once by its proposer and hashed once per
validator (the author signs, and peers verify, the 32-byte
:attr:`Block.digest`).  Nothing joins a block on its own — nor caches
its wire bytes: a peer frame is one join of its length prefix, its kind
byte and the block's parts (:func:`repro.messages.encode_frame`), and a
WAL record is one ``writev`` of its header and the parts
(:meth:`repro.runtime.wal.WriteAheadLog.append_block`), whose CRC skips
the payload run that the digest already covers.  Simulator blocks carry a
:class:`~repro.transaction.TransactionSlice` (its header table packed for
the digest, never framed), hand-built ones plain tuples.

**How the digest is framed.**  :attr:`Block.digest` is
:func:`~repro.crypto.hashing.hash_parts` over the header, one part per
parent reference (each packed by one precompiled ``Struct``), the
transaction section, the coin share and the salt.  ``hash_parts`` frames
runs of short parts into one buffer, so a 50-parent block reaches the
hasher in a handful of ``update`` calls, and a long section is hashed
where it lies, never copied.

**What decode raises.**  :meth:`Block.decode` and
:meth:`BlockRef.decode` raise :class:`~repro.errors.ReproError`, and
nothing else, on arbitrary bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from functools import cached_property

from .crypto.coin import CoinShare
from .crypto.hashing import Digest, hash_parts
from .errors import ReproError
from .transaction import Transaction, TransactionBatch, encode_transactions, section_parts

#: Round number of genesis blocks.
GENESIS_ROUND = 0

_REF = struct.Struct("<IQ32s")  # author, round, digest
_BLOCK_HEADER = struct.Struct("<IQI")  # author, round, parent count
_SHARE_HEADER = struct.Struct("<IQI")  # author, round, value length
_LENGTH = struct.Struct("<I")

#: Where :meth:`Block.encode_parts` puts the transaction section's
#: payload run.
PAYLOAD_RUN = 2


@dataclass(frozen=True, order=True)
class BlockRef:
    """A reference to a block: ``(author, round, digest)``.

    Ordering is lexicographic on (author, round, digest); the protocol
    never relies on this ordering for correctness, only for
    deterministic tie-breaking.
    """

    author: int
    round: int
    digest: Digest

    def encode(self) -> bytes:
        return _REF.pack(self.author, self.round, self.digest)

    @classmethod
    def decode(cls, data: bytes, offset: int = 0) -> tuple["BlockRef", int]:
        end = offset + _REF.size
        if end > len(data):
            raise ReproError("truncated block reference")
        author, round_number, digest = _REF.unpack_from(data, offset)
        return cls(author=author, round=round_number, digest=digest), end

    def __repr__(self) -> str:  # compact form for logs: B(v3, r7)
        return f"B(v{self.author},r{self.round},{self.digest[:4].hex()})"


def _memo():
    """A memo that is no part of a block's value: not an ``__init__``
    argument (so every copy starts without one), not compared, not
    hashed.  ``None`` until :meth:`Block.new_memo` puts a dict there —
    but assigned by ``__init__`` all the same (a factory, where a plain
    default would stay a class attribute): an attribute that first
    appears on an instance later costs it its key-sharing ``__dict__``
    (measured: 680 bytes a block)."""
    return field(default_factory=type(None), init=False, compare=False, repr=False)


@dataclass(frozen=True)
class Block:
    """An immutable, signed DAG vertex.

    Instances are built field by field and given their signature by
    :meth:`signed` (the digest is derived on first use), or come from
    :meth:`decode`.

    Three identity values are derived on first use and cached on the
    instance: :attr:`digest`, :attr:`reference` and
    :attr:`parent_digests`.  The last is what lets the insert path and
    ``LinearizeSubDags`` treat the parents as a set instead of looping
    over the references; it costs one ``frozenset`` per block object
    (about 2.2 KB for 50 parents — once per block in the simulator,
    where all validators hold the same object; once per holder in the
    runtime).

    Beside them sit two memos of what the block's causal history says
    about a leader slot, :attr:`voted` and :attr:`support`, created and
    filled in by :class:`~repro.dag.traversal.DagTraversal`, and one of
    the commit chain through it, :attr:`chain_link`, kept by the
    committer's ledger: every honest validator commits the block on the
    same chain (Theorem 1), so one hash serves them all.  A committed
    leader also carries the digests its commit linearized, keyed by the
    chain before it and the store's lowest round
    (:meth:`Committer._linearize <repro.core.committer.Committer._linearize>`):
    it is set on the instance, not declared, because only committed
    leaders carry it (a dozen in a ``sim-mahi-n50`` run) and a sim
    block's ``__dict__`` already holds fifteen keys.  They are facts
    about the hash-linked history, not about who asks, so they share
    the block object's lifetime and holders exactly as the identity
    values do.  They hold digests and author ids only — a memo that
    named a block would keep every pruned ancestor alive through the
    memos above it — and are invisible to ``==``, ``hash``,
    :meth:`encode` and to the copies :meth:`signed` /
    ``dataclasses.replace`` make, which start without.
    """

    author: int
    round: int
    parents: tuple[BlockRef, ...]
    transactions: "tuple[Transaction, ...] | TransactionBatch" = ()
    coin_share: CoinShare | None = None
    signature: bytes = b""
    #: Extra payload distinguishing deliberately equivocating blocks in
    #: tests and fault injection (honest validators always leave it empty).
    salt: bytes = b""
    #: ``(author, round)`` -> digest of ``VotedBlock(self, author, round)``,
    #: or ``None``, for the slots resolved so far.
    voted: "dict[tuple[int, int], Digest | None] | None" = _memo()
    #: ``(author, round)`` -> what this block's parents vote for in that
    #: slot: voted digest -> bitmask of the voting parents' authors (bit
    #: ``a`` for author ``a``).
    support: "dict[tuple[int, int], dict[Digest, int]] | None" = _memo()
    #: ``(previous, next)``: the commit-chain digest before this block
    #: was committed and the one its commit made of it, as last computed
    #: (:class:`~repro.statesync.CommitLedger`).
    chain_link: "tuple[Digest, Digest] | None" = _memo()

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @cached_property
    def digest(self) -> Digest:
        """Blake2b digest of the signed contents (excludes the signature)."""
        return block_digest(self._signable_parts())

    @cached_property
    def reference(self) -> BlockRef:
        """This block's own :class:`BlockRef`."""
        return BlockRef(author=self.author, round=self.round, digest=self.digest)

    @cached_property
    def parent_digests(self) -> frozenset[Digest]:
        """The digests of :attr:`parents`, as a set."""
        return frozenset(ref.digest for ref in self.parents)

    def new_memo(self, name: str) -> dict:
        """Start the :attr:`voted` or :attr:`support` memo."""
        memo: dict = {}
        object.__setattr__(self, name, memo)
        return memo

    def _signable_parts(self) -> list[bytes]:
        """What the digest — and through it the signature — covers: the
        header, one part per parent reference, the transaction section,
        the coin share and the salt."""
        pack = _REF.pack
        return [
            _BLOCK_HEADER.pack(self.author, self.round, len(self.parents)),
            *[pack(ref.author, ref.round, ref.digest) for ref in self.parents],
            encode_transactions(self.transactions),
            self.coin_share.encode() if self.coin_share is not None else b"",
            self.salt,
        ]

    def signed(self, signature: bytes) -> "Block":
        """This block carrying ``signature`` — over :attr:`digest`, which
        excludes the signature, so the copy inherits it unhashed."""
        block = replace(self, signature=signature)
        block.__dict__["digest"] = self.digest
        return block

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def slot(self) -> tuple[int, int]:
        """The ``(round, author)`` slot this block occupies."""
        return (self.round, self.author)

    # ------------------------------------------------------------------
    # Serialization (wire format and WAL records)
    # ------------------------------------------------------------------
    def encode_parts(self) -> list:
        """The wire encoding as four parts that join to :meth:`encode`:
        the header with the parent references, the transaction section's
        count and header table, its payload run (the last two views of
        the section's bytes, not copies), and the coin share, salt and
        signature, each after its length."""
        pack = _REF.pack
        share = self.coin_share.encode() if self.coin_share is not None else b""
        table, run = section_parts(self.transactions)
        head = [_BLOCK_HEADER.pack(self.author, self.round, len(self.parents))]
        head += [pack(ref.author, ref.round, ref.digest) for ref in self.parents]
        tail = [_LENGTH.pack(len(share)), share, _LENGTH.pack(len(self.salt)), self.salt]
        tail += [_LENGTH.pack(len(self.signature)), self.signature]
        return [b"".join(head), table, run, b"".join(tail)]

    def encode(self) -> bytes:
        return b"".join(self.encode_parts())

    @classmethod
    def decode(cls, data: bytes, offset: int = 0) -> tuple["Block", int]:
        """Deserialize one block starting at ``offset``; the transaction
        section is sliced out of ``data``, not decoded.

        Raises:
            ReproError: If the buffer is truncated or malformed.
        """
        if offset + _BLOCK_HEADER.size > len(data):
            raise ReproError("truncated block header")
        author, round_number, parent_count = _BLOCK_HEADER.unpack_from(data, offset)
        offset += _BLOCK_HEADER.size
        if parent_count > (len(data) - offset) // _REF.size:
            raise ReproError("parent count exceeds the buffer")
        parents = []
        for _ in range(parent_count):
            ref, offset = BlockRef.decode(data, offset)
            parents.append(ref)
        transactions, offset = TransactionBatch.decode(data, offset)

        def read_chunk(off: int) -> tuple[bytes, int]:
            if off + 4 > len(data):
                raise ReproError("truncated block")
            (length,) = struct.unpack_from("<I", data, off)
            off += 4
            if off + length > len(data):
                raise ReproError("truncated block")
            return bytes(data[off : off + length]), off + length

        share_bytes, offset = read_chunk(offset)
        salt, offset = read_chunk(offset)
        signature, offset = read_chunk(offset)
        coin_share = _decode_coin_share(share_bytes) if share_bytes else None
        block = cls(
            author=author,
            round=round_number,
            parents=tuple(parents),
            transactions=transactions,
            coin_share=coin_share,
            signature=signature,
            salt=salt,
        )
        return block, offset

    def __repr__(self) -> str:
        return (
            f"Block(v{self.author}, r{self.round}, parents={len(self.parents)}, "
            f"txs={len(self.transactions)}, {self.digest[:4].hex()})"
        )


def block_digest(parts: list[bytes]) -> Digest:
    """The digest of a block's :meth:`Block._signable_parts` — what
    :attr:`Block.digest` computes, and what a runtime validator's
    hashing thread computes for a received block with a long section
    (:mod:`repro.runtime.node`).  A plain function of bytes, so a thread
    can run it without taking ``cached_property``'s class-wide lock."""
    return hash_parts(parts, person=b"block")


def _decode_coin_share(data: bytes) -> CoinShare:
    if len(data) < _SHARE_HEADER.size:
        raise ReproError("truncated coin share")
    author, round_number, length = _SHARE_HEADER.unpack_from(data)
    value = data[_SHARE_HEADER.size :]
    if len(value) != length:
        raise ReproError("coin share length does not match its section")
    return CoinShare(author=author, round=round_number, value=value)


def make_genesis(committee_size: int) -> list[Block]:
    """Create the round-0 genesis blocks, one per validator.

    Genesis blocks have no parents, no transactions and no coin share;
    they bootstrap the ``2f + 1`` parent requirement of round 1.
    """
    return [Block(author=i, round=GENESIS_ROUND, parents=()) for i in range(committee_size)]
