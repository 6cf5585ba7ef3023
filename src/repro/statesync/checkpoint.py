"""Content-addressed commit-state checkpoints.

A :class:`Checkpoint` summarizes a validator's committed state at a
**deterministic cut** of the commit-sequence walk:

* ``round`` — the last fully finalized leader round at the cut;
* ``floor`` — the state-transfer horizon: an adopter treats everything
  below this round as settled and fetches only blocks at or above it;
* ``next_slot`` — the exact ``(round, offset)`` cursor position the
  commit-sequence extension resumes from;
* ``chain`` — a running digest over the committed block sequence (equal
  chains imply equal committed prefixes);
* ``linearized`` — references of every already-linearized block at or
  above ``floor``, so an adopter never re-linearizes pre-checkpoint
  blocks the suffix fetch re-serves.

Because the commit sequence is identical across honest validators
(Theorem 1) and capture happens inside the slot-by-slot cursor walk,
every honest validator captures **byte-identical** checkpoints at each
boundary — which is what makes the ``2f + 1`` matching-response
adoption rule sound: any quorum-attested checkpoint carries at least
``f + 1`` honest attestations.

The floor mirrors the garbage-collection bet the DAG already makes:
blocks more than ``lag`` rounds behind the commit frontier that were
never linearized are abandoned by every validator (with GC enabled the
lag *is* the GC depth, so the two horizons coincide).

:class:`TotalOrder` is the one Theorem 1 checker every harness feeds
(the simulator's ``Experiment``, the runtime's ``LocalCluster`` and
``ProcessCluster``): commit sequences by global index, adopted chains
replayed, checkpoints and epoch schedules compared.
"""

from __future__ import annotations

import struct
from bisect import insort
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import attrgetter
from typing import Iterable

from ..block import Block, BlockRef
from ..committee import CommitteeSchedule
from ..crypto.hashing import Digest, hash_bytes, hash_parts
from ..errors import ReproError

#: State-transfer horizon (rounds behind the committed frontier) used
#: when garbage collection is off.  Must comfortably exceed how stale a
#: block can be when it is finally linearized (~two waves); with GC on,
#: the GC depth takes over so the two horizons coincide.
DEFAULT_CHECKPOINT_LAG = 16

#: How many checkpoints each validator retains (and serves): enough for
#: a quorum to intersect even when validators straddle a few boundaries.
DEFAULT_CHECKPOINT_RETAIN = 4

#: The commit-chain seed: the state digest of an empty commit sequence.
GENESIS_STATE: Digest = hash_bytes(b"genesis-commit-sequence", person=b"ckptchain")

_HEADER = struct.Struct("<QQQIQI II")  # round, floor, next_round, next_offset,
#                                        sequence_length, committee_size,
#                                        ref count, epoch count
_EPOCH_HEADER = struct.Struct("<QQI")  # epoch_id, start_round, member count

#: ``BlockRef``'s own order (its dataclass-generated ``__lt__`` compares
#: these fields in this sequence), as a sort key: the order a checkpoint
#: lists its references in, at the cost of one tuple per probe instead
#: of a Python-level comparison per pair.
_REF_ORDER = attrgetter("author", "round", "digest")


def chain_digest(chain: Digest, block_digest: Digest) -> Digest:
    """Extend the running commit-sequence digest by one committed block."""
    return hash_parts((chain, block_digest), person=b"ckptchain")


@dataclass(frozen=True)
class Checkpoint:
    """One committed-state checkpoint (see module docstring).

    Instances are immutable and content-addressed: two checkpoints with
    equal fields share a :attr:`checkpoint_id`, which is what responses
    are matched on during quorum-attested adoption.
    """

    round: int
    floor: int
    next_slot: tuple[int, int]
    chain: Digest
    sequence_length: int
    committee_size: int
    linearized: tuple[BlockRef, ...] = ()
    #: The capturing validator's epoch schedule — every epoch as a
    #: plain-int ``(epoch_id, start_round, members)`` triple, *including*
    #: epochs scheduled for future activation (the commands behind them
    #: may sit below the floor, where an adopter never looks).  Empty for
    #: static (never-reconfigured) deployments.  Part of the encoding,
    #: hence of the content address: checkpoints with different active
    #: committees can never be confused for one another.
    epochs: tuple[tuple[int, int, tuple[int, ...]], ...] = ()

    def encode(self) -> bytes:
        """Canonical bytes (wire format and the content-address preimage)."""
        parts = [
            _HEADER.pack(
                self.round,
                self.floor,
                self.next_slot[0],
                self.next_slot[1],
                self.sequence_length,
                self.committee_size,
                len(self.linearized),
                len(self.epochs),
            ),
            self.chain,
            *(ref.encode() for ref in self.linearized),
        ]
        for epoch_id, start_round, members in self.epochs:
            parts.append(_EPOCH_HEADER.pack(epoch_id, start_round, len(members)))
            parts.extend(member.to_bytes(4, "little") for member in members)
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes, offset: int = 0) -> tuple["Checkpoint", int]:
        """Decode one checkpoint at ``offset``; raises
        :class:`~repro.errors.ReproError`, and nothing else, on bytes
        that are not one (cut short, or counting more than they hold)."""
        end = offset + _HEADER.size + 32
        if end > len(data):
            raise ReproError("truncated checkpoint header")
        (
            round_number,
            floor,
            next_round,
            next_offset,
            sequence_length,
            committee_size,
            ref_count,
            epoch_count,
        ) = _HEADER.unpack_from(data, offset)
        chain = bytes(data[end - 32 : end])
        offset = end
        refs = []
        for _ in range(ref_count):
            ref, offset = BlockRef.decode(data, offset)
            refs.append(ref)
        epochs = []
        for _ in range(epoch_count):
            members_at = offset + _EPOCH_HEADER.size
            if members_at > len(data):
                raise ReproError("truncated checkpoint epoch")
            epoch_id, start_round, member_count = _EPOCH_HEADER.unpack_from(data, offset)
            offset = members_at + 4 * member_count
            if offset > len(data):
                raise ReproError("checkpoint epoch lists more members than it holds")
            members = struct.unpack_from(f"<{member_count}I", data, members_at)
            epochs.append((epoch_id, start_round, members))
        return (
            cls(
                round=round_number,
                floor=floor,
                next_slot=(next_round, next_offset),
                chain=chain,
                sequence_length=sequence_length,
                committee_size=committee_size,
                linearized=tuple(refs),
                epochs=tuple(epochs),
            ),
            offset,
        )

    @cached_property
    def checkpoint_id(self) -> Digest:
        """Content address: hash of the canonical encoding."""
        return hash_bytes(self.encode(), person=b"ckptid")

    @cached_property
    def wire_size(self) -> int:
        """Serialized size in bytes (drives the sim's bandwidth model)."""
        return len(self.encode())

    @property
    def frontier(self) -> tuple[BlockRef, ...]:
        """The highest-round linearized references — the anchors an
        adopter names in its first suffix fetch."""
        if not self.linearized:
            return ()
        top = max(ref.round for ref in self.linearized)
        return tuple(ref for ref in self.linearized if ref.round == top)

    def __repr__(self) -> str:
        return (
            f"Checkpoint(r{self.round}, floor={self.floor}, "
            f"next={self.next_slot}, len={self.sequence_length}, "
            f"{self.checkpoint_id[:4].hex()})"
        )


@dataclass
class CommitLedger:
    """Commit-chain bookkeeping plus periodic checkpoint capture.

    Owned by a committer (Mahi-Mahi/Cordial-Miners
    :class:`~repro.core.committer.Committer` and the Tusk baseline both
    compose one) and driven from inside ``ExtendCommitSequence``'s
    slot-by-slot cursor walk:

    * :meth:`extend` after every linearization (chain update);
    * :meth:`maybe_capture` after every cursor advance — the capture
      condition is checked per slot, so batched walks capture the same
      checkpoints as step-by-step ones.

    With ``interval == 0`` capture is disabled and only the (cheap)
    chain digest is maintained.  With capture on, the ledger also keeps
    the window of linearized references a checkpoint lists, already in
    the order it lists them (:class:`~repro.block.BlockRef`'s: author,
    round, digest), so a capture costs a pass over the window — not a
    sort of it — on top of what the commit added.
    """

    committee_size: int
    interval: int = 0
    lag: int = DEFAULT_CHECKPOINT_LAG
    retain: int = DEFAULT_CHECKPOINT_RETAIN
    chain: Digest = GENESIS_STATE
    sequence_length: int = 0
    captured_total: int = 0
    checkpoints: list[Checkpoint] = field(default_factory=list)
    #: The checkpoint this validator's state was restored from, if any
    #: (``None`` for a validator that committed from genesis).
    adopted_base: Checkpoint | None = None
    #: The validator's epoch schedule.  When set, captures embed the
    #: schedule snapshot (and report the *active* committee's size), so
    #: an adopter restores the epoch history — including transitions
    #: whose commands sit below the floor it will never fetch.
    schedule: CommitteeSchedule | None = None

    def __post_init__(self) -> None:
        self._next_boundary = self.interval if self.interval > 0 else None
        # Rolling window of linearized references, held in ``BlockRef``
        # order: ``extend`` inserts each reference where it sorts, so a
        # capture reads the window off as it stands.  Kept by the ledger
        # itself — NOT read back from the DAG store at capture time —
        # because a checkpoint-recovered validator knows blocks as
        # linearized (via its adopted base) that it never fetched into
        # its store; a store-derived list would make its captures
        # diverge from everyone else's.  Only maintained when capture is
        # enabled.  Every capture drops what fell below its floor — not
        # only the rounds the floor just passed: a block can be
        # linearized late, below a floor an earlier capture pruned to.
        self._recent: list[BlockRef] = []

    # ------------------------------------------------------------------
    # Capture path
    # ------------------------------------------------------------------
    def extend(self, linearized: Iterable[Block]) -> None:
        """Fold newly linearized blocks into the commit chain.

        Each step's hash is kept on the block (:attr:`Block.chain_link`,
        keyed by the chain it extended), so the validators that commit
        one block object on one chain hash it once between them; a
        ledger on another chain (a diverging or a test ledger) hashes
        its own step and keeps that one instead."""
        chain = self.chain
        count = 0
        track = self._next_boundary is not None
        for block in linearized:
            link = block.chain_link
            if link is None or link[0] != chain:
                link = (chain, chain_digest(chain, block.digest))
                object.__setattr__(block, "chain_link", link)
            chain = link[1]
            count += 1
            if track:
                insort(self._recent, block.reference, key=_REF_ORDER)
        self.chain = chain
        self.sequence_length += count

    def maybe_capture(self, last_finalized: int, next_slot: tuple[int, int]) -> None:
        """Capture a checkpoint when the finalized frontier crosses the
        next boundary.

        Args:
            last_finalized: Highest fully finalized leader round after
                the cursor advance that just happened.
            next_slot: The cursor's new ``(round, offset)`` position.
        """
        if self._next_boundary is None:
            return
        while last_finalized >= self._next_boundary:
            checkpoint = self._capture(last_finalized, next_slot)
            self.checkpoints.append(checkpoint)
            del self.checkpoints[: -self.retain]
            self.captured_total += 1
            self._next_boundary = checkpoint.round + self.interval

    def _capture(self, last_finalized: int, next_slot: tuple[int, int]) -> Checkpoint:
        floor = max(0, last_finalized - self.lag)
        self._recent = window = [ref for ref in self._recent if ref.round >= floor]
        # References above the frontier wait for a later capture.
        refs = [ref for ref in window if ref.round <= last_finalized]
        committee_size = self.committee_size
        epochs: tuple = ()
        if self.schedule is not None:
            committee_size = self.schedule.size_at(last_finalized)
            if not self.schedule.is_static:
                epochs = self.schedule.snapshot()
        return Checkpoint(
            round=last_finalized,
            floor=floor,
            next_slot=next_slot,
            chain=self.chain,
            sequence_length=self.sequence_length,
            committee_size=committee_size,
            linearized=tuple(refs),
            epochs=epochs,
        )

    # ------------------------------------------------------------------
    # Adoption path
    # ------------------------------------------------------------------
    def adopt(self, checkpoint: Checkpoint) -> None:
        """Restore ledger state from an attested checkpoint (fresh
        validators only).  The adopted checkpoint joins the retained
        list, so a recovered validator can itself serve later
        recoverers."""
        self.chain = checkpoint.chain
        self.sequence_length = checkpoint.sequence_length
        self.adopted_base = checkpoint
        self.checkpoints.append(checkpoint)
        del self.checkpoints[: -self.retain]
        if self.interval > 0:
            self._next_boundary = checkpoint.round + self.interval
            # Seed the linearized-refs window so this validator's own
            # later captures match the ones it would have made had it
            # never crashed.
            self._recent = sorted(checkpoint.linearized, key=_REF_ORDER)


class TotalOrder:
    """Theorem 1 (total order) across every validator of one run.

    One digest list for the whole run, indexed by position in the global
    commit sequence (:attr:`CommitLedger.sequence_length` counts an
    adopted checkpoint's blocks too).  Each harness feeds it what it can
    read: :meth:`commit` compares a validator's run of committed digests
    with the list where they overlap and appends where the run continues
    it; a run that starts past the list's end is a gap (nobody checked
    the indexes between).  :meth:`ledger` replays the list against an
    adopted checkpoint's chain and, with :meth:`epochs`, requires every
    validator to hold the same checkpoint at a round and the same epoch
    schedule.  The first divergence is kept in :attr:`divergence` and
    raised by :meth:`check`.
    """

    def __init__(self) -> None:
        self.sequence: list[Digest] = []
        self.divergence: str | None = None
        self._owners: list[str] = []  # who first committed each index
        self._views: dict[tuple[str, int], object] = {}  # (what, key) -> first view fed

    def commit(self, start: int, digests: list[Digest], source: str) -> None:
        """``source`` committed ``digests`` at global indexes ``start``..."""
        overlap = self.sequence[start : start + len(digests)]
        if overlap != digests[: len(overlap)]:
            index = next(i for i, (a, b) in enumerate(zip(overlap, digests), start) if a != b)
            self._diverged(
                f"commit sequences diverged across validators: {source} committed other "
                f"blocks than {self._owners[index]} from global index {index}"
            )
        elif start > len(self.sequence):
            self._diverged(
                f"commit coverage has a gap: {source} starts at global index {start} "
                f"(first missing: {len(self.sequence)})"
            )
        elif len(digests) > len(overlap):
            self._owners += [source] * (len(digests) - len(overlap))
            self.sequence += digests[len(overlap) :]

    def ledger(self, ledger: CommitLedger, source: str) -> None:
        """What ``source``'s ledger holds besides its sequence: the list
        replayed to an adopted checkpoint's length must reproduce its
        chain, and its checkpoints and epoch schedule are everyone's."""
        base = ledger.adopted_base
        if base is not None and base.chain != reduce(
            chain_digest, self.sequence[: base.sequence_length], GENESIS_STATE
        ):
            self._diverged(
                f"{source}: adopted checkpoint's state digest does not match the "
                f"reference commit sequence at length {base.sequence_length}"
            )
        for checkpoint in ledger.checkpoints:
            self._agree("checkpoints at round", checkpoint.round, checkpoint.checkpoint_id)
        self.epochs(ledger.schedule.snapshot())

    def epochs(self, infos: Iterable[tuple[int, int, Iterable[int]]]) -> None:
        """Every validator that knows an epoch agrees on its activation
        round and membership (``infos`` as ``CommitteeSchedule.snapshot``
        gives them) — prefix consistency of the committee across epoch
        boundaries, the reconfiguration analogue of Theorem 1."""
        for epoch_id, start_round, members in infos:
            self._agree("epoch", epoch_id, (start_round, tuple(members)))

    def check(self, error: type[Exception] = AssertionError) -> int:
        """Raise the first divergence as ``error``; otherwise return how
        many global indexes the run covered."""
        if self.divergence is not None:
            raise error(self.divergence)
        return len(self.sequence)

    def _agree(self, what: str, key: int, view) -> None:
        first = self._views.setdefault((what, key), view)
        if first != view:
            self._diverged(f"honest validators diverged on {what} {key}: {sorted((first, view))}")

    def _diverged(self, message: str) -> None:
        self.divergence = self.divergence or message
