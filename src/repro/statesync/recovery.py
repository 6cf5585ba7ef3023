"""Transport-agnostic recovery helpers shared by both backends.

The discrete-event simulator (:mod:`repro.sim`) and the asyncio runtime
(:mod:`repro.runtime`) implement the same three restart paths — cold
(deep fetch from genesis), warm (WAL replay plus delta fetch), and
checkpoint (quorum-attested state transfer plus suffix fetch).  The
pieces that do not depend on a transport live here:

* :class:`CheckpointVotes` — the ``CheckpointResponse`` tally that
  surfaces the highest checkpoint attested by ``2f + 1`` distinct peers;
* :func:`replay_wal` — rebuilds a fresh core from a write-ahead log,
  restoring the proposal round (the WAL's anti-equivocation guarantee);
* :func:`ancestor_closure` — the serving side of a chunked deep fetch:
  the requested blocks plus their stored ancestors above the
  requester's floor, lowest rounds first, truncated to a chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..block import Block
from ..crypto.hashing import Digest
from .checkpoint import Checkpoint, best_attested

#: Most blocks served in one deep-fetch response.  A re-syncing
#: validator's fetch is truncated to the *lowest* rounds of the closure —
#: it rebuilds the DAG ground-up and re-requests the rest as later
#: blocks name them.
SYNC_MAX_BLOCKS = 4096


def chunk_cap(limit: int) -> int:
    """Most blocks one deep-fetch response carries when the serving
    validator's configured chunk size is ``limit``.  A requester that
    receives fewer knows the peer transferred its whole closure."""
    return min(limit, SYNC_MAX_BLOCKS)


class CheckpointVotes:
    """Tally of the checkpoint responses of one recovery attempt.

    A responder attests every checkpoint in its response (it retains the
    last few), so quorums intersect even when peers straddle a couple of
    capture boundaries.
    """

    def __init__(self, quorum: int) -> None:
        self._quorum = quorum
        # Attesters kept in arrival order: the first responder is the
        # lowest-latency peer, which is who the suffix fetch should hit.
        self._votes: dict[Digest, tuple[Checkpoint, dict[int, None]]] = {}

    def add(self, src: int, checkpoints: tuple[Checkpoint, ...]) -> Checkpoint | None:
        """Record one peer's response; returns the highest checkpoint
        attested by a quorum so far, or ``None``."""
        for checkpoint in checkpoints:
            entry = self._votes.get(checkpoint.checkpoint_id)
            if entry is None:
                entry = self._votes[checkpoint.checkpoint_id] = (checkpoint, {})
            entry[1].setdefault(src)
        return best_attested(
            {key: (ckpt, set(srcs)) for key, (ckpt, srcs) in self._votes.items()},
            self._quorum,
        )

    def attesters(self, checkpoint: Checkpoint) -> tuple[int, ...]:
        """Peers that attested ``checkpoint``, in response-arrival order
        (the first entry is the nearest peer — the suffix-fetch target)."""
        entry = self._votes.get(checkpoint.checkpoint_id)
        return tuple(entry[1]) if entry else ()

    def clear(self) -> None:
        self._votes.clear()


@dataclass(frozen=True)
class WalReplay:
    """Outcome of replaying a write-ahead log into a fresh core."""

    blocks: int
    transactions: int
    own_top_round: int
    commit_round: int


def replay_wal(core, path: str | Path) -> WalReplay:
    """Replay a WAL into a fresh validator core.

    Own and peer blocks are ingested in causal (round) order — the
    core's pending buffer absorbs any stragglers a torn tail left
    parentless — and the proposal round is floored at the highest
    own-authored record, so the restarted validator can never equivocate
    with blocks it signed before the crash (the WAL's core guarantee).
    """
    from ..runtime.wal import WriteAheadLog

    own, peers, commit_round = WriteAheadLog.recover(path)
    blocks = sorted(own + peers, key=lambda b: (b.round, b.author, b.digest))
    transactions = 0
    for block in blocks:
        core.add_block(block)
        transactions += len(block.transactions)
    own_top = max((b.round for b in own), default=0)
    core.restore_own_position(own_top)
    return WalReplay(
        blocks=len(blocks),
        transactions=transactions,
        own_top_round=own_top,
        commit_round=commit_round,
    )


def ancestor_closure(store, blocks: list[Block], floor: int, limit: int) -> list[Block]:
    """The requested blocks plus their stored ancestors above round
    ``floor``, lowest rounds first, truncated to :func:`chunk_cap` of
    ``limit``.

    The floor is the requester's highest accepted round: closure
    expansion skips history it already holds, so a re-sync larger than
    one chunk progresses chunk by chunk instead of re-serving the same
    prefix forever.  Explicitly requested refs are always served
    regardless of the floor (a partially-transferred round's stragglers
    get named — and thus served — on the next request).  Genesis is
    excluded (every validator holds it) and ancestry stops at the
    garbage-collection horizon — a peer cannot serve history it pruned,
    so recovery workloads keep enough ``gc_depth`` (or disable GC) for
    the full causal history to remain fetchable.
    """
    requested = {block.digest for block in blocks}
    closure: dict[Digest, Block] = {}
    frontier = list(blocks)
    while frontier:
        block = frontier.pop()
        if block.digest in closure or block.round <= 0:
            continue
        if block.round <= floor and block.digest not in requested:
            continue
        closure[block.digest] = block
        for ref in block.parents:
            if ref.round > floor and ref.round > 0 and ref.digest not in closure:
                if ref.digest in store:
                    frontier.append(store.get(ref.digest))
    ordered = sorted(closure.values(), key=lambda b: (b.round, b.author))
    return ordered[: chunk_cap(limit)]
