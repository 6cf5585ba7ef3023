"""The synchronizer: fetches missing causal history.

Lemma 8's liveness argument relies on a "synchronizer sub-component":
when a validator receives a block whose ancestors it lacks, it requests
them from the sender (who, having relayed the block, must hold its full
causal history) and retries against other peers on timeout.

This class is the **shallow** fetch shape only — exactly the named
references (the common case: a block arrived a little early and names
one or two parents still in flight).  The sender is asked at once; what
stays unanswered for a whole :data:`RETRY_AFTER` is asked again from the
block's author, then from every other validator in turn.  The **deep**
shape a recovering validator rebuilds the DAG with (the named references
*plus their whole stored ancestor closure*, chunked, token-tagged, one
in flight at a time) is the :class:`~repro.statesync.driver.ValidatorDriver`'s
own, and so is the choice between the two.

Sans-IO like the driver that owns it: requests leave through
:meth:`ValidatorPort.send`, and time is one ``call_later`` timer that is
armed only while something is tracked — ages are counted in its periods.
"""

from __future__ import annotations

from ..block import BlockRef
from ..crypto.hashing import Digest
from ..messages import FetchRequest

#: Host seconds before an unanswered fetch is retried against another peer.
RETRY_AFTER = 1.0
#: Maximum references batched into one retry request.
BATCH = 64


class _Pending:
    __slots__ = ("ref", "attempts", "fresh")

    def __init__(self, ref: BlockRef, fresh: bool) -> None:
        self.ref = ref
        #: Requests sent for it so far.
        self.attempts = 1
        #: Asked for after the running period began: the next tick finds
        #: it less than a whole period old and lets it be.
        self.fresh = fresh


class Synchronizer:
    """Tracks missing block references and drives fetch requests."""

    def __init__(self, port) -> None:
        """``port`` is the owning driver's
        :class:`~repro.statesync.driver.ValidatorPort`; the driver binds
        a core with :meth:`restart` before anything is reported."""
        self._port = port
        self._pending: dict[Digest, _Pending] = {}
        #: Shallow fetch requests issued, and references given up on
        #: (they fell behind the garbage-collection or state-transfer
        #: horizon: nobody can serve them and the store no longer wants
        #: them), over all incarnations.
        self.requests_sent = 0
        self.refs_abandoned = 0

    @property
    def missing(self) -> int:
        """Number of references still being fetched."""
        return len(self._pending)

    def restart(self, core) -> None:
        """A new incarnation: bind its ``core``, and forget every tracked
        reference and the armed timer (the host dropped it: a crash
        loses its timers)."""
        self._core = core
        self._pending.clear()
        self._armed = False

    def close(self) -> None:
        """Let go of the host (see :meth:`ValidatorDriver.close`)."""
        self._port = None

    def note_missing(self, refs: tuple[BlockRef, ...], sender: int) -> None:
        """Ancestors reported missing while ingesting a block from
        ``sender``: ask it, at once, for the ones not tracked yet."""
        pending = self._pending
        new = tuple(ref for ref in refs if ref.digest not in pending)
        if not new:
            return
        for ref in new:
            pending[ref.digest] = _Pending(ref, fresh=self._armed)
        self._request(sender, new)
        self._arm()

    def note_arrived(self, digest: Digest) -> None:
        """A previously missing block arrived (any path)."""
        self._pending.pop(digest, None)

    def tick(self) -> None:
        """A retry period ended: give up on what fell behind the
        horizon, ask the next peer for what went the whole period
        unanswered, and keep the timer running while anything is left."""
        self._armed = False
        core = self._core
        horizon = max(core.store.sync_floor, core.store.lowest_round)
        others = [v for v in range(core.schedule.provisioned) if v != core.authority]
        by_peer: dict[int, list[BlockRef]] = {}
        for digest, entry in list(self._pending.items()):
            ref = entry.ref
            if ref.round < horizon:
                del self._pending[digest]
                self.refs_abandoned += 1
            elif entry.fresh:
                entry.fresh = False
            else:
                # After the sender the block's author, then every other
                # provisioned validator in turn.
                if entry.attempts == 1 and ref.author != core.authority:
                    peer = ref.author
                else:
                    peer = others[entry.attempts % len(others)]
                by_peer.setdefault(peer, []).append(ref)
                entry.attempts += 1
        for peer, refs in by_peer.items():
            for start in range(0, len(refs), BATCH):
                self._request(peer, tuple(refs[start : start + BATCH]))
        self._arm()

    def _arm(self) -> None:
        if self._pending and not self._armed:
            self._armed = True
            self._port.call_later(RETRY_AFTER, self.tick)

    def _request(self, peer: int, refs: tuple[BlockRef, ...]) -> None:
        self.requests_sent += 1
        self._port.send(peer, FetchRequest(refs))
