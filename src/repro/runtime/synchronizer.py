"""The synchronizer: fetches missing causal history.

Lemma 8's liveness argument relies on a "synchronizer sub-component":
when a validator receives a block whose ancestors it lacks, it requests
them from the sender (who, having relayed the block, must hold its full
causal history) and retries against other peers on timeout.

This class is the **shallow** fetch shape only — exactly the named
references (the common case: a block arrived a little early and names
one or two parents still in flight), batched per peer and retried with
peer rotation.  The **deep** shape a recovering validator rebuilds the
DAG with (the named references *plus their whole stored ancestor
closure*, chunked, token-tagged, one in flight at a time) belongs to
the fabric-independent :class:`~repro.statesync.driver.ValidatorDriver`, requests included.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..block import BlockRef
from ..crypto.hashing import Digest
from ..obs.metrics import MetricsRegistry
from ..messages import FetchRequest
from .transport import Transport

#: Seconds before a fetch is retried against another peer.
RETRY_AFTER = 1.0
#: Maximum references batched into one request.
BATCH = 64


@dataclass
class _Pending:
    ref: BlockRef
    first_peer: int
    last_request: float = 0.0
    attempts: int = 0


class Synchronizer:
    """Tracks missing block references and drives fetch requests."""

    def __init__(
        self,
        transport: Transport,
        committee_size: int,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._transport = transport
        self._n = committee_size
        self._pending: dict[Digest, _Pending] = {}
        # The request counter lives in the (possibly shared) metrics
        # registry, so a cluster's status JSON reports sync activity
        # without a second set of ad-hoc ints.
        registry = registry if registry is not None else MetricsRegistry()
        self._m_requests = registry.counter(
            "sync_requests_sent", help="shallow fetch requests issued"
        )

    @property
    def requests_sent(self) -> int:
        """Shallow fetch requests issued so far."""
        return int(self._m_requests.total)

    @property
    def missing(self) -> int:
        """Number of references still being fetched."""
        return len(self._pending)

    def follow_epoch(self, epoch) -> None:
        """Schedule listener: retry rotation covers the index range of
        every committee scheduled so far."""
        self._n = max(self._n, max(epoch.committee.members) + 1)

    def note_missing(self, refs: tuple[BlockRef, ...], sender: int) -> None:
        """Register missing ancestors reported while ingesting a block."""
        for ref in refs:
            if ref.digest not in self._pending:
                self._pending[ref.digest] = _Pending(ref=ref, first_peer=sender)

    def note_arrived(self, digest: Digest) -> None:
        """A previously missing block arrived (any path)."""
        self._pending.pop(digest, None)

    async def tick(self, now: float | None = None) -> None:
        """Issue or retry fetch requests (call periodically)."""
        now = time.monotonic() if now is None else now
        by_peer: dict[int, list[BlockRef]] = {}
        for pending in self._pending.values():
            if now - pending.last_request < RETRY_AFTER:
                continue
            pending.last_request = now
            peer = self._pick_peer(pending)
            pending.attempts += 1
            by_peer.setdefault(peer, []).append(pending.ref)
        for peer, refs in by_peer.items():
            for start in range(0, len(refs), BATCH):
                chunk = tuple(refs[start : start + BATCH])
                self._m_requests.inc()
                await self._transport.send(peer, FetchRequest(refs=chunk))

    def _pick_peer(self, pending: _Pending) -> int:
        """First ask the sender, then the block's author, then rotate."""
        if pending.attempts == 0:
            return pending.first_peer
        if pending.attempts == 1 and pending.ref.author != self._transport.authority:
            return pending.ref.author
        candidates = [v for v in range(self._n) if v != self._transport.authority]
        return candidates[pending.attempts % len(candidates)]
