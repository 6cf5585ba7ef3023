"""Unit tests for the missing-ancestor synchronizer."""

import asyncio

import pytest

from repro.block import make_genesis
from repro.messages import FetchRequest
from repro.runtime.synchronizer import BATCH, RETRY_AFTER, Synchronizer
from repro.runtime.transport import Transport


class RecordingTransport(Transport):
    """Captures outgoing messages instead of sending them."""

    def __init__(self, authority=0):
        super().__init__(authority)
        self.sent: list[tuple[int, object]] = []

    async def start(self):  # pragma: no cover - unused
        pass

    async def stop(self):  # pragma: no cover - unused
        pass

    def _encode(self, message):
        return message  # recorded as sent, never put on a wire

    async def _write(self, dst, data):
        self.sent.append((dst, data))


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def refs():
    return tuple(b.reference for b in make_genesis(4))


class TestFetching:
    def test_first_request_goes_to_sender(self, refs):
        transport = RecordingTransport()
        sync = Synchronizer(transport, committee_size=4)
        sync.note_missing(refs[:1], sender=2)
        run(sync.tick(now=100.0))
        assert transport.sent == [(2, FetchRequest(refs=refs[:1]))]

    def test_no_duplicate_requests_within_retry_window(self, refs):
        transport = RecordingTransport()
        sync = Synchronizer(transport, committee_size=4)
        sync.note_missing(refs[:1], sender=2)
        run(sync.tick(now=100.0))
        run(sync.tick(now=100.0 + RETRY_AFTER / 2))
        assert len(transport.sent) == 1

    def test_retry_rotates_to_block_author(self, refs):
        transport = RecordingTransport()
        sync = Synchronizer(transport, committee_size=4)
        sync.note_missing(refs[3:4], sender=2)  # block authored by 3
        run(sync.tick(now=100.0))
        run(sync.tick(now=100.0 + RETRY_AFTER + 0.01))
        assert [dst for dst, _ in transport.sent] == [2, 3]

    def test_arrival_cancels_fetch(self, refs):
        transport = RecordingTransport()
        sync = Synchronizer(transport, committee_size=4)
        sync.note_missing(refs[:2], sender=1)
        sync.note_arrived(refs[0].digest)
        run(sync.tick(now=100.0))
        assert sync.missing == 1
        [(dst, request)] = transport.sent
        assert request.refs == refs[1:2]

    def test_batching_splits_large_requests(self):
        transport = RecordingTransport()
        sync = Synchronizer(transport, committee_size=4)
        # Build more unique refs than one batch holds.
        from repro.block import Block

        unique = tuple(
            Block(author=0, round=0, parents=(), salt=str(i).encode()).reference
            for i in range(BATCH + 10)
        )
        sync.note_missing(unique, sender=1)
        run(sync.tick(now=50.0))
        sizes = [len(request.refs) for _, request in transport.sent]
        assert sum(sizes) == BATCH + 10
        assert max(sizes) <= BATCH

    def test_note_missing_is_idempotent(self, refs):
        transport = RecordingTransport()
        sync = Synchronizer(transport, committee_size=4)
        sync.note_missing(refs[:1], sender=1)
        sync.note_missing(refs[:1], sender=3)  # second report ignored
        assert sync.missing == 1
        run(sync.tick(now=10.0))
        assert transport.sent[0][0] == 1
