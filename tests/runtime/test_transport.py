"""TCP transport edge cases: framing, disconnects, reconnects, backoff.

The protocol survives arbitrary message loss (the synchronizer repairs
gaps), but the transport must fail *cleanly*: a malformed or truncated
stream ends that connection only, a restarted peer is re-dialed
transparently, and concurrent senders never interleave bytes inside a
frame.
"""

import asyncio
import struct

import pytest

from repro.messages import (
    MAX_FRAME,
    BlockMessage,
    FetchRequest,
    encode_message,
    frame,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.runtime import transport as transport_module
from repro.runtime.transport import (
    DIAL_BACKOFF_BASE,
    DIAL_BACKOFF_CAP,
    MemoryHub,
    MemoryTransport,
    TcpTransport,
)
from tests.runtime.test_messages import sample_block

BASE_PORT = 29500


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30))


def addresses(*validators: int, port: int = BASE_PORT) -> dict:
    return {v: ("127.0.0.1", port + v) for v in validators}


async def started_transport(authority: int, addrs: dict) -> tuple[TcpTransport, list]:
    transport = TcpTransport(authority, addrs)
    received: list = []

    async def handler(sender, message):
        received.append((sender, message))

    transport.on_message(handler)
    await transport.start()
    return transport, received


async def wait_for(condition, timeout: float = 10.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout
    while not condition():
        if asyncio.get_running_loop().time() > deadline:
            raise TimeoutError("condition never became true")
        await asyncio.sleep(0.01)


class TestFraming:
    def test_oversized_frame_closes_connection_only(self):
        """A length prefix beyond MAX_FRAME must kill that connection,
        not the transport: honest peers keep getting served."""

        async def scenario():
            addrs = addresses(0, 1, port=BASE_PORT)
            server, received = await started_transport(0, addrs)
            honest, _ = await started_transport(1, addrs)
            try:
                reader, writer = await asyncio.open_connection(*addrs[0])
                writer.write(struct.pack("<I", 7))  # hello as validator 7
                writer.write(struct.pack("<I", MAX_FRAME + 1))  # poison header
                await writer.drain()
                # The server drops the connection without reading a body.
                assert await reader.read() == b""
                writer.close()
                # ... and still accepts frames from a well-behaved peer.
                await honest.send(0, FetchRequest(refs=()))
                await wait_for(lambda: received == [(1, FetchRequest(refs=()))])
            finally:
                await server.stop()
                await honest.stop()

        run(scenario())

    @pytest.mark.parametrize(
        "poison",
        [
            pytest.param(struct.pack("<I", 0xFFFFFFFF), id="oversized-prefix"),
            pytest.param(frame(b"\xee garbage"), id="unknown-kind"),
            pytest.param(frame(b""), id="empty-body"),
            # A block message truncated inside the block: struct.error /
            # IndexError territory in the decoder.
            pytest.param(
                frame(encode_message(BlockMessage(block=sample_block()))[:9]), id="truncated-block"
            ),
            # A sync request cut inside its fixed header, and a fetch
            # response declaring more blocks than it holds.
            pytest.param(frame(b"\x06\x01\x02"), id="truncated-header"),
            pytest.param(frame(b"\x03\xff\xff\xff\xff"), id="overdeclared-count"),
        ],
    )
    def test_hostile_frame_is_counted_and_contained(self, poison):
        """A frame the server cannot accept bumps ``frames_rejected``
        and ends that connection — no exception escapes the server's
        connection task, and a well-formed peer connected alongside is
        served before and after."""

        async def scenario():
            loop_errors: list = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: loop_errors.append(context)
            )
            addrs = addresses(0, 1, port=BASE_PORT + 60)
            server, received = await started_transport(0, addrs)
            registry, tracer = MetricsRegistry(), Tracer()
            server.instrument(tracer, registry)
            rejected = registry.counter("transport_frames_rejected")
            honest, _ = await started_transport(1, addrs)
            try:
                await honest.send(0, FetchRequest(refs=()))
                await wait_for(lambda: len(received) == 1)
                reader, writer = await asyncio.open_connection(*addrs[0])
                writer.write(struct.pack("<I", 7) + poison)
                await writer.drain()
                assert await reader.read() == b""  # hostile connection closed
                writer.close()
                assert rejected.value() == 1
                (why,) = [e.args for e in tracer.events if e.name == "frame_rejected"]
                assert why["src"] == 7 and why["reason"]
                # The honest peer's existing connection still delivers.
                block = BlockMessage(block=sample_block())
                await honest.send(0, block)
                await wait_for(lambda: received == [(1, FetchRequest(refs=())), (1, block)])
                assert registry.counter("transport_frames_received").value() == (
                    2 if poison[:4] == b"\xff" * 4 else 3
                )
            finally:
                await server.stop()
                await honest.stop()
            assert not server._reader_tasks
            assert loop_errors == []

        run(scenario())

    def test_mid_frame_disconnect_is_contained(self):
        """A peer dying halfway through a frame delivers nothing and
        leaves the transport serving everyone else."""

        async def scenario():
            addrs = addresses(0, 1, port=BASE_PORT + 10)
            server, received = await started_transport(0, addrs)
            honest, _ = await started_transport(1, addrs)
            try:
                _, writer = await asyncio.open_connection(*addrs[0])
                body = encode_message(BlockMessage(block=sample_block()))
                writer.write(struct.pack("<I", 9))
                writer.write(frame(body)[: 4 + len(body) // 2])  # half a frame
                await writer.drain()
                writer.close()
                await asyncio.sleep(0.1)
                assert received == []  # the torn frame never surfaced
                await honest.send(0, FetchRequest(refs=()))
                await wait_for(lambda: received == [(1, FetchRequest(refs=()))])
            finally:
                await server.stop()
                await honest.stop()

        run(scenario())

    def test_concurrent_sends_keep_frame_boundaries(self):
        """Interleaved senders on one connection must never shear a
        frame: every message decodes intact, none are lost."""

        async def scenario():
            addrs = addresses(0, 1, port=BASE_PORT + 20)
            server, received = await started_transport(0, addrs)
            sender, _ = await started_transport(1, addrs)
            try:
                block = sample_block()
                # Mix tiny and large frames so a boundary bug shears.
                messages = [
                    BlockMessage(block=block)
                    if i % 2
                    else FetchRequest(refs=(block.reference,) * (i + 1))
                    for i in range(40)
                ]
                await asyncio.gather(*(sender.send(0, m) for m in messages))
                await wait_for(lambda: len(received) == len(messages))
                assert sorted(
                    (m for _, m in received), key=lambda m: len(encode_message(m))
                ) == sorted(messages, key=lambda m: len(encode_message(m)))
            finally:
                await server.stop()
                await sender.stop()

        run(scenario())


class TestMemoryPump:
    def test_undecodable_body_is_counted_and_the_pump_survives(self):
        """One malformed body used to end the pump task: the validator
        went deaf.  It is dropped and counted like a bad TCP frame, and
        the next message is delivered."""

        async def scenario():
            hub = MemoryHub()
            receiver, inbox = MemoryTransport(1, hub), []
            registry, tracer = MetricsRegistry(), Tracer()
            receiver.instrument(tracer, registry)
            receiver.on_message(lambda src, m: _deliver(inbox, src, m))
            await receiver.start()
            block = BlockMessage(block=sample_block())
            try:
                for garbage in (b"", b"\xee garbage", b"\x06\x01\x02", b"\x03\xff\xff\xff\xff"):
                    hub.deliver(7, 1, garbage)
                await MemoryTransport(0, hub).send(1, block)
                await wait_for(lambda: inbox == [(0, block)])
                assert not receiver._pump_task.done()
            finally:
                await receiver.stop()
            assert registry.counter("transport_frames_rejected").value() == 4
            rejected = [e.args for e in tracer.events if e.name == "frame_rejected"]
            assert [why["src"] for why in rejected] == [7] * 4

        run(scenario())


class TestReconnect:
    def test_reconnect_after_peer_restart_on_same_port(self):
        """A peer that crashes and rebinds the same port is reached
        again without any explicit reset on the sender's side."""

        async def scenario():
            addrs = addresses(0, 1, port=BASE_PORT + 30)
            sender, _ = await started_transport(0, addrs)
            first, first_received = await started_transport(1, addrs)
            try:
                await sender.send(1, FetchRequest(refs=()))
                await wait_for(lambda: len(first_received) == 1)
                await first.stop()

                second, second_received = await started_transport(1, addrs)
                try:
                    # The cached writer is stale; sends are best-effort,
                    # so keep trying like the proposal loop does until
                    # the re-dial lands on the new incarnation.
                    async def retry():
                        while not second_received:
                            await sender.send(1, FetchRequest(refs=()))
                            await asyncio.sleep(0.05)

                    await asyncio.wait_for(retry(), timeout=10)
                    assert second_received[0] == (0, FetchRequest(refs=()))
                finally:
                    await second.stop()
            finally:
                await sender.stop()

        run(scenario())


class TestDialBackoff:
    def test_cooldown_skips_redials_and_backs_off_exponentially(self):
        async def scenario():
            addrs = addresses(0, 1, port=BASE_PORT + 40)
            sender, _ = await started_transport(0, addrs)  # peer 1 never starts
            try:
                await sender.send(1, FetchRequest(refs=()))
                until, delay = sender._dial_cooldown[1]
                assert delay == DIAL_BACKOFF_BASE
                # Inside the cooldown window: no fresh dial, state frozen.
                await sender.send(1, FetchRequest(refs=()))
                assert sender._dial_cooldown[1] == (until, delay)
                # Past the window: the next failure doubles the delay.
                await asyncio.sleep(delay + 0.05)
                await sender.send(1, FetchRequest(refs=()))
                assert sender._dial_cooldown[1][1] == 2 * DIAL_BACKOFF_BASE
                assert sender._dial_cooldown[1][1] <= DIAL_BACKOFF_CAP
            finally:
                await sender.stop()

        run(scenario())

    def test_successful_dial_clears_cooldown(self):
        async def scenario():
            addrs = addresses(0, 1, port=BASE_PORT + 50)
            sender, _ = await started_transport(0, addrs)
            try:
                await sender.send(1, FetchRequest(refs=()))  # peer is down
                assert 1 in sender._dial_cooldown
                peer, peer_received = await started_transport(1, addrs)
                try:
                    await asyncio.sleep(DIAL_BACKOFF_BASE + 0.05)
                    await sender.send(1, FetchRequest(refs=()))
                    await wait_for(lambda: len(peer_received) == 1)
                    assert 1 not in sender._dial_cooldown
                finally:
                    await peer.stop()
            finally:
                await sender.stop()

        run(scenario())

    def test_broadcast_not_stalled_by_dead_peer(self):
        """One unreachable peer must not delay the live ones: the
        fan-out is concurrent and the dead dial is bounded."""

        async def scenario():
            addrs = addresses(0, 1, 2, port=BASE_PORT + 60)
            sender, _ = await started_transport(0, addrs)
            live, live_received = await started_transport(1, addrs)  # 2 is dead
            try:
                start = asyncio.get_running_loop().time()
                await sender.broadcast(FetchRequest(refs=()), peers=[1, 2])
                await wait_for(lambda: len(live_received) == 1)
                assert asyncio.get_running_loop().time() - start < 5.0
            finally:
                await sender.stop()
                await live.stop()

        run(scenario())


class TestBroadcastEncodesOnce:
    """A broadcast serialises (and, on TCP, frames) its message once and
    hands every peer the same bytes; the per-frame counters and the
    ``tcp_send`` span still count one frame per peer."""

    @staticmethod
    def count_encodes(monkeypatch, name: str = "encode_message") -> list:
        """Calls of the transport's encoder ``name`` (TCP frames with
        ``encode_frame``, the memory transport hands over bodies)."""
        calls = []
        real = getattr(transport_module, name)
        monkeypatch.setattr(transport_module, name, lambda m: calls.append(m) or real(m))
        return calls

    def test_tcp(self, monkeypatch):
        encodes = self.count_encodes(monkeypatch, "encode_frame")
        message = BlockMessage(block=sample_block())

        async def scenario():
            addrs = addresses(0, 1, 2, 3, port=BASE_PORT + 80)
            sender, _ = await started_transport(0, addrs)
            registry, tracer = MetricsRegistry(), Tracer()
            sender.instrument(tracer, registry)
            receivers = [await started_transport(v, addrs) for v in (1, 2)]  # 3 is dead
            try:
                await sender.broadcast(message, peers=[1, 2, 3])
                await wait_for(lambda: all(len(got) == 1 for _, got in receivers))
                assert all(got == [(0, message)] for _, got in receivers)
                await sender.send(1, message)
            finally:
                for transport, _ in receivers:
                    await transport.stop()
                await sender.stop()
            return registry.snapshot(), [e for e in tracer.events if e.name == "tcp_send"]

        snapshot, spans = run(scenario())
        assert len(encodes) == 2  # one per broadcast, one per send
        size = len(frame(encode_message(message)))
        assert snapshot["transport_frames_sent"] == 3
        assert snapshot["transport_bytes_sent"] == 3 * size
        assert sorted(e.args["dst"] for e in spans) == [1, 1, 2]
        assert {e.args["bytes"] for e in spans} == {size}

    def test_memory(self, monkeypatch):
        encodes = self.count_encodes(monkeypatch)
        message = FetchRequest(refs=())

        async def scenario():
            hub = MemoryHub()
            sender = MemoryTransport(0, hub)
            inboxes = []
            for v in (1, 2, 3):
                transport, inbox = MemoryTransport(v, hub), []
                transport.on_message(lambda src, m, inbox=inbox: _deliver(inbox, src, m))
                await transport.start()
                inboxes.append((transport, inbox))
            try:
                await sender.broadcast(message, peers=[1, 2, 3])
                await wait_for(lambda: all(len(inbox) == 1 for _, inbox in inboxes))
            finally:
                for transport, _ in inboxes:
                    await transport.stop()
            return [inbox for _, inbox in inboxes]

        assert run(scenario()) == [[(0, message)]] * 3
        assert len(encodes) == 1


async def _deliver(inbox: list, src: int, message) -> None:
    inbox.append((src, message))


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
