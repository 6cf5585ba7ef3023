"""Runtime transports: asyncio TCP and an in-memory hub.

The TCP transport mirrors the paper's implementation choice of raw TCP
sockets (Section 4): every validator listens on one port, dials every
peer lazily, reconnects with backoff, and exchanges length-prefixed
frames.  The memory transport wires validators together through asyncio
queues for fast, deterministic in-process clusters (tests, examples).
"""

from __future__ import annotations

import asyncio
import struct
import time
from abc import ABC, abstractmethod
from typing import Awaitable, Callable

from ..errors import ReproError
from ..messages import MAX_FRAME, Message, decode_message, encode_frame, encode_message
from ..obs.trace import NULL_TRACER

#: ``(sender, message)`` delivery callback.
MessageHandler = Callable[[int, Message], Awaitable[None]]

#: First re-dial delay after a failed connection attempt (seconds).
DIAL_BACKOFF_BASE = 0.05
#: Ceiling for the exponential re-dial delay (seconds).
DIAL_BACKOFF_CAP = 2.0


class Transport(ABC):
    """Point-to-point + broadcast messaging between validators."""

    def __init__(self, authority: int) -> None:
        self.authority = authority
        self._handler: MessageHandler | None = None
        self.tracer = NULL_TRACER
        self._frames_sent = None
        self._bytes_sent = None
        self._frames_received = None
        self._bytes_received = None
        self._frames_rejected = None

    def instrument(self, tracer, registry) -> None:
        """Attach a lifecycle tracer and a metrics registry (the node
        shares its own).  Counters are cached here so the send path
        pays one attribute check, not a registry lookup per frame."""
        self.tracer = tracer
        self._frames_sent = registry.counter(
            "transport_frames_sent", help="frames written to peers"
        )
        self._bytes_sent = registry.counter(
            "transport_bytes_sent", help="framed bytes written to peers"
        )
        self._frames_received = registry.counter(
            "transport_frames_received", help="frames read from peers"
        )
        self._bytes_received = registry.counter(
            "transport_bytes_received", help="framed bytes read from peers"
        )
        self._frames_rejected = registry.counter(
            "transport_frames_rejected", help="oversized or undecodable frames (dropped)"
        )

    def on_message(self, handler: MessageHandler) -> None:
        """Register the delivery callback (one per transport)."""
        self._handler = handler

    async def _dispatch(self, sender: int, message: Message) -> None:
        if self._handler is not None:
            await self._handler(sender, message)

    def _reject_frame(self, peer: int, reason: str) -> None:
        """Count (and trace) an oversized length prefix or an
        undecodable body from ``peer``; the frame is dropped."""
        if self._frames_rejected is not None:
            self._frames_rejected.inc()
        if self.tracer.enabled:
            self.tracer.instant(
                self.authority,
                "network",
                "frame_rejected",
                time.time(),
                {"src": peer, "reason": reason},
            )

    @abstractmethod
    async def start(self) -> None:
        """Bind listeners / join the hub."""

    @abstractmethod
    async def stop(self) -> None:
        """Tear down connections and background tasks, and drop the
        delivery callback: it is a bound method of the node that owns
        this transport, and a stopped node must not stay pinned by that
        cycle until the cyclic collector's next full pass."""

    def _encode(self, message: Message) -> bytes:
        """The bytes :meth:`_write` hands a peer for ``message``."""
        return encode_message(message)

    @abstractmethod
    async def _write(self, dst: int, data: bytes) -> None:
        """Best-effort delivery of already-encoded bytes to one peer."""

    async def send(self, dst: int, message: Message) -> None:
        """Best-effort delivery to one peer (drops if unreachable)."""
        await self._write(dst, self._encode(message))

    async def broadcast(self, message: Message, peers: list[int]) -> None:
        """Best-effort delivery to every peer in ``peers``, encoded once.

        Fans out concurrently: one slow (or dead) peer must not delay
        the others' delivery by its dial timeout — serial awaiting would
        add a full round's latency per unreachable peer.
        """
        if not peers:
            return
        data = self._encode(message)
        await asyncio.gather(*(self._write(dst, data) for dst in peers))


# ----------------------------------------------------------------------
# In-memory transport
# ----------------------------------------------------------------------
class MemoryHub:
    """Shared mailbox router for in-process clusters."""

    def __init__(self) -> None:
        self._queues: dict[int, asyncio.Queue[tuple[int, bytes]]] = {}

    def register(self, authority: int) -> "asyncio.Queue[tuple[int, bytes]]":
        queue: asyncio.Queue[tuple[int, bytes]] = asyncio.Queue()
        self._queues[authority] = queue
        return queue

    def deliver(self, src: int, dst: int, body: bytes) -> None:
        queue = self._queues.get(dst)
        if queue is not None:
            queue.put_nowait((src, body))


class MemoryTransport(Transport):
    """Queue-based transport; messages still pass through the codec so
    serialization bugs surface in in-process tests too."""

    def __init__(self, authority: int, hub: MemoryHub) -> None:
        super().__init__(authority)
        self._hub = hub
        self._queue = hub.register(authority)
        self._pump_task: asyncio.Task | None = None

    async def start(self) -> None:
        self._pump_task = asyncio.create_task(self._pump())

    async def stop(self) -> None:
        if self._pump_task is not None:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass
            self._pump_task = None
        self._handler = None

    async def _write(self, dst: int, data: bytes) -> None:
        self._hub.deliver(self.authority, dst, data)

    async def _pump(self) -> None:
        while True:
            src, body = await self._queue.get()
            try:
                message = decode_message(body)
            except ReproError as error:
                self._reject_frame(src, repr(error))
                continue
            await self._dispatch(src, message)


# ----------------------------------------------------------------------
# TCP transport
# ----------------------------------------------------------------------
class TcpTransport(Transport):
    """Length-prefixed frames over asyncio TCP streams.

    Outgoing connections are dialed lazily and re-dialed with a small
    backoff on failure; sends while a peer is unreachable are dropped
    (the protocol tolerates message loss to faulty peers, and the
    synchronizer repairs gaps once the peer returns).
    """

    def __init__(self, authority: int, addresses: dict[int, tuple[str, int]]) -> None:
        """Args:
        authority: Our validator index.
        addresses: ``validator -> (host, port)`` for the whole committee.
        """
        super().__init__(authority)
        self._addresses = addresses
        self._server: asyncio.AbstractServer | None = None
        self._writers: dict[int, asyncio.StreamWriter] = {}
        self._locks: dict[int, asyncio.Lock] = {}
        self._reader_tasks: set[asyncio.Task] = set()
        self._closed = False
        # Per-peer dial cooldown: dst -> (monotonic time before which no
        # re-dial is attempted, current backoff delay).  Without it every
        # send to a dead peer pays a fresh connection attempt — with a
        # crashed validator that is one failed ``open_connection`` per
        # broadcast per round.
        self._dial_cooldown: dict[int, tuple[float, float]] = {}

    async def start(self) -> None:
        host, port = self._addresses[self.authority]
        self._server = await asyncio.start_server(self._accept, host, port)

    async def stop(self) -> None:
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in self._writers.values():
            writer.close()
        for task in list(self._reader_tasks):
            task.cancel()
        await asyncio.gather(*self._reader_tasks, return_exceptions=True)
        self._reader_tasks.clear()
        self._handler = None

    # -- receiving ------------------------------------------------------
    async def _accept(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._reader_tasks.add(task)
        try:
            # Peer introduces itself with a 4-byte authority id.
            raw = await reader.readexactly(4)
            (peer,) = struct.unpack("<I", raw)
            await self._read_frames(peer, reader)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        except asyncio.CancelledError:
            # Shutdown path: stop() cancels reader tasks; asyncio's
            # stream protocol re-raises into a loop callback otherwise.
            if not self._closed:
                raise
        finally:
            writer.close()
            if task is not None:
                self._reader_tasks.discard(task)

    async def _read_frames(self, peer: int, reader: asyncio.StreamReader) -> None:
        while not self._closed:
            header = await reader.readexactly(4)
            (length,) = struct.unpack("<I", header)
            if length > MAX_FRAME:
                return self._reject_frame(peer, f"oversized length prefix {length}")
            body = await reader.readexactly(length)
            if self._frames_received is not None:
                self._frames_received.inc()
                self._bytes_received.inc(length + 4)
            if self.tracer.enabled:
                self.tracer.instant(
                    self.authority,
                    "network",
                    "frame_received",
                    time.time(),
                    {"src": peer, "bytes": length + 4},
                )
            try:
                message = decode_message(body)
            except ReproError as error:
                # The stream cannot be trusted past a bad frame: the read
                # loop returns and ``_accept`` closes this connection only.
                return self._reject_frame(peer, repr(error))
            await self._dispatch(peer, message)

    # -- sending --------------------------------------------------------
    def _encode(self, message: Message) -> bytes:
        return encode_frame(message)

    async def _write(self, dst: int, body: bytes) -> None:
        lock = self._locks.setdefault(dst, asyncio.Lock())
        async with lock:
            writer = await self._writer_for(dst)
            if writer is None:
                return
            start = time.time() if self.tracer.enabled else 0.0
            try:
                writer.write(body)
                await writer.drain()
            except (ConnectionError, RuntimeError):
                self._writers.pop(dst, None)
                return
            if self._frames_sent is not None:
                self._frames_sent.inc()
                self._bytes_sent.inc(len(body))
            if self.tracer.enabled:
                # The span covers write-to-drain: the kernel buffer
                # handoff, not the wire flight (receipt is the peer's
                # frame_received instant).
                self.tracer.span(
                    self.authority,
                    "network",
                    "tcp_send",
                    start,
                    time.time(),
                    {"dst": dst, "bytes": len(body)},
                )

    async def _writer_for(self, dst: int) -> asyncio.StreamWriter | None:
        writer = self._writers.get(dst)
        if writer is not None and not writer.is_closing():
            return writer
        now = asyncio.get_running_loop().time()
        cooldown = self._dial_cooldown.get(dst)
        if cooldown is not None and now < cooldown[0]:
            return None  # peer recently unreachable: drop without dialing
        host, port = self._addresses[dst]
        try:
            _, writer = await asyncio.open_connection(host, port)
        except (ConnectionError, OSError):
            delay = (
                min(cooldown[1] * 2, DIAL_BACKOFF_CAP)
                if cooldown is not None
                else DIAL_BACKOFF_BASE
            )
            self._dial_cooldown[dst] = (
                asyncio.get_running_loop().time() + delay,
                delay,
            )
            return None
        self._dial_cooldown.pop(dst, None)
        writer.write(struct.pack("<I", self.authority))
        self._writers[dst] = writer
        return writer
