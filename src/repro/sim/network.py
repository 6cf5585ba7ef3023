"""The simulated message-passing network.

Models the three costs that dominate WAN consensus latency and
throughput (Section 5):

* **propagation** — per-pair one-way delay from the latency model;
* **serialization** — each validator has finite egress bandwidth; a
  broadcast of a large block occupies the sender's uplink once per
  peer, which is what eventually saturates throughput;
* **scheduling** — a pluggable :class:`MessageScheduler` decides extra
  per-message delay, modeling the paper's two network models: the
  *random network model* (random schedule — plain jitter) and the
  *asynchronous adversary* (targeted, bounded-but-arbitrary delays).

Per-link delivery is FIFO, as on a TCP connection (Section 4 uses raw
TCP sockets).  Bandwidth, framing, the delivery tick and the FIFO
spacing are the run's :class:`~repro.sim.costs.CostModel`.

What travels is opaque here: a :class:`Message` envelope — a named
tuple ``(src, body, size)`` — wraps one typed body (a
:mod:`repro.messages` object, carried un-encoded: the codec's seven or
the certified baseline's header / ack / certificate) with the wire size
the sender priced it at.  One envelope serves every hop of a send: the
destination is the link's, not the message's.

On an uncertified DAG every block is one broadcast to ``n - 1`` peers,
so the hop is the unit of work.  :meth:`SimNetwork.broadcast` prices all
of its hops in one pass (:meth:`SimNetwork._fan_out`: uplink
serialization, propagation and jitter, partition and scheduler delay,
the per-link FIFO clamp, the delivery tick, the link queue), and
:meth:`SimNetwork.send` is that pass over one peer.  Each directed link
is one :class:`Link` record, reached by index (``_links[src][dst]``): its
FIFO clamp, its queue of ``(arrival, Message)`` entries (a plain list:
a link seldom holds more than one pending message), and the identity
its at most one flush event on the loop carries.  That event fires at
the queue head's tick boundary, hands every message due by then to the
receiver as one batch and deletes that prefix in one slice.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Iterable, NamedTuple, Protocol

from ..obs.trace import NULL_TRACER
from .costs import CostModel
from .events import EventLoop
from .latency import LatencyModel


class Message(NamedTuple):
    """One network message.

    A named tuple, built once per send and shared by all of its hops:
    every receiver of a broadcast is handed the same object.  It names
    no destination — the :class:`Link` that carries it does.

    Attributes:
        src: Sending validator.
        body: The typed message handed to the receiver.
        size: Wire size in bytes (drives the bandwidth model).
    """

    src: int
    body: Any
    size: int


class Link:
    """One directed link's state, kept where a hop reaches it by index
    (``SimNetwork._links[src][dst]``) and carried by its flush event.

    Attributes:
        dst: The receiving validator.
        last: The latest delivery time scheduled on the link: the FIFO
            clamp for the next hop.
        queue: Pending ``(arrival, Message)`` deliveries, batched under
            one outstanding flush event.  The clamp makes arrival times
            monotonic, so the queue stays sorted by construction, a
            flush is armed exactly while it is non-empty and what it
            delivers is a prefix.
    """

    __slots__ = ("dst", "last", "queue")

    def __init__(self, dst: int) -> None:
        self.dst = dst
        self.last = 0.0
        self.queue: list[tuple[float, Message]] = []


class MessageScheduler(Protocol):
    """Decides extra delay injected on top of propagation + serialization."""

    def extra_delay(self, message: Message, now: float, rng: random.Random) -> float:
        """Additional one-way delay in seconds (0 for a benign network)."""
        ...


class RandomScheduler:
    """The random network model (Section 2.3): no adversarial control;
    ordering randomness comes solely from the latency model's jitter."""

    def extra_delay(self, message: Message, now: float, rng: random.Random) -> float:
        return 0.0


class AsyncAdversaryScheduler:
    """A continuously active asynchronous adversary.

    Delays messages *from* a rotating window of validators, emulating an
    adversary that tries to keep would-be leaders out of other
    validators' views.  Because leaders are elected after the fact, the
    adversary cannot target actual leaders — the best it can do is delay
    a subset blindly, which is exactly the threat model the commit-
    probability analysis assumes (Appendix C).
    """

    def __init__(
        self,
        committee_size: int,
        targets_per_window: int,
        delay: float,
        window: float = 1.0,
    ) -> None:
        """Args:
        committee_size: Number of validators.
        targets_per_window: How many validators the adversary delays
            at any one time (at most ``f`` is meaningful).
        delay: Extra one-way delay applied to targeted senders.
        window: Seconds between re-drawing the target set.
        """
        self._n = committee_size
        self._k = targets_per_window
        self._delay = delay
        self._window = window
        # Target set cached per window epoch: the draw is a pure
        # function of the epoch, so recomputing it (fresh Random,
        # re-sample) for every message only burned CPU on the hot path.
        self._cached_epoch = -1
        self._cached_targets: set[int] = set()

    def _targets(self, now: float) -> set[int]:
        epoch = int(now / self._window)
        if epoch != self._cached_epoch:
            rng = random.Random(repr(("adversary", epoch)))
            self._cached_targets = set(rng.sample(range(self._n), self._k))
            self._cached_epoch = epoch
        return self._cached_targets

    def extra_delay(self, message: Message, now: float, rng: random.Random) -> float:
        if message.src in self._targets(now):
            return self._delay
        return 0.0


class LeaderDosScheduler:
    """A *targeted* leader-slot DoS adversary.

    Unlike :class:`AsyncAdversaryScheduler` — which must guess, because
    post-hoc election hides future leaders from any real adversary —
    this scheduler is omniscient: it resolves the elected leaders of
    every propose round (via a resolver the experiment builds from the
    simulation's own coin and committee schedule, see
    :meth:`~repro.crypto.coin.FastCoin.peek`) and delays only *their*
    block traffic for that round (any message that carries one
    ``block``: the broadcast, a certified header, a certificate).  It
    deliberately breaks the unpredictability assumption to measure the
    worst case the paper's multi-leader design defends against: with one
    leader slot per round the whole wave stalls behind the delayed
    leader, while with multiple slots the untargeted leaders keep
    committing.

    Args:
        leaders_for_round: Maps a propose round to the elected leader
            indices in offset order (empty for non-propose rounds).
        delay: Extra one-way delay applied to a targeted leader's block
            and certificate traffic for its leader round.
        slots: How many leader slots (offset 0 upward) to DoS per round.
    """

    def __init__(
        self,
        leaders_for_round: Callable[[int], tuple[int, ...]],
        delay: float,
        slots: int = 1,
    ) -> None:
        self._leaders_for_round = leaders_for_round
        self._delay = delay
        self._slots = slots
        # Per-round target cache: every broadcast fans the same block to
        # n-1 peers, so the resolver would otherwise run n-1 times per
        # proposal on the hot path.
        self._cached_round = -1
        self._cached_targets: tuple[int, ...] = ()

    def targets(self, round_number: int) -> tuple[int, ...]:
        """The validators DoS'd for ``round_number`` (leader offsets
        ``0..slots-1`` of that propose round)."""
        if round_number != self._cached_round:
            self._cached_targets = tuple(self._leaders_for_round(round_number)[: self._slots])
            self._cached_round = round_number
        return self._cached_targets

    def extra_delay(self, message: Message, now: float, rng: random.Random) -> float:
        block = getattr(message.body, "block", None)
        if block is None:
            return 0.0
        if message.src in self.targets(block.round) and block.author == message.src:
            return self._delay
        return 0.0


class SimNetwork:
    """Connects :class:`~repro.sim.node.SimValidator` instances."""

    __slots__ = (
        "_loop",
        "_latency",
        "_n",
        "_costs",
        "_scheduler",
        "_benign",
        "_rng",
        "_sample_delay",
        "_batch_handlers",
        "_egress_free",
        "_links",
        "_partition",
        "_tracer",
        "messages_sent",
        "bytes_sent",
        "messages_dropped",
    )

    def __init__(
        self,
        loop: EventLoop,
        latency: LatencyModel,
        num_validators: int,
        *,
        costs: CostModel | None = None,
        scheduler: MessageScheduler | None = None,
        seed: int = 0,
        tracer=None,
    ) -> None:
        self._loop = loop
        self._latency = latency
        self._n = num_validators
        self._costs = costs or CostModel()
        self._scheduler = scheduler or RandomScheduler()
        # Benign schedulers add nothing: the fan-out skips the
        # extra_delay dispatch.
        self._benign = type(self._scheduler) is RandomScheduler
        self._rng = random.Random(repr(("network", seed)))
        # Pair-memoized base delays + block-presampled jitter.
        self._sample_delay = latency.make_sampler(self._rng)
        self._batch_handlers: dict[int, Callable[[list[Message]], None]] = {}
        # Sender uplink: time at which each validator's egress is free.
        self._egress_free = [0.0] * num_validators
        # Per-link state, reached as ``_links[src][dst]`` (``None``
        # until the link first carries a message).
        self._links: list[list[Link | None]] = [
            [None] * num_validators for _ in range(num_validators)
        ]
        # Live partition state: validator -> (group, cross-group delay).
        # Unlisted validators form the implicit default group "".
        self._partition: dict[int, tuple[str, float]] = {}
        # Lifecycle tracer (disabled no-op by default): wire-flight
        # spans are recorded on the *sender's* network lane.
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_dropped = 0

    @property
    def num_validators(self) -> int:
        """Provisioned validator count (all wire identities)."""
        return self._n

    def register_batch(
        self, validator: int, handler: Callable[[list[Message]], None]
    ) -> None:
        """Attach the delivery callback for ``validator``.

        All messages arriving for the validator on one link within one
        delivery tick are handed over in a single call (arrival order),
        letting the receiver verify them as one batch.
        """
        self._batch_handlers[validator] = handler

    def close(self) -> None:
        """The run ended: forget the delivery callbacks (they are bound
        to validators that hold this network)."""
        self._batch_handlers.clear()

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def set_partition(self, validator: int, group: str, cross_delay: float = 0.0) -> None:
        """Move ``validator`` into partition ``group``.

        Messages crossing group boundaries (the implicit default group
        ``""`` included) are dropped when any partitioned endpoint has a
        zero ``cross_delay``, otherwise delayed by the largest endpoint
        delay — modeling a hard cut vs. a heavily degraded inter-region
        path.  The validator itself stays up and keeps proposing into
        its side of the cut.
        """
        if not group:
            raise ValueError("partition group must be non-empty (heal() restores the default)")
        self._partition[validator] = (group, cross_delay)

    def heal(self, validator: int) -> None:
        """Return ``validator`` to the default group (no-op if whole)."""
        self._partition.pop(validator, None)

    def _cross_partition(self, src: int, dst: int) -> tuple[bool, float]:
        """(dropped, extra_delay) for the src->dst link under the
        current partition state."""
        src_entry = self._partition.get(src)
        dst_entry = self._partition.get(dst)
        src_group = src_entry[0] if src_entry else ""
        dst_group = dst_entry[0] if dst_entry else ""
        if src_group == dst_group:
            return False, 0.0
        delays = [entry[1] for entry in (src_entry, dst_entry) if entry is not None]
        if any(delay <= 0.0 for delay in delays):
            return True, 0.0
        return False, max(delays)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, body: Any, size: int) -> None:
        """Send one message of ``size`` wire bytes; delivery is scheduled
        on the event loop."""
        if src == dst:
            raise ValueError("validators do not message themselves")
        self._fan_out(src, (dst,), body, size)

    def broadcast(self, src: int, body: Any, size: int) -> None:
        """Send to every other validator.

        Peer order is shuffled per broadcast so uplink serialization
        does not systematically favour low-indexed validators.
        """
        peers = [v for v in range(self._n) if v != src]
        self._rng.shuffle(peers)
        self._fan_out(src, peers, body, size)

    def _fan_out(self, src: int, peers: Iterable[int], body: Any, size: int) -> None:
        """Put one ``body`` on the wire to each of ``peers`` in turn.

        A hop's path: the partition check (a cut link drops it), the
        sender's uplink serialization, propagation with jitter plus any
        partition and scheduler delay, the per-link FIFO clamp, then the
        link queue, arming the link's flush at the head's tick boundary
        when none is armed.  Everything that is the same for every hop
        is looked up once — the :class:`Message` envelope too; the hops
        draw from the network's generator in peer order, as one ``send``
        per peer would.
        """
        now = self._loop.now
        message = Message(src, body, size)
        wire_size, serialization = self._costs.hop(size)
        partition = self._partition
        sample_delay = self._sample_delay
        extra_delay = None if self._benign else self._scheduler.extra_delay
        rng = self._rng
        tracer = self._tracer if self._tracer.enabled else None
        links = self._links[src]
        schedule_at = self._loop.schedule_at
        flush = self._flush_link
        fifo_gap = self._costs.fifo_gap
        tick = self._costs.delivery_tick
        egress = self._egress_free[src]
        sent = 0
        for dst in peers:
            partition_delay = 0.0
            if partition:
                dropped, partition_delay = self._cross_partition(src, dst)
                if dropped:
                    # The link is cut: the message never occupies the
                    # sender's uplink (TCP backs off) and never arrives.
                    self.messages_dropped += 1
                    continue
            start = egress if egress > now else now
            egress = start + serialization
            delay = sample_delay(src, dst) + partition_delay
            if extra_delay is not None:
                delay += extra_delay(message, now, rng)
            arrival = egress + delay
            link = links[dst]
            if link is None:
                link = links[dst] = Link(dst)
            # FIFO per link (TCP semantics).
            last = link.last + fifo_gap
            if last > arrival:
                arrival = last
            link.last = arrival
            sent += 1
            if tracer is not None:
                tracer.span(
                    src,
                    "network",
                    "net_flight",
                    start,
                    arrival,
                    {"kind": type(body).__name__, "dst": dst, "bytes": wire_size},
                )
            # Later hops on this link always arrive at or after the
            # queued head (per-link FIFO), so an armed flush stays
            # correct and every message due by its boundary rides it.
            queue = link.queue
            if not queue:
                if tick:  # _tick_boundary, inline
                    boundary = tick * int(arrival / tick + 1.0)
                    if boundary < arrival:
                        boundary += tick
                else:
                    boundary = arrival
                schedule_at(boundary, flush, link)
            queue.append((arrival, message))
        self._egress_free[src] = egress
        self.messages_sent += sent
        self.bytes_sent += sent * wire_size

    def _tick_boundary(self, arrival: float) -> float:
        """The delivery instant for a message arriving at ``arrival``:
        the enclosing tick's upper boundary (or the exact arrival when
        quantization is off)."""
        tick = self._costs.delivery_tick
        if not tick:
            return arrival
        boundary = tick * int(arrival / tick + 1.0)
        # Guard against float fuzz putting the boundary below arrival.
        return boundary if boundary >= arrival else boundary + tick

    def _flush_link(self, link: Link) -> None:
        """Deliver every due message on ``link`` and re-arm for the next
        pending one (if any).

        A link carries messages for exactly one destination, so the due
        messages of one flush form one delivery batch: the receiver's
        handler gets them in a single call (it can then verify the
        batch's signatures/coin shares together and complete them with
        one event-loop entry instead of one per message).
        """
        queue = link.queue
        now = self._loop.now
        count = len(queue)  # the due prefix: arrivals are sorted
        while count and queue[count - 1][0] > now:
            count -= 1
        if count:
            due = [message for _, message in queue[:count]]
            del queue[:count]
            handler = self._batch_handlers.get(link.dst)
            if handler is not None:
                handler(due)
        if queue:
            self._loop.schedule_at(self._tick_boundary(queue[0][0]), self._flush_link, link)
