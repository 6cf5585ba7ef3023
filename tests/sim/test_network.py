"""Tests for the simulated network (bandwidth, FIFO, adversary).  What a
message carries is opaque to it: the bodies here are plain labels."""

from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.trace import Tracer
from repro.sim.costs import CostModel
from repro.sim.events import EventLoop
from repro.sim.latency import UniformLatencyModel
from repro.sim.network import (
    AsyncAdversaryScheduler,
    LeaderDosScheduler,
    Link,
    Message,
    SimNetwork,
)


def make_network(n=4, delay=0.05, bandwidth=10e9 / 8, scheduler=None):
    loop = EventLoop()
    network = SimNetwork(
        loop,
        UniformLatencyModel(delay),
        n,
        costs=CostModel(bandwidth=bandwidth),
        scheduler=scheduler,
        seed=0,
    )
    inboxes = {i: [] for i in range(n)}
    for i in range(n):
        network.register_batch(
            i, lambda batch, i=i: inboxes[i].extend((m, loop.now) for m in batch)
        )
    return loop, network, inboxes


class TestDelivery:
    def test_point_to_point_delay(self):
        loop, network, inboxes = make_network()
        network.send(0, 1, "payload", size=100)
        loop.run_to_completion()
        [(message, when)] = inboxes[1]
        assert message.body == "payload"
        assert message.src == 0
        # Delivery lands within one delivery tick past the exact arrival
        # (tick quantization batches per-link deliveries).
        tick = CostModel().delivery_tick
        assert 0.05 <= when <= 0.05 + tick + 1e-9

    def test_broadcast_reaches_all_peers(self):
        loop, network, inboxes = make_network()
        network.broadcast(0, "x", size=100)
        loop.run_to_completion()
        assert not inboxes[0]
        for peer in (1, 2, 3):
            assert len(inboxes[peer]) == 1

    def test_every_hop_of_a_broadcast_delivers_one_message(self):
        """A broadcast builds one envelope: every peer is handed the same
        object, which names the sender and the body but no destination
        (the link that carried it is the destination)."""
        loop, network, inboxes = make_network(n=6)
        network.broadcast(2, "x", size=100)
        loop.run_to_completion()
        delivered = [message for inbox in inboxes.values() for message, _ in inbox]
        assert len(delivered) == 5 and not inboxes[2]
        assert all(message is delivered[0] for message in delivered)
        assert delivered[0] == Message(src=2, body="x", size=100)

    def test_a_scheduler_sees_the_sender_and_body_of_every_hop(self):
        """The shared envelope still tells an adversarial scheduler whose
        traffic a hop is: delaying one sender's body delays every hop of
        its broadcast and nothing else."""

        class DelaySender:
            def __init__(self):
                self.seen = []

            def extra_delay(self, message, now, rng):
                self.seen.append((message.src, message.body))
                return 0.3 if (message.src, message.body) == (1, "slow") else 0.0

        scheduler = DelaySender()
        loop, network, inboxes = make_network(n=4, scheduler=scheduler)
        network.broadcast(1, "slow", size=100)
        network.broadcast(2, "fast", size=100)
        loop.run_to_completion()
        assert sorted(scheduler.seen) == [(1, "slow")] * 3 + [(2, "fast")] * 3
        for peer, inbox in inboxes.items():
            for message, when in inbox:
                assert (when > 0.3) == (message.body == "slow"), (peer, message)

    def test_no_self_send(self):
        loop, network, _ = make_network()
        with pytest.raises(ValueError):
            network.send(1, 1, "x", 10)

    def test_fifo_per_link(self):
        loop, network, inboxes = make_network()
        for i in range(20):
            network.send(0, 1, i, size=10)
        loop.run_to_completion()
        received = [m.body for m, _ in inboxes[1]]
        assert received == list(range(20))

    def test_counters(self):
        loop, network, _ = make_network()
        network.broadcast(0, "x", size=1000)
        assert network.messages_sent == 3
        assert network.bytes_sent == 3 * (1000 + 128)


class TestBandwidth:
    def test_uplink_serialization_delays_large_messages(self):
        # 1 MB/s uplink: a 0.5 MB message takes 0.5s to serialize.
        loop, network, inboxes = make_network(bandwidth=1e6)
        network.send(0, 1, "big", size=500_000)
        loop.run_to_completion()
        [(_, when)] = inboxes[1]
        assert when == pytest.approx(0.5 + 0.05, rel=0.01)

    def test_broadcast_serializes_per_peer(self):
        loop, network, inboxes = make_network(bandwidth=1e6)
        network.broadcast(0, "big", size=500_000)
        loop.run_to_completion()
        times = sorted(when for peer in (1, 2, 3) for _, when in inboxes[peer])
        # Third copy leaves the uplink ~1.5s in.
        assert times[-1] == pytest.approx(1.5 + 0.05, rel=0.02)

    def test_small_messages_unaffected(self):
        loop, network, inboxes = make_network(bandwidth=10e9 / 8)
        network.send(0, 1, "x", size=64)
        loop.run_to_completion()
        [(_, when)] = inboxes[1]
        tick = CostModel().delivery_tick
        assert 0.05 <= when <= 0.05 + tick + 1e-9


class TestDeliveryTick:
    """Per-(src, dst, tick) delivery batching."""

    def test_burst_rides_few_heap_entries(self):
        """Messages on one link arriving within a tick share one flush
        event instead of one ``schedule_at`` each."""
        loop = EventLoop()
        network = SimNetwork(
            loop,
            UniformLatencyModel(0.05),
            4,
            costs=CostModel(delivery_tick=0.01),
            seed=0,
        )
        received = []
        network.register_batch(
            1, lambda batch: received.extend((m.body, loop.now) for m in batch)
        )
        for i in range(50):
            network.send(0, 1, i, size=100)
        loop.run_to_completion()
        assert [payload for payload, _ in received] == list(range(50))
        # 50 messages, microseconds apart -> one or two flush events.
        assert loop.events_processed <= 3

    def test_delivery_within_one_tick_of_arrival(self):
        loop = EventLoop()
        tick = 0.01
        network = SimNetwork(
            loop,
            UniformLatencyModel(0.05),
            4,
            costs=CostModel(delivery_tick=tick),
            seed=0,
        )
        times = []
        network.register_batch(2, lambda batch: times.extend(loop.now for _ in batch))
        network.send(0, 2, "x", size=100)
        loop.run_to_completion()
        [when] = times
        assert 0.05 <= when <= 0.05 + tick + 1e-9
        # Quantized deliveries land exactly on a tick boundary.
        assert when == pytest.approx(round(when / tick) * tick)

    def test_zero_tick_delivers_at_exact_arrival(self):
        loop = EventLoop()
        network = SimNetwork(
            loop,
            UniformLatencyModel(0.05),
            4,
            costs=CostModel(delivery_tick=0.0),
            seed=0,
        )
        times = []
        network.register_batch(3, lambda batch: times.extend(loop.now for _ in batch))
        network.send(0, 3, "x", size=64)
        loop.run_to_completion()
        [when] = times
        assert when == pytest.approx(0.05, rel=0.01)

    def test_fifo_preserved_across_tick_boundaries(self):
        loop = EventLoop()
        network = SimNetwork(
            loop,
            UniformLatencyModel(0.05),
            4,
            # 1 MB/s: 100 kB messages serialize 0.1 s apart, spanning
            # many ticks.
            costs=CostModel(bandwidth=1e6, delivery_tick=0.01),
            seed=0,
        )
        received = []
        network.register_batch(1, lambda batch: received.extend(m.body for m in batch))
        for i in range(5):
            network.send(0, 1, i, size=100_000)
        loop.run_to_completion()
        assert received == list(range(5))


class TestAdversary:
    def test_targeted_senders_delayed(self):
        scheduler = AsyncAdversaryScheduler(
            committee_size=4, targets_per_window=1, delay=1.0, window=1000.0
        )
        target = next(iter(scheduler._targets(0.0)))
        loop, network, inboxes = make_network(scheduler=scheduler)
        victim_dst = (target + 1) % 4
        network.send(target, victim_dst, "slow", size=10)
        clean_src = (target + 2) % 4
        network.send(clean_src, victim_dst, "fast", size=10)
        loop.run_to_completion()
        arrivals = {m.body: when for m, when in inboxes[victim_dst]}
        assert arrivals["slow"] > 1.0
        assert arrivals["fast"] < 0.1

    def test_target_set_rotates(self):
        scheduler = AsyncAdversaryScheduler(
            committee_size=10, targets_per_window=3, delay=0.5, window=1.0
        )
        windows = [set(scheduler._targets(t)) for t in (0.0, 1.5, 2.5, 3.5, 10.5)]
        assert any(a != b for a, b in zip(windows, windows[1:]))
        assert all(len(w) == 3 for w in windows)

    def test_target_cache_matches_fresh_derivation(self):
        """The per-epoch cache is behavior-identical to re-deriving the
        set from a fresh Random per message (the old hot-path cost)."""
        import random

        scheduler = AsyncAdversaryScheduler(
            committee_size=10, targets_per_window=3, delay=0.5, window=1.0
        )
        for now in (0.0, 0.3, 0.99, 1.0, 1.7, 5.2, 5.8, 42.0):
            epoch = int(now / 1.0)
            expected = set(random.Random(repr(("adversary", epoch))).sample(range(10), 3))
            assert set(scheduler._targets(now)) == expected

    def test_target_cache_stable_within_epoch(self):
        scheduler = AsyncAdversaryScheduler(
            committee_size=10, targets_per_window=3, delay=0.5, window=1.0
        )
        first = set(scheduler._targets(2.0))
        for now in (2.1, 2.5, 2.999):
            assert set(scheduler._targets(now)) == first


class TestPartitions:
    def test_cross_partition_messages_dropped(self):
        loop, network, inboxes = make_network()
        network.set_partition(1, "minority")
        network.send(0, 1, "into the cut", size=10)
        network.send(1, 0, "out of the cut", size=10)
        loop.run_to_completion()
        assert not inboxes[1] and not inboxes[0]
        assert network.messages_dropped == 2
        assert network.messages_sent == 0

    def test_same_group_keeps_talking(self):
        loop, network, inboxes = make_network()
        network.set_partition(1, "minority")
        network.set_partition(2, "minority")
        network.send(1, 2, "inside", size=10)
        network.send(0, 3, "outside", size=10)
        loop.run_to_completion()
        assert [m.body for m, _ in inboxes[2]] == ["inside"]
        assert [m.body for m, _ in inboxes[3]] == ["outside"]
        assert network.messages_dropped == 0

    def test_degraded_cross_links_delay_instead_of_drop(self):
        loop, network, inboxes = make_network(delay=0.05)
        network.set_partition(1, "minority", cross_delay=0.4)
        network.send(0, 1, "slow", size=10)
        network.send(0, 2, "fast", size=10)
        loop.run_to_completion()
        [(_, slow_when)] = inboxes[1]
        [(_, fast_when)] = inboxes[2]
        assert slow_when == pytest.approx(0.45, rel=0.05)
        assert fast_when < 0.1
        assert network.messages_dropped == 0

    def test_any_zero_delay_endpoint_cuts_the_link(self):
        """A hard cut on either side wins over the other side's degraded
        (delaying) partition."""
        loop, network, inboxes = make_network()
        network.set_partition(1, "east", cross_delay=0.0)
        network.set_partition(2, "west", cross_delay=0.4)
        network.send(1, 2, "x", size=10)
        loop.run_to_completion()
        assert not inboxes[2]
        assert network.messages_dropped == 1

    def test_heal_restores_traffic(self):
        loop, network, inboxes = make_network()
        network.set_partition(1, "minority")
        network.send(0, 1, "lost", size=10)
        network.heal(1)
        network.send(0, 1, "delivered", size=10)
        loop.run_to_completion()
        assert [m.body for m, _ in inboxes[1]] == ["delivered"]
        assert network.messages_dropped == 1
        assert 1 not in network._partition

    def test_empty_group_rejected(self):
        _, network, _ = make_network()
        with pytest.raises(ValueError):
            network.set_partition(1, "")


# ----------------------------------------------------------------------
# The fan-out against the per-hop send loop it replaced
# ----------------------------------------------------------------------
class PerHopNetwork(SimNetwork):
    """The network before a broadcast priced its hops in one pass: a
    broadcast is one ``send`` per peer, and each send looks everything
    up, builds its own envelope and prices its hop from scratch (the
    oracle for ``_fan_out``; envelopes compare by value)."""

    def send(self, src, dst, body, size):
        if src == dst:
            raise ValueError("validators do not message themselves")
        partition_delay = 0.0
        if self._partition:
            dropped, partition_delay = self._cross_partition(src, dst)
            if dropped:
                self.messages_dropped += 1
                return
        message = Message(src=src, body=body, size=size)
        wire_size = size + self._costs.message_overhead
        now = self._loop.now
        egress_free = self._egress_free
        start = egress_free[src]
        if now > start:
            start = now
        egress_done = start + wire_size / self._costs.bandwidth
        egress_free[src] = egress_done
        delay = self._sample_delay(src, dst) + partition_delay
        if not self._benign:
            delay += self._scheduler.extra_delay(message, now, self._rng)
        arrival = egress_done + delay
        link = self._links[src][dst]
        if link is None:
            link = self._links[src][dst] = Link(dst)
        last = link.last + self._costs.fifo_gap
        if last > arrival:
            arrival = last
        link.last = arrival
        self.messages_sent += 1
        self.bytes_sent += wire_size
        if self._tracer.enabled:
            self._tracer.span(
                src,
                "network",
                "net_flight",
                start,
                arrival,
                {"kind": type(body).__name__, "dst": dst, "bytes": wire_size},
            )
        if not link.queue:
            self._loop.schedule_at(self._tick_boundary(arrival), self._flush_link, link)
        link.queue.append((arrival, message))

    def broadcast(self, src, body, size):
        peers = [v for v in range(self._n) if v != src]
        self._rng.shuffle(peers)
        for dst in peers:
            self.send(src, dst, body, size)


class Carried(NamedTuple):
    """A body carrying a block, as the leader-DoS scheduler reads one."""

    block: "Slot"


class Slot(NamedTuple):
    author: int
    round: int


class DrawingLatency(UniformLatencyModel):
    """Draws from the network's generator on every hop (a custom
    ``sample``), so the order of draws is part of what is compared."""

    def sample(self, src, dst, rng):
        return self._delay * (1.0 + rng.random())


LATENCIES = {
    "fixed": lambda: UniformLatencyModel(0.05),
    "jittered": lambda: UniformLatencyModel(0.05, jitter_sigma=0.3),
    "drawing": lambda: DrawingLatency(0.05),
}
SCHEDULERS = {
    "random": lambda n: None,
    "async-adversary": lambda n: AsyncAdversaryScheduler(n, max(1, n // 3), 0.4, window=0.1),
    "leader-dos": lambda n: LeaderDosScheduler(lambda r: (r % n, (r + 1) % n), 0.3, slots=2),
}


@st.composite
def network_programs(draw):
    """A network set-up and a program of calls on it: broadcasts and
    unicasts of plain and block-carrying bodies, cuts and degraded
    partitions and their heals, and the loop running forward."""
    n = draw(st.integers(2, 7))
    node = st.integers(0, n - 1)
    size = st.sampled_from([10, 900, 40_000])
    body = st.one_of(
        st.sampled_from(["a", "b"]),
        st.builds(Carried, st.builds(Slot, node, st.integers(1, 6))),
    )
    calls = []
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(["broadcast", "send", "partition", "heal", "run"]))
        if kind == "broadcast":
            calls.append(("broadcast", draw(node), draw(body), draw(size)))
        elif kind == "send":
            src = draw(node)
            dst = draw(node.filter(lambda v, src=src: v != src)) if n > 1 else src
            calls.append(("send", src, dst, draw(body), draw(size)))
        elif kind == "partition":
            group = draw(st.sampled_from(["east", "west"]))
            calls.append(("set_partition", draw(node), group, draw(st.sampled_from([0.0, 0.3]))))
        elif kind == "heal":
            calls.append(("heal", draw(node)))
        else:
            calls.append(("run", draw(st.sampled_from([0.0, 0.0004, 0.03, 0.2]))))
    setup = dict(
        n=n,
        latency=draw(st.sampled_from(sorted(LATENCIES))),
        scheduler=draw(st.sampled_from(sorted(SCHEDULERS))),
        traced=draw(st.booleans()),
        delivery_tick=draw(st.sampled_from([0.0, CostModel().delivery_tick])),
        bandwidth=draw(st.sampled_from([10e9 / 8, 1e6])),
        seed=draw(st.integers(0, 2**16)),
    )
    return setup, calls


def build(cls, setup):
    loop = EventLoop()
    tracer = Tracer() if setup["traced"] else None
    network = cls(
        loop,
        LATENCIES[setup["latency"]](),
        setup["n"],
        costs=CostModel(bandwidth=setup["bandwidth"], delivery_tick=setup["delivery_tick"]),
        scheduler=SCHEDULERS[setup["scheduler"]](setup["n"]),
        seed=setup["seed"],
        tracer=tracer,
    )
    delivered = []
    for v in range(setup["n"]):
        network.register_batch(v, lambda batch, v=v: delivered.append((v, loop.now, batch)))
    return loop, network, tracer, delivered


def network_state(loop, network, tracer, delivered):
    """Everything a hop leaves behind, in comparable form: each link
    record by its ``(src, dst)`` place in the table — which is where a
    queued ``(src, body, size)`` envelope's destination is pinned — and a
    flush event by the place of the record it carries (a record that is
    not the table's stays an object, equal to nothing the other network
    holds)."""
    links = {
        (src, dst): link
        for src, row in enumerate(network._links)
        for dst, link in enumerate(row)
        if link is not None
    }
    place = {id(link): key for key, link in links.items()}
    return (
        {key: (link.dst, link.last, list(link.queue)) for key, link in links.items()},
        list(network._egress_free),
        (network.messages_sent, network.bytes_sent, network.messages_dropped),
        [
            (time, sequence, tuple(place.get(id(arg), arg) for arg in args))
            for time, sequence, _, args in loop._heap
        ],
        network._rng.getstate(),
        None if tracer is None else list(tracer.events),
        list(delivered),
        loop.now,
    )


class TestFanOutOracle:
    @settings(max_examples=150, deadline=None)
    @given(network_programs())
    def test_fan_out_leaves_what_the_per_hop_sends_left(self, program):
        """After every call — broadcast, unicast, partition change, the
        loop running — the one-pass fan-out and the per-hop ``send``
        loop hold the same link queues, uplink and FIFO clocks, counters,
        heap entries, generator state, trace and deliveries."""
        setup, calls = program
        ours, oracle = build(SimNetwork, setup), build(PerHopNetwork, setup)
        for call in calls:
            for loop, network, _, _ in (ours, oracle):
                if call[0] == "run":
                    loop.run_until(loop.now + call[1])
                else:
                    getattr(network, call[0])(*call[1:])
            assert network_state(*ours) == network_state(*oracle), call
        for loop, *_ in (ours, oracle):
            loop.run_to_completion()
        assert network_state(*ours) == network_state(*oracle)

    def test_a_broadcast_is_one_call(self, monkeypatch):
        """What the traced harness counts under ``sim.network``: a
        broadcast no longer calls ``send`` once per peer."""
        loop, network, _ = make_network(n=6)
        sends = []
        monkeypatch.setattr(SimNetwork, "send", lambda *args: sends.append(args))
        network.broadcast(0, "x", size=10)
        assert sends == [] and network.messages_sent == 5
