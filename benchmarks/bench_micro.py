"""Implementation-level micro-benchmarks (Section 4's components):
hashing, signatures, the threshold coin, block codec, the WAL — and the
simulator's event loop, whose drain rate bounds every sweep's wall time
(events/sec is reported before/after the hot-path optimizations so the
speedup is a recorded number)."""

from __future__ import annotations

import heapq
import time


from repro.block import Block, make_genesis
from repro.crypto.coin import FastCoin, ThresholdCoin
from repro.crypto.hashing import hash_bytes
from repro.crypto.schnorr import SchnorrSignatureScheme
from repro.crypto.signing import NullSignatureScheme
from repro.runtime.wal import RECORD_PEER_BLOCK, WriteAheadLog
from repro.sim.events import EventLoop
from repro.sim.runner import Experiment, ExperimentConfig
from repro.transaction import Transaction

from .paper_data import Row, print_table


def sample_block(num_txs=64):
    genesis = make_genesis(10)
    return Block(
        author=1,
        round=1,
        parents=tuple(b.reference for b in genesis),
        transactions=tuple(Transaction.dummy(i) for i in range(num_txs)),
        signature=b"\x00" * 32,
    )


class TestHashing:
    def test_blake2b_512B(self, benchmark):
        data = b"\xab" * 512
        benchmark(hash_bytes, data)

    def test_block_digest(self, benchmark):
        def digest():
            block, _ = Block.decode(ENCODED)
            return block.digest

        ENCODED = sample_block().encode()
        assert len(benchmark(digest)) == 32


class TestSignatures:
    def test_null_sign(self, benchmark):
        scheme = NullSignatureScheme()
        keys = scheme.generate(b"bench")
        benchmark(scheme.sign, keys.private_key, b"message" * 16)

    def test_null_verify(self, benchmark):
        scheme = NullSignatureScheme()
        keys = scheme.generate(b"bench")
        signature = scheme.sign(keys.private_key, b"message")
        assert benchmark(scheme.verify, keys.public_key, b"message", signature)

    def test_schnorr_sign(self, benchmark):
        scheme = SchnorrSignatureScheme()
        keys = scheme.generate(b"bench")
        benchmark(scheme.sign, keys.private_key, b"message" * 16)

    def test_schnorr_verify(self, benchmark):
        scheme = SchnorrSignatureScheme()
        keys = scheme.generate(b"bench")
        signature = scheme.sign(keys.private_key, b"message")
        assert benchmark(scheme.verify, keys.public_key, b"message", signature)


class TestCoin:
    def test_fast_coin_reconstruct(self, benchmark):
        coin = FastCoin(seed=b"bench", n=10, threshold=7)
        shares = [coin.share(i, 5) for i in range(7)]
        benchmark(coin.reconstruct, 5, shares)

    def test_threshold_coin_share(self, benchmark):
        coins = ThresholdCoin.deal(n=4, threshold=3, seed=1)
        benchmark(coins[0].share, 0, 5)

    def test_threshold_coin_reconstruct(self, benchmark):
        coins = ThresholdCoin.deal(n=4, threshold=3, seed=1)
        shares = [coins[i].share(i, 5) for i in range(3)]
        benchmark(coins[0].reconstruct, 5, shares)


class TestCodec:
    def test_block_encode(self, benchmark):
        block = sample_block()
        benchmark(block.encode)

    def test_block_decode(self, benchmark):
        encoded = sample_block().encode()
        block, _ = benchmark(Block.decode, encoded)
        assert block.round == 1


class _BaselineEventLoop:
    """The seed repo's event loop, verbatim — kept as the *before* side
    of the events/sec comparison.  Functionally identical to
    :class:`repro.sim.events.EventLoop`; the optimized version adds
    ``__slots__`` and binds the heap/counter to locals in the drain
    loop instead of resolving ``self.*`` per event."""

    def __init__(self):
        self._now = 0.0
        self._sequence = 0
        self._heap = []
        self._events_processed = 0

    @property
    def now(self):
        return self._now

    @property
    def events_processed(self):
        return self._events_processed

    def schedule(self, delay, callback, *args):
        heapq.heappush(self._heap, (self._now + delay, self._sequence, callback, args))
        self._sequence += 1

    def run_to_completion(self, *, max_events=10_000_000):
        while self._heap:
            if self._events_processed >= max_events:
                raise RuntimeError(f"event budget exhausted ({max_events} events)")
            when, _, callback, args = heapq.heappop(self._heap)
            self._now = when
            self._events_processed += 1
            callback(*args)


def _drive_loop(loop, total=200_000, width=64):
    """A sim-shaped workload: ``width`` concurrent timer chains, each
    event scheduling its successor (like message hops and CPU stages).
    Returns events/sec."""

    def tick(i):
        if i < total:
            loop.schedule(0.001, tick, i + width)

    for i in range(width):
        loop.schedule(0.0, tick, i)
    started = time.perf_counter()
    loop.run_to_completion()
    return loop.events_processed / (time.perf_counter() - started)


class TestEventLoop:
    def test_schedule_pop_cycle(self, benchmark):
        loop = EventLoop()

        def cycle():
            for i in range(100):
                loop.schedule(i * 1e-4, int)
            loop.run_to_completion()

        benchmark(cycle)

    def test_events_per_second_vs_baseline(self, benchmark):
        """The recorded speedup: optimized loop vs the seed loop on the
        same timer-chain workload (best of 3 each, interleaved)."""
        baseline = max(_drive_loop(_BaselineEventLoop()) for _ in range(3))
        optimized = max(_drive_loop(EventLoop()) for _ in range(3))
        print_table(
            "Event-loop drain rate (200k events, 64 timer chains)",
            [
                Row(
                    label="baseline (seed) loop",
                    paper="-",
                    measured=f"{baseline:,.0f} events/s",
                ),
                Row(
                    label="optimized loop",
                    paper="faster than baseline",
                    measured=f"{optimized:,.0f} events/s ({optimized / baseline:.2f}x)",
                ),
            ],
        )
        benchmark.extra_info["baseline_events_per_s"] = baseline
        benchmark.extra_info["optimized_events_per_s"] = optimized
        benchmark.extra_info["speedup"] = optimized / baseline
        benchmark.pedantic(_drive_loop, args=(EventLoop(),), rounds=1, iterations=1)
        # Loose bound: the point is recording the number, not flaking CI.
        assert optimized > baseline * 0.9

    def test_end_to_end_sim_events_per_second(self, benchmark):
        """Whole-simulator drain rate: one smoke-size experiment,
        events/sec across network, CPU stages and clients."""
        config = ExperimentConfig(
            protocol="mahi-mahi-5",
            num_validators=10,
            load_tps=2_000,
            duration=4.0,
            warmup=1.0,
            seed=3,
        )

        def run():
            experiment = Experiment(config)
            started = time.perf_counter()
            result = experiment.run()
            elapsed = time.perf_counter() - started
            return result.events_processed / elapsed

        rate = benchmark.pedantic(run, rounds=1, iterations=1)
        print_table(
            "End-to-end simulator drain rate",
            [Row(label="mahi-mahi-5, n=10, 2k tx/s", paper="-", measured=f"{rate:,.0f} events/s")],
        )
        benchmark.extra_info["sim_events_per_s"] = rate


class TestTracing:
    """The observability before/after pin: a disabled tracer must cost
    attribute-check money, not event-recording money.  Every hot-path
    site is guarded by ``if tracer.enabled:``, so the disabled
    experiment should drain within noise of the recording one's rate
    plus the recording work it skips."""

    CONFIG = dict(
        protocol="mahi-mahi-5",
        num_validators=10,
        load_tps=2_000,
        duration=4.0,
        warmup=1.0,
        seed=3,
    )

    @classmethod
    def _drain_rate(cls, trace):
        experiment = Experiment(ExperimentConfig(trace=trace, **cls.CONFIG))
        started = time.perf_counter()
        result = experiment.run()
        elapsed = time.perf_counter() - started
        return result.events_processed / elapsed

    def test_null_tracer_guard_cost(self, benchmark):
        """The per-site cost when tracing is off: one attribute check
        against the class-level ``enabled = False``."""
        from repro.obs.trace import NULL_TRACER

        tracer = NULL_TRACER

        def guarded(n=100_000):
            hits = 0
            for _ in range(n):
                if tracer.enabled:
                    hits += 1
            return hits

        assert benchmark(guarded) == 0

    def test_sim_drain_rate_disabled_vs_enabled(self, benchmark):
        disabled = max(self._drain_rate(False) for _ in range(2))
        enabled = max(self._drain_rate(True) for _ in range(2))
        print_table(
            "Lifecycle tracing overhead (mahi-mahi-5, n=10, 2k tx/s)",
            [
                Row(
                    label="tracing disabled (default)",
                    paper="near-zero overhead",
                    measured=f"{disabled:,.0f} events/s",
                ),
                Row(
                    label="tracing enabled (--trace)",
                    paper="-",
                    measured=f"{enabled:,.0f} events/s "
                    f"({disabled / enabled:.2f}x slower when on)",
                ),
            ],
        )
        benchmark.extra_info["disabled_events_per_s"] = disabled
        benchmark.extra_info["enabled_events_per_s"] = enabled
        benchmark.extra_info["enabled_overhead_x"] = disabled / enabled
        benchmark.pedantic(self._drain_rate, args=(False,), rounds=1, iterations=1)
        # Loose bound: the disabled path pays only the guard, so it must
        # not drain slower than the recording path beyond noise.
        assert disabled > enabled * 0.9


class _PerMessageNetwork:
    """The pre-batching delivery path, kept as the *before* side of the
    comparison: every message schedules its own event-loop entry (the
    per-message ``schedule_at`` chain the ROADMAP named as the remaining
    profiler peak).  Wire/latency arithmetic matches
    :class:`repro.sim.network.SimNetwork`."""

    def __init__(self, loop, latency, num_validators, seed=0):
        import random

        from repro.sim.network import NetworkConfig

        self._loop = loop
        self._config = NetworkConfig()
        self._rng = random.Random(repr(("network", seed)))
        self._sample_delay = latency.make_sampler(self._rng)
        self._handlers = {}
        self._egress_free = [0.0] * num_validators
        self._last_delivery = {}
        self._n = num_validators

    def register(self, validator, handler):
        self._handlers[validator] = handler

    def send(self, src, dst, kind, payload, size):
        from repro.sim.network import Message

        message = Message(src=src, dst=dst, kind=kind, payload=payload, size=size)
        wire_size = size + self._config.message_overhead
        now = self._loop.now
        start = max(self._egress_free[src], now)
        egress_done = start + wire_size / self._config.bandwidth
        self._egress_free[src] = egress_done
        arrival = egress_done + self._sample_delay(src, dst)
        link = (src, dst)
        last = self._last_delivery.get(link, 0.0) + 1e-9
        if last > arrival:
            arrival = last
        self._last_delivery[link] = arrival
        self._loop.schedule_at(arrival, self._deliver, message)

    def broadcast(self, src, kind, payload, size):
        for dst in range(self._n):
            if dst != src:
                self.send(src, dst, kind, payload, size)

    def _deliver(self, message):
        handler = self._handlers.get(message.dst)
        if handler is not None:
            handler(message)


class TestNetworkDelivery:
    """Batched per-link delivery (one armed flush event per link) vs the
    per-message scheduling chain it replaced."""

    N = 10
    BROADCASTS = 400

    def _drive(self, network_cls):
        from repro.sim.latency import UniformLatencyModel
        from repro.sim.network import NetworkConfig, SimNetwork

        loop = EventLoop()
        latency = UniformLatencyModel(0.05)
        if network_cls is SimNetwork:
            network = SimNetwork(
                loop, latency, self.N, config=NetworkConfig(), seed=1
            )
        else:
            network = network_cls(loop, latency, self.N, seed=1)
        received = [0]

        def on_message(message):
            received[0] += 1

        for validator in range(self.N):
            network.register(validator, on_message)
        started = time.perf_counter()
        # Burst shape: every validator broadcasts repeatedly, so each
        # link accumulates several in-flight messages — the case the
        # per-link batching collapses.
        for round_number in range(self.BROADCASTS):
            src = round_number % self.N
            network.broadcast(src, "block", None, 4096)
        loop.run_to_completion()
        elapsed = time.perf_counter() - started
        expected = self.BROADCASTS * (self.N - 1)
        assert received[0] == expected
        return loop.events_processed, expected / elapsed

    def test_batched_delivery_vs_per_message(self, benchmark):
        from repro.sim.network import SimNetwork

        baseline_events, baseline_rate = self._drive(_PerMessageNetwork)
        batched_events, batched_rate = self._drive(SimNetwork)
        print_table(
            f"Network delivery ({self.BROADCASTS} broadcasts, n={self.N})",
            [
                Row(
                    label="per-message schedule_at (seed)",
                    paper="-",
                    measured=f"{baseline_events:,} loop events, "
                    f"{baseline_rate:,.0f} msgs/s",
                ),
                Row(
                    label="batched per (src, dst) link",
                    paper="fewer loop events",
                    measured=f"{batched_events:,} loop events "
                    f"({baseline_events / batched_events:.1f}x fewer), "
                    f"{batched_rate:,.0f} msgs/s",
                ),
            ],
        )
        benchmark.extra_info["per_message_events"] = baseline_events
        benchmark.extra_info["batched_events"] = batched_events
        benchmark.extra_info["event_reduction"] = baseline_events / batched_events
        benchmark.pedantic(self._drive, args=(SimNetwork,), rounds=1, iterations=1)
        # The point of the batching: strictly fewer event-loop entries
        # for the same delivered messages.
        assert batched_events < baseline_events


class TestWireSizes:
    """The block wire-size memoization (ROADMAP profiler peak): a
    block's simulated size is asked for once per recipient per
    broadcast and once per fetch served, but computed once."""

    @staticmethod
    def _make_validator():
        from repro.committee import Committee
        from repro.config import ProtocolConfig
        from repro.core.protocol import MahiMahiCore
        from repro.sim.events import EventLoop
        from repro.sim.latency import UniformLatencyModel
        from repro.sim.network import SimNetwork
        from repro.sim.node import SimValidator

        committee = Committee.of_size(4)
        coin = FastCoin(seed=b"wire", n=4, threshold=committee.quorum_threshold)
        loop = EventLoop()
        network = SimNetwork(loop, UniformLatencyModel(0.05), 4, seed=1)
        core = MahiMahiCore(0, committee, ProtocolConfig(), coin)
        return SimValidator(core, network, loop, mixed_tx_sizes=True)

    def test_block_wire_size_memoized(self, benchmark):
        node = self._make_validator()
        block = Block(
            author=1,
            round=1,
            parents=tuple(b.reference for b in make_genesis(10)),
            transactions=tuple(
                Transaction(tx_id=i, size_hint=128 if i % 2 else 4096) for i in range(256)
            ),
        )

        def uncached():
            block.__dict__.pop("_sim_wire_size", None)
            return node._block_wire_size(block)

        cold = benchmark.pedantic(uncached, rounds=200, iterations=1)

        def run_memoized():
            for _ in range(1000):
                node._block_wire_size(block)

        started = time.perf_counter()
        run_memoized()
        per_hit = (time.perf_counter() - started) / 1000
        started = time.perf_counter()
        for _ in range(200):
            uncached()
        per_miss = (time.perf_counter() - started) / 200
        print_table(
            "Block wire-size accounting (256 mixed-size txs)",
            [
                Row(
                    label="recompute per send (seed)",
                    paper="-",
                    measured=f"{per_miss * 1e6:.2f} us",
                ),
                Row(
                    label="memoized on block",
                    paper="cheaper than recompute",
                    measured=f"{per_hit * 1e6:.3f} us ({per_miss / max(per_hit, 1e-12):.0f}x)",
                ),
            ],
        )
        benchmark.extra_info["recompute_us"] = per_miss * 1e6
        benchmark.extra_info["memoized_us"] = per_hit * 1e6
        assert cold == node._block_wire_size(block)
        assert per_hit < per_miss


class TestWal:
    def test_append(self, benchmark, tmp_path):
        payload = sample_block().encode()
        with WriteAheadLog(tmp_path / "bench.wal") as wal:
            benchmark(wal.append, RECORD_PEER_BLOCK, payload)

    def test_recover_1000_blocks(self, benchmark, tmp_path):
        path = tmp_path / "recover.wal"
        payload = sample_block().encode()
        with WriteAheadLog(path) as wal:
            for _ in range(1000):
                wal.append(RECORD_PEER_BLOCK, payload)
        records = benchmark(lambda: list(WriteAheadLog.read_records(path)))
        assert len(records) == 1000
