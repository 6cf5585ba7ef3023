"""The five benchmark workloads.

Each workload is a class whose instance is **one unit** of fixed work:
``prepare()`` builds everything up to "ready to time", ``execute()``
contains the timed region, ``verify()`` checks the outputs outside it,
and ``cleanup()`` releases sockets and files.  Inputs derive from the
seed alone; the program under test only ever sees generated
transactions and configs.

Why these five, and which layers each stresses, is recorded in
``benchmarks/perf/README.md`` and ``BENCHMARK.json``.
"""

from __future__ import annotations

import asyncio
import hashlib
import heapq
import random
import shutil
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.committee import Committee, CommitteeSchedule
from repro.config import ProtocolConfig
from repro.crypto.coin import FastCoin
from repro.crypto.signing import NullSignatureScheme, generate_keys
from repro.dag.validation import BlockVerifier
from repro.runtime.node import ValidatorNode
from repro.runtime.transport import TcpTransport
from repro.sim.runner import Experiment, ExperimentConfig
from repro.transaction import Transaction

#: Runtime committee size (f = 1).
RT_VALIDATORS = 4
#: Real transaction size (the paper's 512 bytes).
TX_SIZE = 512
#: Transactions per client batch in the runtime workloads.
BATCH = 20


#: ``speed_probe()`` on the baseline machine in its fast state; simulator
#: times are reported as if the host ran the probe exactly this fast.
PROBE_REFERENCE_S = 0.025


class _ProbeNode:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: int) -> None:
        self.key = key
        self.weight = weight

    def step(self, table: dict, heap: list, i: int) -> None:
        key = (self.key + i) % 5003
        table[key] = table.get(key, 0) + self.weight
        heapq.heappush(heap, (key, i))
        if len(heap) > 64:
            heapq.heappop(heap)


def speed_probe(steps: int = 40_000) -> float:
    """Seconds the host takes for a fixed piece of interpreter work with
    the simulator's instruction mix (method calls, dict updates, a small
    heap) — how fast this host is *right now*."""
    start = time.perf_counter()
    table: dict = {}
    heap: list = []
    nodes = [_ProbeNode(i, 3 * i) for i in range(97)]
    for i in range(steps):
        nodes[i % 97].step(table, heap, i)
    return time.perf_counter() - start


def timed(work):
    """``(result, wall_s, cpu_s, speed)`` of one call of ``work``, the
    host's speed taken from a probe just before and one just after."""
    probe = speed_probe()
    cpu0, t0 = time.process_time(), time.perf_counter()
    result = work()
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    probe = (probe + speed_probe()) / 2.0
    return result, wall, cpu, PROBE_REFERENCE_S / probe


class IncorrectOutput(Exception):
    """The program's outputs failed a correctness check."""


@dataclass
class Unit:
    """What one timed repetition measured."""

    wall_s: float
    cpu_s: float
    attempted: int
    failed: int
    #: Host speed while the unit ran, as ``PROBE_REFERENCE_S`` over the
    #: probe's time just before and after it.  End-to-end times are
    #: multiplied by it, per-layer times are as measured.  1 where the
    #: times are set by timers, not by the processor (``rt-steady``).
    speed: float = 1.0
    #: Per-operation commit latencies (empty for the simulator: its
    #: transactions commit in virtual time).
    latencies_ms: list[float] = field(default_factory=list)
    #: Work counts the per-layer ratios are taken against.
    facts: dict[str, float] = field(default_factory=dict)
    #: Hash of the deterministic outputs ("" where timers make the
    #: outputs vary from run to run).
    fingerprint: str = ""


# ----------------------------------------------------------------------
# Simulator workloads
# ----------------------------------------------------------------------
class SimWorkload:
    """One ``Experiment.run`` of a fixed config (closed, fixed work)."""

    config: dict = {}

    def __init__(
        self, seed: int, scratch: Path, scale: float = 1.0, wal_sync: bool = False
    ) -> None:
        del scratch, wal_sync  # the simulator writes no files
        fields = dict(self.config)
        fields["duration"] *= scale
        fields["warmup"] *= scale
        self.full_size = scale >= 1.0
        self.experiment_config = ExperimentConfig(seed=seed, **fields)
        self.experiment: Experiment | None = None
        self.result = None

    def prepare(self) -> None:
        self.experiment = Experiment(self.experiment_config)

    def execute(self) -> Unit:
        result, wall, cpu, speed = timed(lambda: self.experiment.run(check_safety=False))
        self.result = result
        config = self.experiment_config
        offered = int(config.sim_tx_rate * config.duration)
        return Unit(
            wall_s=wall,
            cpu_s=cpu,
            attempted=offered,
            failed=0,
            speed=speed,
            facts={
                "events": result.events_processed,
                "virtual_s": config.duration,
                "messages": result.messages_sent,
                "sim_bytes": result.bytes_sent,
                "blocks": sum(node.core.total_proposed for node in self.experiment.nodes),
                "tx": offered,
                "real_tx": config.load_tps * config.duration,
                "uncommitted": result.pending_transactions / max(1, offered),
            },
            # ExperimentResult carries no host-time field, so its repr
            # is a function of the config alone.
            fingerprint=hashlib.sha256(repr(result).encode()).hexdigest()[:16],
        )

    def verify(self, unit: Unit) -> None:
        del unit
        self.experiment.assert_safety()
        # A run shrunk for the self-tests may end before the first commit.
        if self.full_size and self.result.blocks_committed == 0:
            raise IncorrectOutput(f"{self.name}: nothing committed")

    def cleanup(self) -> None:
        self.experiment = None


class SimMahiN50(SimWorkload):
    name = "sim-mahi-n50"
    config = dict(
        protocol="mahi-mahi-5", num_validators=50, load_tps=50_000, duration=2.0, warmup=0.4
    )


class SimMahiN10Faulty(SimWorkload):
    name = "sim-mahi-n10-faulty"
    config = dict(
        protocol="mahi-mahi-5",
        num_validators=10,
        num_crashed=2,
        num_recovering=1,
        recover_mode="checkpoint",
        gc_depth=64,
        checkpoint_interval=1,
        load_tps=50_000,
        duration=16.0,
        warmup=2.0,
    )

    def verify(self, unit: Unit) -> None:
        super().verify(unit)
        if self.full_size and self.result.checkpoint_adoptions < 1:
            raise IncorrectOutput(f"{self.name}: the restarted validator adopted no checkpoint")


class SimTuskN10(SimWorkload):
    name = "sim-tusk-n10"
    config = dict(protocol="tusk", num_validators=10, load_tps=50_000, duration=20.0, warmup=2.0)


# ----------------------------------------------------------------------
# Runtime workloads
# ----------------------------------------------------------------------
def free_addresses(count: int) -> dict[int, tuple[str, int]]:
    """Localhost ports the kernel just handed out (bind-to-0), so
    parallel checkouts and the repo's fixed-port tests never clash."""
    sockets = [socket.socket() for _ in range(count)]
    try:
        for sock in sockets:
            sock.bind(("127.0.0.1", 0))
        return {i: ("127.0.0.1", sock.getsockname()[1]) for i, sock in enumerate(sockets)}
    finally:
        for sock in sockets:
            sock.close()


class RtWorkload:
    """Four validators on one asyncio loop over real localhost TCP,
    each with a WAL, no injected network delay (latency is processor and
    timer time; WAN delay is the simulator's job).

    ``wal_sync`` is on in the traced run only.  The WALs must live in
    the checkout, on a disk this sandbox shares: its fsync time moves
    several-fold with what else is being written back (a copy of the
    repository is enough), so a timed region that waits for it measures
    the disk, not the program.  Untraced runs append and flush every
    record but do not wait for the disk; the traced run counts the
    fsyncs and times them as ``runtime.wal.fsync_s``.

    Built from the public constructors, the way
    ``repro.runtime.process_cluster`` builds a validator, because
    ``LocalCluster`` has no ``wal_sync`` parameter.
    """

    min_block_interval = 0.0
    max_block_transactions = 10_000

    def __init__(
        self, seed: int, scratch: Path, scale: float = 1.0, wal_sync: bool = False
    ) -> None:
        self.seed = seed
        self.scale = scale
        self.wal_dir = scratch
        self.wal_sync = wal_sync
        self.nodes: list[ValidatorNode] = []
        rng = random.Random(seed)
        self._payload = rng.randbytes(TX_SIZE - Transaction(0).size)
        self._next_id = rng.randrange(1 << 32) << 20

    def make_batch(self, count: int = BATCH) -> list[Transaction]:
        first = self._next_id
        self._next_id += count
        return [Transaction(tx_id=first + i, payload=self._payload) for i in range(count)]

    def prepare(self) -> None:
        n = RT_VALIDATORS
        self.wal_dir.mkdir(parents=True, exist_ok=True)
        scheme = NullSignatureScheme()
        keys = generate_keys(scheme, n, seed=b"perf-%d" % self.seed)
        committee = Committee.of_size(n, public_keys=[k.public_key for k in keys])
        coin = FastCoin(
            seed=b"perf-coin-%d" % self.seed, n=n, threshold=committee.quorum_threshold
        )
        config = ProtocolConfig(
            wave_length=5,
            leaders_per_round=2,
            max_block_transactions=self.max_block_transactions,
        )
        addresses = free_addresses(n)
        self.nodes = [
            ValidatorNode(
                i,
                CommitteeSchedule(committee, provisioned=n),
                config,
                coin,
                TcpTransport(i, addresses),
                wal_path=self.wal_dir / f"validator-{i}.wal",
                wal_sync=self.wal_sync,
                verifier=BlockVerifier(committee, scheme, coin),
                sign=lambda data, _k=keys[i].private_key: scheme.sign(_k, data),
                min_block_interval=self.min_block_interval,
            )
            for i in range(n)
        ]

    def execute(self) -> Unit:
        return asyncio.run(self._execute())

    async def _execute(self) -> Unit:
        raise NotImplementedError

    async def _start(self) -> None:
        self._started_at = time.perf_counter()
        await asyncio.gather(*(node.start() for node in self.nodes))

    async def _stop(self) -> None:
        self._ran_s = time.perf_counter() - self._started_at
        await asyncio.gather(*(node.stop() for node in self.nodes))

    def facts(self, tx: int) -> dict[str, float]:
        """Work counts from the nodes' public state and metrics."""
        snapshots = [node.metrics.snapshot() for node in self.nodes]
        return {
            "tx": tx,
            "elapsed_s": self._ran_s,
            "blocks": sum(node.core.total_proposed for node in self.nodes),
            "rounds": self.nodes[0].core.round,
            "frames": sum(s["transport_frames_sent"] for s in snapshots),
            "net_bytes": sum(s["transport_bytes_sent"] for s in snapshots),
            "fetches": sum(node.synchronizer.requests_sent for node in self.nodes),
            "wal_bytes": sum(p.stat().st_size for p in self.wal_dir.glob("*.wal")),
        }

    def verify(self, unit: Unit) -> None:
        """Theorem 1 across the four validators: byte-identical
        committed-digest prefixes, and each sequence gap-free (every
        position the committer counted is present, none twice)."""
        sequences = [[block.digest for block in node.committed_blocks] for node in self.nodes]
        reference = max(sequences, key=len)
        for node, sequence in zip(self.nodes, sequences):
            if sequence != reference[: len(sequence)]:
                raise IncorrectOutput(f"{self.name}: validator {node.authority} diverged")
            if len(sequence) != node.core.committer.committed_sequence_length:
                raise IncorrectOutput(f"{self.name}: validator {node.authority} has a gap")
            if len(set(sequence)) != len(sequence):
                raise IncorrectOutput(f"{self.name}: validator {node.authority} repeats a block")

    def cleanup(self) -> None:
        self.nodes = []
        shutil.rmtree(self.wal_dir, ignore_errors=True)


class RtSteady(RtWorkload):
    """Open loop at a fixed rate; latency from each batch's *due* time.

    A unit is a fresh cluster, a short warm-up and a short window:
    several short windows on young clusters repeat far better than one
    long one, whose tail is set by how many full garbage collections of
    the ever-growing committed history happen to fall inside it.  Each
    cluster also settles into its own round rhythm (18.7 to 22.8 rounds
    a second, depending on whether one validator keeps skipping
    rounds), which moves its median latency by up to a fifth, so a run
    takes the median over as many clusters as fit.
    """

    name = "rt-steady"
    min_block_interval = 0.05
    rate_tps = 4_000
    warmup_s = 0.5
    window_s = 2.0
    #: A batch not committed this long after the window's end has failed.
    grace_s = 3.0

    async def _execute(self) -> Unit:
        window = self.window_s * self.scale
        warmup = self.warmup_s * self.scale
        period = BATCH / self.rate_tps
        first_measured = round(warmup / period)
        total = first_measured + round(window / period)
        due: dict[int, float] = {}  # first tx id of a batch -> due time
        committed: dict[int, float] = {}
        late: list[float] = []
        clock = time.perf_counter

        async def observe() -> None:
            commits = self.nodes[0].commits
            while True:
                observation = await commits.get()
                now = clock()
                for block in observation.linearized:
                    for tx in block.transactions:
                        if tx.tx_id in due:
                            committed.setdefault(tx.tx_id, now)

        await self._start()
        observer = asyncio.create_task(observe())
        try:
            start = clock() + 0.05
            target = self.seed % RT_VALIDATORS
            cpu0 = 0.0
            for k in range(total):
                at = start + k * period
                delay = at - clock()
                if delay > 0:
                    await asyncio.sleep(delay)
                if k == first_measured:
                    cpu0 = time.process_time()
                batch = self.make_batch()
                if k >= first_measured:
                    due[batch[0].tx_id] = at
                    late.append(clock() - at)
                node = self.nodes[(target + k) % RT_VALIDATORS]
                for tx in batch:
                    node.submit_transaction(tx)
            window_end = start + total * period
            await asyncio.sleep(max(0.0, window_end - clock()))
            cpu = time.process_time() - cpu0
            deadline = window_end + self.grace_s
            while len(committed) < len(due) and clock() < deadline:
                await asyncio.sleep(0.01)
        finally:
            observer.cancel()
            await asyncio.gather(observer, return_exceptions=True)
            await self._stop()
        measured_start = start + first_measured * period
        latencies = [(committed[tx] - at) * 1e3 for tx, at in due.items() if tx in committed]
        facts = self.facts(total * BATCH)
        facts["late_ms"] = sorted(late)[int(0.99 * (len(late) - 1))] * 1e3
        facts["window_s"] = window_end - measured_start
        return Unit(
            wall_s=max(committed.values(), default=deadline) - measured_start,
            cpu_s=cpu,
            attempted=len(due) * BATCH,
            failed=(len(due) - len(committed)) * BATCH,
            latencies_ms=latencies,
            facts=facts,
        )


class RtDrain(RtWorkload):
    """Closed: a pre-submitted backlog, timed from ``start()`` until
    every validator has committed all of it."""

    name = "rt-drain"
    max_block_transactions = 500
    per_validator = 6_000
    timeout_s = 60.0

    def prepare(self) -> None:
        super().prepare()
        self.submitted: set[int] = set()
        for node in self.nodes:
            for _ in range(max(1, round(self.per_validator * self.scale / BATCH))):
                for tx in self.make_batch():
                    node.submit_transaction(tx)
                    self.submitted.add(tx.tx_id)

    def execute(self) -> Unit:
        # The drain is processor-bound, so its times scale with the
        # host's speed like the simulator's.
        unit, _, _, speed = timed(super().execute)
        unit.speed = speed
        return unit

    async def _execute(self) -> Unit:
        total = len(self.submitted)
        seen = [0] * RT_VALIDATORS
        latencies: list[float] = []
        clock = time.perf_counter
        drained = asyncio.Event()

        async def observe(index: int) -> None:
            commits = self.nodes[index].commits
            while True:
                observation = await commits.get()
                count = sum(len(block.transactions) for block in observation.linearized)
                seen[index] += count
                if index == 0 and count:
                    latencies.extend([(clock() - t0) * 1e3] * count)
                if min(seen) >= total:
                    drained.set()

        cpu0, t0 = time.process_time(), clock()
        await self._start()
        observers = [asyncio.create_task(observe(i)) for i in range(RT_VALIDATORS)]
        try:
            try:
                await asyncio.wait_for(drained.wait(), self.timeout_s)
            except asyncio.TimeoutError:
                pass  # reported through ``failed``
            wall, cpu = clock() - t0, time.process_time() - cpu0
        finally:
            for task in observers:
                task.cancel()
            await asyncio.gather(*observers, return_exceptions=True)
            await self._stop()
        return Unit(
            wall_s=wall,
            cpu_s=cpu,
            attempted=total,
            failed=total - min(min(seen), total),
            latencies_ms=latencies,
            facts=self.facts(total),
        )

    def verify(self, unit: Unit) -> None:
        super().verify(unit)
        if unit.failed:
            return  # a timeout, reported through ``failed``
        for node in self.nodes:
            ids = [tx.tx_id for block in node.committed_blocks for tx in block.transactions]
            if len(ids) != len(self.submitted) or set(ids) != self.submitted:
                raise IncorrectOutput(
                    f"{self.name}: validator {node.authority} did not commit each "
                    "submitted transaction exactly once"
                )


WORKLOADS = {
    cls.name: cls for cls in (SimMahiN50, SimMahiN10Faulty, SimTuskN10, RtSteady, RtDrain)
}
