"""Differential tests: one scripted scenario, two fabrics, one driver.

*Recovery* — crash, let the committee run ahead, restart in each of the
three modes (cold, warm, checkpoint), sync in small chunks, propose
again — runs through the simulator's :class:`SimValidator` and through
the runtime's :class:`ValidatorNode` over the in-memory transport.  Both
are adaptors of one :class:`ValidatorDriver` and restart through its one
restart sequence, so the restarted validator must walk the same ordered
sequence of driver transitions on both, from the restart on (observed
through the shared trace instants; the *number* of chunks depends on
each fabric's timing, the order of transitions does not).

*Steady state* — four validators paced so that every block of a round
is in before the next proposal (the runtime's on a virtual clock that
jumps only while its loop is idle, so host load cannot break the
pacing) build the same DAG on both fabrics: the
same step must then emit the same lifecycle instants per own round and
commit the same blocks.  A block with a bad signature is dropped, and
counted, by both, and peer blocks that an own proposal connects are
logged and traced by both.

*Messages* — one scripted trace of inbound messages (every type of the
vocabulary, through a whole checkpoint recovery) is fed to one validator
on each fabric; what it sends in return, in order, is the same.

*Fetching* — a sender that cannot serve draws the same retry sequence
(sender, author, rotation) from both, and both give up on a reference
nobody can hold once the garbage-collection horizon has passed it.
"""

import asyncio
import selectors
import time
from types import SimpleNamespace

import pytest

from repro.block import Block
from repro.committee import Committee
from repro.config import ProtocolConfig
from repro.core.protocol import MahiMahiCore
from repro.crypto.coin import FastCoin
from repro.crypto.signing import NullSignatureScheme, generate_keys
from repro.dag.validation import BlockVerifier
from repro.messages import (
    BlockMessage,
    CheckpointRequest,
    CheckpointResponse,
    FetchRequest,
    FetchResponse,
    SyncRequest,
    SyncResponse,
    decode_message,
    encode_message,
)
from repro.obs.trace import (
    BLOCK_PROPOSED,
    BLOCK_RECEIVED,
    SYNC_TRANSITIONS,
    TX_COMMITTED,
    TX_INCLUDED,
    WAVE_DECIDED,
    Tracer,
)
from repro.runtime import node as node_module
from repro.runtime.node import ValidatorNode
from repro.runtime.transport import MemoryHub, MemoryTransport
from repro.runtime.wal import WriteAheadLog
from repro.sim.events import EventLoop
from repro.sim.latency import UniformLatencyModel
from repro.sim.network import Message, SimNetwork
from repro.sim.node import SimValidator
from repro.statesync import RECOVER_MODES
from repro.statesync import driver as driver_module
from repro.statesync import replay_wal
from repro.statesync import synchronizer as synchronizer_module
from repro.transaction import Transaction
from tests.runtime.test_node_recovery import RecordingTransport
from tests.statesync.test_checkpoint import make_core
from tests.statesync.test_driver import history, peer_blocks, suffix, trio_history

N = 4
VICTIM = 3
#: Four rounds per deep-fetch chunk: the suffix above the adopted floor
#: (the checkpoint lag, 16 rounds) takes several.
CHUNK = 16

COMMITTEE = Committee.of_size(N)
COIN = FastCoin(seed=b"differential", n=N, threshold=COMMITTEE.quorum_threshold)
CONFIG = ProtocolConfig(wave_length=5, leaders_per_round=2, checkpoint_interval_rounds=4)

#: The driver transitions of a restart, per recovery mode.
EXPECTED = {
    mode: [
        ("recovery_started", mode),
        *([("checkpoint_adopted", None)] if mode == "checkpoint" else []),
        ("sync_requested", None),
        ("sync_finished", mode),
        (BLOCK_PROPOSED, None),
    ]
    for mode in RECOVER_MODES
}


def transitions(tracer, since):
    """The victim's driver transitions from its restart (the tracer's
    event ``since``) to its first proposal, with runs of one transition
    collapsed; also how many chunks it asked for."""
    sequence = []
    chunks = 0
    for event in tracer.events[since:]:
        if event.validator != VICTIM:
            continue
        if event.name not in SYNC_TRANSITIONS and event.name != BLOCK_PROPOSED:
            continue
        chunks += event.name == "sync_requested"
        step = (event.name, (event.args or {}).get("mode"))
        if not sequence or sequence[-1] != step:
            sequence.append(step)
        if event.name == BLOCK_PROPOSED:
            break
    return sequence, chunks


def run_simulator(mode, wal_path):
    """The recovery scenario on the simulator: ``(tracer, restarted
    validator, tracer event at its restart)``."""
    loop = EventLoop()
    network = SimNetwork(loop, UniformLatencyModel(0.02), N, seed=1)
    tracer = Tracer()
    wal = WriteAheadLog(wal_path)

    def core(i):
        return MahiMahiCore(i, COMMITTEE, CONFIG, COIN)

    nodes = [
        SimValidator(
            core(i),
            network,
            loop,
            min_block_interval=0.05,
            core_factory=lambda i=i: core(i),
            recover_mode=mode,
            wal=wal if i == VICTIM else None,
            sync_chunk_blocks=CHUNK,
            tracer=tracer,
        )
        for i in range(N)
    ]
    nodes[0].submit(Transaction.dummy(1))
    for node in nodes:
        node.start()
    loop.schedule_at(2.0, nodes[VICTIM].crash)
    restarted_at = []

    def restart():
        restarted_at.append(len(tracer.events))
        nodes[VICTIM].recover()
        nodes[VICTIM].start()

    loop.schedule_at(5.0, restart)
    loop.run_until(8.0)
    nodes[VICTIM].close()
    assert nodes[VICTIM].core.total_proposed > 0
    return tracer, nodes[VICTIM], restarted_at[0]


async def run_runtime(mode, wal_path):
    """The same on the runtime: its genesis nodes boot with a plain
    ``start()``, the new incarnation with ``recover()`` first."""
    hub = MemoryHub()
    tracer = Tracer()

    def make(i):
        return ValidatorNode(
            i,
            COMMITTEE,
            CONFIG,
            COIN,
            MemoryTransport(i, hub),
            wal_path=wal_path if i == VICTIM else None,
            min_block_interval=0.02,
            recover_mode=mode,
            sync_chunk_blocks=CHUNK,
            tracer=tracer,
        )

    async def until(condition):
        while not condition():
            await asyncio.sleep(0.01)

    nodes = [make(i) for i in range(N)]
    await asyncio.gather(*(node.start() for node in nodes))
    try:
        nodes[0].submit_transaction(Transaction.dummy(1))
        await until(lambda: nodes[0].core.round > 30)
        await nodes[VICTIM].stop()
        crashed_at = nodes[0].core.round
        await until(lambda: nodes[0].core.round > crashed_at + 40)
        restarted_at = len(tracer.events)
        nodes[VICTIM] = make(VICTIM)
        nodes[VICTIM].recover()
        await nodes[VICTIM].start()
        await until(lambda: nodes[VICTIM].recovery_time is not None)
    finally:
        await asyncio.gather(*(node.stop() for node in nodes))
    return tracer, nodes[VICTIM], restarted_at


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per recovery mode, run on first use: ``(tracer, restarted
    validator, tracer event at its restart)`` per fabric, simulator
    first."""
    done = {}

    def run(mode):
        if mode not in done:
            directory = tmp_path_factory.mktemp(f"recovery-{mode}")
            done[mode] = (
                run_simulator(mode, directory / "sim.wal"),
                asyncio.run(asyncio.wait_for(run_runtime(mode, directory / "rt.wal"), 60)),
            )
        return done[mode]

    return run


@pytest.mark.parametrize("mode", RECOVER_MODES)
def test_both_fabrics_walk_the_same_recovery_transitions(runs, mode):
    (sim_tracer, sim_node, sim_since), (rt_tracer, rt_node, rt_since) = runs(mode)
    sim_sequence, sim_chunks = transitions(sim_tracer, sim_since)
    rt_sequence, rt_chunks = transitions(rt_tracer, rt_since)
    assert sim_sequence == rt_sequence == EXPECTED[mode]
    # Both really synced chunk by chunk.
    assert sim_chunks >= 2 and rt_chunks >= 2

    adoptions = int(mode == "checkpoint")
    assert sim_node.checkpoint_adoptions == rt_node.checkpoint_adoptions == adoptions
    assert not sim_node.syncing and not rt_node.syncing
    assert rt_node.recovery_error is None


def test_proposal_instants_share_one_track(runs):
    """``tx_included`` rides the ``consensus`` track next to its block's
    ``block_proposed`` on both fabrics (the runtime used to file it
    under ``ingress``)."""
    for tracer, _, _ in runs("checkpoint"):
        proposal = [e for e in tracer.events if e.name in (TX_INCLUDED, BLOCK_PROPOSED)]
        assert {e.name for e in proposal} == {TX_INCLUDED, BLOCK_PROPOSED}
        assert {e.subsystem for e in proposal} == {"consensus"}


# ----------------------------------------------------------------------
# Steady state
# ----------------------------------------------------------------------
#: Own rounds compared (the runtime leg spans ``ROUNDS * PACE`` seconds
#: of its virtual clock).
ROUNDS = 24
#: Runtime pacing: every block of a round is in before the next proposal
#: is due, so each proposal names all four — the simulator's lockstep DAG.
PACE = 0.05
STEP_STAGES = (BLOCK_PROPOSED, TX_INCLUDED, WAVE_DECIDED, TX_COMMITTED)


def stages_by_own_round(tracer, validator=0):
    """Validator 0's step instants, one list per own round: each opens
    with the round's ``block_proposed``."""
    rounds = []
    for event in tracer.events:
        if event.validator != validator or event.name not in STEP_STAGES:
            continue
        if event.name == BLOCK_PROPOSED:
            rounds.append([])
        rounds[-1].append(event.name)
    return rounds


def run_steady_simulator():
    loop = EventLoop()
    network = SimNetwork(loop, UniformLatencyModel(0.02), N, seed=1)
    tracer = Tracer()
    commits = []

    def observe(node, observations, now):
        if node.authority == 0:
            commits.extend(b.digest for o in observations for b in o.linearized)

    nodes = [
        SimValidator(
            MahiMahiCore(i, COMMITTEE, CONFIG, COIN),
            network,
            loop,
            min_block_interval=0.05,
            tracer=tracer,
            on_commit=observe,
        )
        for i in range(N)
    ]
    nodes[0].submit(Transaction.dummy(1))
    for node in nodes:
        node.start()
    loop.run_until(0.05 * ROUNDS + 0.04)
    return tracer, commits


class VirtualClockLoop(asyncio.SelectorEventLoop):
    """An event loop whose clock moves only while it is idle: waiting for
    the next timer jumps straight to it.  Every delivery already queued
    runs before a pacing timer fires, however slow the host, so the
    runtime leg keeps its lockstep DAG under load."""

    def __init__(self):
        self.now = 0.0
        loop = self

        class JumpingSelector(selectors.DefaultSelector):
            def select(self, timeout=None):
                if timeout:
                    loop.now += timeout
                return super().select(0)

        super().__init__(JumpingSelector())

    def time(self):
        return self.now


def run_on_virtual_clock(monkeypatch, make_coroutine):
    """Run ``make_coroutine()`` to completion on a
    :class:`VirtualClockLoop`, with the runtime node reading that loop's
    clock wherever it reads ``time.monotonic``."""
    loop = VirtualClockLoop()
    monkeypatch.setattr(node_module, "time", SimpleNamespace(monotonic=loop.time, time=time.time))
    try:
        return loop.run_until_complete(asyncio.wait_for(make_coroutine(), timeout=60))
    finally:
        loop.run_until_complete(loop.shutdown_asyncgens())
        loop.close()


async def run_steady_runtime():
    hub = MemoryHub()
    tracer = Tracer()
    nodes = [
        ValidatorNode(
            i, COMMITTEE, CONFIG, COIN, MemoryTransport(i, hub),
            min_block_interval=PACE, tracer=tracer,
        )
        for i in range(N)
    ]
    nodes[0].submit_transaction(Transaction.dummy(1))
    await asyncio.gather(*(node.start() for node in nodes))
    try:
        while nodes[0].core.round <= ROUNDS:
            await asyncio.sleep(0.01)
    finally:
        await asyncio.gather(*(node.stop() for node in nodes))
    return tracer, [b.digest for b in nodes[0].committed_blocks]


def test_steady_state_step_is_the_same_on_both_fabrics(monkeypatch):
    sim_tracer, sim_commits = run_steady_simulator()
    rt_tracer, rt_commits = run_on_virtual_clock(monkeypatch, run_steady_runtime)
    sim_rounds = stages_by_own_round(sim_tracer)[:ROUNDS]
    rt_rounds = stages_by_own_round(rt_tracer)[:ROUNDS]
    assert len(sim_rounds) == ROUNDS
    assert sim_rounds[0][:2] == [BLOCK_PROPOSED, TX_INCLUDED]
    assert any(WAVE_DECIDED in stages for stages in sim_rounds)
    assert any(TX_COMMITTED in stages for stages in sim_rounds)
    assert rt_rounds == sim_rounds
    shorter = min(len(sim_commits), len(rt_commits))
    assert shorter > 20
    assert sim_commits[:shorter] == rt_commits[:shorter]


#: A pacing interval no step of the idle-step test outlives.
IDLE_PACE = 3600.0


def paced_to_a_deadline(deliver, start):
    """Propose round 1, then take in enough round-1 blocks that round 2
    is ready but paced: the step that arms the pacing timer."""
    start()
    for author in (1, 2):
        deliver(MahiMahiCore(author, COMMITTEE, CONFIG, COIN).maybe_propose(), author)


def test_an_idle_step_costs_neither_host_anything():
    """Once the pacing timer is out and nothing else moved, a step hands
    its host nothing: neither host arms a timer, bumps a metric, queues
    a commit or sends anything on it."""
    loop = EventLoop()
    network = SimNetwork(loop, UniformLatencyModel(0.02), N, seed=1)
    commits = []
    sim = SimValidator(
        MahiMahiCore(0, COMMITTEE, CONFIG, COIN),
        network,
        loop,
        min_block_interval=IDLE_PACE,
        on_commit=lambda *args: commits.append(args),
    )
    heap = []

    def deliver(block, src):
        sim.on_message(Message(src=src, body=BlockMessage(block), size=100))
        heap.append(len(loop._heap))

    paced_to_a_deadline(deliver, sim.start)
    # Round 1 went out at once; two of its blocks are no quorum (an
    # idle step), the third arms the pacing timer and sends nothing.
    assert sim.core.round == 1 and heap[1] == heap[0] + 1
    events, sent = len(loop._heap), network.messages_sent
    sim.start()  # the driver steps: nothing is due
    sim.start()
    assert (len(loop._heap), network.messages_sent, commits) == (events, sent, [])

    async def runtime():
        transport = RecordingTransport(0)
        node = ValidatorNode(0, COMMITTEE, CONFIG, COIN, transport, min_block_interval=IDLE_PACE)
        timers = []
        node.call_later = lambda delay, callback, *args: timers.append(delay)
        def deliver(block, src):
            node._driver.on_message(BlockMessage(block=block), src)

        paced_to_a_deadline(deliver, node._driver.start)
        assert node.core.round == 1 and len(timers) == 1  # runtime time moved on
        metrics, outbox = node.metrics.snapshot(), list(node._outbox)
        node._driver.start()
        node._driver.start()
        assert len(timers) == 1 and node.metrics.snapshot() == metrics
        assert list(node._outbox) == outbox and node.commits.empty()
        assert node.committed_blocks == [] and node.recovery_time is None

    asyncio.run(runtime())


def test_a_bad_signature_is_rejected_and_counted_on_both_fabrics():
    scheme = NullSignatureScheme()
    keys = generate_keys(scheme, N)
    committee = Committee.of_size(N, public_keys=[k.public_key for k in keys])

    def core(i):
        return MahiMahiCore(
            i,
            committee,
            CONFIG,
            COIN,
            verifier=BlockVerifier(committee, scheme, COIN),
            sign=lambda data, key=keys[i].private_key: scheme.sign(key, data),
        )

    good = core(1).maybe_propose()
    forged = Block(
        author=good.author,
        round=good.round,
        parents=good.parents,
        transactions=good.transactions,
        coin_share=good.coin_share,
        signature=bytes(len(good.signature)),
    )

    loop = EventLoop()
    sim = SimValidator(core(0), SimNetwork(loop, UniformLatencyModel(0.02), N, seed=1), loop)
    sim.on_message(Message(src=1, body=BlockMessage(forged), size=100))
    # (The signature is not part of the digest: both share one.)
    assert sim.blocks_rejected == 1 and good.digest not in sim.core.store
    sim.on_message(Message(src=1, body=BlockMessage(good), size=100))
    assert sim.blocks_rejected == 1 and good.digest in sim.core.store

    async def runtime():
        node = ValidatorNode(
            0,
            committee,
            CONFIG,
            COIN,
            MemoryTransport(0, MemoryHub()),
            verifier=BlockVerifier(committee, scheme, COIN),
            sign=lambda data: scheme.sign(keys[0].private_key, data),
        )
        await node.start()
        try:
            await node._on_message(1, BlockMessage(block=forged))
            assert good.digest not in node.core.store
            await node._on_message(1, BlockMessage(block=good))
        finally:
            await node.stop()
        return node

    node = asyncio.run(asyncio.wait_for(runtime(), timeout=30))
    snapshot = node.metrics.snapshot()
    assert snapshot["blocks_rejected"] == 1 and snapshot["blocks_received"] == 1
    assert good.digest in node.core.store


def test_peer_blocks_connected_by_an_own_proposal_are_logged_on_both_fabrics(tmp_path):
    """Validator 3 hears its peers' rounds 4 down to 1 before it has
    proposed anything: rounds 3 and 4 end up waiting on its *own*
    round-2 and round-3 blocks, and enter the DAG inside the step that
    proposes those.  Both adaptors must log and trace them like any
    ingested block (they used to get neither, so a warm restart
    replayed a DAG with a hole)."""
    peers = peer_blocks(4)
    arrival = sorted(peers, key=lambda b: (-b.round, b.author))

    def check(path, tracer, core):
        logged = WriteAheadLog.recover(path)
        assert [b.round for b in logged if b.author == 3] == [1, 2, 3, 4, 5]
        logged_peers = [b for b in logged if b.author != 3]
        assert sorted(logged_peers, key=lambda b: (b.round, b.author)) == peers
        received = [e.args for e in tracer.events if e.name == BLOCK_RECEIVED]
        assert sorted((a["round"], a["author"]) for a in received) == [
            (b.round, b.author) for b in peers
        ]
        assert core.pending_count == 0 and core.round == 5
        restarted = make_core(3)
        assert replay_wal(restarted, path).blocks == len(peers) + 5
        assert restarted.pending_count == 0 and restarted.round == 5

    loop = EventLoop()
    tracer = Tracer()
    with WriteAheadLog(tmp_path / "sim.wal") as wal:
        sim = SimValidator(
            make_core(3),
            SimNetwork(loop, UniformLatencyModel(0.02), N, seed=1),
            loop,
            wal=wal,
            tracer=tracer,
        )
        for block in arrival:
            sim.on_message(
                Message(src=block.author, body=BlockMessage(block), size=100)
            )
    check(tmp_path / "sim.wal", tracer, sim.core)

    async def runtime():
        core = make_core(3)
        node = ValidatorNode(
            3,
            core.schedule,
            core.config,
            core.coin,
            RecordingTransport(authority=3),
            wal_path=tmp_path / "rt.wal",
            tracer=Tracer(),
        )
        for block in arrival:
            await node._on_message(block.author, BlockMessage(block=block))
        await node.stop()
        return node

    node = asyncio.run(asyncio.wait_for(runtime(), timeout=30))
    check(tmp_path / "rt.wal", node.tracer, node.core)
    assert node.metrics.snapshot()["blocks_received"] == len(peers)
    assert node.synchronizer.missing == 0


# ----------------------------------------------------------------------
# Messages
# ----------------------------------------------------------------------
#: Blocks per deep-fetch chunk in the message trace.
TRACE_CHUNK = 8


def message_trace():
    """``(sender, message)`` in arrival order for a validator 3 that
    restarts in checkpoint mode against :func:`history`'s deployment,
    and the messages it must send in return: it serves what it can while
    it waits (nothing yet), adopts the attested checkpoint, syncs the
    suffix in three chunks and proposes again."""
    source = history(30, interval=2)[0]
    checkpoint = source.committer.ledger.checkpoints[-1]
    above = suffix(source, checkpoint.floor - 1)
    genesis = tuple(block.reference for block in source.store.round_blocks(0))
    unheld = above[-1].reference
    *rest, late, tip = above[2 * TRACE_CHUNK :]
    inbound = [
        (0, FetchRequest(refs=genesis + (unheld,))),
        (0, FetchRequest(refs=(unheld,))),  # nothing held: no answer
        (2, CheckpointRequest()),
        (1, SyncRequest(refs=(unheld,), floor=0, token=5)),  # always answered
        (1, CheckpointResponse(checkpoints=(checkpoint,))),
        (0, CheckpointResponse(checkpoints=(checkpoint,))),
        (2, CheckpointResponse(checkpoints=(checkpoint,))),  # quorum: adopt, fetch from 1
        (1, SyncResponse(blocks=tuple(above[:TRACE_CHUNK]), pruned=(), token=1)),
        (2, BlockMessage(block=tip)),  # live, ancestors missing: fetch from 2
        (0, SyncResponse(blocks=(), pruned=(), token=1)),  # stale: drives nothing
        (2, SyncResponse(blocks=tuple(above[TRACE_CHUNK : 2 * TRACE_CHUNK]), pruned=(), token=2)),
        (2, SyncResponse(blocks=tuple(rest), pruned=(), token=3)),
        (0, BlockMessage(block=late)),  # live and connected: caught up
    ]
    outbound = [
        "CheckpointRequest",
        "FetchResponse",
        "CheckpointResponse",
        "SyncResponse",
        "SyncRequest",
        "SyncRequest",
        "SyncRequest",
        "BlockMessage",
    ]
    return inbound, outbound


def sent_by_victim(log):
    """``log`` is ``(dst, message)`` per transmission; a broadcast (one
    message to several peers back to back, in either fabric's peer
    order) becomes one entry.  Returns ``(dsts, type, fields)``."""
    sent = []
    for dst, message in log:
        if sent and sent[-1][1] == message and dst not in sent[-1][0]:
            sent[-1][0].append(dst)
        else:
            sent.append(([dst], message))
    return [(sorted(dsts), type(m).__name__, vars(m)) for dsts, m in sent]


def recording_network(loop, log):
    """A simulated network that logs ``(dst, message)`` per hop (a
    broadcast's hops and a send's one all pass through ``_fan_out``)."""

    class RecordingNetwork(SimNetwork):
        def _fan_out(self, src, peers, body, size):
            peers = list(peers)
            log.extend((dst, body) for dst in peers)
            super()._fan_out(src, peers, body, size)

    return RecordingNetwork(loop, UniformLatencyModel(0.02), N, seed=1)


def recording_hub(log):
    """An in-memory hub that logs ``(dst, message)`` per send of the
    victim's."""

    class RecordingHub(MemoryHub):
        def deliver(self, src, dst, body):
            if src == VICTIM:
                log.append((dst, decode_message(body)))
            super().deliver(src, dst, body)

    return RecordingHub()


def trace_through_simulator(inbound):
    log = []
    loop = EventLoop()
    victim = SimValidator(
        make_core(VICTIM, interval=2),
        recording_network(loop, log),
        loop,
        core_factory=lambda: make_core(VICTIM, interval=2),
        start_down=True,
        recover_mode="checkpoint",
        sync_chunk_blocks=TRACE_CHUNK,
    )
    victim.recover()
    victim.start()
    for sender, message in inbound:
        victim.on_message(Message(src=sender, body=message, size=100))
    return victim, sent_by_victim(log)


async def trace_through_runtime(inbound, sends):
    log = []
    hub = recording_hub(log)
    core = make_core(VICTIM, interval=2)
    victim = ValidatorNode(
        VICTIM,
        core.schedule,
        core.config,
        core.coin,
        MemoryTransport(VICTIM, hub),
        recover_mode="checkpoint",
        sync_chunk_blocks=TRACE_CHUNK,
    )
    victim.recover()
    await victim.start()
    try:
        for sender, message in inbound:
            hub.deliver(sender, VICTIM, encode_message(message))
        while len(sent_by_victim(log)) < sends:
            await asyncio.sleep(0.01)
    finally:
        await victim.stop()
    return victim, sent_by_victim(log)


def test_one_inbound_message_trace_draws_the_same_replies_on_both_fabrics(monkeypatch):
    # The trace is the only input: keep the runtime's wall-clock retry
    # out of it (the simulator's loop never runs, so its timers cannot fire).
    monkeypatch.setattr(driver_module, "CHECKPOINT_RETRY", 3600.0)
    inbound, outbound = message_trace()
    sim, sim_sent = trace_through_simulator(inbound)
    runtime, rt_sent = asyncio.run(
        asyncio.wait_for(trace_through_runtime(inbound, len(outbound)), timeout=30)
    )
    assert [kind for _, kind, _ in sim_sent] == outbound
    assert rt_sent == sim_sent
    peers = [0, 1, 2]
    assert [dsts for dsts, _, _ in sim_sent] == [peers, [0], [2], [1], [1], [2], [2], peers]
    assert [f["token"] for _, kind, f in sim_sent if kind == "SyncRequest"] == [1, 2, 3]
    for victim in (sim, runtime):
        assert not victim.syncing and victim.checkpoint_adoptions == 1
        assert victim.core.round == 31


# ----------------------------------------------------------------------
# Fetching
# ----------------------------------------------------------------------
#: The retry period of both legs (wall seconds on the runtime's).
PERIOD = 0.05


def fetches(log):
    """The shallow fetches in ``log`` as ``(dst, refs)``."""
    return [(dst, m.refs) for dst, m in log if type(m) is FetchRequest]


def fetch_through_simulator(phases, gc=0):
    """Validator 3 alone on the simulated network: per phase, deliver
    its ``(sender, message)`` list and let that many retry periods pass.
    Returns it and the fetches it had sent by the end of each phase."""
    log, seen = [], []
    loop = EventLoop()
    victim = SimValidator(make_core(VICTIM, gc=gc), recording_network(loop, log), loop)
    victim.start()
    for inbound, periods in phases:
        for sender, message in inbound:
            victim.on_message(Message(src=sender, body=message, size=100))
        loop.run_until(loop.now + periods * PERIOD)
        seen.append(fetches(log))
    return victim, seen


async def fetch_through_runtime(phases, targets, gc=0):
    """The same over the in-memory transport.  A busy host fires timers
    late, never early: each phase also waits for as many fetches as the
    simulator had sent by then (``targets``)."""
    log, seen = [], []
    hub = recording_hub(log)
    core = make_core(VICTIM, gc=gc)
    victim = ValidatorNode(
        VICTIM, core.schedule, core.config, core.coin, MemoryTransport(VICTIM, hub)
    )
    await victim.start()
    try:
        for (inbound, periods), target in zip(phases, targets):
            for sender, message in inbound:
                hub.deliver(sender, VICTIM, encode_message(message))
            await asyncio.sleep(periods * PERIOD)
            while len(fetches(log)) < target:
                await asyncio.sleep(0.01)
            seen.append(fetches(log))
    finally:
        await victim.stop()
    return victim, seen


def on_both_fabrics(monkeypatch, phases, gc=0):
    monkeypatch.setattr(synchronizer_module, "RETRY_AFTER", PERIOD)
    sim = fetch_through_simulator(phases, gc)
    targets = [len(sent) for sent in sim[1]]
    runtime = asyncio.run(asyncio.wait_for(fetch_through_runtime(phases, targets, gc), timeout=30))
    return sim, runtime


def test_a_sender_that_cannot_serve_draws_the_same_retries_on_both_fabrics(monkeypatch):
    """Validator 2 relays a round-2 block and then answers nothing:
    each missing parent is asked for from 2, a period later from its
    author, then from every peer in turn.  (The simulator used to ask
    the sender once and never again.)"""
    early = next(b for b in peer_blocks(2) if (b.round, b.author) == (2, 0))
    of_0, of_1 = (ref for ref in early.parents if ref.author != VICTIM)
    phases = [([(2, BlockMessage(block=early))], 3.5)]
    (_, [sim_sent]), (_, [rt_sent]) = on_both_fabrics(monkeypatch, phases)
    assert sim_sent == rt_sent == [
        (2, (of_0, of_1)),
        (0, (of_0,)),
        (1, (of_1,)),
        (2, (of_0, of_1)),
        (0, (of_0, of_1)),
    ]


def test_a_reference_nobody_holds_is_given_up_behind_the_gc_horizon_on_both_fabrics(monkeypatch):
    """A block naming a parent that does not exist is fetched for while
    its round is live — and never again once the validator's garbage
    collection has passed that round: the entry used to stay, re-asked
    every period for the life of the process."""
    gc = 6
    peers = sorted(
        (b for b in trio_history(40)[0].store if b.round and b.author != VICTIM),
        key=lambda b: (b.round, b.author),
    )
    bogus = Block(author=0, round=2, parents=(), salt=b"no such block").reference
    carrier = Block(author=2, round=3, parents=(bogus,))
    head = [(b.author, BlockMessage(block=b)) for b in peers if b.round <= 3]
    tail = [(b.author, BlockMessage(block=b)) for b in peers if b.round > 3]
    phases = [(head + [(2, BlockMessage(block=carrier))], 2.5), (tail, 4.5), ([], 2.5)]
    for victim, (live, passed, later) in on_both_fabrics(monkeypatch, phases, gc):
        # Sender, author, rotation: asked for as long as round 2 is kept.
        assert live == [(2, (bogus,)), (0, (bogus,)), (2, (bogus,))]
        assert victim.core.store.lowest_round > bogus.round
        assert later == passed and len(passed) <= len(live) + 1
        table = victim._driver.synchronizer
        assert table.missing == 0 and table.refs_abandoned == 1
