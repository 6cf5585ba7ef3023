"""Unit tests for :class:`SimValidator`: pacing, faults, recovery,
sync, CPU."""

import pytest

from repro.baselines.tusk import TuskCommitter
from repro.committee import Committee
from repro.config import ProtocolConfig
from repro.core.committer import Committer
from repro.core.protocol import MahiMahiCore
from repro.crypto.coin import FastCoin
from repro.messages import (
    Ack,
    BlockMessage,
    Certificate,
    CheckpointRequest,
    CheckpointResponse,
    FetchRequest,
    FetchResponse,
    Header,
    SyncRequest,
    SyncResponse,
)
from repro.obs.trace import BLOCK_PROPOSED, BLOCK_RECEIVED, NULL_TRACER, Tracer
from repro.sim.costs import CostModel
from repro.sim.events import EventLoop
from repro.sim.latency import UniformLatencyModel
from repro.sim.network import Message, SimNetwork
from repro.sim.node import SimValidator
from repro.statesync.driver import ValidatorDriver
from repro.transaction import Transaction
from tests.statesync.test_driver import history, suffix


class CommitStreams:
    """A commit callback keeping each validator incarnation's committed
    digests (keyed by core: a restart starts a new sequence)."""

    def __init__(self) -> None:
        self._by_core: dict = {}

    def __call__(self, node, observations, now) -> None:
        self._by_core.setdefault(node.core, []).extend(
            block.digest for observation in observations for block in observation.linearized
        )

    def of(self, node) -> list:
        """What ``node``'s current incarnation committed."""
        return self._by_core.get(node.core, [])


def make_cluster(
    n=4,
    *,
    delay=0.05,
    interval=0.0,
    start_down=(),
    certified=False,
    costs=None,
    with_core_factory=False,
    sync_chunk_blocks=4096,
    tracer=NULL_TRACER,
    validator=SimValidator,
    on_commit=None,
):
    """``certified``: Tusk cores, which run the header / ack /
    certificate round."""
    committee = Committee.of_size(n)
    coin = FastCoin(seed=b"node-test", n=n, threshold=committee.quorum_threshold)
    config = ProtocolConfig(wave_length=5, leaders_per_round=2)
    committer = TuskCommitter if certified else Committer
    loop = EventLoop()
    network = SimNetwork(loop, UniformLatencyModel(delay), n, costs=costs, seed=1)
    nodes = []

    def make_core(i):
        return MahiMahiCore(i, committee, config, coin, committer_factory=committer)

    for i in range(n):
        factory = None
        if with_core_factory:
            factory = lambda i=i: make_core(i)  # noqa: E731
        nodes.append(
            validator(
                make_core(i),
                network,
                loop,
                start_down=i in start_down,
                min_block_interval=interval,
                costs=costs,
                core_factory=factory,
                sync_chunk_blocks=sync_chunk_blocks,
                tracer=tracer,
                on_commit=on_commit,
            )
        )
    return loop, nodes


def ingress_cluster(tx_ingress_cost, **kwargs):
    """A traced cluster whose ingress stage takes ``tx_ingress_cost``
    seconds per transaction (absurdly slow, so that it shows)."""
    tracer = Tracer()
    loop, nodes = make_cluster(
        costs=CostModel(model_cpu=True, tx_ingress_cost=tx_ingress_cost), tracer=tracer, **kwargs
    )
    return loop, nodes, tracer


def proposals_with_transactions(tracer, node):
    """``(time, tx ids)`` of each own proposal of ``node`` that carried
    transactions, read from its current store."""
    found = []
    for event in tracer.events:
        if (
            event.validator == node.authority
            and event.name == BLOCK_PROPOSED
            and event.args["txs"]
        ):
            (block,) = node.core.store.slot_blocks(event.args["round"], node.authority)
            found.append((event.ts, [tx.tx_id for tx in block.transactions]))
    return found


def ingress_spans(tracer, authority):
    """``(tx id, start, end)`` of every ingress-stage span of ``authority``."""
    return [
        (event.args["tx"], event.ts, event.ts + event.dur)
        for event in tracer.events
        if event.validator == authority and event.name == "ingress_stage"
    ]


class TestRoundPacing:
    def test_unpaced_rounds_advance_at_network_speed(self):
        loop, nodes = make_cluster(interval=0.0)
        for node in nodes:
            node.start()
        loop.run_until(1.0)
        # One-way delay 0.05s: ~20 rounds in a second.
        assert nodes[0].core.round >= 15

    def test_paced_rounds_respect_interval(self):
        loop, nodes = make_cluster(interval=0.2)
        for node in nodes:
            node.start()
        loop.run_until(2.0)
        assert 8 <= nodes[0].core.round <= 11  # ~2s / 0.2s

    def test_all_nodes_commit_and_agree(self):
        commits = CommitStreams()
        loop, nodes = make_cluster(on_commit=commits)
        nodes[0].submit(Transaction.dummy(1))
        for node in nodes:
            node.start()
        loop.run_until(3.0)
        sequences = [commits.of(n) for n in nodes]
        shortest = min(len(s) for s in sequences)
        assert shortest > 0
        assert all(s[:shortest] == sequences[0][:shortest] for s in sequences)


class TestFaults:
    def test_crashed_node_never_sends(self):
        loop, nodes = make_cluster(start_down={3})
        for node in nodes:
            node.start()
        loop.run_until(2.0)
        assert nodes[3].core.round == 0
        # The rest still make progress: 3 of 4 = 2f+1.
        assert nodes[0].core.committer.stats.blocks_committed > 0

    def test_crash_mid_run_preserves_liveness(self):
        loop, nodes = make_cluster()
        loop.schedule_at(1.0, nodes[3].crash)
        for node in nodes:
            node.start()
        loop.run_until(4.0)
        crashed_round = nodes[3].core.round
        assert crashed_round > 0  # participated before the crash
        assert nodes[0].core.round > crashed_round  # others moved on
        assert nodes[0].core.committer.stats.blocks_committed > 0

    def test_equivocator_splits_peers(self):
        commits = CommitStreams()
        loop, nodes = make_cluster(on_commit=commits)
        nodes[1].set_equivocating(True)
        for node in nodes:
            node.start()
        loop.run_until(2.0)
        # Some validator holds a slot with two blocks from validator 1.
        slots_seen = set()
        for node in nodes:
            for r in range(1, nodes[0].core.round):
                if len(node.core.store.slot_blocks(r, 1)) > 1:
                    slots_seen.add((node.authority, r))
        assert slots_seen, "no equivocation observed in any DAG"
        # And everyone still agrees.
        honest = [n for n in nodes if not n.equivocating]
        sequences = [commits.of(n) for n in honest]
        shortest = min(len(s) for s in sequences)
        assert all(s[:shortest] == sequences[0][:shortest] for s in sequences)


class TestRecovery:
    def _run_crash_recover(self, *, certified=False, sync_chunk_blocks=4096, on_commit=None):
        loop, nodes = make_cluster(
            certified=certified,
            with_core_factory=True,
            sync_chunk_blocks=sync_chunk_blocks,
            on_commit=on_commit,
        )
        for node in nodes:
            node.start()
        loop.schedule_at(1.0, nodes[3].crash)

        def restart():
            nodes[3].recover()
            nodes[3].start()

        loop.schedule_at(2.0, restart)
        loop.run_until(4.0)
        return nodes

    def test_recovered_node_resyncs_and_proposes(self):
        nodes = self._run_crash_recover()
        recovered = nodes[3]
        assert not recovered.down
        # The fresh core re-synced the whole DAG via deep fetches and
        # rejoined proposing near the live frontier.
        assert recovered.core.round > 10
        assert recovered.core.total_proposed > 0
        assert recovered.core.pending_count == 0

    def test_recovered_node_recommits_same_sequence(self):
        commits = CommitStreams()
        nodes = self._run_crash_recover(on_commit=commits)
        sequences = [commits.of(n) for n in nodes]
        reference = max(sequences, key=len)
        assert min(len(s) for s in sequences) > 0
        for sequence in sequences:
            assert sequence == reference[: len(sequence)]

    def test_recovered_node_does_not_equivocate(self):
        """A restarted validator must not re-propose in rounds it
        already proposed in before the crash (that would equivocate
        with its own earlier blocks)."""
        nodes = self._run_crash_recover()
        top_round = max(n.core.store.highest_round for n in nodes)
        for node in nodes:
            for r in range(1, top_round + 1):
                assert len(node.core.store.slot_blocks(r, 3)) <= 1

    def test_certified_recovery_resyncs_too(self):
        nodes = self._run_crash_recover(certified=True)
        recovered = nodes[3]
        assert recovered.core.total_proposed > 0
        assert len(recovered.core.store) > 4  # well past genesis

    def test_crash_drops_queued_cpu_work(self):
        """Blocks inside the consensus CPU stage at crash time are lost
        with the rest of the in-memory state (incarnation guard)."""
        costs = CostModel(model_cpu=True, block_base_cost=0.5)  # absurdly slow stage
        loop, nodes = make_cluster(costs=costs, with_core_factory=True)
        for node in nodes:
            node.start()
        # Let round-1 blocks arrive and queue up in the slow CPU stage,
        # then crash before the stage completes.
        loop.run_until(0.06)
        nodes[3].crash()
        nodes[3].recover()
        loop.run_until(0.8)
        # The pre-crash blocks were dropped, not ingested into the new
        # core behind its back: only what arrived after recovery counts.
        assert len(nodes[3].core.store) >= 4  # genesis always present

    def test_resync_larger_than_one_chunk_progresses(self):
        """Regression: when the missing history exceeds one fetch-chunk
        cap, the sync floor must advance chunk by chunk — a server that
        keeps re-serving the lowest rounds of the closure would leave
        the recovering validator syncing forever.  (The cap must exceed
        the cluster's block-generation rate per fetch round trip, or no
        amount of chunking can ever catch up; 64 per ~0.1 s round trip
        vs ~80 blocks/s generated leaves a comfortable margin while the
        ~90-block backlog still takes several chunks.)"""
        nodes = self._run_crash_recover(sync_chunk_blocks=64)
        recovered = nodes[3]
        assert not recovered.syncing
        assert recovered.core.total_proposed > 0
        assert recovered.core.round > 10

    def test_recovery_callback_reports_resume_time(self):
        committee = Committee.of_size(4)
        coin = FastCoin(seed=b"cb", n=4, threshold=committee.quorum_threshold)
        config = ProtocolConfig(wave_length=5, leaders_per_round=2)
        loop = EventLoop()
        network = SimNetwork(loop, UniformLatencyModel(0.05), 4, seed=1)
        seen = []
        nodes = []
        for i in range(4):
            nodes.append(
                SimValidator(
                    MahiMahiCore(i, committee, config, coin),
                    network,
                    loop,
                    core_factory=lambda i=i: MahiMahiCore(i, committee, config, coin),
                    on_recovery=lambda v, down, up, mode: seen.append((v, down, up, mode)),
                )
            )
        for node in nodes:
            node.start()
        loop.schedule_at(1.0, nodes[3].crash)

        def restart():
            nodes[3].recover()
            nodes[3].start()

        loop.schedule_at(2.0, restart)
        loop.run_until(4.0)
        [(validator, recovered_at, resumed_at, mode)] = seen
        assert validator == 3
        assert recovered_at == pytest.approx(2.0)
        assert resumed_at > recovered_at
        assert mode == "cold"

    def test_join_from_start_down(self):
        """A provisioned-but-offline validator (start_down) stays silent
        until recover(), then syncs and participates."""
        committee = Committee.of_size(4)
        coin = FastCoin(seed=b"join", n=4, threshold=committee.quorum_threshold)
        config = ProtocolConfig(wave_length=5, leaders_per_round=2)
        loop = EventLoop()
        network = SimNetwork(loop, UniformLatencyModel(0.05), 4, seed=1)
        nodes = []
        for i in range(4):
            nodes.append(
                SimValidator(
                    MahiMahiCore(i, committee, config, coin),
                    network,
                    loop,
                    core_factory=lambda i=i: MahiMahiCore(i, committee, config, coin),
                    start_down=(i == 3),
                )
            )
        for node in nodes:
            node.start()
        loop.run_until(0.5)
        assert nodes[3].down
        assert nodes[3].core.round == 0

        def join():
            nodes[3].recover()
            nodes[3].start()

        loop.schedule_at(1.0, join)
        loop.run_until(3.0)
        assert not nodes[3].down
        assert nodes[3].core.total_proposed > 0

    @staticmethod
    def _until_pacing_timer_armed(loop, node):
        """Run the loop until ``node`` has a pacing timer out; returns
        the deadline it was armed for."""
        driver = node._driver
        while not driver._timer_armed:
            loop.run_until(loop.now + 0.001)
        deadline = driver._last_proposal + driver.interval
        assert loop.now < deadline
        return deadline

    def test_a_crash_loses_the_pacing_timer(self, monkeypatch):
        """Regression: the pacing deadline is a timer like any other — a
        restarted incarnation never sees its predecessor's fire (it used
        to clear the new driver's pacing flag and step it mid-re-sync)."""
        fired = []
        original = ValidatorDriver._on_pacing_timer

        def record(driver):
            fired.append((driver.core.authority, driver.core, loop.now))
            original(driver)

        monkeypatch.setattr(ValidatorDriver, "_on_pacing_timer", record)
        loop, nodes = make_cluster(interval=0.2, with_core_factory=True)
        for node in nodes:
            node.start()
        loop.run_until(0.5)
        victim = nodes[3]
        deadline = self._until_pacing_timer_armed(loop, victim)
        old_core, restarted_at = victim.core, loop.now
        victim.crash()
        victim.recover()
        victim.start()
        loop.run_until(deadline + 0.01)
        assert not [entry for entry in fired if entry[0] == 3 and entry[2] >= restarted_at]
        loop.run_until(3.0)
        assert victim.core is not old_core and victim.core.total_proposed > 0
        # The new incarnation's own timers do fire.
        assert any(a == 3 and core is victim.core for a, core, _ in fired)

    def test_rapid_double_crash_does_not_equivocate(self):
        """Regression: a fetch response requested by a previous
        incarnation must not convince the next incarnation it is caught
        up — only a cleanly-connecting *live* broadcast ends re-sync, so
        even a re-crash mid-sync cannot lead to proposals in rounds the
        validator already used."""
        loop, nodes = make_cluster(with_core_factory=True)
        for node in nodes:
            node.start()

        def restart():
            nodes[3].recover()
            nodes[3].start()

        loop.schedule_at(1.0, nodes[3].crash)
        loop.schedule_at(1.5, restart)
        loop.schedule_at(1.55, nodes[3].crash)  # re-crash mid-re-sync
        loop.schedule_at(1.6, restart)
        loop.run_until(4.0)
        top_round = max(n.core.store.highest_round for n in nodes)
        for node in nodes:
            for r in range(1, top_round + 1):
                assert len(node.core.store.slot_blocks(r, 3)) <= 1
        assert nodes[3].core.total_proposed > 0


class TestCertifiedMode:
    def test_certified_rounds_take_three_hops(self):
        plain_loop, plain_nodes = make_cluster(certified=False)
        cert_loop, cert_nodes = make_cluster(certified=True)
        for node in plain_nodes:
            node.start()
        for node in cert_nodes:
            node.start()
        plain_loop.run_until(2.0)
        cert_loop.run_until(2.0)
        # Cert mode needs block + ack + cert per round: ~3x fewer rounds.
        ratio = plain_nodes[0].core.round / max(1, cert_nodes[0].core.round)
        assert 2.0 < ratio < 4.5


class TestCpuModel:
    def test_ingress_queue_delays_mempool(self):
        """Five submissions at t = 0 leave the 0.09 s ingress stage at
        0.09, 0.18, 0.27, 0.36 and 0.45: a proposal carries exactly what
        had completed by then, in submission order."""
        loop, nodes, tracer = ingress_cluster(0.09, interval=0.25)
        for tx_id in range(1, 6):
            nodes[0].submit(Transaction(tx_id))
        for node in nodes:
            node.start()
        loop.run_until(1.0)
        (first, early), (second, rest) = proposals_with_transactions(tracer, nodes[0])
        assert first == pytest.approx(0.25) and early == [1, 2]
        assert second == pytest.approx(0.5) and rest == [3, 4, 5]

    def test_restart_drops_what_the_ingress_stage_still_held(self):
        """A restart loses the process's queues: nothing submitted before
        the crash is ever proposed, and the stage restarts at ``now``
        (the old incarnation's backlog ran to t = 0.45)."""
        loop, nodes, tracer = ingress_cluster(0.09, interval=0.25, with_core_factory=True)
        for node in nodes:
            node.start()
        for tx_id in range(1, 6):
            nodes[3].submit(Transaction(tx_id))
        loop.schedule_at(0.1, nodes[3].crash)  # one completed, none proposed
        loop.schedule_at(0.2, nodes[3].recover)
        loop.schedule_at(0.2, nodes[3].start)
        loop.schedule_at(0.2, nodes[3].submit, Transaction(6))
        loop.run_until(3.0)
        assert ingress_spans(tracer, 3)[-1] == (6, 0.2, pytest.approx(0.29))
        proposed = proposals_with_transactions(tracer, nodes[3])
        assert [ids for _, ids in proposed] == [[6]]

    def test_slow_factor_prices_later_submissions_only(self):
        loop, nodes, tracer = ingress_cluster(0.15, interval=0.1)
        for node in nodes:
            node.start()
        nodes[0].submit(Transaction(1))
        nodes[0].set_slow_factor(2.0)  # pacing 0.2 s, ingress 0.3 s from here
        nodes[0].submit(Transaction(2))
        loop.run_until(1.0)
        assert ingress_spans(tracer, 0) == [
            (1, 0.0, pytest.approx(0.15)),
            (2, 0.0, pytest.approx(0.45)),
        ]
        (first, early), (second, late) = proposals_with_transactions(tracer, nodes[0])
        assert first == pytest.approx(0.2) and early == [1]
        assert second == pytest.approx(0.6) and late == [2]

    def test_without_a_cpu_model_nothing_queues(self):
        _, nodes = make_cluster()
        nodes[0].submit(Transaction(1))
        nodes[0].start()  # the same instant: no stage in between
        (block,) = nodes[0].core.store.slot_blocks(1, 0)
        assert [tx.tx_id for tx in block.transactions] == [1]

    def test_consensus_cost_slows_rounds(self):
        fast_loop, fast_nodes = make_cluster()
        slow_costs = CostModel(model_cpu=True, block_base_cost=0.05)
        slow_loop, slow_nodes = make_cluster(costs=slow_costs)
        for node in fast_nodes:
            node.start()
        for node in slow_nodes:
            node.start()
        fast_loop.run_until(2.0)
        slow_loop.run_until(2.0)
        assert slow_nodes[0].core.round < fast_nodes[0].core.round

    def test_both_entry_points_complete_the_cpu_stage_at_the_same_instant(self):
        """``on_message`` is ``on_batch`` of one: the same consensus-stage
        charge, the same completion time, the same ingest."""
        costs = CostModel(model_cpu=True, block_base_cost=0.01)
        received_at = []
        for entry in ("on_message", "on_batch"):
            tracer = Tracer()
            loop, nodes = make_cluster(costs=costs, tracer=tracer)
            block = nodes[1].core.maybe_propose()
            message = Message(src=1, body=BlockMessage(block), size=100)
            if entry == "on_message":
                nodes[0].on_message(message)
            else:
                nodes[0].on_batch([message])
            assert block.digest not in nodes[0].core.store  # still in the CPU stage
            loop.run_until(1.0)
            assert block.digest in nodes[0].core.store
            received_at.append(
                [e.ts for e in tracer.events if e.validator == 0 and e.name == BLOCK_RECEIVED]
            )
        assert received_at[0] == received_at[1] and received_at[0][0] == 0.01


class TestWireSizes:
    """The simulated size of every message type, in literals: a drift
    here fails by name before any run fingerprint moves."""

    def test_each_message_type_is_priced_as_it_always_was(self):
        _, nodes = make_cluster()  # 512 B per simulated transaction
        source = history(30, interval=2)[0]
        checkpoints = tuple(source.committer.ledger.checkpoints)
        assert len(checkpoints) >= 2
        blocks = tuple(suffix(source)[-3:])  # four parents each, no transactions
        refs = tuple(block.reference for block in blocks)
        for tx_id in (1, 2):
            nodes[1].submit(Transaction.dummy(tx_id))  # no CPU model: no stage
        loaded = nodes[1].core.maybe_propose()
        assert len(loaded.parents) == 4 and len(loaded.transactions) == 2
        empty = 150 + 44 * 4
        table = [
            (BlockMessage(blocks[0]), empty),
            (BlockMessage(loaded), empty + 2 * 512),
            (Header(loaded), empty + 2 * 512),
            (Ack(loaded.digest), 64),
            (Certificate(loaded, signatures=3), empty + 2 * 512 + 64 * 3),
            (FetchRequest(refs), 44 * 3 + 4),
            (FetchRequest(refs[:1]), 44 + 4),
            (SyncRequest(refs, floor=12, token=7), 44 * 3 + 4),
            (FetchResponse(blocks), 3 * empty),
            (SyncResponse(blocks[:2], pruned=refs, token=7), 2 * empty + 44 * 3),
            (SyncResponse((), pruned=(), token=7), 0),
            (CheckpointRequest(), 16),
            (CheckpointResponse(checkpoints), sum(c.wire_size for c in checkpoints) + 16),
            (CheckpointResponse(()), 16),
        ]
        for message, size in table:
            assert CostModel().wire_size(message) == size, message
