"""Integration tests for the experiment harness.

These run short simulations (a few virtual seconds) and assert the
qualitative properties the paper's evaluation establishes; the full
curves live in ``benchmarks/``.
"""

import dataclasses
import math

import pytest

from repro.baselines import TuskCommitter
from repro.core.committer import Committer
from repro.core.protocol import MahiMahiCore
from repro.errors import ConfigError, SimulationError
from repro.sim.faults import FaultEvent
from repro.sim.runner import (
    MAX_SIM_TX_RATE,
    RECONFIG_LAG,
    RECOVERY_CRASH_FRAC,
    RECOVERY_RESTART_FRAC,
    TX_SIZE,
    Experiment,
    ExperimentConfig,
    PROTOCOLS,
)


def quick(protocol, **overrides):
    defaults = dict(
        protocol=protocol,
        num_validators=10,
        load_tps=2_000.0,
        duration=8.0,
        warmup=3.0,
        seed=2,
    )
    defaults.update(overrides)
    return Experiment(ExperimentConfig(**defaults)).run()


class TestConfigValidation:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(protocol="hotstuff")

    def test_too_many_faults_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(num_validators=10, num_crashed=4)
        with pytest.raises(ConfigError):
            ExperimentConfig(num_validators=10, num_crashed=2, num_equivocators=2)

    def test_batching_above_sim_cap(self):
        config = ExperimentConfig(load_tps=100_000)
        assert config.batch_weight == pytest.approx(100_000 / MAX_SIM_TX_RATE)
        assert config.sim_tx_rate == MAX_SIM_TX_RATE

    def test_no_batching_below_cap(self):
        config = ExperimentConfig(load_tps=MAX_SIM_TX_RATE / 4)
        assert config.batch_weight == 1.0

    def test_recovering_counts_against_fault_budget(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(num_validators=10, num_crashed=2, num_recovering=2)

    def test_disjoint_downtime_windows_do_not_stack(self):
        """The budget counts *concurrent* downtime: three recovering
        validators (down during the middle of the run) plus a scheduled
        crash/recover that finishes before they go down is exactly f,
        not f+1."""
        config = ExperimentConfig(
            num_validators=10,
            num_recovering=3,
            duration=16.0,
            fault_schedule=((1.0, 1, "crash"), (2.0, 1, "recover")),
        )
        assert config.effective_schedule().max_concurrent_faulty() == 3

    def test_overlapping_scheduled_downtime_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                num_validators=10,
                num_recovering=3,
                duration=16.0,
                # Down [5, 16) — overlapping the recovering window [4, 8).
                fault_schedule=((5.0, 1, "crash"),),
            )

    def test_schedule_counts_against_fault_budget(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                num_validators=10,
                num_crashed=3,
                fault_schedule=(FaultEvent(1.0, 5, "crash"),),
            )

    def test_schedule_may_not_target_observer(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(fault_schedule=(FaultEvent(1.0, 0, "crash"),))

    def test_schedule_may_not_target_static_fault_indexes(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                num_validators=10,
                num_crashed=2,
                fault_schedule=(FaultEvent(1.0, 9, "crash"),),
            )

    def test_schedule_round_trips_through_dicts(self):
        """Sweep-cache configs arrive with events as JSON dicts."""
        config = ExperimentConfig(
            fault_schedule=[{"time": 1.0, "validator": 3, "kind": "crash"}],
            tx_size_mix=[[128, 0.5], [512, 0.5]],
        )
        assert config.fault_schedule == (FaultEvent(1.0, 3, "crash"),)
        assert config.tx_size_mix == ((128, 0.5), (512, 0.5))

    def test_mean_tx_size_weighted(self):
        config = ExperimentConfig(tx_size_mix=((100, 3.0), (500, 1.0)))
        assert config.mean_tx_size == pytest.approx(200.0)
        assert ExperimentConfig().mean_tx_size == TX_SIZE == 512

    def test_join_and_leave_derive_the_committee(self):
        """A run reconfigures exactly when its schedule holds a join or a
        leave; the genesis committee is every validator that does not
        join, and only a reconfiguring run scans commits for commands."""
        static = ExperimentConfig(num_validators=6, fault_schedule=((1.0, 3, "crash"),))
        assert (static.reconfigures, static.genesis_size) == (False, 6)
        resize = ExperimentConfig(
            num_validators=6, fault_schedule=((1.0, 5, "join"), (2.0, 1, "leave"))
        )
        assert (resize.reconfigures, resize.genesis_size) == (True, 5)
        assert Experiment(static).nodes[0].core.config.reconfig_activation_lag == 0

    def test_effective_schedule_generates_recovery_events(self):
        config = ExperimentConfig(num_validators=10, num_recovering=2, duration=20.0)
        schedule = config.effective_schedule()
        crash = [e for e in schedule if e.kind == "crash"]
        recover = [e for e in schedule if e.kind == "recover"]
        assert {e.validator for e in crash} == {8, 9}
        assert all(e.time == pytest.approx(RECOVERY_CRASH_FRAC * 20.0) for e in crash)
        assert all(e.time == pytest.approx(RECOVERY_RESTART_FRAC * 20.0) for e in recover)


class TestFaultPlacement:
    """Regression pin for fault placement: crashed validators take the
    highest indexes, recovering ones the block below, equivocators below
    those, and validator 0 is always the honest observer."""

    def test_crashed_then_recovering_then_equivocators(self):
        config = ExperimentConfig(
            num_validators=13, num_crashed=2, num_recovering=1, num_equivocators=1
        )
        exp = Experiment(config)
        behaviors = [exp._behavior(a) for a in range(13)]
        assert [b.crashed for b in behaviors] == [False] * 11 + [True, True]
        assert [b.equivocate for b in behaviors] == (
            [False] * 9 + [True] + [False] * 3
        )
        # The recovering validator (index 10) is honest; its lifecycle
        # comes from the effective schedule.
        assert not behaviors[10].crashed and not behaviors[10].equivocate
        assert {e.validator for e in config.effective_schedule()} == {10}

    def test_equivocators_directly_below_crashed_without_recovering(self):
        config = ExperimentConfig(num_validators=10, num_crashed=2, num_equivocators=1)
        exp = Experiment(config)
        assert exp._behavior(9).crashed and exp._behavior(8).crashed
        assert exp._behavior(7).equivocate
        assert not exp._behavior(6).equivocate and not exp._behavior(6).crashed
        assert not exp._behavior(0).crashed and not exp._behavior(0).equivocate


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_one_construction_path(protocol):
    """Every protocol's committer is built by the core from the core's
    own ``(store, schedule, coin, config)``: one schedule object (the
    commit walk's epochs govern proposing), a ledger, and the core's GC
    depth / checkpoint cadence / reconfiguration lag — not a re-spelled
    copy of them."""
    experiment = Experiment(
        ExperimentConfig(
            protocol=protocol,
            num_validators=6,
            gc_depth=48,
            checkpoint_interval=3,
            fault_schedule=(FaultEvent(1.5, 5, "join"),),
        )
    )
    core = experiment.nodes[0].core
    committer = core.committer
    assert committer.schedule is core.schedule
    assert committer._store is core.store
    assert committer.ledger.interval == 3 and committer.ledger.lag == 48
    assert committer._config == core.config
    assert (
        core.config.garbage_collection_depth,
        core.config.checkpoint_interval_rounds,
        core.config.reconfig_activation_lag,
    ) == (48, 3, RECONFIG_LAG)
    assert isinstance(committer, Committer)
    assert (type(committer) is TuskCommitter) == (protocol == "tusk")
    assert experiment.nodes[0]._certified == (protocol == "tusk")


@pytest.mark.slow
class TestAllProtocolsRun:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_commits_and_agreement(self, protocol):
        result = quick(protocol)
        assert result.blocks_committed > 0
        assert result.throughput_tps > 0
        assert not math.isnan(result.latency.avg)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_deterministic_replay(self, protocol):
        a = quick(protocol, duration=5.0, warmup=2.0)
        b = quick(protocol, duration=5.0, warmup=2.0)
        assert a.latency == b.latency
        assert a.throughput_tps == b.throughput_tps
        assert a.messages_sent == b.messages_sent

    def test_different_seeds_differ(self):
        a = quick("mahi-mahi-5", seed=1)
        b = quick("mahi-mahi-5", seed=2)
        assert a.latency != b.latency


@pytest.mark.slow
class TestPaperShape:
    def test_latency_ordering_matches_figure_3(self):
        """MM-4 < MM-5 < {CM, Tusk} under ideal conditions (claims
        C1/C5).  Tusk-vs-CM absolute ordering at short durations is
        noisy in the simulator (see docs/EXPERIMENTS.md); the robust paper
        property is that both Mahi-Mahi variants beat both baselines."""
        results = {p: quick(p).latency.avg for p in PROTOCOLS}
        assert results["mahi-mahi-4"] < results["mahi-mahi-5"]
        assert results["mahi-mahi-5"] < results["cordial-miners"]
        assert results["mahi-mahi-5"] < results["tusk"]

    def test_fault_latency_ordering_matches_figure_4(self):
        """Claim C3 plus Tusk's fault behaviour: with 3 crashed
        validators Tusk degrades far more than the uncertified DAGs."""
        results = {p: quick(p, num_crashed=3).latency.avg for p in PROTOCOLS}
        assert results["mahi-mahi-4"] < results["cordial-miners"]
        assert results["mahi-mahi-5"] < results["cordial-miners"]
        assert results["tusk"] > results["cordial-miners"]

    def test_crash_faults_skip_directly(self):
        """Claim C3: Mahi-Mahi direct-skips dead leaders; Cordial Miners
        cannot, paying about two extra rounds."""
        mahi = quick("mahi-mahi-5", num_crashed=3)
        assert mahi.direct_skips > 0
        cm = quick("cordial-miners", num_crashed=3)
        assert cm.direct_skips == 0
        assert mahi.latency.avg < cm.latency.avg

    def test_mahi_mahi_commits_mostly_directly(self):
        """Section 5: direct commits dominate in the benign case."""
        result = quick("mahi-mahi-5")
        assert result.direct_commits > 10 * (
            result.indirect_commits + result.indirect_skips
        )

    def test_adversary_degrades_but_preserves_liveness(self):
        benign = quick("mahi-mahi-5")
        attacked = quick(
            "mahi-mahi-5", adversary_targets=3, adversary_delay=0.3
        )
        assert attacked.blocks_committed > 0
        assert attacked.latency.avg > benign.latency.avg

    def test_equivocators_do_not_break_safety(self):
        result = quick("mahi-mahi-5", num_equivocators=3, duration=6.0)
        assert result.blocks_committed > 0  # run() asserts agreement

    def test_fetch_table_forgets_blocks_that_arrived(self, monkeypatch):
        """Equivocation makes validators fetch the sibling they were not
        sent; a fetched block's entry leaves the table when the block is
        accepted, so the table holds only what is still outstanding."""
        from repro.messages import FetchRequest
        from repro.sim.node import SimValidator

        fetches = []
        send = SimValidator.send

        def counting_send(self, dst, message):
            if type(message) is FetchRequest:
                fetches.append(len(message.refs))
            send(self, dst, message)

        monkeypatch.setattr(SimValidator, "send", counting_send)
        exp = Experiment(
            ExperimentConfig(
                protocol="mahi-mahi-5", num_validators=10, num_equivocators=2,
                load_tps=2_000.0, duration=6.0, warmup=3.0, seed=2,
            )
        )
        exp.run()
        assert sum(fetches) > 50
        for node in exp.nodes:
            table = node._driver.synchronizer
            assert not any(digest in node.core.store for digest in table._pending)
            # Only what the last round or two still had in flight.
            assert table.missing <= 2

    def test_crash_recovery_restart_resync_resume(self):
        """The crash-recovery workload end-to-end: validators crash at a
        quarter of the run, restart with empty state at the halfway
        mark, re-sync via fetch, resume proposing, and run() asserts
        prefix consistency with the recovered validators *included*."""
        config = ExperimentConfig(
            protocol="mahi-mahi-5",
            num_validators=10,
            load_tps=2_000.0,
            duration=8.0,
            warmup=2.0,
            num_recovering=2,
            seed=2,
        )
        exp = Experiment(config)
        result = exp.run()  # run() calls assert_safety over all honest nodes
        assert result.recoveries == 2
        assert result.recovery_time_s is not None and result.recovery_time_s > 0
        assert result.recovery_time_max_s >= result.recovery_time_s
        assert result.availability == pytest.approx(
            1 - 2 * (RECOVERY_RESTART_FRAC - RECOVERY_CRASH_FRAC) / 10
        )
        for authority in (8, 9):
            recovered = exp.nodes[authority]
            assert not recovered.down
            assert recovered.core.total_proposed > 0
            # The fresh core recommitted from genesis.
            assert recovered.core.committer.ledger.sequence_length > 0

    @pytest.mark.parametrize("check_safety", [True, False])
    def test_recovered_sequences_checked_by_assert_safety(self, monkeypatch, check_safety):
        """The commit check covers recovered validators: reversing one
        multi-block linearization the restarted validator commits during
        the run is a divergence — raised by ``run()``, or by
        ``assert_safety()`` after ``run(check_safety=False)``."""
        config = ExperimentConfig(
            protocol="mahi-mahi-5",
            num_validators=10,
            load_tps=1_000.0,
            duration=6.0,
            warmup=2.0,
            num_recovering=1,
            seed=2,
        )
        exp = Experiment(config)
        first_incarnation = exp.nodes[9].core
        try_commit = MahiMahiCore.try_commit
        reversed_at = []

        def try_commit_reversing_once(core):
            observations = try_commit(core)
            if core.authority == 9 and core is not first_incarnation and not reversed_at:
                for index, observation in enumerate(observations):
                    if len(observation.linearized) > 1:
                        observations[index] = dataclasses.replace(
                            observation, linearized=observation.linearized[::-1]
                        )
                        reversed_at.append(observation.status.slot)
                        break
            return observations

        monkeypatch.setattr(MahiMahiCore, "try_commit", try_commit_reversing_once)
        if check_safety:
            with pytest.raises(SimulationError, match="validator 9 committed"):
                exp.run()
        else:
            exp.run(check_safety=False)
            with pytest.raises(SimulationError, match="validator 9 committed"):
                exp.assert_safety()
        assert reversed_at

    def test_adopted_checkpoint_chain_checked_by_assert_safety(self):
        """A checkpoint adopter's state digest is replayed against the
        reference sequence: an adopted base whose chain disagrees with it
        fails ``assert_safety()``."""
        exp = Experiment(
            ExperimentConfig(
                protocol="mahi-mahi-5",
                num_validators=4,
                load_tps=1_000.0,
                duration=6.0,
                warmup=1.0,
                gc_depth=16,
                checkpoint_interval=2,
                recover_mode="checkpoint",
                fault_schedule=(FaultEvent(1.5, 3, "crash"), FaultEvent(3.0, 3, "recover")),
                seed=2,
            )
        )
        result = exp.run()  # the honest adoption passes
        assert result.checkpoint_adoptions == 1
        ledger = exp.nodes[3].core.committer.ledger
        ledger.adopted_base = dataclasses.replace(ledger.adopted_base, chain=bytes(32))
        with pytest.raises(SimulationError, match="state digest"):
            exp.assert_safety()

    def test_reconfiguration_join_and_leave(self):
        """A join and a leave are committed membership changes: n goes
        9 -> 10 -> 9, the joiner syncs in and proposes, the leaver exits
        once its excluding epoch activates, and availability charges the
        joiner until its join and the leaver from its exit on."""
        config = ExperimentConfig(
            protocol="mahi-mahi-5",
            num_validators=10,
            load_tps=1_000.0,
            duration=8.0,
            warmup=2.0,
            seed=2,
            fault_schedule=(
                FaultEvent(time=2.4, validator=9, kind="join"),
                FaultEvent(time=4.0, validator=8, kind="leave"),
            ),
        )
        exp = Experiment(config)
        result = exp.run()
        assert result.blocks_committed > 0
        assert result.recoveries == 1  # the join completed
        assert [row["size"] for row in result.epoch_summary] == [9, 10, 9]
        joined, left = exp.nodes[9], exp.nodes[8]
        assert not joined.down and joined.core.total_proposed > 0
        assert left.down and 4.0 < left.left_at < 8.0
        # Availability: 9 down for [0, 2.4), 8 from its exit to the end.
        assert result.availability == pytest.approx(1 - (2.4 + 8.0 - left.left_at) / 80)

    def test_clients_retarget_away_from_down_validators(self):
        """With a schedule, submissions to a down validator land on a
        live one instead of vanishing: the crashed window produces no
        dip in unique committed transactions."""
        base = dict(
            protocol="mahi-mahi-5",
            num_validators=10,
            load_tps=1_000.0,
            duration=8.0,
            warmup=2.0,
            seed=2,
        )
        static = Experiment(ExperimentConfig(**base)).run()
        recovering = Experiment(ExperimentConfig(**base, num_recovering=2)).run()
        # Retargeting keeps committed throughput within a few percent of
        # the fault-free run (the transactions just land elsewhere).
        assert recovering.throughput_tps > 0.9 * static.throughput_tps

    def test_mixed_tx_sizes_shift_bytes(self):
        base = dict(
            protocol="mahi-mahi-5",
            num_validators=10,
            load_tps=1_000.0,
            duration=6.0,
            warmup=2.0,
            seed=2,
        )
        small = Experiment(ExperimentConfig(**base, tx_size_mix=((128, 1.0),))).run()
        large = Experiment(ExperimentConfig(**base, tx_size_mix=((4096, 1.0),))).run()
        assert small.bytes_sent < large.bytes_sent
        assert small.blocks_committed > 0 and large.blocks_committed > 0

    def test_recovery_deterministic_replay(self):
        config = ExperimentConfig(
            protocol="mahi-mahi-5",
            num_validators=10,
            load_tps=1_000.0,
            duration=6.0,
            warmup=2.0,
            num_recovering=1,
            seed=4,
        )
        a = Experiment(config).run()
        b = Experiment(config).run()
        assert a.latency == b.latency
        assert a.recovery_time_s == b.recovery_time_s
        assert a.messages_sent == b.messages_sent

    def test_uniform_delay_latency_tracks_message_delays(self):
        """With constant one-way delay d and no pacing, leader commit
        latency is close to the analytical w * d (Section 2.2)."""
        result = quick(
            "mahi-mahi-5",
            uniform_delay=0.1,
            block_interval=0.0,
            model_cpu=False,
            load_tps=200.0,
        )
        # Blocks commit after ~5 delays; transactions additionally wait
        # in the mempool for the next proposal.
        assert 0.4 < result.latency.p50 < 0.9
