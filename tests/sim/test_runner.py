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
from repro.sim.costs import MAX_SIM_TX_RATE
from repro.sim.faults import FaultEvent
from repro.sim.node import SimValidator
from repro.sim.runner import (
    RECONFIG_LAG,
    RECOVERY_CRASH_FRAC,
    RECOVERY_RESTART_FRAC,
    Experiment,
    ExperimentConfig,
    PROTOCOLS,
)
from repro.transaction import DEFAULT_TX_SIZE


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

    @pytest.mark.parametrize(
        "overrides, accepted",
        [
            (dict(num_crashed=3), True),
            (dict(num_equivocators=3), True),
            (dict(num_crashed=1, num_recovering=1, num_equivocators=1), True),
            (dict(num_crashed=2, num_equivocators=2), False),
            (dict(num_validators=4, num_crashed=1), True),
            (dict(num_validators=4, num_equivocators=2), False),
            (dict(num_validators=4, num_crashed=5), False),
            (dict(num_crashed=2, fault_schedule=((1.0, 1, "crash"), (2.0, 1, "recover"))), True),
            (dict(num_crashed=3, fault_schedule=((1.0, 1, "crash"), (2.0, 1, "recover"))), False),
            (dict(num_equivocators=2, fault_schedule=((1.0, 1, "equivocate"),)), True),
            (dict(num_equivocators=2, fault_schedule=((1.0, 1, "partition", "g"),)), True),
            (dict(num_crashed=3, fault_schedule=((1.0, 1, "straggle", 4.0),)), True),
            (dict(num_crashed=1, fault_schedule=((1.0, 9, "straggle", 4.0),)), False),
            (dict(num_crashed=3, fault_schedule=((1.0, 1, "equivocate"),)), False),
            (dict(num_crashed=1, num_recovering=2, fault_schedule=((1.0, 1, "crash"),)), False),
            (dict(num_validators=7, num_crashed=1, fault_schedule=((1.0, 5, "leave"),)), True),
            (dict(num_validators=7, num_crashed=1, fault_schedule=((1.0, 6, "join"),)), False),
            (dict(num_validators=5, num_crashed=1, fault_schedule=((1.0, 2, "leave"),)), True),
            (dict(num_validators=4, num_crashed=1, fault_schedule=((1.0, 2, "leave"),)), False),
        ],
    )
    def test_static_counts_share_the_fault_budget(self, overrides, accepted):
        """Crashed, recovering, equivocating and scheduled validators
        spend one ``f`` budget; membership changes spend none."""
        if accepted:
            ExperimentConfig(**overrides)
        else:
            with pytest.raises(ConfigError):
                ExperimentConfig(**overrides)

    @pytest.mark.parametrize(
        "schedule",
        [
            ((1.0, 5, "join"), (2.0, 2, "join")),  # a genesis member joins
            ((1.0, 5, "join"), (2.0, 5, "join")),  # a joiner joins twice
            ((1.0, 2, "leave"), (2.0, 2, "leave")),  # a member leaves twice
            ((1.0, 12, "leave"),),  # no validator 12 in a committee of 10
        ],
    )
    def test_impossible_membership_timelines_rejected(self, schedule):
        num_validators = 10 if schedule[0][1] == 12 else 6
        with pytest.raises(ConfigError):
            ExperimentConfig(num_validators=num_validators, fault_schedule=schedule)

    def test_batching_above_sim_cap(self):
        config = ExperimentConfig(load_tps=100_000)
        assert config.batch_weight == pytest.approx(100_000 / MAX_SIM_TX_RATE)
        assert config.sim_tx_rate == MAX_SIM_TX_RATE

    def test_no_batching_below_cap(self):
        config = ExperimentConfig(load_tps=MAX_SIM_TX_RATE / 4)
        assert config.batch_weight == 1.0

    @pytest.mark.parametrize(
        "overrides",
        [dict(gc_depth=-1), dict(wave_length_override=17), dict(leaders_per_round=0)],
    )
    def test_protocol_config_rejected_at_construction(self, overrides):
        """A config its protocol rejects never becomes a sweep point; the
        baselines still ignore the Mahi-Mahi knobs."""
        with pytest.raises(ConfigError):
            ExperimentConfig(**overrides)
        if "gc_depth" not in overrides:
            for protocol in ("tusk", "cordial-miners"):
                config = ExperimentConfig(protocol=protocol, **overrides)
                assert config.protocol_config.leaders_per_round == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(adversary_targets=5),
            dict(adversary_targets=-1),
            dict(adversary_delay=-0.1),
            dict(uniform_delay=-0.05),
            dict(adversary_delay=float("nan")),
            dict(uniform_delay=float("nan")),
        ],
    )
    def test_hostile_adversary_config_rejected_at_construction(self, overrides):
        """A target count outside the committee would fail at the first
        hop (``random.sample``), a negative delay would be clamped to a
        zero-latency delivery and a NaN one would corrupt the event
        heap's order: all are refused up front."""
        with pytest.raises(ConfigError):
            ExperimentConfig(num_validators=4, **overrides)
        ExperimentConfig(num_validators=4, adversary_targets=4, adversary_delay=0.0)

    @pytest.mark.parametrize(
        "overrides",
        [dict(num_equivocators=1), dict(fault_schedule=((1.0, 2, "equivocate"),))],
        ids=["static", "scheduled"],
    )
    def test_a_certified_protocol_takes_no_equivocator(self, overrides):
        """Tusk sends each proposal as a header: an equivocator would run
        honest yet be counted against ``f`` and left out of the safety
        check, so the config is refused."""
        with pytest.raises(ConfigError, match="certifies every block"):
            ExperimentConfig(protocol="tusk", num_validators=10, **overrides)
        for protocol in ("mahi-mahi-5", "cordial-miners"):
            ExperimentConfig(protocol=protocol, num_validators=10, **overrides)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(adversary_targets=0),
            dict(adversary_targets=4),
            dict(adversary_targets=2, adversary_delay=0.0),
            dict(uniform_delay=0.0),
        ],
        ids=["no-targets", "every-validator", "zero-delay", "zero-latency"],
    )
    def test_adversary_config_at_its_bounds_accepted(self, overrides):
        """The bounds themselves are legal: no target or the whole
        committee, and delays of exactly zero."""
        config = ExperimentConfig(num_validators=4, **overrides)
        assert 0 <= config.adversary_targets <= 4 and config.adversary_delay >= 0

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
        assert ExperimentConfig().mean_tx_size == DEFAULT_TX_SIZE == 512

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


def placement(config):
    """Validators of the effective schedule, by ``(time, kind)``."""
    found = {}
    for event in config.effective_schedule():
        found.setdefault((event.time, event.kind), set()).add(event.validator)
    return found


class TestFaultPlacement:
    """Regression pin for fault placement: crashed validators take the
    highest indexes, recovering ones the block below, equivocators below
    those, and validator 0 is always the honest observer.  The static
    counts are schedule shorthand: whole-run faults start at t = 0."""

    def test_crashed_then_recovering_then_equivocators(self):
        config = ExperimentConfig(
            num_validators=13,
            num_crashed=2,
            num_recovering=1,
            num_equivocators=1,
            duration=8.0,
        )
        assert placement(config) == {
            (0.0, "crash"): {11, 12},
            (RECOVERY_CRASH_FRAC * 8.0, "crash"): {10},
            (RECOVERY_RESTART_FRAC * 8.0, "recover"): {10},
            (0.0, "equivocate"): {9},
        }

    def test_equivocators_directly_below_crashed_without_recovering(self):
        config = ExperimentConfig(num_validators=10, num_crashed=2, num_equivocators=1)
        assert placement(config) == {(0.0, "crash"): {8, 9}, (0.0, "equivocate"): {7}}


class TestStaticFaults:
    """What a static count does to a run (each assertion held before the
    counts became schedule shorthand, too)."""

    def test_whole_run_crash_gets_no_client(self):
        """A validator crashed for the whole run gets no client; every
        other one, a recovering validator included, gets one."""
        experiment = Experiment(
            ExperimentConfig(num_validators=10, num_crashed=2, num_recovering=1, duration=8.0)
        )
        clients = sorted(client.validator for client in experiment._router._clients)
        assert clients == list(range(8))

    def test_static_crash_never_proposes(self):
        experiment = Experiment(
            ExperimentConfig(num_validators=10, num_crashed=2, duration=3.0, warmup=1.0)
        )
        result = experiment.run()
        assert [node.core.round for node in experiment.nodes[8:]] == [0, 0]
        assert result.blocks_committed > 0
        assert result.availability == pytest.approx(0.8)

    def test_static_equivocator_splits_its_first_block(self):
        experiment = Experiment(
            ExperimentConfig(num_validators=10, num_equivocators=1, duration=2.0, warmup=0.5)
        )
        result = experiment.run()
        first = {
            block.digest
            for node in experiment.nodes[:9]
            for block in node.core.store.slot_blocks(1, 9)
        }
        assert len(first) == 2 and result.equivocations > 0

    def test_static_equivocator_excluded_from_safety_check(self):
        """A campaign that begins as its validator crashes never sends a
        sibling, so only the campaign flag keeps the equivocator out of
        the commit-sequence check."""
        experiment = Experiment(
            ExperimentConfig(
                num_validators=4,
                duration=2.0,
                warmup=0.5,
                fault_schedule=((1.5, 3, "equivocate"), (1.5, 3, "crash")),
            )
        )
        experiment.run()
        equivocator = experiment.nodes[3]
        assert equivocator.equivocating and not equivocator.ever_equivocated
        assert equivocator.core.committer.ledger.sequence_length > 1
        forged = dataclasses.replace(experiment.nodes[0].core.store.round_blocks(1)[0], salt=b"x")
        observation = type("Observation", (), {"linearized": [forged]})()
        experiment._total_order.on_commit(equivocator, [observation], 2.0)
        assert experiment._total_order.divergence is None
        experiment.assert_safety()

    def test_a_commit_run_past_the_reference_end_is_a_gap(self):
        """An honest validator's commits that start past every index the
        run has seen fail ``assert_safety()``: the indexes between were
        committed by nobody the check saw (no smoke or full sweep point
        ever takes this branch)."""
        experiment = Experiment(ExperimentConfig(num_validators=4, duration=2.0, warmup=0.5))
        experiment.run()
        order, honest = experiment._total_order, experiment.nodes[1]
        block = experiment.nodes[0].core.store.round_blocks(1)[0]
        ledger = honest.core.committer.ledger
        ledger.sequence_length = len(order.sequence) + 3
        order.on_commit(honest, [type("Observation", (), {"linearized": [block]})()], 2.0)
        with pytest.raises(SimulationError, match=f"first missing: {len(order.sequence)}"):
            experiment.assert_safety()

    def test_reconfig_command_never_reaches_a_static_equivocator(self, monkeypatch):
        submitted = []
        submit = SimValidator.submit

        def recording(node, tx):
            submitted.append(node.authority)
            submit(node, tx)

        monkeypatch.setattr(SimValidator, "submit", recording)
        config = ExperimentConfig(
            num_validators=7,
            num_equivocators=1,
            duration=3.0,
            warmup=1.0,
            fault_schedule=((1.0, 5, "leave"),),
        )
        Experiment(config).run()
        assert submitted == [0]


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
    assert experiment.nodes[0]._driver.certified == (protocol == "tusk")


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
