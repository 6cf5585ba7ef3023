"""End-to-end tests for the checkpoint & state-transfer subsystem and
WAL-backed warm restarts, as the simulator runs them."""

import dataclasses

import pytest

from repro.errors import ConfigError, SimulationError, StateTransferError
from repro.runtime.wal import WriteAheadLog
from repro.sim.faults import FaultEvent
from repro.sim.costs import CostModel
from repro.sim.node import SimValidator
from repro.sim.runner import Experiment, ExperimentConfig
from repro.statesync import CheckpointVotes, WalReplay, replay_wal
from tests.helpers import masked_result_hash, result_hash
from tests.statesync.test_checkpoint import make_checkpoint


def recovery_config(mode, **overrides):
    defaults = dict(
        protocol="mahi-mahi-5",
        num_validators=10,
        load_tps=2_000,
        duration=2.0,
        warmup=0.5,
        gc_depth=0,
        recover_mode=mode,
        checkpoint_interval=2 if mode == "checkpoint" else 0,
        sync_chunk_blocks=24,
        fault_schedule=(
            FaultEvent(time=1.2, validator=9, kind="crash"),
            FaultEvent(time=1.4, validator=9, kind="recover"),
        ),
        seed=7,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestConfigValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(recover_mode="lukewarm")

    def test_checkpoint_mode_needs_interval(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(recover_mode="checkpoint")

    def test_interval_beyond_gc_depth_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(gc_depth=4, checkpoint_interval=8)

    def test_chunk_must_be_positive(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(sync_chunk_blocks=0)


class TestWarmRestart:
    def test_warm_beats_cold_on_same_schedule(self):
        cold = Experiment(recovery_config("cold")).run()
        warm = Experiment(recovery_config("warm")).run()
        assert cold.recoveries == warm.recoveries == 1
        assert warm.recovery_time_s < cold.recovery_time_s
        assert cold.recovery_time_by_mode == {"cold": cold.recovery_time_s}
        assert warm.recovery_time_by_mode == {"warm": warm.recovery_time_s}

    def test_warm_restart_with_gc_enabled(self):
        result = Experiment(
            recovery_config("warm", gc_depth=20, sync_chunk_blocks=4096)
        ).run()
        assert result.recoveries == 1
        assert result.recovery_time_s is not None
        assert result.recovery_time_by_mode == {"warm": result.recovery_time_s}

    def test_warm_without_wal_history_reports_cold(self):
        """A joining validator in warm mode has no WAL to replay: its
        first boot, a state-transfer join into the next epoch, is
        reported as a cold restart."""
        result = Experiment(
            recovery_config(
                "warm",
                fault_schedule=(
                    FaultEvent(time=0.4, validator=9, kind="join"),
                ),
            )
        ).run()
        assert result.recoveries == 1
        assert result.recovery_time_by_mode == {"cold": result.recovery_time_s}
        assert result.final_committee_size == 10


class TestCheckpointRecovery:
    def test_adopt_suffix_fetch_resume_with_gc(self):
        """The acceptance path: crash -> checkpoint adoption (2f+1
        matching responses) -> suffix fetch -> resumed proposing, with
        garbage collection on and safety asserted over the recovered
        validator (run() checks the chain-aligned suffix)."""
        result = Experiment(
            recovery_config("checkpoint", gc_depth=20, sync_chunk_blocks=4096)
        ).run()
        assert result.recoveries == 1
        assert result.checkpoint_adoptions == 1
        assert result.checkpoints_captured > 0
        assert result.recovery_time_by_mode == {"checkpoint": result.recovery_time_s}

    def test_adoption_bounds_resync_past_pruned_history(self):
        """At 16 simulated seconds with gc_depth=20 the peers have
        pruned the early rounds; checkpoint recovery still completes
        because only the suffix above the adopted floor is fetched."""
        result = Experiment(
            recovery_config(
                "checkpoint",
                duration=16.0,
                warmup=4.0,
                gc_depth=20,
                sync_chunk_blocks=4096,
                fault_schedule=(
                    FaultEvent(time=9.6, validator=9, kind="crash"),
                    FaultEvent(time=11.2, validator=9, kind="recover"),
                ),
            )
        ).run()
        assert result.recoveries == 1
        assert result.checkpoint_adoptions == 1

    def test_cold_restart_past_gc_horizon_raises(self):
        """The former silent livelock: a cold restart that needs pruned
        history now fails with a clear diagnostic."""
        config = recovery_config(
            "cold",
            duration=16.0,
            warmup=4.0,
            gc_depth=20,
            sync_chunk_blocks=4096,
            fault_schedule=(
                FaultEvent(time=9.6, validator=9, kind="crash"),
                FaultEvent(time=11.2, validator=9, kind="recover"),
            ),
        )
        with pytest.raises(StateTransferError, match="garbage-collection horizon"):
            Experiment(config).run()

    def test_certified_checkpoint_recovery(self):
        """Tusk's certified DAG recovers through the same adoption path
        (its 2-round waves finalize — and hence capture — later, so the
        run is a little longer than the uncertified ones)."""
        result = Experiment(
            recovery_config(
                "checkpoint",
                protocol="tusk",
                duration=4.0,
                warmup=1.0,
                gc_depth=64,
                sync_chunk_blocks=4096,
                fault_schedule=(
                    FaultEvent(time=2.0, validator=9, kind="crash"),
                    FaultEvent(time=2.4, validator=9, kind="recover"),
                ),
            )
        ).run()
        assert result.checkpoint_adoptions == 1
        assert result.recoveries == 1

    @pytest.mark.parametrize(
        "protocol, pinned, masked",
        [
            ("tusk", "3216b51ef24b4027", "3d6f3bac62e065dd"),
            ("cordial-miners", "632c88b8ff6f0cb7", "bb2f696a63257f43"),
            ("mahi-mahi-5", "b87a27b27999fd03", "5c53d1eadd573bb8"),
        ],
    )
    def test_adoption_run_is_pinned_for_every_sequencer_user(self, protocol, pinned, masked):
        """One crash-then-checkpoint-recovery past the GC horizon drives
        the shared ``adopt_checkpoint`` / capture path under each
        protocol's decision rule; the hashes were taken before Tusk's
        own copy of the sequencer was deleted (PR 15).
        Re-pinned once, in PR 19: ``events_processed`` fell by the ingress
        completions that stopped being events; with that field masked the
        hashes are the PR 15 runs' (old -> new and the proof in CHANGES.md).
        ``mahi-mahi-5`` re-pinned once more, in PR 24: ``events_processed``
        grew by the nine retry timers the one synchronizer armed
        (27,717 -> 27,726), everything else equal.  ``masked`` is the
        hash with ``events_processed`` set aside, which a change to how
        the simulator schedules its work leaves where it is; the full
        hashes moved again when client arrivals stopped being events
        (tusk 41,908 -> 28,905, cordial-miners 27,677 -> 14,674,
        mahi-mahi-5 27,726 -> 14,723).  Both columns moved once more, with
        every ``result_to_dict`` field equal, when the config's repr lost
        seven fields (223e274a / 11ea3bf6 / c5d5dc2f before)."""
        config = ExperimentConfig(
            protocol=protocol,
            num_validators=10,
            num_recovering=1,
            recover_mode="checkpoint",
            gc_depth=16,
            checkpoint_interval=2,
            load_tps=800,
            duration=16.0,
            warmup=2.0,
            seed=11,
        )
        result = Experiment(config).run()
        assert result.checkpoint_adoptions == 1
        assert result.recoveries == 1
        assert (result_hash(result), masked_result_hash(result)) == (pinned, masked)

    def test_checkpoints_identical_across_validators(self):
        config = recovery_config("checkpoint", gc_depth=20, sync_chunk_blocks=4096)
        experiment = Experiment(config)
        experiment.run()  # assert_safety cross-checks ids per round
        by_round = {}
        for node in experiment.nodes:
            for checkpoint in node.core.committer.ledger.checkpoints:
                by_round.setdefault(checkpoint.round, set()).add(
                    checkpoint.checkpoint_id
                )
        assert by_round, "no checkpoints captured"
        assert all(len(ids) == 1 for ids in by_round.values())

    @pytest.mark.parametrize("forge", ["adopted base", "checkpoint"])
    def test_a_replaced_incarnations_ledger_is_still_checked(self, monkeypatch, forge):
        """A restart replaces the core, not the ledger's duty: the ledger
        of the incarnation before a checkpoint restart still takes part
        in ``assert_safety``, so a forged adopted base or checkpoint in it
        is a divergence."""
        replaced = []
        recover = SimValidator.recover

        def keeping(node):
            replaced.append((node.authority, node.core.committer.ledger))
            recover(node)

        monkeypatch.setattr(SimValidator, "recover", keeping)
        experiment = Experiment(recovery_config("checkpoint"))
        experiment.run()
        [(authority, ledger)] = replaced
        if forge == "adopted base":
            adopted = experiment.nodes[authority].core.committer.ledger.adopted_base
            ledger.adopted_base = dataclasses.replace(adopted, chain=bytes(32))
            match = r"validator 9 \(incarnation 0\): adopted checkpoint"
        else:
            ledger.checkpoints[-1] = dataclasses.replace(ledger.checkpoints[-1], chain=bytes(32))
            match = "diverged on checkpoints at round"
        with pytest.raises(SimulationError, match=match):
            experiment.assert_safety()

    @pytest.mark.parametrize("mode", ["cold", "warm", "checkpoint"])
    def test_each_restart_retires_the_ledger_it_replaces(self, mode):
        """Whatever the recovery mode, the restarted validator keeps
        one retired ledger, not its current one; the others keep none."""
        experiment = Experiment(recovery_config(mode))
        experiment.run()
        assert [len(node.retired_ledgers) for node in experiment.nodes] == [0] * 9 + [1]
        restarted = experiment.nodes[9]
        assert restarted.retired_ledgers[0] is not restarted.core.committer.ledger

    def test_a_second_restart_is_checked_as_a_second_incarnation(self):
        """Two restarts retire two ledgers, oldest first; the one between
        them adopted a checkpoint, and forging it is reported against
        incarnation 1."""
        schedule = (
            FaultEvent(time=1.0, validator=9, kind="crash"),
            FaultEvent(time=1.1, validator=9, kind="recover"),
            FaultEvent(time=1.5, validator=9, kind="crash"),
            FaultEvent(time=1.6, validator=9, kind="recover"),
        )
        experiment = Experiment(
            recovery_config("checkpoint", fault_schedule=schedule, duration=2.5)
        )
        assert experiment.run().recoveries == 2
        first, second = experiment.nodes[9].retired_ledgers
        assert first.adopted_base is None and second.adopted_base is not None
        second.adopted_base = dataclasses.replace(second.adopted_base, chain=bytes(32))
        with pytest.raises(
            SimulationError, match=r"validator 9 \(incarnation 1\): adopted checkpoint"
        ):
            experiment.assert_safety()


class TestCheckpointVotes:
    def test_quorum_and_first_responder_order(self):
        votes = CheckpointVotes(quorum=3)
        checkpoint = make_checkpoint()
        assert votes.add(5, (checkpoint,)) is None
        assert votes.add(2, (checkpoint,)) is None
        assert votes.add(8, (checkpoint,)) == checkpoint
        assert votes.attesters(checkpoint) == (5, 2, 8)
        votes.clear()
        assert votes.add(1, (checkpoint,)) is None


class TestWalReplayHelpers:
    def test_replay_cost_scales_with_blocks(self):
        costs = CostModel(model_cpu=True)
        replay = WalReplay(blocks=100, transactions=500, own_top_round=9)
        cost = costs.replay_price(replay)
        assert cost > 0
        assert cost < costs.block_base_cost * 100 + costs.tx_consensus_cost * 500
        assert CostModel().replay_price(replay) == 0.0
        empty = WalReplay(blocks=0, transactions=0, own_top_round=0)
        assert costs.replay_price(empty) == 0.0

    def test_replay_restores_round_floor(self, tmp_path):
        """Replaying a WAL with own blocks floors the proposal round —
        the anti-equivocation guarantee a warm restart gets for free."""
        from tests.statesync.test_checkpoint import drive_rounds, make_core

        cores = [make_core(i) for i in range(4)]
        drive_rounds(cores, 6)
        path = tmp_path / "own.wal"
        with WriteAheadLog(path) as wal:
            for block in cores[0].store:
                if block.round > 0:
                    wal.append_block(block)
        fresh = make_core(0)
        replay = replay_wal(fresh, path)
        assert replay.blocks == len(cores[0].store) - 4  # genesis excluded
        assert replay.own_top_round == cores[0].round
        assert fresh.round >= cores[0].round
        # The restored own-last reference leads the next proposal.
        assert fresh._own_last_ref.author == 0
        assert fresh._own_last_ref.round == cores[0].round
