"""Epoch-based committee reconfiguration: the validator set as a
first-class, round-versioned object.

Covers the schedule/command layer (`repro.committee`), the quorum
arithmetic following the active epoch (including waves straddling an
epoch boundary), and the fault-schedule edge cases: leaving the
validator that owns a wave's leader slot, a join landing mid-checkpoint-
recovery, and a leave that would shrink the committee below the BFT
minimum.
"""

import pytest

from repro.committee import (
    Committee,
    CommitteeSchedule,
    ReconfigCommand,
    reconfig_commands_in,
)
from repro.errors import ConfigError
from repro.sim.faults import FaultEvent
from repro.sim.runner import Experiment, ExperimentConfig
from repro.statesync import Checkpoint, GENESIS_STATE
from repro.transaction import Transaction
from tests.helpers import masked_result_hash, result_hash


def make_epoch_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        protocol="mahi-mahi-5",
        num_validators=6,
        load_tps=800,
        duration=10.0,
        warmup=2.0,
        gc_depth=64,
        recover_mode="checkpoint",
        checkpoint_interval=2,
        fault_schedule=(FaultEvent(1.5, 5, "join"),),
        seed=11,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestCommitteeSchedule:
    def test_static_schedule_resolves_genesis_everywhere(self):
        schedule = CommitteeSchedule(Committee.of_size(4))
        assert schedule.is_static
        assert schedule.quorum_threshold(0) == 3
        assert schedule.quorum_threshold(10_000) == 3
        assert schedule.committee_at(42).members == (0, 1, 2, 3)

    def test_threshold_follows_epoch_across_the_boundary(self):
        """The straddle regression: round 9 resolves against the old
        committee, round 10 (the activation round) against the new."""
        schedule = CommitteeSchedule(Committee.of_size(4), provisioned=5)
        schedule.schedule_epoch(10, Committee.of_size(5))
        assert schedule.size_at(9) == 4
        assert schedule.quorum_threshold(9) == 3
        assert schedule.size_at(10) == 5
        assert schedule.quorum_threshold(10) == 4
        assert schedule.validity_threshold(9) == 2
        assert schedule.validity_threshold(10) == 2
        assert schedule.epoch_at(9).epoch_id == 0
        assert schedule.epoch_at(10).epoch_id == 1

    def test_activation_rounds_strictly_increase(self):
        schedule = CommitteeSchedule(Committee.of_size(4), provisioned=6)
        schedule.schedule_epoch(8, Committee.of_size(5))
        with pytest.raises(ConfigError):
            schedule.schedule_epoch(8, Committee.of_size(6))
        with pytest.raises(ConfigError):
            schedule.schedule_epoch(5, Committee.of_size(6))

    def test_apply_command_join_then_leave(self):
        schedule = CommitteeSchedule(Committee.of_size(4), provisioned=5)
        epoch = schedule.apply_command(ReconfigCommand("join", 4), 7)
        assert epoch is not None and epoch.committee.members == (0, 1, 2, 3, 4)
        epoch = schedule.apply_command(ReconfigCommand("leave", 1), 12)
        assert epoch is not None and epoch.committee.members == (0, 2, 3, 4)
        assert schedule.size_at(6) == 4
        assert schedule.size_at(7) == 5
        assert schedule.size_at(12) == 4

    def test_commands_colliding_on_activation_round_fold_forward(self):
        schedule = CommitteeSchedule(Committee.of_size(4), provisioned=6)
        first = schedule.apply_command(ReconfigCommand("join", 4), 7)
        second = schedule.apply_command(ReconfigCommand("join", 5), 7)
        assert first.start_round == 7
        assert second.start_round == 8  # bumped past the collision
        assert second.committee.size == 6

    def test_bad_commands_deterministically_ignored(self):
        """A committed-but-inapplicable command must not halt consensus:
        every honest walk sees it at the same point and skips it."""
        schedule = CommitteeSchedule(Committee.of_size(4), provisioned=5)
        assert schedule.apply_command(ReconfigCommand("join", 2), 7) is None
        assert schedule.apply_command(ReconfigCommand("leave", 4), 7) is None
        # Leave that would shrink below n=4: ignored at the protocol
        # layer (config validation rejects it up front, see below).
        assert schedule.apply_command(ReconfigCommand("leave", 1), 7) is None
        # Joining an unprovisioned identity: ignored.
        assert schedule.apply_command(ReconfigCommand("join", 9), 7) is None
        assert schedule.is_static

    def test_adopt_epochs_restores_history(self):
        schedule = CommitteeSchedule(Committee.of_size(4), provisioned=6)
        schedule.apply_command(ReconfigCommand("join", 4), 6)
        schedule.apply_command(ReconfigCommand("join", 5), 11)
        snapshot = schedule.snapshot()

        fresh = CommitteeSchedule(Committee.of_size(4), provisioned=6)
        fresh.adopt_epochs(snapshot)
        assert fresh.snapshot() == snapshot
        assert fresh.size_at(11) == 6
        # Only a fresh schedule may adopt.
        with pytest.raises(ConfigError):
            fresh.adopt_epochs(snapshot)

    def test_subscribe_sees_transitions(self):
        schedule = CommitteeSchedule(Committee.of_size(4), provisioned=5)
        seen = []
        schedule.subscribe(seen.append)
        schedule.apply_command(ReconfigCommand("join", 4), 9)
        assert [e.epoch_id for e in seen] == [1]


class TestReconfigCommands:
    def test_payload_round_trip(self):
        for kind, validator in (("join", 4), ("leave", 123)):
            command = ReconfigCommand(kind, validator)
            assert ReconfigCommand.from_payload(command.encode_payload()) == command

    def test_malformed_payloads_ignored(self):
        assert ReconfigCommand.from_payload(b"") is None
        assert ReconfigCommand.from_payload(b"\x00" * 64) is None
        good = ReconfigCommand("join", 4).encode_payload()
        assert ReconfigCommand.from_payload(good[:-1]) is None
        assert ReconfigCommand.from_payload(good + b"x") is None

    def test_commands_in_blocks_scans_linearized_order(self):
        class FakeBlock:
            def __init__(self, *txs):
                self.transactions = txs

        join = Transaction(
            tx_id=1, payload=ReconfigCommand("join", 4).encode_payload()
        )
        leave = Transaction(
            tx_id=2, payload=ReconfigCommand("leave", 2).encode_payload()
        )
        noise = Transaction(tx_id=3, payload=b"\x00" * 32)
        commands = reconfig_commands_in(
            [FakeBlock(noise, join), FakeBlock(), FakeBlock(leave)]
        )
        assert commands == [
            ReconfigCommand("join", 4),
            ReconfigCommand("leave", 2),
        ]


class TestCheckpointCarriesCommittee:
    def test_epochs_in_encoding_and_content_address(self):
        base = dict(
            round=20,
            floor=4,
            next_slot=(21, 0),
            chain=GENESIS_STATE,
            sequence_length=64,
            committee_size=5,
        )
        static = Checkpoint(**base)
        epochal = Checkpoint(
            **base, epochs=((0, 0, (0, 1, 2, 3)), (1, 12, (0, 1, 2, 3, 4)))
        )
        decoded, _ = Checkpoint.decode(epochal.encode())
        assert decoded == epochal
        assert decoded.epochs == epochal.epochs
        # The committee is part of the checkpoint id.
        assert static.checkpoint_id != epochal.checkpoint_id
        other = Checkpoint(
            **base, epochs=((0, 0, (0, 1, 2, 3)), (1, 12, (0, 1, 2, 4, 5)))
        )
        assert other.checkpoint_id != epochal.checkpoint_id


class TestConfigValidation:
    def test_leave_below_minimum_committee_raises(self):
        """The edge case the BFT bound forbids: a leave that would drop
        n below 4 must be rejected up front."""
        with pytest.raises(ConfigError, match="below n=4"):
            make_epoch_config(
                num_validators=4,
                fault_schedule=(FaultEvent(2.0, 3, "leave"),),
            )

    def test_leave_below_minimum_after_join_history_raises(self):
        with pytest.raises(ConfigError, match="below n=4"):
            make_epoch_config(
                num_validators=5,
                fault_schedule=(
                    FaultEvent(1.0, 4, "join"),
                    FaultEvent(3.0, 4, "leave"),
                    FaultEvent(4.0, 3, "leave"),
                ),
            )

    def test_provisioned_validator_without_join_raises(self):
        """The genesis committee is every validator that does not join,
        and joiners take the highest indexes: validator 5 above joiner 4
        is provisioned but never joins."""
        with pytest.raises(ConfigError, match="highest indexes"):
            make_epoch_config(fault_schedule=(FaultEvent(1.5, 4, "join"),))

    def test_genesis_committee_needs_the_bft_minimum(self):
        with pytest.raises(ConfigError, match="genesis committee of >= 4"):
            make_epoch_config(
                num_validators=5,
                fault_schedule=(FaultEvent(1.0, 3, "join"), FaultEvent(1.5, 4, "join")),
            )

    def test_joiner_downtime_does_not_consume_fault_budget(self):
        """Three not-yet-joined validators exceed f of the provisioned
        committee — but they are outside the active committee, so the
        config validates."""
        config = ExperimentConfig(
            protocol="mahi-mahi-5",
            num_validators=7,
            fault_schedule=(
                FaultEvent(1.0, 4, "join"),
                FaultEvent(2.0, 5, "join"),
                FaultEvent(3.0, 6, "join"),
            ),
        )
        assert (config.reconfigures, config.genesis_size) == (True, 4)


class TestEpochRuns:
    def test_leaving_the_leader_slot_owner(self):
        """Leave a validator while it keeps being elected to leader
        slots: waves proposed before the activation may elect it (and
        must still decide under the old committee); waves proposed at or
        after the activation must never elect it."""
        config = make_epoch_config(
            num_validators=5,
            leaders_per_round=2,
            fault_schedule=(FaultEvent(2.0, 4, "leave"),),
            duration=12.0,
        )
        experiment = Experiment(config)
        result = experiment.run()  # asserts safety across the boundary
        observer = experiment.nodes[0]
        schedule = observer.core.schedule
        epochs = schedule.epochs()
        assert len(epochs) == 2, "the leave command must have activated"
        activation = epochs[1].start_round
        assert 4 not in epochs[1].committee.members
        committer = observer.core.committer
        deciders = committer._deciders
        highest = observer.core.store.highest_round
        elected_before = set()
        for round_number in range(1, min(activation + 10, highest - 6)):
            for decider in deciders:
                leader = decider.elect(round_number)
                if round_number >= activation:
                    # Thresholds and elections follow the active epoch:
                    # the departed validator owns no slot from the
                    # activation round on.
                    assert leader in epochs[1].committee.members
                else:
                    elected_before.add(leader)
        # The pre-activation rounds drew from the full committee — with
        # two slots per round across dozens of rounds, the leaver owned
        # some wave's leader slot (and the run still committed past it).
        assert 4 in elected_before
        assert result.blocks_committed > 0
        assert result.final_committee_size == 4
        # The leaver exited once its excluding epoch activated.
        assert experiment.nodes[4].down

    def test_join_lands_mid_checkpoint_recovery(self):
        """A crashed validator is re-syncing from a checkpoint while a
        join command commits and activates: both the recoverer and the
        joiner must converge on the same epoch schedule and commit
        sequence (asserted by run()), and both complete recovery."""
        config = make_epoch_config(
            num_validators=6,
            duration=12.0,
            fault_schedule=(
                FaultEvent(2.8, 3, "crash"),
                FaultEvent(3.2, 5, "join"),
                FaultEvent(3.4, 3, "recover"),
            ),
        )
        experiment = Experiment(config)
        result = experiment.run()
        assert result.epoch_transitions == 1
        assert result.final_committee_size == 6
        # Both the joiner and the crash-recovered validator resumed.
        assert result.recoveries == 2
        recovered_schedules = [
            experiment.nodes[v].core.schedule.snapshot() for v in (0, 3, 5)
        ]
        assert recovered_schedules[0] == recovered_schedules[1] == recovered_schedules[2]

    def test_epoch_summary_attribution_is_complete(self):
        config = make_epoch_config(duration=10.0)
        result = Experiment(config).run()
        assert result.epoch_transitions == 1
        assert [row["epoch"] for row in result.epoch_summary] == [0, 1]
        assert [row["size"] for row in result.epoch_summary] == [5, 6]
        assert result.epoch_summary[1]["commits"] > 0
        assert result.epoch_summary[1]["latency_avg_s"] > 0

    @pytest.mark.parametrize(
        "protocol, pinned, masked",
        [
            ("tusk", "556e4545a7315324", "05a30f8a8cedb525"),
            ("cordial-miners", "32c01a1261ab685f", "d42830d82aa40f38"),
            ("mahi-mahi-5", "53ce84371ec4dd83", "a498e43eba474b96"),
        ],
    )
    def test_resize_run_is_pinned_for_every_sequencer_user(self, protocol, pinned, masked):
        """A join then a leave drive the shared ``_apply_reconfig``
        (scan, activation, round-scoped invalidation, walk restart)
        under each protocol's decision rule; the hashes were taken
        before Tusk's own copy of the sequencer was deleted (PR 15).
        Re-pinned once, in PR 19: ``events_processed`` fell by the ingress
        completions that stopped being events; with that field masked the
        hashes are the PR 15 runs' (old -> new and the proof in CHANGES.md).
        ``cordial-miners`` and ``mahi-mahi-5`` re-pinned once more, in
        PR 24: ``events_processed`` grew by the retry timers the one
        synchronizer armed (11,053 -> 11,056 and 11,001 -> 11,005),
        everything else equal.  ``masked`` is the hash with
        ``events_processed`` set aside, which a change to how the
        simulator schedules its work leaves where it is; the full hashes
        moved again when client arrivals stopped being events (tusk
        13,311 -> 5,212, cordial-miners 11,056 -> 2,957, mahi-mahi-5
        11,005 -> 2,906).  Both columns moved once more, with every
        ``result_to_dict`` field equal, when the config's repr lost seven
        fields (9b604268 / 82606845 / 6d963c91 before)."""
        config = make_epoch_config(
            protocol=protocol,
            fault_schedule=(FaultEvent(1.5, 5, "join"), FaultEvent(5.0, 1, "leave")),
        )
        result = Experiment(config).run()
        assert result.epoch_transitions == 2
        assert [row["size"] for row in result.epoch_summary] == [5, 6, 5]
        assert (result_hash(result), masked_result_hash(result)) == (pinned, masked)
