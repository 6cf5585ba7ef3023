"""Integration tests for the adversary/network scenarios in the
experiment harness: equivocation campaigns, partitions, stragglers,
leader DoS and WAN matrices, plus the config validation and metric
attribution that back them.  The full curves live in
``benchmarks/bench_adversary.py``.
"""

import pytest

from repro.errors import ConfigError
from repro.sim.faults import FaultEvent, merge_spans
from repro.sim.runner import Experiment, ExperimentConfig


def quick_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        protocol="mahi-mahi-5",
        num_validators=10,
        load_tps=1_000.0,
        duration=6.0,
        warmup=2.0,
        seed=2,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def quick(**overrides):
    return Experiment(quick_config(**overrides)).run()


class TestAdversaryConfigValidation:
    def test_leader_dos_needs_mahi_mahi(self):
        with pytest.raises(ConfigError, match="leader slots"):
            quick_config(protocol="tusk", leader_dos_slots=1)

    def test_leader_dos_excludes_blind_adversary(self):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            quick_config(leader_dos_slots=1, adversary_targets=2)

    def test_leader_dos_delay_must_be_positive(self):
        with pytest.raises(ConfigError, match="leader_dos_delay"):
            quick_config(leader_dos_slots=1, leader_dos_delay=0.0)

    def test_unknown_wan_matrix_rejected(self):
        with pytest.raises(ConfigError, match="unknown wan_matrix"):
            quick_config(wan_matrix="mars-2")

    def test_wan_matrix_excludes_uniform_delay(self):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            quick_config(wan_matrix="paper-5", uniform_delay=0.05)


class TestEquivocationBudget:
    """Campaign equivocators spend the same ``f`` slots crashes do."""

    def _campaigns(self, validators, start=1.0, stop=5.0):
        events = []
        for validator in validators:
            events.append(FaultEvent(start, validator, "equivocate"))
            events.append(FaultEvent(stop, validator, "desist"))
        return tuple(events)

    def test_campaigns_within_budget_accepted(self):
        config = quick_config(fault_schedule=self._campaigns((9, 8, 7)))
        assert config.campaign_equivocators == 3

    def test_campaigns_beyond_f_rejected(self):
        with pytest.raises(ConfigError, match="concurrently faulty"):
            quick_config(fault_schedule=self._campaigns((9, 8, 7, 6)))

    def test_concurrent_campaign_and_crash_share_the_budget(self):
        with pytest.raises(ConfigError, match="concurrently faulty"):
            quick_config(
                fault_schedule=self._campaigns((9, 8, 7))
                + (FaultEvent(2.0, 6, "crash"), FaultEvent(4.0, 6, "recover"))
            )

    def test_disjoint_campaign_and_crash_windows_do_not_stack(self):
        config = quick_config(
            fault_schedule=self._campaigns((9, 8, 7), start=1.0, stop=2.0)
            + (FaultEvent(3.0, 6, "crash"), FaultEvent(4.0, 6, "recover"))
        )
        assert config.fault_schedule  # validated without error

    def test_static_equivocators_still_count(self):
        with pytest.raises(ConfigError):
            quick_config(
                num_equivocators=2, fault_schedule=self._campaigns((5, 6))
            )


class TestEquivocationCampaigns:
    def test_campaign_preserves_safety_and_liveness(self):
        """run() asserts honest prefix consistency internally; the
        campaign must actually send conflicting siblings and the
        committee must keep committing around them."""
        result = quick(
            fault_schedule=(
                FaultEvent(1.0, 9, "equivocate"),
                FaultEvent(4.0, 9, "desist"),
            )
        )
        assert result.equivocations > 0
        assert result.blocks_committed > 0

    def test_desisted_equivocator_stays_excluded(self):
        """A validator that equivocated even once cannot rejoin the
        safety reference set — its pre-desist forks may surface later."""
        result = quick(
            fault_schedule=(
                FaultEvent(1.0, 9, "equivocate"),
                FaultEvent(2.0, 9, "desist"),
            )
        )
        assert result.equivocations > 0  # ran, asserted, excluded


class TestPartitionAttribution:
    def test_partitioned_validator_is_unavailable_but_not_crashed(self):
        """The availability metric charges the partition window without
        counting the validator as crashed/recovering — it is honest and
        alive behind the cut."""
        duration = 6.0
        result = quick(
            duration=duration,
            fault_schedule=(
                FaultEvent(2.0, 9, "partition", group="solo"),
                FaultEvent(4.0, 9, "heal"),
            ),
        )
        expected = 1.0 - 2.0 / (10 * duration)
        assert result.availability == pytest.approx(expected, abs=1e-6)
        assert result.recoveries == 0
        assert result.partitioned_seconds == pytest.approx(2.0)
        assert result.messages_dropped > 0
        assert result.blocks_committed > 0

    def test_crash_inside_partition_window_not_double_counted(self):
        """A validator that crashes while partitioned is one unavailable
        validator, not two: the downtime and partition spans merge."""
        duration = 6.0
        result = quick(
            duration=duration,
            fault_schedule=(
                FaultEvent(1.0, 9, "partition", group="solo"),
                FaultEvent(2.0, 9, "crash"),
                FaultEvent(3.0, 9, "recover"),
                FaultEvent(4.0, 9, "heal"),
            ),
        )
        # Merged [1, 4) window: 3 unavailable seconds, not 3 + 1.
        expected = 1.0 - 3.0 / (10 * duration)
        assert result.availability == pytest.approx(expected, abs=1e-2)

    def test_merge_spans_unions_overlaps(self):
        merged = merge_spans([(1.0, 4.0)], [(2.0, 3.0), (5.0, 6.0)], [(3.5, 5.5)])
        assert merged == [(1.0, 6.0)]
        assert merge_spans([], []) == []
        # Empty spans drop out; touching ones join.
        assert merge_spans([(2.0, 2.0), (5.0, 4.0)], [(0.0, 1.0), (1.0, 1.5)]) == [(0.0, 1.5)]

    def test_unhealed_partition_charges_to_run_end(self):
        result = quick(
            fault_schedule=(FaultEvent(3.0, 9, "partition", group="solo"),)
        )
        assert result.partitioned_seconds == pytest.approx(3.0)  # [3, 6)
        assert result.availability == pytest.approx(1.0 - 3.0 / 60.0, abs=1e-6)
        assert result.blocks_committed > 0


class TestStragglers:
    def test_straggler_lags_but_stays_available(self):
        """A straggling validator is slow, not faulty: it trails the
        observer's round frontier without costing availability or
        fault budget."""
        result = quick(
            fault_schedule=(FaultEvent(0.5, 9, "straggle", scale=200.0),)
        )
        assert result.max_rounds_behind > 0
        assert result.availability == 1.0
        assert result.blocks_committed > 0

    def test_straggler_recovers_speed_at_scale_one(self):
        clean = quick()
        restored = quick(
            fault_schedule=(
                FaultEvent(0.5, 9, "straggle", scale=200.0),
                FaultEvent(1.0, 9, "straggle", scale=1.0),
            )
        )
        # A brief slowdown must not depress throughput like a standing
        # one does (regression: scale=1 restores full speed).
        assert restored.throughput_tps > 0.8 * clean.throughput_tps
