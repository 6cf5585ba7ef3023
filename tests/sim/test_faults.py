"""Unit tests for the fault-schedule model: the crash/recover/join/leave
lifecycle plus the adversary transitions (equivocation campaigns,
partitions, stragglers)."""

import pytest

from repro.errors import ConfigError
from repro.sim.faults import FaultEvent, FaultSchedule, normalize_events


class TestNormalization:
    def test_accepts_events_tuples_and_dicts(self):
        events = normalize_events(
            [
                FaultEvent(time=1.0, validator=3, kind="crash"),
                (2.0, 3, "recover"),
                {"time": 4.0, "validator": 5, "kind": "leave"},
            ]
        )
        assert events == (
            FaultEvent(1.0, 3, "crash"),
            FaultEvent(2.0, 3, "recover"),
            FaultEvent(4.0, 5, "leave"),
        )

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            FaultEvent(time=1.0, validator=1, kind="explode")

    def test_rejects_negative_time(self):
        with pytest.raises(ConfigError):
            FaultEvent(time=-1.0, validator=1, kind="crash")

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            normalize_events(["crash"])

    def test_malformed_shapes_raise_config_error(self):
        """Short tuples, non-numeric times and bad dict keys surface as
        ConfigError, like every other malformed-config path."""
        with pytest.raises(ConfigError):
            normalize_events([(1.0, 2)])  # missing kind
        with pytest.raises(ConfigError):
            normalize_events([("x", 2, "crash")])  # non-numeric time
        with pytest.raises(ConfigError):
            normalize_events([{"when": 1.0, "validator": 2, "kind": "crash"}])


class TestLifecycleValidation:
    def test_sorts_events_by_time(self):
        schedule = FaultSchedule(
            [FaultEvent(5.0, 1, "recover"), FaultEvent(2.0, 1, "crash")]
        )
        assert [e.kind for e in schedule] == ["crash", "recover"]

    def test_recover_without_crash_rejected(self):
        with pytest.raises(ConfigError):
            FaultSchedule([FaultEvent(1.0, 1, "recover")])

    def test_double_crash_rejected(self):
        with pytest.raises(ConfigError):
            FaultSchedule([FaultEvent(1.0, 1, "crash"), FaultEvent(2.0, 1, "crash")])

    def test_events_after_leave_rejected(self):
        with pytest.raises(ConfigError):
            FaultSchedule([FaultEvent(1.0, 1, "leave"), FaultEvent(2.0, 1, "recover")])

    def test_join_must_come_first(self):
        with pytest.raises(ConfigError):
            FaultSchedule([FaultEvent(1.0, 1, "crash"), FaultEvent(2.0, 1, "join")])

    def test_crash_recover_cycles_allowed(self):
        schedule = FaultSchedule(
            [
                FaultEvent(1.0, 1, "crash"),
                FaultEvent(2.0, 1, "recover"),
                FaultEvent(3.0, 1, "crash"),
                FaultEvent(4.0, 1, "recover"),
            ]
        )
        assert len(schedule) == 4


class TestIntrospection:
    def test_initially_down_is_joiners(self):
        schedule = FaultSchedule(
            [
                FaultEvent(1.0, 2, "join"),
                FaultEvent(2.0, 3, "crash"),
            ]
        )
        assert schedule.initially_down() == frozenset({2})

    def test_downtime_crash_recover(self):
        schedule = FaultSchedule(
            FaultEvent(t, v, kind)
            for v in (1, 2)
            for t, kind in ((2.0, "crash"), (5.0, "recover"))
        )
        assert schedule.down_intervals(10.0) == {1: [(2.0, 5.0)], 2: [(2.0, 5.0)]}

    def test_downtime_open_intervals_close_at_duration(self):
        schedule = FaultSchedule(
            [FaultEvent(1.0, 1, "join"), FaultEvent(6.0, 2, "leave")]
        )
        assert schedule.down_intervals(10.0) == {
            1: [(0.0, 1.0)],  # not yet joined
            2: [(6.0, 10.0)],  # left
        }

    def test_max_concurrent_down_overlapping(self):
        schedule = FaultSchedule(
            [
                FaultEvent(1.0, 1, "crash"),
                FaultEvent(3.0, 1, "recover"),
                FaultEvent(2.0, 2, "crash"),
                FaultEvent(4.0, 2, "recover"),
            ]
        )
        assert schedule.max_concurrent_faulty() == 2

    def test_max_concurrent_down_handover_does_not_overlap(self):
        # Validator 1 recovers at the instant validator 2 crashes.
        schedule = FaultSchedule(
            [
                FaultEvent(1.0, 1, "crash"),
                FaultEvent(3.0, 1, "recover"),
                FaultEvent(3.0, 2, "crash"),
            ]
        )
        assert schedule.max_concurrent_faulty() == 1

    def test_empty_schedule_is_falsy(self):
        assert not FaultSchedule()
        assert FaultSchedule().max_concurrent_faulty() == 0


class TestAdversaryEventShapes:
    def test_partition_requires_group(self):
        with pytest.raises(ConfigError, match="non-empty group"):
            FaultEvent(1.0, 2, "partition")

    def test_only_partition_takes_a_group(self):
        with pytest.raises(ConfigError, match="does not take a group"):
            FaultEvent(1.0, 2, "crash", group="minority")
        with pytest.raises(ConfigError, match="does not take a group"):
            FaultEvent(1.0, 2, "heal", group="minority")

    def test_only_partition_and_straggle_take_a_scale(self):
        with pytest.raises(ConfigError, match="does not take a scale"):
            FaultEvent(1.0, 2, "equivocate", scale=2.0)

    def test_straggle_scale_must_be_a_slowdown(self):
        with pytest.raises(ConfigError, match="straggle scale"):
            FaultEvent(1.0, 2, "straggle", scale=0.5)
        assert FaultEvent(1.0, 2, "straggle", scale=1.0).scale == 1.0

    def test_partition_delay_must_be_non_negative(self):
        with pytest.raises(ConfigError):
            FaultEvent(1.0, 2, "partition", group="g", scale=-0.1)

    def test_normalize_extended_tuples(self):
        events = normalize_events(
            [
                (1.0, 2, "partition", "minority"),
                (2.0, 3, "straggle", 6.0),
                (3.0, 2, "partition", "minority", 0.25),
            ]
        )
        assert events[0].group == "minority" and events[0].scale == 0.0
        assert events[1].scale == 6.0
        assert events[2].group == "minority" and events[2].scale == 0.25

    def test_normalize_rejects_oversized_tuples(self):
        with pytest.raises(ConfigError):
            normalize_events([(1.0, 2, "partition", "g", 0.1, "extra")])


class TestAdversaryLifecycle:
    def test_overlapping_partitions_rejected(self):
        """A validator already behind a cut cannot be moved into a
        second group without healing first."""
        with pytest.raises(ConfigError, match="overlaps the open partition"):
            FaultSchedule(
                [
                    FaultEvent(1.0, 2, "partition", group="east"),
                    FaultEvent(2.0, 2, "partition", group="west"),
                ]
            )

    def test_heal_requires_open_partition(self):
        with pytest.raises(ConfigError, match="without an open partition"):
            FaultSchedule([FaultEvent(1.0, 2, "heal")])

    def test_partition_heal_cycles_allowed(self):
        schedule = FaultSchedule(
            [
                FaultEvent(1.0, 2, "partition", group="east"),
                FaultEvent(2.0, 2, "heal"),
                FaultEvent(3.0, 2, "partition", group="west"),
                FaultEvent(4.0, 2, "heal"),
            ]
        )
        assert len(schedule) == 4

    def test_partition_requires_live_validator(self):
        with pytest.raises(ConfigError, match="while down"):
            FaultSchedule(
                [
                    FaultEvent(1.0, 2, "crash"),
                    FaultEvent(2.0, 2, "partition", group="g"),
                ]
            )

    def test_nested_equivocation_campaign_rejected(self):
        with pytest.raises(ConfigError, match="already running"):
            FaultSchedule(
                [
                    FaultEvent(1.0, 2, "equivocate"),
                    FaultEvent(2.0, 2, "equivocate"),
                ]
            )

    def test_desist_requires_campaign(self):
        with pytest.raises(ConfigError, match="without an equivocation campaign"):
            FaultSchedule([FaultEvent(1.0, 2, "desist")])

    def test_campaign_must_end_before_crash_campaigning(self):
        """The campaign bracket follows the lifecycle: equivocate/desist
        act on a live validator."""
        with pytest.raises(ConfigError, match="while down"):
            FaultSchedule(
                [
                    FaultEvent(1.0, 2, "equivocate"),
                    FaultEvent(2.0, 2, "crash"),
                    FaultEvent(3.0, 2, "desist"),
                ]
            )

    def test_straggle_on_joining_validator_allowed(self):
        """``straggle`` is a standing rate property: it may be scheduled
        before the validator's join and applies once it comes up."""
        schedule = FaultSchedule(
            [
                FaultEvent(0.0, 4, "straggle", scale=8.0),
                FaultEvent(2.0, 4, "join"),
            ]
        )
        assert schedule.straggler_validators() == frozenset({4})
        assert schedule.initially_down() == frozenset({4})

    def test_no_events_after_leave(self):
        with pytest.raises(ConfigError, match="after terminal leave"):
            FaultSchedule(
                [
                    FaultEvent(1.0, 2, "leave"),
                    FaultEvent(2.0, 2, "straggle", scale=4.0),
                ]
            )


class TestAdversaryIntrospection:
    def test_partition_intervals_close_on_heal(self):
        schedule = FaultSchedule(
            [
                FaultEvent(1.0, 2, "partition", group="g"),
                FaultEvent(3.0, 2, "heal"),
            ]
        )
        assert schedule.partition_intervals(10.0) == {2: [(1.0, 3.0)]}

    def test_unhealed_partition_runs_to_duration(self):
        """A partition that never heals keeps the validator behind the
        cut for the rest of the run."""
        schedule = FaultSchedule([FaultEvent(4.0, 2, "partition", group="g")])
        assert schedule.partition_intervals(10.0) == {2: [(4.0, 10.0)]}

    def test_equivocation_intervals(self):
        schedule = FaultSchedule(
            [
                FaultEvent(1.0, 2, "equivocate"),
                FaultEvent(3.0, 2, "desist"),
                FaultEvent(5.0, 2, "equivocate"),
            ]
        )
        assert schedule.equivocation_intervals(8.0) == {2: [(1.0, 3.0), (5.0, 8.0)]}

    def test_straggler_validators_require_real_slowdown(self):
        schedule = FaultSchedule(
            [
                FaultEvent(1.0, 2, "straggle", scale=8.0),
                FaultEvent(2.0, 3, "straggle", scale=1.0),  # full speed
            ]
        )
        assert schedule.straggler_validators() == frozenset({2})

    def test_max_concurrent_faulty_counts_campaigns(self):
        """An equivocation campaign spends a fault-budget slot exactly
        like downtime; overlapping campaign + crash of the same
        validator is counted once."""
        schedule = FaultSchedule(
            [
                FaultEvent(1.0, 1, "equivocate"),
                FaultEvent(4.0, 1, "desist"),
                FaultEvent(2.0, 2, "crash"),
                FaultEvent(3.0, 2, "recover"),
            ]
        )
        assert schedule.max_concurrent_faulty() == 2

    def test_max_concurrent_faulty_merges_same_validator_spans(self):
        schedule = FaultSchedule(
            [
                FaultEvent(1.0, 1, "equivocate"),
                FaultEvent(2.0, 1, "desist"),
                FaultEvent(2.0, 1, "crash"),
                FaultEvent(3.0, 1, "recover"),
            ]
        )
        assert schedule.max_concurrent_faulty() == 1

    def test_partitions_and_stragglers_spend_no_budget(self):
        """Partitioned and straggling validators are honest: they cost
        availability, not fault-budget slots."""
        schedule = FaultSchedule(
            [
                FaultEvent(1.0, 1, "partition", group="g"),
                FaultEvent(1.0, 2, "straggle", scale=8.0),
                FaultEvent(2.0, 3, "crash"),
            ]
        )
        assert schedule.max_concurrent_faulty() == 1
