"""Curve-shape regression: smoke-sweep output vs the paper's trends.

Closes the ROADMAP item "check curve shapes against paper_data.py
programmatically": every smoke-size sweep point is compared against the
qualitative protocol orderings the paper's figures establish (e.g.
Mahi-Mahi-5's latency sits well below Tusk's at matched load), via
``benchmarks.curve_checks``.  The same checks gate ``run_all.py``.
"""

from __future__ import annotations

import math

import pytest

from repro.sim.faults import FaultEvent
from repro.sim.metrics import LatencySummary
from repro.sim.runner import ExperimentConfig, ExperimentResult
from repro.sim.sweep import ResultsStore, run_sweep

from benchmarks.bench_fig3_ideal import SWEEPS as FIG3_SWEEPS
from benchmarks.bench_fig4_faults import SWEEP_FAULTS
from benchmarks.bench_recovery import (
    SWEEP_RECONFIG,
    SWEEP_RECOVERY,
    SWEEP_RECOVERY_GC,
    SWEEP_RECOVERY_MODES,
)
from benchmarks.curve_checks import (
    MIN_PAPER_RATIO,
    check_adversary_curves,
    check_curve_shapes,
    check_liveness,
    check_mechanism_curves,
    check_recovery_curves,
    check_restarts,
    group_by_shape,
    paper_table_for,
)
from benchmarks.paper_data import FIG3_10_NODES, FIG4_FAULTS


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return ResultsStore(tmp_path_factory.mktemp("results"))


def smoke_results(spec, store):
    return run_sweep(spec.smoke(), store).results


def fake_result(config=None, **fields):
    """A fabricated result: a plausible honest point of ``config`` unless
    ``fields`` doctor it."""
    latency = fields.pop("latency", 1.0)
    defaults = dict(
        config=config or ExperimentConfig(duration=14.0, warmup=4.0),
        latency=LatencySummary(100, latency, latency, latency, latency, latency),
        throughput_tps=1000.0,
        rounds_reached=60,
        blocks_committed=600,
        direct_commits=100,
        indirect_commits=0,
        direct_skips=0,
        indirect_skips=0,
        messages_sent=1,
        bytes_sent=1,
        pending_transactions=0,
    )
    return ExperimentResult(**{**defaults, **fields})


def config(duration=14.0, **overrides):
    return ExperimentConfig(duration=duration, warmup=duration / 4, **overrides)


@pytest.mark.slow
class TestPaperCurveShapes:
    def test_fig3_smoke_orderings_match_paper(self, store):
        results = [r for spec in FIG3_SWEEPS for r in smoke_results(spec, store)]
        assert check_curve_shapes(results) == []

    def test_fig4_smoke_orderings_match_paper(self, store):
        results = smoke_results(SWEEP_FAULTS, store)
        assert check_curve_shapes(results) == []

    def test_mahi_mahi_beats_tusk_at_matched_load(self, store):
        """The satellite's named example: mahi-mahi-5 latency sits below
        tusk at matched load (the paper separates them 3x).  Under the
        ideal (fault-free) figure — with 3 crashes a 2-second smoke run
        commits nothing measurable on tusk at all, which is itself the
        paper's qualitative point."""
        results = [r for spec in FIG3_SWEEPS for r in smoke_results(spec, store)]
        by_protocol = {r.config.protocol: r for r in results}
        assert by_protocol["mahi-mahi-5"].latency.avg < by_protocol["tusk"].latency.avg
        # And under faults tusk degrades hardest: either unmeasurable in
        # the smoke window or strictly slower than mahi-mahi-5.
        faulty = {r.config.protocol: r for r in smoke_results(SWEEP_FAULTS, store)}
        tusk = faulty["tusk"].latency.avg
        assert math.isnan(tusk) or faulty["mahi-mahi-5"].latency.avg < tusk

    def test_enforced_pairs_are_the_robust_ones(self):
        """The checker only enforces orderings the paper separates by
        >= MIN_PAPER_RATIO; Cordial Miners vs Mahi-Mahi under faults
        (1.7s vs 0.95s) stays out, Tusk vs everything stays in."""
        assert FIG4_FAULTS["cordial-miners"]["latency_s"] < (
            MIN_PAPER_RATIO * FIG4_FAULTS["mahi-mahi-5"]["latency_s"]
        )
        assert FIG4_FAULTS["tusk"]["latency_s"] >= (
            MIN_PAPER_RATIO * FIG4_FAULTS["cordial-miners"]["latency_s"]
        )
        assert FIG3_10_NODES["tusk"]["latency_s"] >= (
            MIN_PAPER_RATIO * FIG3_10_NODES["mahi-mahi-5"]["latency_s"]
        )


@pytest.mark.slow
class TestRecoverySweepAcceptance:
    """The --smoke acceptance path for the recovery sweeps, without the
    driver: a crashed validator restarts, re-syncs via fetch, resumes
    proposing, safety holds with it included, and every point reports a
    recovery-time metric."""

    def test_smoke_recovery_points_report_metric(self, store):
        results = smoke_results(SWEEP_RECOVERY, store)  # run_sweep asserts safety
        assert results
        for r in results:
            # Every point restarts with GC on, adopts a quorum-attested
            # checkpoint, suffix-fetches, resumes proposing within the
            # smoke window, and reports its recovery time.
            assert r.config.gc_depth > 0
            assert r.recoveries == r.config.num_recovering
            assert r.checkpoint_adoptions == r.config.num_recovering
            assert r.checkpoints_captured > 0
            assert r.recovery_time_s is not None and r.recovery_time_s > 0
            assert set(r.recovery_time_by_mode) == {"checkpoint"}
            assert r.availability < 1.0
            assert r.blocks_committed > 0

    def test_smoke_recovery_mode_curves_hold(self, store):
        """The acceptance pair at smoke size: warm (WAL) strictly below
        cold on the same schedule, GC-enabled warm restart completes,
        and the recovery curve checker finds nothing to flag."""
        results = smoke_results(SWEEP_RECOVERY_MODES, store)
        results += smoke_results(SWEEP_RECOVERY_GC, store)
        by_mode = {
            r.config.recover_mode: r for r in results if r.config.gc_depth == 0
        }
        assert by_mode["warm"].recovery_time_s < by_mode["cold"].recovery_time_s
        warm_gc = [
            r
            for r in results
            if r.config.recover_mode == "warm" and r.config.gc_depth > 0
        ]
        assert warm_gc and all(
            r.recoveries == 1 and r.recovery_time_s is not None for r in warm_gc
        )
        assert check_recovery_curves(results) == []

    def test_smoke_reconfig_points_complete_join(self, store):
        results = smoke_results(SWEEP_RECONFIG, store)
        assert results
        for r in results:
            assert any(e.kind == "join" for e in r.config.fault_schedule)
            assert r.recoveries >= 1
            assert r.checkpoint_adoptions >= 1  # the joiner state-transferred in
            assert r.blocks_committed > 0

    def test_recovery_points_have_no_paper_reference(self):
        """Recovery workloads are new; the curve checker must skip them
        rather than compare against an unrelated figure."""

        # paper_table_for only reads result.config; a minimal probe works.
        class _Probe:
            def __init__(self, config):
                self.config = config

        for config in SWEEP_RECOVERY.configs + SWEEP_RECONFIG.configs:
            assert paper_table_for(_Probe(config)) is None


class TestGrouping:
    def test_group_by_shape_neutralizes_protocol(self):
        def fake(protocol, load):
            return fake_result(ExperimentConfig(protocol=protocol, load_tps=load))

        groups = group_by_shape(
            [fake("mahi-mahi-5", 100.0), fake("tusk", 100.0), fake("tusk", 200.0)]
        )
        assert len(groups) == 2
        sizes = sorted(len(g) for g in groups.values())
        assert sizes == [1, 2]


class TestRecoveryCurveChecker:
    """Unit-level checks of check_recovery_curves over fabricated
    results (the smoke-level integration runs in
    TestRecoverySweepAcceptance)."""

    @staticmethod
    def fake(mode, duration, recovery_time, interval=0):
        return fake_result(
            config(duration, recover_mode=mode, checkpoint_interval=interval, num_recovering=1),
            recoveries=1,
            recovery_time_s=recovery_time,
        )

    def test_accepts_expected_shape(self):
        results = [
            self.fake("cold", 8.0, 0.10),
            self.fake("cold", 32.0, 0.40),
            self.fake("warm", 8.0, 0.02),
            self.fake("warm", 32.0, 0.05),
            self.fake("checkpoint", 8.0, 0.18, interval=2),
            self.fake("checkpoint", 32.0, 0.20, interval=2),
        ]
        assert check_recovery_curves(results) == []

    def test_flags_warm_not_beating_cold(self):
        results = [self.fake("cold", 8.0, 0.05), self.fake("warm", 8.0, 0.05)]
        violations = check_recovery_curves(results)
        assert len(violations) == 1
        assert "warm" in violations[0]

    def test_flags_flat_cold_and_growing_checkpoint(self):
        results = [
            self.fake("cold", 8.0, 0.30),
            self.fake("cold", 32.0, 0.30),  # cold should grow
            self.fake("checkpoint", 8.0, 0.05, interval=2),
            self.fake("checkpoint", 32.0, 0.50, interval=2),  # ckpt should stay flat
        ]
        violations = check_recovery_curves(results)
        assert len(violations) == 3  # flat cold, non-flat ckpt, ckpt >= cold at max
        assert any("grow with history" in v for v in violations)
        assert any("~flat" in v for v in violations)
        assert any("longest" in v for v in violations)

    def test_skips_incomplete_recoveries(self):
        results = [
            self.fake("cold", 8.0, None),
            self.fake("warm", 8.0, 0.02),
        ]
        assert check_recovery_curves(results) == []


class TestEpochCurveChecker:
    """Unit-level checks of check_epoch_curves over fabricated results
    (the smoke-level integration runs through run_all's gates and
    TestEpochSweepAcceptance below)."""

    @staticmethod
    def fake(duration, transitions, sizes, final_availability=1.0):
        summary = tuple(
            {
                "epoch": i,
                "start_round": i * 6,
                "size": size,
                "observed_s": float(i),
                "commits": 10,
                "latency_avg_s": 1.0,
                "availability": final_availability if i == len(sizes) - 1 else 0.9,
            }
            for i, size in enumerate(sizes)
        )
        resize = config(
            duration,
            num_validators=7,
            fault_schedule=tuple(
                FaultEvent(1.0 + i, validator, kind)
                for i, (validator, kind) in enumerate(
                    [(4, "join"), (5, "join"), (6, "join"), (6, "leave"), (5, "leave")]
                )
            ),
        )
        return fake_result(
            resize,
            recoveries=1,
            recovery_time_s=0.1,
            epoch_transitions=transitions,
            final_committee_size=sizes[-1] if sizes else 0,
            epoch_summary=summary,
        )

    def test_accepts_full_resize(self):
        from benchmarks.curve_checks import check_epoch_curves

        result = self.fake(16.0, 5, [4, 5, 6, 7, 6, 5])
        assert check_epoch_curves([result]) == []

    def test_smoke_points_held_to_growth_only(self):
        from benchmarks.curve_checks import check_epoch_curves

        # At smoke durations only the joins have time to activate.
        assert check_epoch_curves([self.fake(2.0, 3, [4, 5, 6, 7])]) == []

    def test_flags_no_transition(self):
        from benchmarks.curve_checks import check_epoch_curves

        violations = check_epoch_curves([self.fake(16.0, 0, [4])])
        assert len(violations) == 1
        assert "no epoch transition" in violations[0]

    def test_flags_committee_never_growing(self):
        from benchmarks.curve_checks import check_epoch_curves

        violations = check_epoch_curves([self.fake(16.0, 1, [4, 4])])
        assert len(violations) == 1
        assert "never grew" in violations[0]

    def test_flags_missing_shrink_at_full_scale(self):
        from benchmarks.curve_checks import check_epoch_curves

        violations = check_epoch_curves([self.fake(16.0, 3, [4, 5, 6, 7])])
        assert len(violations) == 1
        assert "whole membership timeline" in violations[0]

    def test_flags_epochs_off_the_timeline(self):
        from benchmarks.curve_checks import check_epoch_curves

        # Two joins activated as one epoch: n jumps 5 -> 7.
        (violation,) = check_epoch_curves([self.fake(2.0, 2, [4, 5, 7])])
        assert "follow the membership timeline n=[4, 5, 6, 7, 6, 5]" in violation

    def test_flags_unavailable_final_epoch(self):
        from benchmarks.curve_checks import check_epoch_curves

        violations = check_epoch_curves(
            [self.fake(16.0, 5, [4, 5, 6, 7, 6, 5], final_availability=0.8)]
        )
        assert len(violations) == 1
        assert "available" in violations[0]

    def test_ignores_static_points(self):
        from benchmarks.curve_checks import check_epoch_curves

        assert check_epoch_curves([TestRecoveryCurveChecker.fake("cold", 8.0, 0.1)]) == []


@pytest.mark.slow
class TestEpochSweepAcceptance:
    def test_smoke_epoch_resize_changes_n_mid_run(self, store):
        from benchmarks.bench_recovery import SWEEP_EPOCH_RESIZE
        from benchmarks.curve_checks import check_epoch_curves

        results = smoke_results(SWEEP_EPOCH_RESIZE, store)
        assert check_epoch_curves(results) == []
        for result in results:
            assert result.epoch_transitions >= 1
            sizes = [row["size"] for row in result.epoch_summary]
            assert max(sizes) > sizes[0]  # n genuinely changed mid-run
            assert result.recoveries >= 1  # a join completed


class TestFineOrdering:
    """Claim C1 at full duration: every pair the paper orders, not only
    the pairs it separates 2x."""

    @staticmethod
    def group(duration, **latencies):
        measured = {
            "mahi-mahi-4": 0.95, "mahi-mahi-5": 1.15, "cordial-miners": 1.57, "tusk": 1.84,
            **{name.replace("_", "-"): value for name, value in latencies.items()},
        }
        return [
            fake_result(config(duration, protocol=protocol, load_tps=20_000), latency=value)
            for protocol, value in measured.items()
        ]

    def test_accepts_paper_ordering(self):
        assert check_curve_shapes(self.group(14.0)) == []

    def test_flags_sub_2x_pair_at_full_duration(self):
        (violation,) = check_curve_shapes(self.group(14.0, mahi_mahi_4=1.2))
        assert "mahi-mahi-4 should beat mahi-mahi-5" in violation
        violations = check_curve_shapes(self.group(14.0, cordial_miners=1.1))
        assert ["mahi-mahi-5 should beat cordial-miners" in v for v in violations] == [True]

    def test_smoke_duration_is_held_to_2x_pairs_only(self):
        assert check_curve_shapes(self.group(2.0, mahi_mahi_4=1.2)) == []
        (violation,) = check_curve_shapes(self.group(2.0, tusk=1.1, cordial_miners=1.05))
        assert "mahi-mahi-5 should beat tusk" in violation


class TestMechanismChecker:
    def test_direct_skips_belong_to_mahi_mahi_under_crash_faults(self):
        mahi = config(num_crashed=3)
        cordial = config(protocol="cordial-miners", num_crashed=3)
        honest = [fake_result(mahi, direct_skips=41), fake_result(cordial, indirect_skips=3)]
        assert check_mechanism_curves(honest) == []
        (violation,) = check_mechanism_curves([fake_result(mahi), honest[1]])
        assert "never skipped directly" in violation
        (violation,) = check_mechanism_curves([honest[0], fake_result(cordial, direct_skips=2)])
        assert "no direct skip rule" in violation

    def test_direct_skip_ablation(self):
        on, off = config(num_crashed=3), config(num_crashed=3, direct_skip=False)
        honest = [
            fake_result(on, direct_skips=45, latency=1.26),
            fake_result(off, indirect_skips=39, latency=3.87),
        ]
        assert check_mechanism_curves(honest) == []
        (violation,) = check_mechanism_curves(
            [fake_result(on, direct_skips=45, latency=4.0), honest[1]]
        )
        assert "should not cost latency" in violation
        (violation,) = check_mechanism_curves(
            [honest[0], fake_result(off, direct_skips=1, latency=3.87)]
        )
        assert "no direct skip rule" in violation
        # Nothing measurable without the rule (a smoke window): no verdict.
        stalled = fake_result(off, latency=math.nan)
        assert check_mechanism_curves([honest[0], stalled]) == []

    def test_more_leader_slots_never_hurt(self):
        def sweep(latencies):
            return [
                fake_result(config(leaders_per_round=slots, num_crashed=3), direct_skips=9,
                            latency=latency)
                for slots, latency in latencies.items()
            ]

        assert check_mechanism_curves(sweep({1: 1.28, 2: 1.26, 3: 1.20})) == []
        assert check_mechanism_curves(sweep({1: 1.28, 3: 1.295})) == []  # within 20 ms
        (violation,) = check_mechanism_curves(sweep({1: 1.28, 2: 1.1, 3: 1.31}))
        assert "3 leader slots should be no slower than 1" in violation
        # A censored single-slot pipeline measures nothing: no verdict.
        assert check_mechanism_curves(sweep({1: math.nan, 3: 2.2})) == []

    @staticmethod
    def waves(duration=14.0, skips=(39, 10, 0), commits=(73, 79, 112)):
        return [
            fake_result(
                config(duration, wave_length_override=wave, adversary_targets=3,
                       adversary_delay=0.4),
                direct_skips=skipped, direct_commits=committed, indirect_skips=4,
            )
            for wave, skipped, committed in zip((3, 4, 5), skips, commits)
        ]

    def test_wave_length_under_asynchronous_adversary(self):
        assert check_mechanism_curves(self.waves()) == []
        (violation,) = check_mechanism_curves(self.waves(skips=(10, 10, 0)))
        assert "fall with the wave length" in violation
        (violation,) = check_mechanism_curves(self.waves(skips=(39, 0, 5)))
        assert "fall with the wave length" in violation
        (violation,) = check_mechanism_curves(self.waves(commits=(73, 79, 73)))
        assert "w=5 should directly commit more slots than w=3" in violation
        # A smoke run decides the same handful of slots at every wave length.
        assert check_mechanism_curves(self.waves(2.0, skips=(4, 4, 4), commits=(10, 10, 10))) == []

    def test_benign_network_decides_directly(self):
        benign = config(load_tps=5_000)
        assert check_mechanism_curves([fake_result(benign, direct_commits=132)]) == []
        (violation,) = check_mechanism_curves(
            [fake_result(benign, direct_commits=100, indirect_commits=32)]
        )
        assert "only 100 of 132 decided slots" in violation
        # Crash faults are not the benign network: skips are expected.
        faulty = fake_result(config(num_crashed=3), direct_commits=74, direct_skips=38)
        assert check_mechanism_curves([faulty]) == []


class TestLivenessChecker:
    def test_every_point_commits(self):
        assert check_liveness([fake_result()]) == []
        (violation,) = check_liveness([fake_result(blocks_committed=0)])
        assert "committed no blocks" in violation

    def test_full_length_points_measure_latency(self):
        (violation,) = check_liveness([fake_result(latency=math.nan)])
        assert "no transaction submitted after warmup" in violation
        # Smoke-length: commits of the warmup era are all a run may see.
        assert check_liveness([fake_result(config(2.0), latency=math.nan)]) == []

    def test_dos_on_every_slot_censors_and_extra_slots_ride_through(self):
        censored = config(leaders_per_round=1, leader_dos_slots=1, leader_dos_delay=1.0)
        riding = config(leaders_per_round=3, leader_dos_slots=1, leader_dos_delay=1.0)
        honest = [
            fake_result(censored, blocks_committed=0, latency=math.nan),
            fake_result(riding, blocks_committed=328, latency=2.16),
        ]
        assert check_liveness(honest) == []
        (violation,) = check_liveness([fake_result(censored, blocks_committed=5)])
        assert "should censor the commit pipeline" in violation
        (violation,) = check_liveness([fake_result(riding, blocks_committed=0)])
        assert "committed no blocks" in violation


class TestRestartChecker:
    CONFIG = dict(num_recovering=2, recover_mode="checkpoint", checkpoint_interval=1)
    HONEST = dict(
        recoveries=2, recovery_time_s=0.52, recovery_time_by_mode={"checkpoint": 0.52},
        checkpoint_adoptions=2, checkpoints_captured=76, availability=0.95,
    )

    def doctored(self, **fields):
        return check_restarts([fake_result(config(**self.CONFIG), **{**self.HONEST, **fields})])

    def test_accepts_completed_restarts(self):
        assert self.doctored() == []
        assert check_restarts([fake_result()]) == []  # nothing scheduled

    def test_flags_each_way_a_restart_falls_short(self):
        (violation,) = self.doctored(recoveries=1)
        assert "2 restart(s) scheduled but 1 completed" in violation
        (violation,) = self.doctored(recovery_time_s=None)
        assert "recovery time None" in violation
        (violation,) = self.doctored(recovery_time_by_mode={"cold": 0.52})
        assert "via 'checkpoint' alone" in violation
        (violation,) = self.doctored(checkpoint_adoptions=1)
        assert "1 checkpoint adoptions" in violation
        (violation,) = self.doctored(checkpoints_captured=0)
        assert "(0 captured)" in violation
        (violation,) = self.doctored(availability=1.0)
        assert "never counted down" in violation

    def test_scheduled_events_count_as_restarts(self):
        warm = config(
            recover_mode="warm",
            fault_schedule=(FaultEvent(8.0, 9, "crash"), FaultEvent(10.0, 9, "recover")),
        )
        done = dict(recoveries=1, recovery_time_s=0.1, recovery_time_by_mode={"warm": 0.1},
                    availability=0.99)
        assert check_restarts([fake_result(warm, **done)]) == []
        (violation,) = check_restarts([fake_result(warm)])
        assert "1 restart(s) scheduled but 0 completed" in violation


class TestCertifiedResync:
    @staticmethod
    def pair(duration, mahi, tusk):
        return [
            fake_result(
                config(duration, protocol=protocol, num_recovering=2,
                       recover_mode="checkpoint", checkpoint_interval=1),
                recoveries=2, recovery_time_s=seconds,
            )
            for protocol, seconds in (("mahi-mahi-5", mahi), ("tusk", tusk))
        ]

    def test_certified_resync_costs_more_at_full_duration(self):
        assert check_recovery_curves(self.pair(16.0, 0.52, 0.57)) == []
        (violation,) = check_recovery_curves(self.pair(16.0, 0.52, 0.50))
        assert "certified re-sync should cost more than mahi-mahi-5's" in violation
        # A smoke restart has too little history for the gap to show.
        assert check_recovery_curves(self.pair(2.0, 0.318, 0.312)) == []


class TestAdversaryChecker:
    def test_only_scheduled_equivocators_equivocate(self):
        assert check_adversary_curves([fake_result()]) == []
        (violation,) = check_adversary_curves([fake_result(equivocations=3)])
        assert "nobody was scheduled to equivocate" in violation

    def test_partition_is_accounted(self):
        cut = config(
            fault_schedule=tuple(
                FaultEvent(2.0, v, "partition", group="minority") for v in (5, 6, 7)
            ) + tuple(FaultEvent(4.0, v, "heal") for v in (5, 6, 7)),
        )
        honest = dict(messages_dropped=252, partitioned_seconds=6.0, availability=0.93)
        assert check_adversary_curves([fake_result(cut, **honest)]) == []
        (violation,) = check_adversary_curves(
            [fake_result(cut, **{**honest, "partitioned_seconds": 0.0})]
        )
        assert "0.00 partitioned validator-seconds" in violation
