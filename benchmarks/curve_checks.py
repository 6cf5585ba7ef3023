"""Programmatic curve-shape checks against the paper's numbers.

``paper_data.py`` carries the latency/throughput figures quoted in the
paper's evaluation; this module checks that *measured* sweep results
reproduce the robust qualitative shape of those curves — the protocol
orderings the paper's claims rest on — without requiring pixel-perfect
absolute values from a discrete-event simulator.

Every rule is data-driven: it picks its points by what their configs
*are* — a field of one point, or a group of points that differ in
exactly one field — never by the name of the sweep that declared them,
so a point shared by several sweeps is judged once and a new sweep is
held to every rule its configs fall under.  A claim that a seconds-long
smoke run is too short to show is skipped by the point's own duration
(:data:`FULL_DURATION`), not by a flag.

:func:`check_curve_shapes` is the protocol ordering: within every group
of results that differ only in protocol (same committee size, load,
fault pattern, seed), any pair of protocols whose *paper* latencies
differ by at least :data:`MIN_PAPER_RATIO` must show the same ordering
in the measured averages.  A 2x paper gap (e.g. Tusk's 3.5 s vs
Mahi-Mahi-5's 1.1 s in Figure 3) is far outside smoke-run noise; sub-2x
gaps (Mahi-Mahi-4 vs Mahi-Mahi-5 vs Cordial Miners) are enforced at
full durations only.  :func:`check_mechanism_curves` holds the
mechanisms those orderings are argued from (direct skips, leader slots,
wave length, the direct-commit rate), :func:`check_liveness` and
:func:`check_restarts` that every point commits and every scheduled
restart completes, and :func:`check_recovery_curves`,
:func:`check_epoch_curves` and :func:`check_adversary_curves` the shape
claims of the workloads the paper's evaluation stops short of.
``benchmarks/README.md`` maps each claim to its rule.

Used by ``run_all.py`` after every run (:data:`RESULT_CHECKS`) and by the
regression tests in ``tests/benchmarks/test_curve_shapes.py``.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Iterable

from repro.sim.runner import ExperimentResult
from repro.sim.sweep import config_hash

from .paper_data import FIG3_10_NODES, FIG3_50_NODES, FIG4_FAULTS

#: Only enforce orderings the paper separates by at least this factor.
MIN_PAPER_RATIO = 2.0

#: Checkpoint recovery must stay within this factor of itself across
#: the duration axis ("~flat"), while cold-to-genesis grows.
CHECKPOINT_FLAT_FACTOR = 3.0

#: Points at or above this duration are full-scale; shorter ones were
#: smoke-shrunk (2 s) and are excused from the claims such a run is too
#: short to show: protocol orderings the paper separates by less than
#: :data:`MIN_PAPER_RATIO`, the shrink half of an epoch timeline (only
#: the early joins have time to commit and activate), tail latency over
#: the partition window (the run must outlive the heal by a commit
#: latency), the wave-length ablation and the cost of a certified
#: re-sync.
FULL_DURATION = 8.0

#: "More leader slots never hurt": the widest pipeline of a leader-slot
#: sweep may be at most this much slower than the narrowest (seconds).
LEADER_SLOT_SLACK = 0.02

#: In a benign network nearly every slot decides by the direct rule
#: (Lemma 17): the directly committed share of a fault-free Mahi-Mahi
#: point's decided slots must exceed this.
MIN_DIRECT_COMMIT_FRACTION = 0.9


def paper_table_for_config(cfg) -> dict[str, dict] | None:
    """The paper reference table matching a config's fault pattern and
    committee size, or ``None`` when the paper has no matching figure
    (ablations, adversary sweeps, recovery workloads...)."""
    if cfg.num_equivocators or cfg.adversary_targets or cfg.num_recovering:
        return None
    if cfg.leader_dos_slots or cfg.wan_matrix:
        return None
    if cfg.fault_schedule or cfg.wave_length_override or not cfg.direct_skip:
        return None
    if cfg.num_crashed >= 3:
        return FIG4_FAULTS
    if cfg.num_crashed:
        return None
    return FIG3_50_NODES if cfg.num_validators >= 50 else FIG3_10_NODES


def paper_table_for(result: ExperimentResult) -> dict[str, dict] | None:
    """:func:`paper_table_for_config` over a result's config."""
    return paper_table_for_config(result.config)


def _groups_differing_in(
    results: Iterable[ExperimentResult], field: str, neutral
) -> dict[str, dict[object, ExperimentResult]]:
    """Group results that differ in exactly one config field, keyed
    inside each group by that field's value.

    The group key is the config hash with the field neutralized, so
    points from different sweeps that agree on everything else land in
    the same comparison group.
    """
    groups: dict[str, dict[object, ExperimentResult]] = {}
    for result in results:
        key = config_hash(replace(result.config, **{field: neutral}))
        groups.setdefault(key, {})[getattr(result.config, field)] = result
    return groups


def group_by_shape(results: Iterable[ExperimentResult]) -> dict[str, dict[str, ExperimentResult]]:
    """Group results that differ only in protocol (same committee size,
    load, fault pattern and seed)."""
    return _groups_differing_in(results, "protocol", "mahi-mahi-5")


def _point(cfg) -> str:
    """How a violation names the point it is about."""
    return (
        f"({cfg.protocol}, n={cfg.num_validators}, load={cfg.load_tps:.0f}, "
        f"crashed={cfg.num_crashed}, duration={cfg.duration:.0f}s)"
    )


def _has_direct_skip(cfg) -> bool:
    """Only Mahi-Mahi has the direct skip rule, and an ablation can
    switch it off."""
    return cfg.protocol.startswith("mahi-mahi") and cfg.direct_skip


def check_liveness(results: Iterable[ExperimentResult]) -> list[str]:
    """Every point commits blocks — and, at full duration, transactions
    submitted after warmup — with one exception that must hold the other
    way: a leader-DoS adversary on *every* leader slot of the round
    (``leader_dos_slots >= leaders_per_round``) delays each anchor past
    the commit pipeline's patience, so that point must commit nothing
    (with more slots than the adversary covers, the extra anchors ride
    through like any other point)."""
    violations = []
    for result in results:
        cfg = result.config
        if cfg.leader_dos_slots >= cfg.leaders_per_round:
            if result.blocks_committed:
                violations.append(
                    f"leader DoS on all {cfg.leaders_per_round} leader slot(s) should "
                    f"censor the commit pipeline but {result.blocks_committed} blocks "
                    f"committed {_point(cfg)}"
                )
        elif result.blocks_committed <= 0:
            violations.append(f"point committed no blocks {_point(cfg)}")
        elif cfg.duration >= FULL_DURATION and math.isnan(result.latency.avg):
            violations.append(
                f"full-scale point committed no transaction submitted after warmup "
                f"{_point(cfg)}"
            )
    return violations


def check_mechanism_curves(results: Iterable[ExperimentResult]) -> list[str]:
    """Enforce the mechanisms the paper argues its latency claims from.

    * **Direct skips (claim C3).**  A protocol without the rule (Cordial
      Miners, Tusk, Mahi-Mahi with ``direct_skip`` off) reports none; a
      Mahi-Mahi point with crashed validators skips their leader slots
      directly.  Within a group that differs only in ``direct_skip``,
      the rule never costs latency.
    * **Leader slots (claim C4, Figures 5/7).**  Within a group that
      differs only in ``leaders_per_round``, the widest pipeline is no
      slower than the narrowest (:data:`LEADER_SLOT_SLACK`).
    * **Wave length (Appendix C.3).**  Within a group that differs only
      in ``wave_length_override`` under the asynchronous adversary, the
      shortest wave — w = 3 loses the common-core guarantee — skips
      strictly more leaders than any longer one, skips never rise with
      the wave length, and the longest wave directly commits more slots
      than the shortest.  Full durations only: in a smoke run every wave
      length decides the same handful of slots.
    * **Direct-commit rate (Lemma 17).**  A fault-free Mahi-Mahi point
      on the benign network decides more than
      :data:`MIN_DIRECT_COMMIT_FRACTION` of its slots by direct commit.
    """
    violations = []
    results = list(results)
    for result in results:
        cfg = result.config
        if not _has_direct_skip(cfg):
            if result.direct_skips:
                violations.append(
                    f"no direct skip rule in play but {result.direct_skips} direct "
                    f"skips reported {_point(cfg)}"
                )
        elif cfg.num_crashed and not result.direct_skips:
            violations.append(
                f"{cfg.num_crashed} crashed validators but their leader slots were "
                f"never skipped directly {_point(cfg)}"
            )
        benign = paper_table_for_config(cfg) is not None and not cfg.num_crashed
        decided = (
            result.direct_commits
            + result.indirect_commits
            + result.direct_skips
            + result.indirect_skips
        )
        if (
            benign
            and decided
            and _has_direct_skip(cfg)
            and result.direct_commits <= MIN_DIRECT_COMMIT_FRACTION * decided
        ):
            violations.append(
                f"benign network should decide nearly every slot directly but only "
                f"{result.direct_commits} of {decided} decided slots were direct "
                f"commits {_point(cfg)}"
            )
    for group in _groups_differing_in(results, "direct_skip", True).values():
        with_rule, without = group.get(True), group.get(False)
        if with_rule is None or without is None:
            continue
        # NaN (nothing measurable in a smoke window) compares false.
        if with_rule.latency.avg > without.latency.avg:
            violations.append(
                f"the direct skip rule should not cost latency but measured "
                f"{with_rule.latency.avg:.3f}s with it vs {without.latency.avg:.3f}s "
                f"without {_point(with_rule.config)}"
            )
    for group in _groups_differing_in(results, "leaders_per_round", 1).values():
        measured = {k: r for k, r in group.items() if not math.isnan(r.latency.avg)}
        if len(measured) < 2:
            continue
        narrow, wide = measured[min(measured)], measured[max(measured)]
        if wide.latency.avg > narrow.latency.avg + LEADER_SLOT_SLACK:
            violations.append(
                f"{max(measured)} leader slots should be no slower than "
                f"{min(measured)} but measured {wide.latency.avg:.3f}s vs "
                f"{narrow.latency.avg:.3f}s {_point(wide.config)}"
            )
    for group in _groups_differing_in(results, "wave_length_override", None).values():
        waves = sorted(wave for wave in group if wave)
        cfg = next(iter(group.values())).config
        if len(waves) < 2 or not cfg.adversary_targets or cfg.duration < FULL_DURATION:
            continue
        skips = [group[wave].direct_skips for wave in waves]
        if skips[0] <= skips[1] or skips != sorted(skips, reverse=True):
            violations.append(
                f"direct skips under the asynchronous adversary should fall with the "
                f"wave length, strictly from w={waves[0]}, but measured {skips} over "
                f"w={waves} {_point(cfg)}"
            )
        shortest, longest = group[waves[0]], group[waves[-1]]
        if longest.direct_commits <= shortest.direct_commits:
            violations.append(
                f"w={waves[-1]} should directly commit more slots than w={waves[0]} "
                f"under the asynchronous adversary but measured "
                f"{longest.direct_commits} vs {shortest.direct_commits} {_point(cfg)}"
            )
    return violations


def _mode_group_key(cfg) -> str:
    """Hash of a config with the recovery mode neutralized: results in
    the same group differ only in how the restart re-syncs."""
    return config_hash(replace(cfg, recover_mode="cold", checkpoint_interval=0))


def _scaling_group_key(cfg) -> tuple:
    """Results in the same group differ only in recovery mode and run
    duration (schedule event times are normalized to duration
    fractions, since they scale with it)."""
    return (
        cfg.protocol,
        cfg.num_validators,
        cfg.load_tps,
        cfg.gc_depth,
        cfg.sync_chunk_blocks,
        cfg.seed,
        tuple(
            (round(e.time / cfg.duration, 6), e.validator, e.kind)
            for e in cfg.fault_schedule
        ),
        cfg.num_recovering,
    )


def check_restarts(results: Iterable[ExperimentResult]) -> list[str]:
    """Every restart a config schedules — ``num_recovering`` validators
    plus each ``recover`` and ``join`` event — completes: the validator
    re-syncs and proposes again, the recovery time is reported under the
    mode the config asked for and no other, a checkpoint-mode restart
    adopts a quorum-attested checkpoint (its peers captured some), and
    the downtime is charged to availability.  Any scale: the schedules
    rescale with a smoke run's duration."""
    violations = []
    for result in results:
        cfg = result.config
        restarts = cfg.num_recovering + sum(
            event.kind in ("recover", "join") for event in cfg.fault_schedule
        )
        if not restarts:
            continue
        label = f"(mode={cfg.recover_mode}, gc_depth={cfg.gc_depth}) {_point(cfg)}"
        if result.recoveries != restarts or not result.recovery_time_s:
            violations.append(
                f"{restarts} restart(s) scheduled but {result.recoveries} completed "
                f"(recovery time {result.recovery_time_s}) {label}"
            )
            continue
        if set(result.recovery_time_by_mode) != {cfg.recover_mode}:
            violations.append(
                f"restarts should recover via '{cfg.recover_mode}' alone but reported "
                f"{sorted(result.recovery_time_by_mode)} {label}"
            )
        if cfg.recover_mode == "checkpoint" and (
            result.checkpoint_adoptions < restarts or result.checkpoints_captured <= 0
        ):
            violations.append(
                f"{restarts} checkpoint-mode restart(s) but "
                f"{result.checkpoint_adoptions} checkpoint adoptions "
                f"({result.checkpoints_captured} captured) {label}"
            )
        if result.availability >= 1.0:
            violations.append(f"restarting validators were never counted down {label}")
    return violations


def check_recovery_curves(results: Iterable[ExperimentResult]) -> list[str]:
    """Enforce the recovery shape claims over completed restarts.

    * warm (WAL replay) strictly below cold (refetch to genesis) on the
      same schedule (any scale, smoke included);
    * over a duration axis: cold grows with history, checkpoint stays
      within :data:`CHECKPOINT_FLAT_FACTOR` of itself — the point of
      recovering from a committed frontier instead of genesis — and
      beats cold at the longest history;
    * within a group that differs only in protocol, a certified DAG
      (Tusk) pays more for its re-sync than any uncertified one: the
      restarted validator verifies 2f+1 signatures per vertex (Section
      2.2).  Full durations only — a smoke run restarts with too little
      history for the difference to show.
    """
    violations = []
    results = [
        r
        for r in results
        if r.recovery_time_s is not None and r.config.recover_mode
    ]
    # (1) warm strictly below cold at matched schedule.
    by_schedule: dict[str, dict[str, ExperimentResult]] = {}
    for result in results:
        by_schedule.setdefault(_mode_group_key(result.config), {})[
            result.config.recover_mode
        ] = result
    for group in by_schedule.values():
        cold, warm = group.get("cold"), group.get("warm")
        if cold is None or warm is None:
            continue
        if warm.recovery_time_s >= cold.recovery_time_s:
            cfg = warm.config
            violations.append(
                f"warm (WAL) restart should beat cold restart on the same schedule but "
                f"measured {warm.recovery_time_s:.3f}s vs {cold.recovery_time_s:.3f}s "
                f"(duration={cfg.duration:.0f}s, load={cfg.load_tps:.0f})"
            )
    # (2) shape over the duration axis.
    by_shape: dict[tuple, dict[str, dict[float, float]]] = {}
    for result in results:
        modes = by_shape.setdefault(_scaling_group_key(result.config), {})
        modes.setdefault(result.config.recover_mode, {})[
            result.config.duration
        ] = result.recovery_time_s
    for modes in by_shape.values():
        cold = modes.get("cold", {})
        checkpoint = modes.get("checkpoint", {})
        if len(cold) >= 2 and cold[max(cold)] <= cold[min(cold)]:
            violations.append(
                f"cold-to-genesis recovery should grow with history length but measured "
                f"{cold[min(cold)]:.3f}s at {min(cold):.0f}s vs "
                f"{cold[max(cold)]:.3f}s at {max(cold):.0f}s"
            )
        if len(checkpoint) >= 2:
            low, high = checkpoint[min(checkpoint)], checkpoint[max(checkpoint)]
            if high > CHECKPOINT_FLAT_FACTOR * low:
                violations.append(
                    f"checkpoint recovery should stay ~flat as history grows but measured "
                    f"{low:.3f}s at {min(checkpoint):.0f}s vs {high:.3f}s at "
                    f"{max(checkpoint):.0f}s (> {CHECKPOINT_FLAT_FACTOR}x)"
                )
        if len(cold) >= 2 and len(checkpoint) >= 2:
            top = max(cold)
            if top in checkpoint and checkpoint[top] >= cold[top]:
                violations.append(
                    f"checkpoint recovery should beat cold-to-genesis at the longest "
                    f"history ({top:.0f}s) but measured {checkpoint[top]:.3f}s vs "
                    f"{cold[top]:.3f}s"
                )
    # (3) a certified re-sync costs more than an uncertified one.
    for group in group_by_shape(results).values():
        tusk = group.get("tusk")
        if tusk is None or tusk.config.duration < FULL_DURATION:
            continue
        for protocol, result in group.items():
            if protocol != "tusk" and result.recovery_time_s >= tusk.recovery_time_s:
                violations.append(
                    f"tusk's certified re-sync should cost more than {protocol}'s but "
                    f"measured {tusk.recovery_time_s:.3f}s vs "
                    f"{result.recovery_time_s:.3f}s {_point(result.config)}"
                )
    return violations


def check_epoch_curves(results: Iterable[ExperimentResult]) -> list[str]:
    """Enforce the epoch-reconfiguration shape claims.

    Every reconfiguration point (a schedule with a ``join`` or
    ``leave``) must show ``n`` genuinely changing mid-run: at least one
    epoch transition activated, and the committee grown past its
    genesis size (thresholds follow the active epoch — the quorum
    arithmetic itself is regression-tested by the simulator's
    ``TestCommitteeSchedule`` and ``TestEpochRuns``; this gate checks
    the sweep exercised it).  The epochs a point did activate must be the
    schedule's membership timeline in order — one join or leave each,
    from the genesis size (4 -> 5 -> 6 -> 7 -> 6 -> 5 for
    ``reconfig-epoch-resize``, 9 -> 10 -> 9 for
    ``reconfig-join-leave``).  Full-scale points must additionally
    activate the *whole* timeline, its shrink half included, and end
    with a fully-available final committee (a departed validator must
    stop counting against availability once its excluding epoch
    activates).
    """
    violations = []
    for result in results:
        cfg = result.config
        if not cfg.reconfigures:
            continue
        genesis = cfg.genesis_size
        label = f"(n={cfg.num_validators}, load={cfg.load_tps:.0f}, duration={cfg.duration:.0f}s)"
        if result.epoch_transitions < 1:
            violations.append(
                f"epoch-reconfig point activated no epoch transition {label}"
            )
            continue
        sizes = [row["size"] for row in result.epoch_summary]
        if not sizes or max(sizes) <= genesis:
            violations.append(
                f"epoch-reconfig point never grew the committee past its genesis "
                f"n={genesis} {label}"
            )
            continue
        timeline = [genesis]
        for event in sorted(cfg.fault_schedule, key=lambda e: e.time):
            if event.kind in ("join", "leave"):
                timeline.append(timeline[-1] + (1 if event.kind == "join" else -1))
        reached = timeline[: result.epoch_transitions + 1]
        if sizes != reached or result.final_committee_size != reached[-1]:
            violations.append(
                f"epochs should follow the membership timeline n={timeline} but "
                f"{result.epoch_transitions} transitions gave n={sizes}, ending at "
                f"n={result.final_committee_size} {label}"
            )
        if cfg.duration >= FULL_DURATION:
            if len(reached) < len(timeline):
                violations.append(
                    f"full-scale epoch-reconfig point should activate its whole "
                    f"membership timeline n={timeline} but stopped at n={sizes} {label}"
                )
            if result.epoch_summary[-1]["availability"] < 1.0:
                violations.append(
                    f"final epoch's member set should be fully available once "
                    f"leavers stop counting, got "
                    f"{result.epoch_summary[-1]['availability']:.3f} {label}"
                )
    return violations


def _scenario_group_key(cfg) -> str:
    """Hash of a config with its fault schedule neutralized: results in
    the same group differ only in scenario intensity (partition window,
    straggler count, campaign count)."""
    return config_hash(replace(cfg, fault_schedule=()))


def _schedule_kinds(cfg) -> set[str]:
    return {event.kind for event in cfg.fault_schedule}


def check_adversary_curves(results: Iterable[ExperimentResult]) -> list[str]:
    """Enforce the adversary-scenario shape claims (``bench_adversary``).

    Scale-independent (smoke included): equivocation campaigns actually
    equivocate and nobody else does (that the committee keeps committing
    around them, and which leader-DoS points commit at all, is
    :func:`check_liveness`), partitions drop cross-links and cost
    availability in proportion to the window, the multi-slot leader-DoS
    point out-commits the single-slot one (relative to its own no-DoS
    baseline), stragglers trail the round frontier and thin throughput,
    and the metro WAN matrix beats both wide-area spreads.
    Tail-latency monotonicity over the partition window additionally
    needs the run to outlive the heal by a commit latency, so it is
    held to full-scale durations (:data:`FULL_DURATION`).
    """
    violations = []
    results = list(results)
    # (1) Equivocation campaigns: conflicting blocks really went out,
    # and only from validators scheduled to send them.
    for r in results:
        label = f"(duration={r.config.duration:.0f}s, load={r.config.load_tps:.0f})"
        if r.config.campaign_equivocators:
            if r.equivocations <= 0:
                violations.append(
                    f"{r.config.campaign_equivocators} equivocation campaign(s) "
                    f"scheduled but no conflicting block was ever sent {label}"
                )
        elif not r.config.num_equivocators and r.equivocations:
            violations.append(
                f"nobody was scheduled to equivocate but {r.equivocations} "
                f"conflicting blocks were sent {label}"
            )
        if _schedule_kinds(r.config) & {"partition", "heal"}:
            if r.messages_dropped <= 0 or r.partitioned_seconds <= 0:
                violations.append(
                    f"partition point dropped no cross-partition message "
                    f"({r.messages_dropped} dropped over "
                    f"{r.partitioned_seconds:.2f} partitioned validator-seconds) {label}"
                )
            if r.availability >= 1.0:
                violations.append(
                    f"partitioned validators still counted fully available {label}"
                )
        if "straggle" in _schedule_kinds(r.config):
            if r.max_rounds_behind <= 0:
                violations.append(
                    f"{r.config.straggler_count} straggler(s) scheduled but nobody "
                    f"trailed the observer's round frontier {label}"
                )
    # (2) Shape over the partition-window / straggler-count axes.  The
    # inner dicts are keyed by full config hash so a config shared by
    # several sweeps (the clean baseline) lands in a group only once.
    partition_groups: dict[str, dict[str, ExperimentResult]] = {}
    straggler_groups: dict[str, dict[str, ExperimentResult]] = {}
    for r in results:
        kinds = _schedule_kinds(r.config)
        if kinds <= {"partition", "heal"}:
            partition_groups.setdefault(_scenario_group_key(r.config), {})[
                config_hash(r.config)
            ] = r
        if kinds <= {"straggle"}:
            straggler_groups.setdefault(_scenario_group_key(r.config), {})[
                config_hash(r.config)
            ] = r
    for members in partition_groups.values():
        group = sorted(members.values(), key=lambda r: r.config.partition_seconds)
        if len({r.config.partition_seconds for r in group}) < 2:
            continue
        avail = [r.availability for r in group]
        if any(b >= a for a, b in zip(avail, avail[1:])):
            violations.append(
                "availability should fall strictly with the partition window, "
                f"measured {[round(a, 3) for a in avail]} over windows "
                f"{[round(r.config.partition_seconds, 2) for r in group]}s"
            )
        if group[0].config.duration >= FULL_DURATION:
            p99 = [r.latency.p99 for r in group]
            if any(math.isnan(v) for v in p99) or any(
                b <= a for a, b in zip(p99, p99[1:])
            ):
                violations.append(
                    "p99 commit latency should grow strictly with the partition "
                    f"window (stalled load lives in the tail), measured "
                    f"{[round(v, 3) for v in p99]}s over windows "
                    f"{[round(r.config.partition_seconds, 2) for r in group]}s"
                )
    for members in straggler_groups.values():
        group = sorted(members.values(), key=lambda r: r.config.straggler_count)
        if len({r.config.straggler_count for r in group}) < 2:
            continue
        clean, worst = group[0], group[-1]
        if worst.throughput_tps >= clean.throughput_tps:
            violations.append(
                f"{worst.config.straggler_count} straggler(s) should thin committee "
                f"throughput but measured {worst.throughput_tps:.0f} tx/s vs "
                f"{clean.throughput_tps:.0f} tx/s clean"
            )
    # (3) Leader DoS: each DoS point is normalized against its own
    # no-DoS baseline; more leader slots must mean a better ratio (the
    # multi-leader resilience claim).
    dos_keys = {
        config_hash(replace(r.config, leader_dos_slots=0))
        for r in results
        if r.config.leader_dos_slots
    }
    dos_pairs: dict[str, dict[int, ExperimentResult]] = {}
    for r in results:
        key = config_hash(replace(r.config, leader_dos_slots=0))
        if key in dos_keys:
            dos_pairs.setdefault(key, {})[r.config.leader_dos_slots] = r
    ratios: dict[tuple, dict[int, float]] = {}
    for pair in dos_pairs.values():
        baseline = pair.get(0)
        attacked = next((r for s, r in pair.items() if s), None)
        if baseline is None or attacked is None or baseline.throughput_tps <= 0:
            continue
        cfg = attacked.config
        key = config_hash(replace(cfg, leader_dos_slots=0, leaders_per_round=1))
        ratios.setdefault(key, {})[cfg.leaders_per_round] = (
            attacked.throughput_tps / baseline.throughput_tps
        )
    for by_slots in ratios.values():
        if len(by_slots) < 2:
            continue
        narrow, wide = min(by_slots), max(by_slots)
        if by_slots[narrow] >= by_slots[wide]:
            violations.append(
                f"leader DoS should hurt the {narrow}-slot pipeline more than the "
                f"{wide}-slot one, measured throughput ratios "
                f"{by_slots[narrow]:.2f} vs {by_slots[wide]:.2f}"
            )
    # (4) WAN matrices: latency tracks the deployment's RTT scale.
    wan_groups: dict[str, dict[str, ExperimentResult]] = {}
    for r in results:
        if r.config.wan_matrix:
            key = config_hash(replace(r.config, wan_matrix=""))
            wan_groups.setdefault(key, {})[r.config.wan_matrix] = r
    for group in wan_groups.values():
        metro = group.get("metro-3")
        if metro is None or math.isnan(metro.latency.avg):
            continue
        for wide in ("paper-5", "global-10"):
            other = group.get(wide)
            if other is None or math.isnan(other.latency.avg):
                continue
            if metro.latency.avg >= other.latency.avg:
                violations.append(
                    f"metro-3 (sub-ms paths) should beat {wide} on commit latency "
                    f"but measured {metro.latency.avg:.3f}s vs "
                    f"{other.latency.avg:.3f}s"
                )
    return violations


def check_curve_shapes(results: Iterable[ExperimentResult]) -> list[str]:
    """Check measured protocol orderings against the paper's curves.

    Returns a list of human-readable violations (empty = every enforced
    ordering holds).  Results without a matching paper figure, or with
    unmeasurable latency, are skipped.  A smoke-length group is held to
    the pairs the paper separates by :data:`MIN_PAPER_RATIO`; a
    full-length one to every pair the paper orders at all — claim C1's
    Mahi-Mahi-4 < Mahi-Mahi-5 < Cordial Miners < Tusk, with and without
    crash faults (claim C3's latency side), which also covers the
    overlapping-waves ablation (Mahi-Mahi-5 vs Cordial Miners at matched
    load).
    """
    violations = []
    for group in group_by_shape(results).values():
        sample = next(iter(group.values()))
        table = paper_table_for(sample)
        if table is None:
            continue
        protocols = [
            p
            for p, r in group.items()
            if p in table and not math.isnan(r.latency.avg)
        ]
        for i, first in enumerate(protocols):
            for second in protocols[i + 1:]:
                fast, slow = first, second
                paper_fast = table[fast]["latency_s"]
                paper_slow = table[slow]["latency_s"]
                if paper_fast > paper_slow:
                    fast, slow = slow, fast
                    paper_fast, paper_slow = paper_slow, paper_fast
                smoke = group[fast].config.duration < FULL_DURATION
                if paper_slow == paper_fast or (
                    smoke and paper_slow < MIN_PAPER_RATIO * paper_fast
                ):
                    continue  # the paper itself separates them too little
                measured_fast = group[fast].latency.avg
                measured_slow = group[slow].latency.avg
                if measured_fast >= measured_slow:
                    cfg = group[fast].config
                    violations.append(
                        f"{fast} should beat {slow} on latency "
                        f"(paper {paper_fast:.2f}s vs {paper_slow:.2f}s) but measured "
                        f"{measured_fast:.3f}s vs {measured_slow:.3f}s "
                        f"(n={cfg.num_validators}, load={cfg.load_tps:.0f}, "
                        f"crashed={cfg.num_crashed})"
                    )
    return violations


def check_cluster_metrics(metrics: dict) -> list[str]:
    """Validate a ``bench_cluster.py`` metrics dict (the runtime gate).

    The localhost multi-process benchmark is the runtime's end-to-end
    proof; this check enforces the claims it exists to demonstrate:
    liveness under load, successful recovery in every mode (with
    checkpoint recovery actually *adopting* a state-transfer base
    rather than silently refetching), and a completed live resize.
    Prefix consistency itself is asserted inside the benchmark — a
    divergence aborts the run before a metrics file is ever written.
    """
    violations: list[str] = []
    steady = metrics.get("steady")
    if not steady:
        violations.append("cluster metrics carry no steady-load scenario")
    else:
        if steady["committed_tx"] <= 0:
            violations.append("steady-load run committed no transactions")
        if steady["commit_indices"] <= 0:
            violations.append("steady-load run covered no commit indices")
        if steady.get("latency_p50_s") is None:
            violations.append("steady-load run measured no commit latency")
        elif steady["latency_p50_s"] > 10.0:
            violations.append(
                f"steady-load p50 commit latency {steady['latency_p50_s']:.2f}s "
                f"is implausible for a localhost cluster (> 10s)"
            )
    recovery = metrics.get("recovery") or {}
    for mode in ("cold", "warm", "checkpoint"):
        entry = recovery.get(mode)
        if entry is None:
            violations.append(f"recovery scenario is missing mode '{mode}'")
            continue
        if entry["mode_used"] != mode:
            violations.append(
                f"{mode} restart actually recovered via "
                f"'{entry['mode_used']}' — the requested mode never ran"
            )
        if entry["recovery_s"] is None or entry["recovery_s"] < 0:
            violations.append(f"{mode} recovery recorded no recovery time")
    checkpoint = recovery.get("checkpoint")
    if checkpoint is not None and not checkpoint.get("adopted_base_round"):
        violations.append(
            "checkpoint recovery never adopted a transferred base — it "
            "rebuilt from local history, which GC should have made impossible"
        )
    resize = metrics.get("resize")
    if not resize:
        violations.append("cluster metrics carry no resize scenario")
    else:
        epoch_ids = {info[0] for info in resize["epochs"]}
        if not {1, 2} <= epoch_ids:
            violations.append(
                f"live resize should schedule a join and a leave epoch, "
                f"saw epoch ids {sorted(epoch_ids)}"
            )
        if not resize.get("leaver_left"):
            violations.append("leaver never observed its own exclusion boundary")
        if resize.get("joiner_mode") != "checkpoint":
            violations.append(
                f"joiner should enter via checkpoint state transfer, "
                f"used '{resize.get('joiner_mode')}'"
            )
    return violations


#: Every rule over a run's simulator results, in the order ``run_all.py``
#: reports them.
RESULT_CHECKS = (
    check_liveness,
    check_restarts,
    check_curve_shapes,
    check_mechanism_curves,
    check_recovery_curves,
    check_epoch_curves,
    check_adversary_curves,
)
