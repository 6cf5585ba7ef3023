"""Crash-recovery, state-transfer and reconfiguration workloads.

The paper evaluates crash faults as the production-relevant failure
mode (Section 5.3) but only as validators going silent forever.  These
sweeps exercise the other half of production reality: a crashed
validator *restarts* with an empty in-memory state, re-syncs, and
rejoins proposing — via three recovery paths (cold refetch, warm WAL
replay, checkpoint state transfer), plus reconfiguration (validators
joining and leaving mid-run) and mixed transaction-size workloads.

Six sweeps:

* ``recovery-crash-restart`` — ``num_recovering`` validators crash a
  quarter into the run and restart at the halfway mark; the figure
  tracks the recovery time (restart -> first post-restart proposal) per
  protocol.  Certified DAGs pay more: the restarted validator re-syncs
  certificates, not bare blocks.  Runs with garbage collection *on*
  (``gc_depth=64``): the restarted validator adopts a quorum-attested
  checkpoint (``repro.statesync``) and fetches only the suffix above
  its floor, so nothing behind the peers' pruning horizon is needed.
* ``recovery-modes`` — cold vs warm vs checkpoint recovery time as the
  run (and hence the history a cold restart must refetch) grows.  The
  headline curve shape: cold-to-genesis grows with history length,
  checkpoint state transfer stays ~flat, and warm WAL replay is the
  cheapest throughout — it also grows with history (replay touches the
  whole log) but at a fraction of cold's per-block cost, since replay
  is local CPU work instead of network round trips.  Enforced (at full
  scale, where the duration axis survives smoke shrinking) by
  ``benchmarks/curve_checks.check_recovery_curves``.
* ``recovery-gc-horizon`` — crash-recovery with an aggressive
  ``gc_depth=20``: by restart time the peers have pruned the history a
  cold restart would need (the sim raises a diagnostic for that
  combination — ``tests/sim/test_checkpoint.py``);
  warm replays its own WAL and fetches the delta, checkpoint adopts and
  suffix-fetches.  This is the long-run regime the paper's fault
  experiments assume away.
* ``reconfig-join-leave`` — one validator joins mid-run (provisioned
  but silent until then, syncing in via checkpoint state transfer) and
  another leaves for good, on a committee of ten: ``n`` goes 9 -> 10 ->
  9 with quorum thresholds following the active epoch; the figure
  tracks end-to-end latency across the membership change.
* ``reconfig-epoch-resize`` — a longer membership timeline: join/leave
  events submit committed membership commands and ``n`` itself resizes
  4 -> 7 -> 5 mid-run (:class:`repro.committee.CommitteeSchedule`),
  quorum thresholds following the active epoch; joiners state-transfer
  in, leavers exit when their excluding epoch activates, and the
  per-epoch attribution (``epoch_summary``) splits latency and
  availability by committee.
* ``mixed-tx-sizes`` — clients draw transaction sizes from a skewed
  distribution (mostly small, a heavy tail of large) instead of the
  uniform 512 B of Section 5.1.

Recovery sweeps bound each deep-fetch response (``sync_chunk_blocks``)
like a real synchronizer's request batches, so re-sync cost scales with
the history actually fetched rather than collapsing into one oversized
response.
"""

from __future__ import annotations

from repro.sim.faults import FaultEvent
from repro.sim.runner import ExperimentConfig
from repro.sim.sweep import FigureSpec, SweepSpec

from .paper_data import bench_scale

_SCALE = bench_scale()
_DURATION = 16.0 * _SCALE
_WARMUP = 4.0 * _SCALE

RECOVERY_PROTOCOLS = ("mahi-mahi-5", "cordial-miners", "tusk")
LOADS = [5_000, 20_000]

#: Crash/recover points for the mode-comparison sweeps, as fractions of
#: the duration: crash with most of the run's history accumulated,
#: restart shortly after so the warm delta stays small — smoke-mode
#: shrinking rescales the absolute times and keeps the shape.
MODE_CRASH_FRAC = 0.6
MODE_RECOVER_FRAC = 0.7

#: Bounded deep-fetch responses for the recovery-mode sweeps (must stay
#: above the cluster's block production per fetch round trip).
SYNC_CHUNK = 24

SWEEP_RECOVERY = SweepSpec(
    name="recovery-crash-restart",
    figure=FigureSpec(
        figure="recovery",
        title="Crash-recovery with GC: restart, checkpoint adoption, resume",
        y_axis="recovery_time_s",
        x_label="Offered load (tx/s)",
        y_label="Recovery time (s)",
    ),
    configs=tuple(
        ExperimentConfig(
            protocol=protocol,
            num_validators=10,
            num_recovering=2,
            load_tps=load,
            duration=_DURATION,
            warmup=_WARMUP,
            gc_depth=64,
            recover_mode="checkpoint",
            checkpoint_interval=1,
            seed=7,
        )
        for protocol in RECOVERY_PROTOCOLS
        for load in LOADS
    ),
)


def _mode_config(mode: str, duration: float, **overrides) -> ExperimentConfig:
    defaults = dict(
        protocol="mahi-mahi-5",
        num_validators=10,
        load_tps=5_000,
        duration=duration,
        warmup=duration / 4,
        gc_depth=0,
        recover_mode=mode,
        checkpoint_interval=2 if mode == "checkpoint" else 0,
        sync_chunk_blocks=SYNC_CHUNK,
        fault_schedule=(
            FaultEvent(time=MODE_CRASH_FRAC * duration, validator=9, kind="crash"),
            FaultEvent(time=MODE_RECOVER_FRAC * duration, validator=9, kind="recover"),
        ),
        seed=7,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


#: History lengths for the warm-vs-cold-vs-checkpoint comparison.
MODE_DURATIONS = tuple(d * _SCALE for d in (8.0, 16.0, 32.0))

SWEEP_RECOVERY_MODES = SweepSpec(
    name="recovery-modes",
    figure=FigureSpec(
        figure="recovery-modes",
        title="Recovery modes: cold refetch vs warm WAL replay vs checkpoint transfer",
        x_axis="duration",
        y_axis="recovery_time_s",
        series_key="recover_mode",
        x_label="Run duration before restart window (s)",
        y_label="Recovery time (s)",
        series_label="{} restart",
    ),
    configs=tuple(
        _mode_config(mode, duration)
        for mode in ("cold", "warm", "checkpoint")
        for duration in MODE_DURATIONS
    ),
)

SWEEP_RECOVERY_GC = SweepSpec(
    name="recovery-gc-horizon",
    figure=FigureSpec(
        figure="recovery-gc",
        title="Recovery past the GC horizon (gc_depth=20): WAL replay & state transfer",
        y_axis="recovery_time_s",
        series_key="recover_mode",
        x_label="Offered load (tx/s)",
        y_label="Recovery time (s)",
        series_label="{} restart",
    ),
    configs=tuple(
        _mode_config(
            mode,
            _DURATION,
            load_tps=load,
            gc_depth=20,
            sync_chunk_blocks=4096,
        )
        for mode in ("warm", "checkpoint")
        for load in LOADS
    ),
)

SWEEP_RECONFIG = SweepSpec(
    name="reconfig-join-leave",
    figure=FigureSpec(
        figure="reconfig",
        title="Reconfiguration: one validator joins (state transfer), one leaves",
        x_label="Offered load (tx/s)",
        y_label="Average commit latency (s)",
    ),
    configs=tuple(
        ExperimentConfig(
            protocol=protocol,
            num_validators=10,
            load_tps=load,
            duration=_DURATION,
            warmup=_WARMUP,
            gc_depth=64,
            recover_mode="checkpoint",
            checkpoint_interval=1,
            # Genesis committee 0..8: validator 9 joins, then 8 leaves.
            fault_schedule=(
                FaultEvent(time=0.3 * _DURATION, validator=9, kind="join"),
                FaultEvent(time=0.6 * _DURATION, validator=8, kind="leave"),
            ),
            seed=7,
        )
        for protocol in ("mahi-mahi-5", "cordial-miners")
        for load in LOADS
    ),
)

#: The epoch-resize membership timeline, as ``(time fraction, validator,
#: kind)``: the committee grows 4 -> 5 -> 6 -> 7 through three staggered
#: state-transfer joins, then shrinks 7 -> 6 -> 5 through two committed
#: leaves.  Joins land early so every epoch activates even at smoke
#: durations; the leaves need the full-scale run to activate (enforced
#: by ``curve_checks.check_epoch_curves`` above the smoke horizon).
EPOCH_RESIZE_TIMELINE = (
    (0.08, 4, "join"),
    (0.16, 5, "join"),
    (0.24, 6, "join"),
    (0.50, 6, "leave"),
    (0.62, 5, "leave"),
)

SWEEP_EPOCH_RESIZE = SweepSpec(
    name="reconfig-epoch-resize",
    figure=FigureSpec(
        figure="epoch-resize",
        title="Epoch reconfiguration: n resizes 4 -> 7 -> 5 mid-run",
        y_axis="latency_avg_s",
        x_label="Offered load (tx/s)",
        y_label="Average commit latency (s)",
    ),
    configs=tuple(
        ExperimentConfig(
            protocol="mahi-mahi-5",
            num_validators=7,
            load_tps=load,
            duration=_DURATION,
            warmup=_WARMUP,
            gc_depth=64,
            recover_mode="checkpoint",
            checkpoint_interval=2,
            fault_schedule=tuple(
                FaultEvent(time=frac * _DURATION, validator=validator, kind=kind)
                for frac, validator, kind in EPOCH_RESIZE_TIMELINE
            ),
            seed=7,
        )
        for load in LOADS
    ),
)

#: Mostly-small transactions with a heavy tail: 70% 128 B, 25% 512 B,
#: 5% 4 KiB (a payment-plus-contract-deployment style mix).
TX_SIZE_MIX = ((128, 0.70), (512, 0.25), (4096, 0.05))

SWEEP_MIXED_SIZES = SweepSpec(
    name="mixed-tx-sizes",
    figure=FigureSpec(
        figure="mixed-sizes",
        title="Mixed transaction sizes (128 B / 512 B / 4 KiB)",
        x_label="Offered load (tx/s)",
        y_label="Average commit latency (s)",
    ),
    configs=tuple(
        ExperimentConfig(
            protocol="mahi-mahi-5",
            num_validators=10,
            load_tps=load,
            duration=_DURATION,
            warmup=_WARMUP,
            tx_size_mix=TX_SIZE_MIX,
            seed=7,
        )
        for load in LOADS
    ),
)

SWEEPS = (
    SWEEP_RECOVERY,
    SWEEP_RECOVERY_MODES,
    SWEEP_RECOVERY_GC,
    SWEEP_RECONFIG,
    SWEEP_EPOCH_RESIZE,
    SWEEP_MIXED_SIZES,
)
