"""Adversary and network scenario sweeps.

The paper's fault experiments (Section 5.3) crash validators and walk
away; the protocol's *Byzantine* story — equivocation tolerated by
quorum intersection, leader targeting defeated by after-the-fact coin
elections (Section 2.3) — is argued, not measured.  These sweeps put
each adversary from the model on the simulated network and gate the
qualitative claim it is supposed to satisfy
(``benchmarks/curve_checks.check_adversary_curves``).

Five sweeps:

* ``adversary-equivocation`` — 0..3 validators run equivocation
  *campaigns* (``equivocate`` .. ``desist`` fault-schedule windows),
  sending conflicting blocks per round to disjoint peer halves.  Safety
  must hold (every run asserts identical committed prefixes) and the
  honest committee must keep committing throughout.
* ``adversary-partition`` — a named minority group (3 of 10) is
  partitioned with dropped cross-links for a growing window, then
  healed.  Availability falls linearly with the partition window and
  *tail* latency grows monotonically with it: transactions stalled
  behind the cut commit only after the heal, so the damage lives in the
  p99, not the mean.
* ``adversary-leader-dos`` — an omniscient DoS adversary resolves
  future coin values (:meth:`repro.crypto.coin.FastCoin.peek`) and
  delays only the elected leaders' blocks each round
  (:class:`repro.sim.network.LeaderDosScheduler`).  With one leader
  slot per round the commit pipeline is fully censored; with three
  slots the extra anchors ride through — the multi-leader resilience
  claim of Section 3.
* ``adversary-wan-matrix`` — the preset per-region RTT matrices
  (``metro-3`` / ``paper-5`` / ``global-10``,
  :data:`repro.sim.latency.WAN_PRESETS`): commit latency must track the
  deployment's RTT scale (metro beats both WAN spreads).
* ``adversary-straggler`` — 0..3 honest validators run on machines
  ``STRAGGLE_SCALE``x slower (``straggle`` fault events scaling CPU and
  pacing costs).  Stragglers fall measurably behind the observer's
  round frontier and committee throughput degrades as their proposals
  thin out, but safety and liveness hold — slow is not faulty.

Every config routes through ``run()``'s safety assertion: committed
sequences prefix-align across honest validators, with equivocators
excluded and partitioned/straggling validators deliberately *included*
(they are honest; they must never diverge, only lag).
"""

from __future__ import annotations

from repro.sim.faults import FaultEvent
from repro.sim.runner import ExperimentConfig
from repro.sim.sweep import FigureSpec, SweepSpec

_DURATION = 10.0
_WARMUP = 2.0

#: Offered load for every adversary sweep (smoke mode caps it lower);
#: the scenarios stress the network model, not the queueing regime.
LOAD = 5_000

#: Committee size: f = 3, so up to three concurrent campaigners,
#: partitioned members or stragglers stay within the fault budget.
VALIDATORS = 10

#: Equivocation campaigns start staggered shortly after warmup and all
#: desist at 70% of the run, leaving slack for the tail to commit.
EQUIVOCATE_FRACS = (0.10, 0.12, 0.14)
DESIST_FRAC = 0.70

#: The partitioned minority (3 of 10 keeps a 2f+1 = 7 quorum outside
#: the cut, so the majority side keeps committing).
PARTITION_GROUP = (5, 6, 7)
PARTITION_START_FRAC = 0.16
#: Partition windows as duration fractions; the largest heals at
#: 0.52 x duration, leaving ~half the run for stalled load to drain
#: (an unhealed tail would *shrink* the mean by dropping stalled
#: transactions from it — the reason the figure plots p99).
PARTITION_WINDOW_FRACS = (0.0, 0.12, 0.24, 0.36)

#: Per-leader-block extra delay (seconds).  Calibrated to exceed the
#: commit pipeline's patience: with one leader slot no anchor arrives in
#: time and the pipeline is fully censored; with three slots the
#: off-target anchors commit at degraded latency.
LEADER_DOS_DELAY = 1.0

#: CPU/pacing multiplier for straggler machines.  Simulated per-block
#: costs are microseconds, so an order-hundreds multiplier is what makes
#: a straggler visibly trail the round frontier within a short run.
STRAGGLE_SCALE = 200.0
STRAGGLE_FRAC = 0.05

WAN_MATRICES = ("metro-3", "paper-5", "global-10")


def _base_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        protocol="mahi-mahi-5",
        num_validators=VALIDATORS,
        load_tps=LOAD,
        duration=_DURATION,
        warmup=_WARMUP,
        seed=7,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def _equivocation_schedule(campaigners: int) -> tuple[FaultEvent, ...]:
    events = []
    for i in range(campaigners):
        validator = VALIDATORS - 1 - i
        events.append(
            FaultEvent(
                time=EQUIVOCATE_FRACS[i] * _DURATION, validator=validator, kind="equivocate"
            )
        )
        events.append(
            FaultEvent(time=DESIST_FRAC * _DURATION, validator=validator, kind="desist")
        )
    return tuple(sorted(events, key=lambda e: e.time))


def _partition_schedule(window_frac: float) -> tuple[FaultEvent, ...]:
    if window_frac <= 0.0:
        return ()
    start = PARTITION_START_FRAC * _DURATION
    heal = start + window_frac * _DURATION
    return tuple(
        FaultEvent(time=start, validator=v, kind="partition", group="minority")
        for v in PARTITION_GROUP
    ) + tuple(FaultEvent(time=heal, validator=v, kind="heal") for v in PARTITION_GROUP)


def _straggle_schedule(stragglers: int) -> tuple[FaultEvent, ...]:
    return tuple(
        FaultEvent(
            time=STRAGGLE_FRAC * _DURATION,
            validator=VALIDATORS - 1 - i,
            kind="straggle",
            scale=STRAGGLE_SCALE,
        )
        for i in range(stragglers)
    )


SWEEP_EQUIVOCATION = SweepSpec(
    name="adversary-equivocation",
    figure=FigureSpec(
        figure="adversary-equivocation",
        title="Equivocation campaigns: safety and liveness under 0..f equivocators",
        x_axis="campaign_equivocators",
        x_label="Concurrent equivocation campaigns",
        y_label="Average commit latency (s)",
    ),
    configs=tuple(
        _base_config(fault_schedule=_equivocation_schedule(k)) for k in range(4)
    ),
)

SWEEP_PARTITION = SweepSpec(
    name="adversary-partition",
    figure=FigureSpec(
        figure="adversary-partition",
        title="Minority partition with heal: stalled load lives in the tail",
        x_axis="partition_seconds",
        y_axis="latency_p99_s",
        x_label="Partition window (s)",
        y_label="p99 commit latency (s)",
    ),
    configs=tuple(
        _base_config(fault_schedule=_partition_schedule(frac))
        for frac in PARTITION_WINDOW_FRACS
    ),
)

SWEEP_LEADER_DOS = SweepSpec(
    name="adversary-leader-dos",
    figure=FigureSpec(
        figure="adversary-leader-dos",
        title="Targeted leader DoS: single- vs multi-slot resilience",
        x_axis="leaders_per_round",
        y_axis="throughput_tps",
        series_key="leader_dos_slots",
        x_label="Leader slots per round",
        y_label="Committed throughput (tx/s)",
        series_label="DoS on {} leader(s)/round",
    ),
    configs=tuple(
        _base_config(
            leaders_per_round=lps,
            leader_dos_slots=slots,
            leader_dos_delay=LEADER_DOS_DELAY,
        )
        for lps in (1, 3)
        for slots in (0, 1)
    ),
)

SWEEP_WAN_MATRIX = SweepSpec(
    name="adversary-wan-matrix",
    figure=FigureSpec(
        figure="adversary-wan-matrix",
        title="WAN matrices: commit latency across deployment footprints",
        series_key="wan_matrix",
        x_label="Offered load (tx/s)",
        y_label="Average commit latency (s)",
        series_label="{}",
    ),
    configs=tuple(_base_config(wan_matrix=name) for name in WAN_MATRICES),
)

SWEEP_STRAGGLER = SweepSpec(
    name="adversary-straggler",
    figure=FigureSpec(
        figure="adversary-straggler",
        title="Stragglers: slow-but-honest validators thin the committee's output",
        x_axis="straggler_count",
        y_axis="throughput_tps",
        x_label="Straggling validators",
        y_label="Committed throughput (tx/s)",
    ),
    configs=tuple(
        _base_config(fault_schedule=_straggle_schedule(k)) for k in range(4)
    ),
)

SWEEPS = (
    SWEEP_EQUIVOCATION,
    SWEEP_PARTITION,
    SWEEP_LEADER_DOS,
    SWEEP_WAN_MATRIX,
    SWEEP_STRAGGLER,
)
