"""The experiment harness: builds a deployment, runs it, checks safety,
and reports the paper's metrics.

One :class:`Experiment` reproduces one data point of Figures 3-5/7: a
protocol, a committee size, a load, and a fault pattern.  The benchmark
modules sweep load over a list of experiments to regenerate each curve.
Safety (Theorem 1) is judged by
:class:`~repro.statesync.checkpoint.TotalOrder`, the checker the
runtime's cluster harnesses share: fed every honest commit as it
happens, and every honest ledger by :meth:`Experiment.assert_safety`.
"""

from __future__ import annotations

import math
import tempfile
import weakref
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from ..block import make_genesis
from ..committee import (
    MIN_COMMITTEE_SIZE,
    Committee,
    CommitteeSchedule,
    ReconfigCommand,
)
from ..config import ProtocolConfig
from ..core.committer import Committer
from ..core.protocol import MahiMahiCore
from ..baselines.cordial_miners import make_cordial_miners_committer
from ..baselines.tusk import TuskCommitter
from ..crypto.coin import FastCoin
from ..errors import ConfigError, SimulationError
from ..runtime.wal import WriteAheadLog
from ..statesync import RECOVER_MODES
from ..statesync.checkpoint import TotalOrder
from ..transaction import DEFAULT_TX_SIZE
from .client import ArrivalRouter
from .costs import MAX_BLOCK_TRANSACTIONS, MAX_SIM_TX_RATE, CostModel
from .events import EventLoop
from .faults import (
    FaultEvent,
    FaultSchedule,
    concurrent_faults,
    merge_spans,
    normalize_events,
)
from .latency import (
    LatencyModel,
    UniformLatencyModel,
    WAN_PRESETS,
    wan_matrix_model,
)
from .metrics import ExperimentMetrics, LatencySummary, availability
from .network import AsyncAdversaryScheduler, LeaderDosScheduler, MessageScheduler, SimNetwork
from .node import SimValidator
from ..obs.trace import NULL_TRACER, Tracer


class _Protocol(NamedTuple):
    """How one protocol name is deployed."""

    #: ``ProtocolConfig.wave_length`` (``wave_length_override`` replaces
    #: it where ``multi_leader``).
    wave_length: int
    #: Whether the Mahi-Mahi knobs apply (``leaders_per_round``,
    #: ``wave_length_override``, ``direct_skip``, the leader-slot DoS);
    #: otherwise one leader per wave of the table's length.
    multi_leader: bool
    #: Called as ``(store, schedule, coin, config)`` by the core; a
    #: committer class says whether the protocol is ``certified``.
    committer: Callable


#: The one place a protocol name is resolved.  Tusk's committer owns its
#: 2-round geometry; its wave length here only satisfies ProtocolConfig.
_PROTOCOL_TABLE = {
    "mahi-mahi-5": _Protocol(5, True, Committer),
    "mahi-mahi-4": _Protocol(4, True, Committer),
    "cordial-miners": _Protocol(5, False, make_cordial_miners_committer),
    "tusk": _Protocol(3, False, TuskCommitter),
}

#: Protocols the harness knows how to deploy, as named in the paper's
#: figures.
PROTOCOLS = tuple(_PROTOCOL_TABLE)

#: ``num_recovering`` timing, as fractions of the configured duration:
#: crash a quarter in, restart at the halfway mark — the second half of
#: the run observes re-sync, resumed proposing, and recovered steady
#: state.  Fractions (not absolute times) keep smoke-mode shrinking
#: meaningful.
RECOVERY_CRASH_FRAC = 0.25
RECOVERY_RESTART_FRAC = 0.5

#: Rounds between a reconfiguration command finalizing and its epoch
#: activating (``ProtocolConfig.reconfig_activation_lag``): a few rounds
#: of slack let in-flight waves land before the thresholds move.  The
#: value every reconfiguration sweep and pinned run has used.
RECONFIG_LAG = 3


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment = one data point of a figure.

    Attributes:
        protocol: One of :data:`PROTOCOLS`.
        num_validators: Committee size (10 and 50 in the paper).
        load_tps: Offered load in real transactions per second.
        duration: Virtual seconds to simulate.
        warmup: Seconds excluded from metrics at the start.
        leaders_per_round: Mahi-Mahi leader slots per round.
        num_crashed: Schedule shorthand: this many validators (the
            highest indexes) ``crash`` at t = 0 and stay down — silent
            for the whole run, with no client of their own.
        num_recovering: Schedule shorthand: this many validators (the
            highest indexes below the crashed block) ``crash`` at
            ``RECOVERY_CRASH_FRAC * duration`` and ``recover`` (empty
            in-memory state, DAG re-sync via fetch) at
            ``RECOVERY_RESTART_FRAC * duration``.
        num_equivocators: Schedule shorthand: this many validators (the
            highest indexes below the crashed and recovering blocks)
            ``equivocate`` from t = 0 (validator 0 always stays the
            honest observer).  See :meth:`effective_schedule`.  A
            certified protocol (Tusk) takes none, nor an ``equivocate``
            event: its validators send headers, never a sibling.
        fault_schedule: Explicit time-ordered fault events (see
            :class:`~repro.sim.faults.FaultSchedule`); the harness
            replays them together with the events the three counts above
            stand for.  May not
            target validator 0 (the observer) or validators already
            claimed by the static fault counts.  A ``join`` or ``leave``
            is an *epoch transition*: at event time the harness submits
            a reconfiguration command transaction to a live validator;
            once committed, every honest commit walk activates the new
            committee :data:`RECONFIG_LAG` rounds later
            (:class:`~repro.committee.CommitteeSchedule`), so ``n`` and
            all quorum thresholds genuinely change mid-run.  A joining
            validator comes online at event time (state-transfer join)
            and starts proposing when its epoch activates; a leaving
            one keeps participating until the epoch that excludes it
            activates, then goes silent for good.  The genesis
            committee is every validator that does not join
            (:attr:`genesis_size`); joiners take the highest indexes.
        tx_size_mix: Optional ``((size_bytes, weight), ...)``
            distribution of real transaction sizes; when set, clients
            sample each transaction's size from it and blocks account
            bytes per transaction (mixed workloads).  Empty means every
            transaction is :data:`~repro.transaction.DEFAULT_TX_SIZE`
            bytes.
        uniform_delay: When set, replaces the geo latency model with a
            constant one-way delay (useful for message-delay arithmetic
            tests); otherwise the paper's 5-region matrix is used.
        adversary_targets: Validators simultaneously delayed by the
            asynchronous adversary (0 = random network model).
        adversary_delay: Extra one-way delay the adversary injects.
        leader_dos_slots: Leader slots per round the *targeted* DoS
            adversary delays (0 = off).  Unlike ``adversary_targets``
            this adversary is omniscient — it precomputes each round's
            elected leaders via the simulation coin and delays exactly
            their block/cert traffic
            (:class:`~repro.sim.network.LeaderDosScheduler`); Mahi-Mahi
            protocols only, and mutually exclusive with
            ``adversary_targets``.
        leader_dos_delay: Extra one-way delay on a DoS'd leader's
            blocks.
        wan_matrix: Name of a preset per-region RTT matrix
            (:data:`~repro.sim.latency.WAN_PRESETS`); empty means
            ``paper-5``, the paper's five regions.  Mutually exclusive
            with ``uniform_delay``.  Validators are spread over its
            regions round-robin, like the paper's deployment.
        block_interval: Minimum spacing between a validator's own
            proposals (batching/processing cadence of a real validator;
            see :class:`~repro.sim.node.SimValidator`).
        model_cpu: Charge the per-validator CPU stages
            (:class:`~repro.sim.costs.CostModel`); disable for pure
            message-delay arithmetic in tests.
        wave_length_override: Ablations only — force a wave length for
            the Mahi-Mahi protocols (e.g. 3, which is safe but not live
            under asynchrony, Appendix C.3).
        direct_skip: Ablations only — disable Mahi-Mahi's direct skip
            rule to quantify its contribution (Section 5.3).
        gc_depth: Rounds of DAG history kept behind the commit frontier.
        recover_mode: How restarted validators re-sync (one of
            :data:`~repro.statesync.RECOVER_MODES`): ``cold`` refetches
            the DAG from genesis, ``warm`` replays the validator's WAL
            first and fetches only the delta, ``checkpoint`` adopts a
            quorum-attested state-transfer checkpoint and fetches only
            the suffix above it — the only mode that recovers past the
            peers' GC horizon (requires ``checkpoint_interval > 0``).
        checkpoint_interval: Capture a state-transfer checkpoint every
            this many finalized rounds (0 disables capture).
        sync_chunk_blocks: Most blocks a validator serves in one
            deep-fetch response (a real synchronizer's bounded request
            batches).  Recovery workloads lower it so re-sync cost
            scales with the history actually fetched; it must stay
            above the cluster's block production per fetch round trip.
        trace: Record per-transaction lifecycle spans
            (:class:`repro.obs.trace.Tracer`) across every validator
            and the network; the recorded events are exposed as
            ``Experiment.tracer`` for export to Chrome trace / JSONL
            (``repro-bench --trace``).  Off by default: the no-op
            tracer keeps the hot path at a single attribute load.
        seed: Master seed; every run with the same config is identical.

    Construction also builds the run's
    :class:`~repro.config.ProtocolConfig` (``protocol_config``, not a
    field), so a config its protocol rejects never becomes a sweep point.
    """

    protocol: str = "mahi-mahi-5"
    num_validators: int = 10
    load_tps: float = 10_000.0
    duration: float = 30.0
    warmup: float = 10.0
    leaders_per_round: int = 2
    num_crashed: int = 0
    num_recovering: int = 0
    num_equivocators: int = 0
    fault_schedule: tuple[FaultEvent, ...] = ()
    tx_size_mix: tuple[tuple[int, float], ...] = ()
    uniform_delay: float | None = None
    adversary_targets: int = 0
    adversary_delay: float = 0.2
    leader_dos_slots: int = 0
    leader_dos_delay: float = 0.4
    wan_matrix: str = ""
    block_interval: float = 0.2
    model_cpu: bool = True
    wave_length_override: int | None = None
    direct_skip: bool = True
    gc_depth: int = 64
    recover_mode: str = "cold"
    checkpoint_interval: int = 0
    sync_chunk_blocks: int = 4096
    trace: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"unknown protocol {self.protocol!r}; pick one of {PROTOCOLS}")
        if self.num_validators < 4:
            raise ConfigError("need at least 4 validators")
        # Normalize JSON round-trip shapes (sweep-cache configs arrive
        # with events as dicts and the size mix as nested lists).
        object.__setattr__(self, "fault_schedule", normalize_events(self.fault_schedule))
        object.__setattr__(
            self,
            "tx_size_mix",
            tuple((int(size), float(share)) for size, share in self.tx_size_mix),
        )
        for size, share in self.tx_size_mix:
            if size <= 0 or share <= 0:
                raise ConfigError(
                    f"tx_size_mix entries need positive size/weight, got {(size, share)}"
                )
        if self.recover_mode not in RECOVER_MODES:
            raise ConfigError(
                f"unknown recover_mode {self.recover_mode!r}; pick one of {RECOVER_MODES}"
            )
        object.__setattr__(self, "protocol_config", self._protocol_config())
        if self.sync_chunk_blocks < 1:
            raise ConfigError("sync_chunk_blocks must be >= 1")
        if self.recover_mode == "checkpoint" and self.checkpoint_interval < 1:
            raise ConfigError(
                "recover_mode='checkpoint' needs checkpoint_interval >= 1: adoption "
                "requires peers to have captured checkpoints to attest"
            )
        if self.leader_dos_slots < 0:
            raise ConfigError("leader_dos_slots must be >= 0")
        if self.leader_dos_slots:
            if not _PROTOCOL_TABLE[self.protocol].multi_leader:
                raise ConfigError(
                    "leader_dos_slots targets Mahi-Mahi's per-round leader slots; "
                    f"protocol {self.protocol!r} is not supported"
                )
            if self.adversary_targets:
                raise ConfigError(
                    "leader_dos_slots and adversary_targets are mutually exclusive "
                    "(one targeted and one blind adversary cannot share the network)"
                )
            if self.leader_dos_delay <= 0:
                raise ConfigError("leader_dos_delay must be > 0 when leader_dos_slots is set")
        # A committer factory that is no class builds a plain, uncertified
        # Committer.
        certified = getattr(_PROTOCOL_TABLE[self.protocol].committer, "certified", False)
        if certified and (self.num_equivocators or self.campaign_equivocators):
            raise ConfigError(
                "num_equivocators and equivocate events split an uncertified DAG's "
                f"blocks; protocol {self.protocol!r} certifies every block and sends no "
                "conflicting headers"
            )
        if not 0 <= self.adversary_targets <= self.num_validators:
            raise ConfigError(
                f"adversary_targets must be in [0, {self.num_validators}], "
                f"got {self.adversary_targets}"
            )
        # Written as ``not 0 <= delay`` so that a NaN is refused too.
        if not 0 <= self.adversary_delay or not 0 <= (self.uniform_delay or 0):
            raise ConfigError("adversary_delay and uniform_delay must be >= 0")
        if self.wan_matrix:
            if self.wan_matrix not in WAN_PRESETS:
                raise ConfigError(
                    f"unknown wan_matrix {self.wan_matrix!r}; presets: {sorted(WAN_PRESETS)}"
                )
            if self.uniform_delay is not None:
                raise ConfigError("wan_matrix and uniform_delay are mutually exclusive")
        schedule = FaultSchedule(self.fault_schedule)  # validates lifecycles
        static_faults = self.num_crashed + self.num_recovering + self.num_equivocators
        first_static_fault = self.num_validators - static_faults
        for validator in schedule.validators():
            if validator == 0:
                raise ConfigError("fault_schedule may not target validator 0 (the observer)")
            if validator >= self.num_validators:
                raise ConfigError(
                    f"fault_schedule targets validator {validator} "
                    f"but the committee has {self.num_validators}"
                )
            if validator >= first_static_fault:
                raise ConfigError(
                    f"fault_schedule targets validator {validator}, already claimed by the "
                    f"static fault counts (indexes >= {first_static_fault})"
                )
        if self.reconfigures:
            self._validate_membership_timeline(schedule)
        # The budget counts *concurrent* faults over the effective
        # schedule: disjoint downtime windows do not stack, and an
        # equivocation campaign spends a slot for its whole span.
        faults_tolerated = (self.genesis_size - 1) // 3
        worst = concurrent_faults(self.effective_schedule())
        if worst > faults_tolerated:
            raise ConfigError(
                f"{worst} validators concurrently faulty (crashed, recovering, "
                f"equivocating or scheduled) exceeds f={faults_tolerated}"
            )

    def _protocol_config(self) -> ProtocolConfig:
        protocol = _PROTOCOL_TABLE[self.protocol]
        override = self.wave_length_override if protocol.multi_leader else None
        return ProtocolConfig(
            wave_length=override or protocol.wave_length,
            leaders_per_round=self.leaders_per_round if protocol.multi_leader else 1,
            max_block_transactions=max(1, int(MAX_BLOCK_TRANSACTIONS / self.batch_weight)),
            garbage_collection_depth=self.gc_depth,
            checkpoint_interval_rounds=self.checkpoint_interval,
            # 0 keeps the commit walk from scanning for commands at all.
            reconfig_activation_lag=RECONFIG_LAG if self.reconfigures else 0,
        )

    def _validate_membership_timeline(self, schedule: FaultSchedule) -> None:
        """Reconfiguration sanity: joiners take the highest indexes, and
        the committee implied by the join/leave timeline never shrinks
        below the BFT minimum."""
        genesis = self.genesis_size
        if genesis < MIN_COMMITTEE_SIZE:
            raise ConfigError(
                f"a reconfiguration run needs a genesis committee of >= "
                f"{MIN_COMMITTEE_SIZE}, got {genesis}"
            )
        joiners = {e.validator for e in self.fault_schedule if e.kind == "join"}
        if joiners != set(range(genesis, self.num_validators)):
            raise ConfigError(
                f"joining validators {sorted(joiners)} must take the highest indexes "
                f"({genesis}..{self.num_validators - 1}): the genesis committee is "
                "every validator that does not join"
            )
        size = genesis
        for event in schedule:
            if event.kind == "join":
                size += 1
            elif event.kind == "leave":
                size -= 1
                if size < MIN_COMMITTEE_SIZE:
                    raise ConfigError(
                        f"leave of validator {event.validator} at t={event.time} "
                        f"would drop the committee below n={MIN_COMMITTEE_SIZE}"
                    )

    @property
    def reconfigures(self) -> bool:
        """Whether the committee changes mid-run: the schedule holds a
        ``join`` or ``leave`` (each a committed membership command)."""
        return any(e.kind in ("join", "leave") for e in self.fault_schedule)

    @property
    def genesis_size(self) -> int:
        """The epoch-0 committee size: every provisioned validator that
        does not ``join`` (a validator joins at most once)."""
        return self.num_validators - sum(e.kind == "join" for e in self.fault_schedule)

    @property
    def batch_weight(self) -> float:
        """Real transactions represented by one simulated transaction."""
        return max(1.0, self.load_tps / MAX_SIM_TX_RATE)

    @property
    def sim_tx_rate(self) -> float:
        """Total simulated transaction events per second."""
        return min(self.load_tps, MAX_SIM_TX_RATE)

    @property
    def mean_tx_size(self) -> float:
        """Expected real transaction size in bytes (mix-weighted)."""
        if not self.tx_size_mix:
            return float(DEFAULT_TX_SIZE)
        total = sum(share for _, share in self.tx_size_mix)
        return sum(size * share for size, share in self.tx_size_mix) / total

    @property
    def partition_seconds(self) -> float:
        """Longest single partition span any validator spends cut off
        (0.0 without partitions) — a derived figure axis for partition
        sweeps (``FigureSpec`` resolves axes via ``getattr``)."""
        intervals = FaultSchedule(self.fault_schedule).partition_intervals(self.duration)
        spans = [end - start for per in intervals.values() for start, end in per]
        return max(spans, default=0.0)

    @property
    def straggler_count(self) -> int:
        """Validators slowed by a ``straggle`` event (derived axis)."""
        return len(FaultSchedule(self.fault_schedule).straggler_validators())

    @property
    def campaign_equivocators(self) -> int:
        """Validators running a scheduled equivocation campaign
        (derived axis; the static ``num_equivocators`` not included)."""
        return len({e.validator for e in self.fault_schedule if e.kind == "equivocate"})

    def effective_schedule(self) -> FaultSchedule:
        """The full fault schedule the harness replays, and the one place
        the static counts become faults: the explicit ``fault_schedule``
        plus, from the top of the index range down, a ``crash`` at t = 0
        per crashed validator, a crash+recover pair per recovering one
        and an ``equivocate`` at t = 0 per equivocator."""
        events = list(self.fault_schedule)
        first_crashed = self.num_validators - self.num_crashed
        first_recovering = first_crashed - self.num_recovering
        first_equivocator = first_recovering - self.num_equivocators
        for validator in range(first_crashed, self.num_validators):
            events.append(FaultEvent(0.0, validator, "crash"))
        for validator in range(first_recovering, first_crashed):
            events.append(
                FaultEvent(RECOVERY_CRASH_FRAC * self.duration, validator, "crash")
            )
            events.append(
                FaultEvent(RECOVERY_RESTART_FRAC * self.duration, validator, "recover")
            )
        for validator in range(first_equivocator, first_recovering):
            events.append(FaultEvent(0.0, validator, "equivocate"))
        return FaultSchedule(events)


@dataclass(frozen=True)
class ExperimentResult:
    """Measured outcome of one experiment."""

    config: ExperimentConfig
    latency: LatencySummary
    throughput_tps: float
    rounds_reached: int
    blocks_committed: int
    direct_commits: int
    indirect_commits: int
    direct_skips: int
    indirect_skips: int
    messages_sent: int
    bytes_sent: int
    pending_transactions: int
    #: Callbacks the event loop ran producing this point (perf accounting
    #: for the sweep engine's events/sec reporting).  What the simulator
    #: spent, not something the model predicts: it may change when no
    #: other field does, so compare runs with it set aside
    #: (``tools/ci_checks.py points-match A B --ignore events_processed``).
    events_processed: int = 0
    #: Re-syncs that completed — the validator caught up and proposed
    #: again: restarts (``recover``/``join`` events), and validators that
    #: fell more than two waves behind without crashing (the healed
    #: minority of a long partition) and switched to the deep re-sync
    #: chain, counted as the runtime reports them.
    recoveries: int = 0
    #: Average seconds from restart to first post-restart proposal
    #: (``None`` when nothing recovered).
    recovery_time_s: float | None = None
    #: Worst single recovery in this run.
    recovery_time_max_s: float | None = None
    #: Average recovery seconds keyed by the recovery path actually
    #: taken (``cold`` / ``warm`` / ``checkpoint``).
    recovery_time_by_mode: dict = field(default_factory=dict)
    #: State-transfer checkpoints the observer captured.
    checkpoints_captured: int = 0
    #: Quorum-attested checkpoint adoptions across all validators.
    checkpoint_adoptions: int = 0
    #: Fraction of validator-seconds in service (1.0 = no downtime).
    availability: float = 1.0
    #: Epoch transitions the observer's commit walk activated
    #: (0 = the committee never changed).
    epoch_transitions: int = 0
    #: Active-committee size of the observer's latest epoch (0 for
    #: static runs — the committee is ``num_validators`` throughout).
    final_committee_size: int = 0
    #: Per-epoch attribution rows (committee size, activation round,
    #: commits/latency attributed, member-set availability) — see
    #: :meth:`repro.sim.metrics.ExperimentMetrics.epoch_attribution`.
    epoch_summary: tuple = ()
    #: Conflicting sibling pairs actually dispatched by equivocating
    #: validators.
    equivocations: int = 0
    #: Messages the network dropped on cut partition links.
    messages_dropped: int = 0
    #: Total validator-seconds spent partitioned (honest but cut off).
    partitioned_seconds: float = 0.0
    #: How far the slowest live honest validator's DAG trails the
    #: observer's at the end of the run (straggler lag, in rounds).
    max_rounds_behind: int = 0
    #: Mean seconds (and share of their sum) each committed transaction
    #: spent per lifecycle stage — queue / network / cpu / commit_walk —
    #: see :meth:`repro.sim.metrics.ExperimentMetrics.stage_breakdown`.
    #: Empty when nothing committed.
    stage_breakdown: dict = field(default_factory=dict)

    def summary(self) -> str:
        """One human-readable line, in the paper's units."""

        def fmt(seconds: float) -> str:
            # Zero-commit runs summarize as n/a, never as a literal nan.
            return f"{seconds:.3f}s" if not math.isnan(seconds) else "n/a"

        return (
            f"{self.config.protocol:>15} n={self.config.num_validators:<3} "
            f"load={self.config.load_tps / 1000:.0f}k tx/s -> "
            f"throughput={self.throughput_tps / 1000:.1f}k tx/s, "
            f"avg latency={fmt(self.latency.avg)} "
            f"(p50={fmt(self.latency.p50)} p99={fmt(self.latency.p99)})"
        )


class _CommitCallback(TotalOrder):
    """Every validator's commit callback, and the run's Theorem 1 checker.

    The observer's commits are the ones the metrics measure.  A
    validator's newly linearized blocks end at its ledger's
    ``sequence_length`` and are checked until it runs an equivocation
    campaign or has sent a conflicting sibling: from then on it holds
    no honest sequence.  Every validator holds :meth:`on_commit`, so
    this holds the metrics, never the experiment (no reference cycle to
    collect).
    """

    def __init__(self, metrics: ExperimentMetrics) -> None:
        super().__init__()
        self._metrics = metrics

    def on_commit(self, node: SimValidator, observations, now: float) -> None:
        linearized = [block for observation in observations for block in observation.linearized]
        if node.authority == 0:
            for block in linearized:
                if block.transactions:
                    self._metrics.record_commit(block.transactions, now)
        if linearized and not (node.equivocating or node.ever_equivocated):
            start = node.core.committer.ledger.sequence_length - len(linearized)
            self.commit(start, [b.digest for b in linearized], f"validator {node.authority}")


class Experiment:
    """Builds and runs one simulated deployment."""

    def __init__(self, config: ExperimentConfig) -> None:
        self.config = config
        self._loop = EventLoop()
        self._metrics = ExperimentMetrics(warmup=config.warmup, weight=config.batch_weight)
        self._total_order = _CommitCallback(self._metrics)
        # The epoch-0 committee: every provisioned validator but the
        # joiners, which enter through committed commands.
        self._committee = Committee.of_size(config.genesis_size)
        self._reconfig_seq = 0
        # One set of round-0 blocks for every core (restarts included):
        # like every other block of the simulation, each is one object
        # all validators hold, so what is memoized on it is shared.
        self._genesis = make_genesis(config.num_validators)
        self._coin = FastCoin(
            seed=("coin", config.seed).__repr__().encode(),
            n=config.num_validators,
            threshold=self._committee.quorum_threshold,
        )
        self._protocol = _PROTOCOL_TABLE[config.protocol]
        self._latency_model = self._make_latency_model()
        #: Lifecycle span recorder shared by every validator and the
        #: network; the no-op tracer unless ``config.trace`` asked for
        #: a recording one.  Exported after ``run()`` via
        #: ``repro.obs.export``.
        self.tracer = Tracer() if config.trace else NULL_TRACER
        # The run's prices, shared by the network and every validator.
        self._costs = CostModel(
            tx_weight=config.batch_weight,
            mean_tx_size=config.mean_tx_size,
            mixed_sizes=bool(config.tx_size_mix),
            model_cpu=config.model_cpu,
        )
        self._network = SimNetwork(
            self._loop,
            self._latency_model,
            config.num_validators,
            costs=self._costs,
            scheduler=self._make_scheduler(),
            seed=config.seed,
            tracer=self.tracer,
        )
        self._schedule = config.effective_schedule()
        self._initially_down = self._schedule.initially_down()
        # Warm restarts need a write-ahead log per validator that will
        # restart; everyone else skips the append cost entirely.
        self._wal_dir: tempfile.TemporaryDirectory | None = None
        self._wals: dict[int, WriteAheadLog] = {}
        if config.recover_mode == "warm":
            warm = sorted(e.validator for e in self._schedule if e.kind == "recover")
            if warm:
                self._wal_dir = tempfile.TemporaryDirectory(prefix="repro-sim-wal-")
                self._wals = {
                    authority: WriteAheadLog(
                        Path(self._wal_dir.name) / f"validator-{authority}.wal"
                    )
                    for authority in warm
                }
        self.nodes = [self._make_node(i) for i in range(config.num_validators)]
        # A client inside every validator that is up at some point of the
        # run; while its validator is down, its arrivals go to the next
        # live one.
        down = self._schedule.down_intervals(config.duration)
        live = [
            authority
            for authority in range(config.num_validators)
            if down.get(authority) != [(0.0, config.duration)]
        ]
        self._router = ArrivalRouter(
            self._loop,
            self.nodes,
            config.sim_tx_rate / len(live),
            validators=live,
            stop_at=config.duration,
            metrics=self._metrics,
            seed=config.seed,
            tx_size_mix=config.tx_size_mix,
        )
        if config.reconfigures:
            # Per-epoch attribution: the observer's schedule drives the
            # metric marks (epoch 0 starts the clock at t=0).
            observer_schedule = self.nodes[0].core.schedule
            self._metrics.record_epoch(
                0, 0, observer_schedule.genesis_committee.members, 0.0
            )
            metrics, loop = self._metrics, self._loop
            observer_schedule.subscribe(
                lambda epoch: metrics.record_epoch(
                    epoch.epoch_id, epoch.start_round, epoch.committee.members, loop.now
                )
            )

    # ------------------------------------------------------------------
    # Deployment construction
    # ------------------------------------------------------------------
    def _make_latency_model(self) -> LatencyModel:
        if self.config.uniform_delay is not None:
            return UniformLatencyModel(self.config.uniform_delay)
        return wan_matrix_model(self.config.wan_matrix or "paper-5", self.config.num_validators)

    def _make_scheduler(self) -> MessageScheduler | None:
        cfg = self.config
        if cfg.leader_dos_slots > 0:
            # The omniscient leader-DoS adversary: resolve the elected
            # leaders of each propose round from the simulation coin
            # (FastCoin.peek) and the observer's live committee
            # schedule.  The closure reads ``self.nodes`` lazily — the
            # network (and this scheduler) is built before the nodes,
            # but no message flows until after they exist.
            wave_length = cfg.protocol_config.wave_length
            coin = self._coin
            # Weak: the network holds this closure, the experiment the network.
            experiment = weakref.proxy(self)

            def leaders_for_round(propose_round: int) -> tuple[int, ...]:
                schedule = experiment.nodes[0].core.schedule
                committee = schedule.committee_at(propose_round)
                value = coin.peek(propose_round + wave_length - 1)
                return tuple(
                    committee.leader_for(value, offset)
                    for offset in range(cfg.leaders_per_round)
                )

            return LeaderDosScheduler(
                leaders_for_round, cfg.leader_dos_delay, cfg.leader_dos_slots
            )
        if cfg.adversary_targets > 0:
            return AsyncAdversaryScheduler(
                committee_size=cfg.num_validators,
                targets_per_window=cfg.adversary_targets,
                delay=cfg.adversary_delay,
            )
        return None

    def _make_core(self, authority: int) -> MahiMahiCore:
        committer = self._protocol.committer
        if self._protocol.multi_leader and not self.config.direct_skip:
            committer = partial(committer, direct_skip_enabled=False)
        return MahiMahiCore(
            authority,
            # One *mutable* schedule per validator, shared by its core
            # and committer: the commit walk appends epochs, proposing
            # and quorum counting follow them.
            CommitteeSchedule(self._committee, provisioned=self.config.num_validators),
            self.config.protocol_config,
            self._coin,
            committer_factory=committer,
            genesis=self._genesis,
        )

    def _make_node(self, authority: int) -> SimValidator:
        return SimValidator(
            self._make_core(authority),
            self._network,
            self._loop,
            costs=self._costs,
            min_block_interval=self.config.block_interval,
            # Checked against every other validator's as they happen;
            # measured at the observer.
            on_commit=self._total_order.on_commit,
            core_factory=lambda authority=authority: self._make_core(authority),
            start_down=authority in self._initially_down,
            on_recovery=self._metrics.record_recovery,
            recover_mode=self.config.recover_mode,
            wal=self._wals.get(authority),
            sync_chunk_blocks=self.config.sync_chunk_blocks,
            tracer=self.tracer,
            stage_metrics=self._metrics,
            # Only the observer decomposes commit latency into stages
            # (arrival/ingest are measured where commits are measured);
            # every validator still records first inclusions.
            stage_observer=authority == 0,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, *, check_safety: bool = True) -> ExperimentResult:
        """Run to the configured duration and summarize.

        Args:
            check_safety: Raise the first commit-sequence divergence the
                run recorded, and run the rest of :meth:`assert_safety`,
                before reporting (Theorem 1).
        """
        try:
            # What holds from t = 0 (a validator crashed or equivocating
            # from the start) is in place before anyone proposes.
            for event in self._schedule:
                if event.time > 0:
                    self._loop.schedule_at(event.time, self._apply_fault_event, event)
                else:
                    self._apply_fault_event(event)
            for node in self.nodes:
                node.start()  # no-op for validators that are down at t=0
            self._router.start()
            self._loop.run_until(self.config.duration, max_events=200_000_000)
            if check_safety:
                self.assert_safety()
            return self._result()
        finally:
            # Close the WALs and break the reference cycles the run
            # needed (queued events, delivery callbacks, each node's
            # driver and restart factory), so that a finished experiment
            # is freed when its owner drops it, not at the next full
            # collection.  ``run()`` is one-shot; everything read after
            # it (``nodes[i].core``, ``assert_safety()``) keeps working.
            self._loop.clear()
            self._network.close()
            for node in self.nodes:
                node.close()
            if self._wal_dir is not None:
                self._wal_dir.cleanup()

    def _apply_fault_event(self, event: FaultEvent) -> None:
        node, kind = self.nodes[event.validator], event.kind
        if kind in ("equivocate", "desist"):
            node.set_equivocating(kind == "equivocate")
        elif kind == "partition":
            self._network.set_partition(event.validator, event.group, event.scale)
        elif kind == "heal":
            self._network.heal(event.validator)
        elif kind == "straggle":
            node.set_slow_factor(event.scale)
        elif kind == "crash":
            node.crash()
        else:
            if kind in ("join", "leave"):
                # A membership command; thresholds move when the
                # committed command's epoch activates.  A joiner boots
                # now (state-transfer join) and proposes once its epoch
                # is active; a leaver keeps participating until the
                # excluding epoch activates, then exits by itself
                # (ValidatorDriver.excluded_by_epoch).
                self._submit_reconfig(kind, event.validator)
            if kind != "leave":  # recover / join: boot with an empty state
                node.recover()
                node.start()

    def _submit_reconfig(self, kind: str, validator: int) -> None:
        """Inject a reconfiguration command transaction at the observer
        (the administrative client of a real deployment): validator 0 is
        never faulty, so the command is never lost."""
        tx = ReconfigCommand(kind=kind, validator=validator).as_transaction(
            self._reconfig_seq, submitted_at=self._loop.now
        )
        self._reconfig_seq += 1
        self.nodes[0].submit(tx)

    def assert_safety(self) -> None:
        """Check the Total Order property (Theorem 1) across validators.

        Commit sequences were already compared as they grew (see
        :class:`~repro.statesync.checkpoint.TotalOrder`); here every
        honest validator's ledger is fed too (the adopted checkpoint's chain
        replayed against the reference sequence, checkpoints and epoch
        schedules cross-checked), and the first divergence recorded is
        raised.  Crashed, recovered, joined and left validators are all
        *included*: an honest validator that went down mid-run holds a
        shorter prefix, and a recovered one re-synced the DAG and
        deterministically recommitted the same sequence from genesis.
        A validator restored from a **checkpoint** committed only a
        suffix, checked at its global positions.  Equivocators are
        excluded from the moment their campaign starts (Byzantine, no
        honest sequence to check), including validators whose campaign
        has desisted: once a validator actually sent a conflicting
        sibling it left the honest universe for good.  Partitioned and
        straggling validators are honest and stay **included**: a
        cut-off validator holds a shorter (or stalled) prefix, never a
        diverging one."""
        for node in self.nodes:
            if not (node.equivocating or node.ever_equivocated):
                self._total_order.ledger(node.core.committer.ledger, f"validator {node.authority}")
        self._total_order.check(SimulationError)

    def _observed_down_intervals(self) -> dict[int, list[tuple[float, float]]]:
        """Per-validator downtime as it actually happened.

        The schedule-derived intervals are exact except after a
        ``leave``, which only *submits* the command: the validator keeps
        participating until the excluding epoch activates
        (``SimValidator.left_at``).  Those spans are clipped to the
        observed exit — or dropped entirely when the command never
        activated and the validator stayed up.
        """
        intervals = self._schedule.down_intervals(self.config.duration)
        for event in self._schedule:
            if event.kind != "leave":
                continue
            left_at = self.nodes[event.validator].left_at
            spans = intervals.get(event.validator, [])
            for index, (start, end) in enumerate(spans):
                if start == event.time:
                    if left_at is None:
                        del spans[index]
                    else:
                        spans[index] = (min(left_at, end), end)
                    break
        return intervals

    def _result(self) -> ExperimentResult:
        observer = self.nodes[0]
        stats = observer.core.committer.stats
        measured = max(1e-9, self.config.duration - self.config.warmup)
        recoveries, recovery_avg, recovery_max = self._metrics.recovery_summary()
        down_intervals = self._observed_down_intervals()
        partition_intervals = self._schedule.partition_intervals(self.config.duration)
        partitioned_seconds = sum(
            end - start
            for spans in partition_intervals.values()
            for start, end in spans
            if end > start
        )
        # Availability attribution: a partitioned honest validator is
        # *unavailable* — its clients' transactions stall behind the
        # cut — without being crashed (it never shows up in crash counts,
        # and in recoveries only if it fell far enough behind to re-sync
        # after the heal).  Per validator the partition spans join the
        # downtime union, so a crash inside a partition window is not
        # double-counted.
        unavailable = 0.0
        for validator in set(down_intervals) | set(partition_intervals):
            merged = merge_spans(
                down_intervals.get(validator, []),
                partition_intervals.get(validator, []),
            )
            unavailable += sum(end - start for start, end in merged)
        observer_round = observer.core.store.highest_round
        live_rounds = [
            node.core.store.highest_round
            for node in self.nodes
            if not (node.down or node.equivocating or node.ever_equivocated)
        ]
        max_rounds_behind = max(
            0, observer_round - min(live_rounds, default=observer_round)
        )
        observer_schedule = observer.core.schedule
        epoch_transitions = len(observer_schedule.epochs()) - 1
        epoch_summary: tuple = ()
        final_committee_size = 0
        if self.config.reconfigures:
            final_committee_size = observer_schedule.latest.committee.size
            epoch_summary = tuple(
                self._metrics.epoch_attribution(self.config.duration, down_intervals)
            )
        return ExperimentResult(
            config=self.config,
            latency=self._metrics.latency_summary(),
            throughput_tps=self._metrics.throughput(measured),
            rounds_reached=observer.core.store.highest_round,
            blocks_committed=stats.blocks_committed,
            direct_commits=stats.direct_commits,
            indirect_commits=stats.indirect_commits,
            direct_skips=stats.direct_skips,
            indirect_skips=stats.indirect_skips,
            messages_sent=self._network.messages_sent,
            bytes_sent=self._network.bytes_sent,
            pending_transactions=self._metrics.pending,
            events_processed=self._loop.events_processed,
            recoveries=recoveries,
            recovery_time_s=recovery_avg,
            recovery_time_max_s=recovery_max,
            recovery_time_by_mode=self._metrics.recovery_by_mode(),
            checkpoints_captured=observer.core.committer.ledger.captured_total,
            checkpoint_adoptions=sum(node.checkpoint_adoptions for node in self.nodes),
            availability=availability(
                unavailable, self.config.num_validators, self.config.duration
            ),
            epoch_transitions=epoch_transitions,
            final_committee_size=final_committee_size,
            epoch_summary=epoch_summary,
            equivocations=sum(node.equivocations_sent for node in self.nodes),
            messages_dropped=self._network.messages_dropped,
            partitioned_seconds=partitioned_seconds,
            max_rounds_behind=max_rounds_behind,
            stage_breakdown=self._metrics.stage_breakdown(),
        )

