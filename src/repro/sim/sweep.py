"""Parallel experiment sweeps with content-addressed result caching.

The paper's figures are point clouds: hundreds of
:class:`~repro.sim.runner.ExperimentConfig` instances swept over
protocol x committee size x load x fault pattern.  This module turns
that from "a for-loop inside every benchmark script" into a subsystem:

* **Sweeps are data.**  A :class:`SweepSpec` names a list of configs
  plus a :class:`FigureSpec` describing how the points become a figure.
  Benchmark modules export their specs; drivers (``benchmarks/
  run_all.py``) execute them.
* **Points are content-addressed.**  :func:`config_hash` derives a
  stable hash from the config's serialized fields, so a finished point
  is cached at ``results/points/<hash>.json`` and an interrupted sweep
  *resumes* — re-running recomputes only missing points, across sweeps
  and across processes.
* **Execution is parallel.**  :func:`run_sweep` fans pending points out
  over CPU cores with ``multiprocessing``; every experiment is
  self-seeded, so parallel results are bit-identical to serial ones.
* **Smoke mode is first-class.**  :meth:`SweepSpec.smoke` shrinks every
  config to a seconds-long deployment (small committee, short duration,
  light load) and deduplicates the collapsed points — the CI gate runs
  every sweep end-to-end without the full-figure cost.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable

from ..errors import ConfigError
from .faults import FaultSchedule
from .metrics import LatencySummary
from .runner import Experiment, ExperimentConfig, ExperimentResult

#: Bump when the meaning of a stored point changes (config fields,
#: result fields, simulator semantics) to invalidate old caches.
#: v3: fault-schedule subsystem (crash-recovery/reconfiguration fields,
#: recovery/availability result metrics, structured client RNG seeds).
#: v4: checkpoint & state-transfer subsystem (recover_mode /
#: checkpoint_interval config keys, per-mode recovery metrics,
#: checkpoint capture/adoption counters).
#: v5: epoch-based committee reconfiguration (its three config keys,
#: epoch-transition and per-epoch attribution result metrics) plus
#: batched per-link network delivery (event ordering at equal instants
#: changed).
#: v7: observability subsystem (``trace`` config key, per-stage
#: ``stage_breakdown`` result field).
#: v8: every ``join``/``leave`` is a committed membership change and the
#: genesis committee is derived from the schedule; four knobs no sweep
#: set became module constants and the region map went (34 -> 27 keys).
SCHEMA_VERSION = 8

#: Default on-disk location of the results store, relative to CWD.
DEFAULT_RESULTS_DIR = "results"


# ----------------------------------------------------------------------
# Config and result (de)serialization
# ----------------------------------------------------------------------
def config_to_dict(config: ExperimentConfig) -> dict:
    """Plain-JSON representation of a config (field name -> value)."""
    return dataclasses.asdict(config)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Inverse of :func:`config_to_dict`.

    Raises:
        ConfigError: ``data`` names a key ``ExperimentConfig`` does not
            have (a point written under an older schema), or a value it
            rejects.
    """
    unknown = set(data) - {field.name for field in dataclasses.fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown ExperimentConfig keys {sorted(unknown)}")
    return ExperimentConfig(**data)


def config_hash(config: ExperimentConfig) -> str:
    """Stable content hash of a config.

    Derived from the sorted JSON of the dataclass fields plus
    :data:`SCHEMA_VERSION` — independent of process, platform and
    ``PYTHONHASHSEED``, and unchanged by field *reordering* (but not by
    field addition, which rightly invalidates the cache).
    """
    payload = json.dumps(
        {"schema": SCHEMA_VERSION, "config": config_to_dict(config)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def result_to_dict(result: ExperimentResult) -> dict:
    """Plain-JSON representation of a result (NaNs become ``None``)."""
    out = dataclasses.asdict(result)
    out.pop("config")
    out["latency"] = {
        k: (None if math.isnan(v) else v) for k, v in dataclasses.asdict(result.latency).items()
    }
    return out


def result_from_dict(config: ExperimentConfig, data: dict) -> ExperimentResult:
    """Inverse of :func:`result_to_dict` (re-attaching ``config``)."""
    fields = dict(data)
    latency = {k: (math.nan if v is None else v) for k, v in fields.pop("latency").items()}
    if "epoch_summary" in fields:
        fields["epoch_summary"] = tuple(fields["epoch_summary"])
    return ExperimentResult(config=config, latency=LatencySummary(**latency), **fields)


# ----------------------------------------------------------------------
# Sweep declarations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FigureSpec:
    """How a sweep's points become a figure.

    Attributes:
        figure: Paper figure id (``"3"``, ``"4"``, ... or ``"ablation"``).
        title: Human-readable figure/sweep title.
        x_axis: Config field on the x axis (usually ``load_tps``).
        y_axis: Result metric on the y axis (``latency_avg_s`` or
            ``throughput_tps``).
        series_key: Config field that separates curves (``protocol``,
            ``leaders_per_round``, ...).
        x_label: Human-readable x-axis label with units (rendering
            falls back to ``x_axis`` when empty).
        y_label: Human-readable y-axis label with units (rendering
            falls back to ``y_axis`` when empty).
        x_scale: ``"linear"`` or ``"log"``.
        y_scale: ``"linear"`` or ``"log"``.
        series_label: Legend-entry template: a ``str.format`` pattern
            applied to each series value (e.g. ``"{} crash faults"``);
            empty means ``str(value)`` verbatim.
    """

    figure: str
    title: str
    x_axis: str = "load_tps"
    y_axis: str = "latency_avg_s"
    series_key: str = "protocol"
    x_label: str = ""
    y_label: str = ""
    x_scale: str = "linear"
    y_scale: str = "linear"
    series_label: str = ""

    def __post_init__(self) -> None:
        for name, scale in (("x_scale", self.x_scale), ("y_scale", self.y_scale)):
            if scale not in ("linear", "log"):
                raise ValueError(f"{name} must be 'linear' or 'log', got {scale!r}")

    def format_series(self, value) -> str:
        """The legend label for one series value."""
        if self.series_label:
            return self.series_label.format(value)
        return str(value)


#: Smoke-mode shape: seconds-long deployments that still commit blocks.
_SMOKE_DURATION = 2.0
_SMOKE_WARMUP = 0.5
_SMOKE_MAX_VALIDATORS = 10
_SMOKE_MAX_LOAD = 2_000.0


def smoke_config(config: ExperimentConfig) -> ExperimentConfig:
    """Shrink one config to smoke size, preserving its shape.

    Protocol, fault pattern (clamped to the smaller committee's ``f``),
    adversary and ablation flags survive; committee size, duration and
    load shrink so the point finishes in well under a second of wall
    time.  Fault-schedule event times rescale with the duration (an
    event at the halfway mark stays at the halfway mark), so
    crash-recovery and reconfiguration sweeps keep their shape too.

    Reconfiguration configs keep their committee and their whole
    join/leave timeline: the membership changes *are* the shape (a
    not-yet-joined or departed validator is outside the active
    committee, so the fault-budget clamps below do not apply), and
    epoch sweeps provision small committees by design.
    """
    if config.reconfigures:
        time_scale = _SMOKE_DURATION / config.duration if config.duration > 0 else 1.0
        return replace(
            config,
            fault_schedule=tuple(
                replace(event, time=event.time * time_scale)
                for event in config.fault_schedule
            ),
            duration=_SMOKE_DURATION,
            warmup=_SMOKE_WARMUP,
            load_tps=min(config.load_tps, _SMOKE_MAX_LOAD),
        )
    validators = min(config.num_validators, _SMOKE_MAX_VALIDATORS)
    faults_tolerated = (validators - 1) // 3
    crashed = min(config.num_crashed, faults_tolerated)
    recovering = min(config.num_recovering, faults_tolerated - crashed)
    equivocators = min(config.num_equivocators, faults_tolerated - crashed - recovering)
    time_scale = _SMOKE_DURATION / config.duration if config.duration > 0 else 1.0
    first_static_fault = validators - crashed - recovering - equivocators
    schedule = tuple(
        replace(event, time=event.time * time_scale)
        for event in config.fault_schedule
        # Validators that no longer exist in the shrunken committee (or
        # that its static fault blocks now claim) drop out.
        if 1 <= event.validator < first_static_fault
    )
    # Like the static counts, the schedule must fit the shrunken
    # committee's fault budget: drop whole validators (highest index
    # first) until the worst concurrent downtime fits.
    budget = faults_tolerated - crashed - recovering - equivocators
    while schedule and FaultSchedule(schedule).max_concurrent_faulty() > budget:
        victim = max(event.validator for event in schedule)
        schedule = tuple(event for event in schedule if event.validator != victim)
    return replace(
        config,
        num_validators=validators,
        num_crashed=crashed,
        num_recovering=recovering,
        num_equivocators=equivocators,
        fault_schedule=schedule,
        adversary_targets=min(config.adversary_targets, faults_tolerated),
        duration=_SMOKE_DURATION,
        warmup=_SMOKE_WARMUP,
        load_tps=min(config.load_tps, _SMOKE_MAX_LOAD),
    )


@dataclass(frozen=True)
class SweepSpec:
    """One named sweep: a list of configs plus figure metadata."""

    name: str
    figure: FigureSpec
    configs: tuple[ExperimentConfig, ...]
    check_safety: bool = True

    def smoke(self) -> "SweepSpec":
        """The smoke-size version of this sweep.

        Shrinking collapses load/duration variants onto each other, so
        the result is deduplicated (first occurrence wins) — a 16-point
        load sweep typically smokes down to one point per series.
        """
        seen: dict[str, ExperimentConfig] = {}
        for config in self.configs:
            small = smoke_config(config)
            seen.setdefault(config_hash(small), small)
        return replace(self, name=f"{self.name}-smoke", configs=tuple(seen.values()))


# ----------------------------------------------------------------------
# Results store
# ----------------------------------------------------------------------
class ResultsStore:
    """Content-addressed experiment results under one directory.

    Layout::

        <root>/points/<config-hash>.json   one finished experiment each
        <root>/<sweep-name>.json           per-sweep summary (point list
                                           + figure spec + series data)

    Points are global (not per-sweep): two sweeps sharing a config —
    common after smoke-mode collapsing — share the cached result.
    """

    def __init__(self, root: str | os.PathLike = DEFAULT_RESULTS_DIR) -> None:
        self.root = Path(root)
        self.points_dir = self.root / "points"

    def point_path(self, config: ExperimentConfig) -> Path:
        return self.points_dir / f"{config_hash(config)}.json"

    def get(self, config: ExperimentConfig) -> ExperimentResult | None:
        """The cached result for ``config``, or ``None`` on miss.

        Stale or corrupt entries (schema bump, truncated write, hash
        mismatch) read as misses, so the sweep recomputes them.
        """
        path = self.point_path(config)
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            # ValueError covers json.JSONDecodeError *and* torn bytes
            # that fail to decode as UTF-8: a reader racing a writer
            # (or a crashed writer's partial file, on filesystems
            # without atomic-rename durability) must see a cache miss,
            # never an exception.
            return None
        if not isinstance(data, dict):
            return None
        if data.get("schema") != SCHEMA_VERSION:
            return None
        if data.get("config_hash") != config_hash(config):
            return None
        try:
            return result_from_dict(config, data["result"])
        except (KeyError, TypeError):
            return None

    def put(
        self, config: ExperimentConfig, result: ExperimentResult, *, wall_seconds: float
    ) -> Path:
        """Persist one finished point (atomic rename, resumable cache).

        The point file itself is a pure function of the config and the
        (deterministic) simulation result, so any two writers — serial,
        pooled, or a whole fleet of worker processes — produce
        byte-identical files.  The wall clock of *this* writer's run is
        timing metadata, not content: it lands in a ``.wall.json``
        sidecar so it can never make two otherwise-identical caches
        differ.
        """
        self.points_dir.mkdir(parents=True, exist_ok=True)
        path = self.point_path(config)
        payload = {
            "schema": SCHEMA_VERSION,
            "config_hash": config_hash(config),
            "config": config_to_dict(config),
            "result": result_to_dict(result),
        }
        # Unique temp name per writer: concurrent processes, threads in
        # one process, or hosts sharing results/ may finish the same
        # point; each must rename its *own* complete file into place.
        writer = f"{os.getpid()}-{threading.get_ident()}"
        tmp = path.with_suffix(f".{writer}.tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
        wall_tmp = path.with_suffix(f".{writer}.wall.tmp")
        wall_tmp.write_text(json.dumps({"wall_seconds": wall_seconds}))
        wall_tmp.replace(self.wall_path(config))
        tmp.replace(path)
        return path

    def wall_path(self, config: ExperimentConfig) -> Path:
        """The timing-metadata sidecar next to :meth:`point_path`."""
        return self.points_dir / f"{config_hash(config)}.wall.json"

    def wall_seconds(self, config: ExperimentConfig) -> float | None:
        """Recorded compute seconds for a cached point (its sidecar), if any."""
        try:
            data = json.loads(self.wall_path(config).read_text())
        except (OSError, ValueError):
            return None
        if isinstance(data, dict) and isinstance(data.get("wall_seconds"), (int, float)):
            return float(data["wall_seconds"])
        return None

    def write_summary(self, outcome: "SweepOutcome") -> Path:
        """Write the per-sweep summary next to the points."""
        self.root.mkdir(parents=True, exist_ok=True)
        spec = outcome.spec
        payload = {
            "schema": SCHEMA_VERSION,
            "sweep": spec.name,
            "figure": dataclasses.asdict(spec.figure),
            "points": [
                {
                    "config_hash": config_hash(result.config),
                    "series": _config_field(result.config, spec.figure.series_key),
                    "x": _config_field(result.config, spec.figure.x_axis),
                    "y": _result_metric(result, spec.figure.y_axis),
                }
                for result in outcome.results
            ],
            "cached": outcome.cached,
            "executed": outcome.executed,
            "wall_seconds": outcome.wall_seconds,
        }
        path = self.root / f"{spec.name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        return path


def _config_field(config: ExperimentConfig, name: str):
    return getattr(config, name)


def _result_metric(result: ExperimentResult, name: str):
    if name == "latency_avg_s":
        value = result.latency.avg
        return None if math.isnan(value) else value
    if name == "latency_p99_s":
        # Tail latency: the partition sweeps plot it (stalled
        # transactions of a healed cut live in the tail, not the mean).
        value = result.latency.p99
        return None if math.isnan(value) else value
    return getattr(result, name)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
@dataclass
class SweepOutcome:
    """What happened when a sweep ran."""

    spec: SweepSpec
    results: list[ExperimentResult]
    cached: int
    executed: int
    wall_seconds: float
    #: Simulator events and wall time of the points actually *executed*
    #: this run (cached points excluded — perf rates must not mix a
    #: cached point's events with this run's wall clock).
    executed_events: int = 0
    executed_wall_seconds: float = 0.0


def run_point(config: ExperimentConfig, *, check_safety: bool = True) -> ExperimentResult:
    """Run one experiment point in-process."""
    return Experiment(config).run(check_safety=check_safety)


def _run_point_job(job: tuple[dict, bool]) -> tuple[dict, dict, float]:
    """Worker-process entry point (module-level so it pickles)."""
    config_dict, check_safety = job
    config = config_from_dict(config_dict)
    started = time.perf_counter()
    result = Experiment(config).run(check_safety=check_safety)
    return config_dict, result_to_dict(result), time.perf_counter() - started


def default_workers() -> int:
    """Worker-count default: all cores, overridable via
    ``REPRO_BENCH_WORKERS`` (the knob every driver honors).  Callers that
    fan out *externally* — the fleet worker — must not
    consult this at all: they pass an explicit ``workers=1`` so process
    pools never nest.
    """
    env = os.environ.get("REPRO_BENCH_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass  # unusable override: fall through, not crash
    return os.cpu_count() or 1


def run_sweep(
    spec: SweepSpec,
    store: ResultsStore | None = None,
    *,
    workers: int | None = None,
    progress: Callable[[str], None] | None = None,
) -> SweepOutcome:
    """Run every point of ``spec``, reusing and filling the cache.

    Cached points are served from ``store``; pending ones fan out over
    ``workers`` processes (serial when 1, or when only one point is
    pending — no pool spin-up cost for trivial work).  Results come back
    in config order regardless of completion order.

    Args:
        spec: The sweep to run.
        store: Results store (defaults to ``results/`` under CWD).
        workers: Process count; default :func:`default_workers`.
        progress: Optional line sink for per-point progress.

    Returns:
        The ordered results plus cache/execution counts.
    """
    store = store or ResultsStore()
    workers = workers if workers is not None else default_workers()
    say = progress or (lambda line: None)
    started = time.perf_counter()

    results: dict[str, ExperimentResult] = {}
    pending: list[ExperimentConfig] = []
    for config in spec.configs:
        cached = store.get(config)
        if cached is not None:
            results[config_hash(config)] = cached
        else:
            pending.append(config)
    cached_count = len(results)
    if cached_count:
        say(f"[{spec.name}] {cached_count}/{len(spec.configs)} points cached")

    executed_events = 0
    executed_wall = 0.0
    if pending:
        jobs = [(config_to_dict(config), spec.check_safety) for config in pending]

        def collect(outcomes: Iterable[tuple[dict, dict, float]]) -> None:
            nonlocal executed_events, executed_wall
            completed = 0
            for config_dict, result_dict, wall in outcomes:
                config = config_from_dict(config_dict)
                result = result_from_dict(config, result_dict)
                store.put(config, result, wall_seconds=wall)
                results[config_hash(config)] = result
                executed_events += result.events_processed
                executed_wall += wall
                completed += 1
                say(
                    f"[{spec.name}] point {completed}/{len(pending)} done in {wall:.1f}s "
                    f"({result.summary().strip()})"
                )

        if workers <= 1 or len(pending) == 1:
            collect(map(_run_point_job, jobs))
        else:
            with ProcessPoolExecutor(max_workers=min(workers, len(pending))) as pool:
                collect(pool.map(_run_point_job, jobs))

    ordered = [results[config_hash(config)] for config in spec.configs]
    outcome = SweepOutcome(
        spec=spec,
        results=ordered,
        cached=cached_count,
        executed=len(pending),
        wall_seconds=time.perf_counter() - started,
        executed_events=executed_events,
        executed_wall_seconds=executed_wall,
    )
    store.write_summary(outcome)
    return outcome

