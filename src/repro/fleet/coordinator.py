"""The fleet coordinator: rounds of dispatch, straggler re-dispatch,
and the merge verification.

``run_fleet`` owns the lifecycle: materialize the manifest from the
pending (cache-missing) points, run backend rounds until the queue
drains, release dead workers' claims between rounds (bounding per-point
attempts), and finally verify the merge — every manifest point must
exist in the content-addressed store with exactly the ``config_hash``
the manifest promised, recomputed from the stored config.  A shard that
came back from a worker running different code (schema skew, a stale
checkout on an ssh host) fails the run loudly instead of poisoning the
cache.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..errors import ConfigError
from ..sim.sweep import (
    SCHEMA_VERSION,
    ResultsStore,
    config_from_dict,
    config_hash,
    config_to_dict,
)
from .backends import CommandRunner, make_backend, point_landed
from .manifest import FleetError, Manifest, WorkItem
from .spec import FleetSpec


@dataclass
class FleetReport:
    """What a fleet run did (lands in ``summary.json`` as provenance)."""

    backend: str
    workers: int
    points: int
    rounds: int
    redispatched: int
    wall_seconds: float
    completed_by: dict[str, int] = field(default_factory=dict)
    worker_failures: list[str] = field(default_factory=list)
    fleet_dir: str = ""

    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "workers": self.workers,
            "points": self.points,
            "rounds": self.rounds,
            "redispatched": self.redispatched,
            "wall_seconds": round(self.wall_seconds, 3),
            "completed_by": dict(sorted(self.completed_by.items())),
            "worker_failures": sorted(self.worker_failures),
        }


def pending_items(sweeps, store: ResultsStore) -> list[WorkItem]:
    """The fleet's work: every cache-missing point across ``sweeps``,
    deduplicated by config hash (smoke collapsing shares points)."""
    seen: dict[str, WorkItem] = {}
    for sweep in sweeps:
        for config in sweep.configs:
            key = config_hash(config)
            if key in seen or store.get(config) is not None:
                continue
            seen[key] = WorkItem(
                config_hash=key,
                config=config_to_dict(config),
                check_safety=sweep.check_safety,
                sweep=sweep.name,
            )
    return list(seen.values())


def plan_shards(items: list[WorkItem], spec: FleetSpec) -> list[tuple[str, int]]:
    """Static shard sizing: ``(worker label, points)`` per worker slot.

    The pull queue assigns dynamically at run time; this is the sizing
    view (``repro-bench --list --fleet-plan``) — how a round-robin split
    of today's pending points would land, cache hits already excluded.
    """
    labels = [
        worker_id
        for index, host in enumerate(spec.hosts)
        for worker_id in host.worker_ids(index)
    ]
    counts = {label: 0 for label in labels}
    for position, _item in enumerate(items):
        counts[labels[position % len(labels)]] += 1
    return list(counts.items())


def verify_merge(manifest: Manifest, store: ResultsStore) -> int:
    """Every manifest point landed, with the promised ``config_hash``.

    The hash is both read from the stored payload *and* recomputed from
    the stored config, so a worker that ran a different schema version
    (or wrote the wrong point under a right name) cannot slip through.

    Returns the number of verified points; raises :class:`FleetError`
    listing every missing or mismatched one.
    """
    missing: list[str] = []
    mismatched: list[str] = []
    for expected in manifest.item_hashes():
        path = store.points_dir / f"{expected}.json"
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            missing.append(expected)
            continue
        if not isinstance(data, dict) or data.get("schema") != SCHEMA_VERSION:
            mismatched.append(expected)
            continue
        try:
            recomputed = config_hash(config_from_dict(data["config"]))
        except (KeyError, TypeError, ConfigError):
            mismatched.append(expected)
            continue
        if data.get("config_hash") != expected or recomputed != expected:
            mismatched.append(expected)
    problems = []
    if missing:
        problems.append(f"never landed: {', '.join(sorted(missing))}")
    if mismatched:
        problems.append(f"wrong config_hash: {', '.join(sorted(mismatched))}")
    if problems:
        raise FleetError(f"fleet merge verification failed - {'; '.join(problems)}")
    return len(manifest.item_hashes())


def run_fleet(
    items: list[WorkItem],
    store: ResultsStore,
    spec: FleetSpec,
    *,
    fleet_root: str | os.PathLike | None = None,
    progress: Callable[[str], None] | None = None,
    run_command: CommandRunner | None = None,
) -> FleetReport:
    """Shard ``items`` over the fleet and merge them into ``store``.

    Rounds repeat until the queue is empty: each round dispatches the
    backend's workers, then releases any claim left by a dead worker
    (its point re-queues with the attempt counter bumped; a point that
    keeps killing workers fails the run after ``spec.max_attempts``).
    A final :func:`verify_merge` holds the store to the manifest.
    """
    say = progress or (lambda line: None)
    started = time.perf_counter()
    backend = make_backend(spec, run_command=run_command)
    fleet_dir = Path(
        fleet_root
        if fleet_root is not None
        else store.root / "fleet" / f"run-{os.getpid()}-{int(time.time())}"
    )
    manifest = Manifest.create(fleet_dir, items)
    store.points_dir.mkdir(parents=True, exist_ok=True)
    say(
        f"[fleet] {len(items)} pending points -> {spec.backend} backend, "
        f"{spec.total_workers} workers ({fleet_dir})"
    )

    landed = lambda h: point_landed(store, h)  # noqa: E731
    rounds = 0
    redispatched = 0
    failures: list[str] = []
    # Every round retires at least one attempt per stuck point, so the
    # queue must drain within max_attempts rounds plus one cleanup pass.
    max_rounds = spec.max_attempts + 1
    while True:
        # The straggler pass runs *between* rounds too: once a round's
        # workers have exited, any surviving claim belongs to a dead
        # worker — a landed point is promoted to done (the worker died
        # after the store write), an unlanded one re-queues with its
        # attempt counter bumped.
        released, exhausted = manifest.release_stale(
            older_than_s=0.0, landed=landed, max_attempts=spec.max_attempts
        )
        redispatched += len(released)
        if exhausted:
            raise FleetError(
                f"points failed {spec.max_attempts} attempts: "
                + ", ".join(sorted(exhausted))
            )
        if released:
            say(f"[fleet] straggler pass re-queued {len(released)} points")
        if not manifest.pending():
            break
        rounds += 1
        if rounds > max_rounds:
            raise FleetError(
                f"fleet made no progress after {max_rounds} rounds "
                f"({len(manifest.pending())} points still queued)"
            )
        outcome = backend.run_round(manifest, store, say)
        failures.extend(outcome.failures)
        redispatched += outcome.redispatched

    verified = verify_merge(manifest, store)
    completions = manifest.completions()
    completed_by: dict[str, int] = {}
    for worker in completions.values():
        completed_by[worker] = completed_by.get(worker, 0) + 1
    report = FleetReport(
        backend=spec.backend,
        workers=spec.total_workers,
        points=len(items),
        rounds=rounds,
        redispatched=redispatched,
        wall_seconds=time.perf_counter() - started,
        completed_by=completed_by,
        worker_failures=failures,
        fleet_dir=str(fleet_dir),
    )
    (fleet_dir / "fleet.json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True)
    )
    say(
        f"[fleet] merged {verified} points in {report.wall_seconds:.1f}s "
        f"({rounds} rounds, {redispatched} re-dispatched)"
    )
    return report
