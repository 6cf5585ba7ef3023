"""Worker backends: how fleet workers actually get started.

Both backends drive the same entry point (:func:`repro.fleet.worker.main`,
``python -m repro.fleet.worker`` on a remote host) and the same claim
protocol; they differ only in where the processes live:

* :class:`LocalBackend` — worker processes on this machine, pulling
  directly from the shared manifest queue.  Where the platform can fork
  and the coordinator runs one thread, a worker starts as a fork of the
  coordinator, so it begins with the simulator already imported.  While
  workers run, the backend periodically releases claims older than the
  retry timeout so a live worker can pick up a dead sibling's point
  without waiting for the round to end.
* :class:`SshBackend` — the coordinator claims batches *on behalf of*
  each remote worker slot (through the same atomic-rename protocol, so
  local and remote fleets can even share a manifest), ships each batch
  as a shard file via ``rsync``, runs the worker in shard mode over
  ``ssh``, and rsyncs the remote point store back.  Points that did not
  land stay claimed and are released by the coordinator's straggler
  pass, then re-dispatched to healthy hosts on the next round.

Every worker runs its points one after another, in its own process: the
fleet is the only fan-out.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import threading
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from pathlib import Path
from typing import Callable, Protocol

from ..sim.sweep import ResultsStore
from . import worker
from .manifest import Manifest, WorkItem
from .spec import FleetHost, FleetSpec

#: ``run_command`` signature: a started, completed process.
CommandRunner = Callable[..., "subprocess.CompletedProcess[str]"]


@dataclass
class RoundOutcome:
    """What one dispatch round did."""

    workers: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)  #: workers that died
    redispatched: int = 0  #: claims released to live workers mid-round


class WorkerBackend(Protocol):
    """One round of worker dispatch over the shared manifest."""

    name: str

    def run_round(self, manifest: Manifest, store: ResultsStore,
                  progress: Callable[[str], None]) -> RoundOutcome:
        """Start this round's workers, block until they exit."""
        ...  # pragma: no cover - protocol


def point_landed(store: ResultsStore, config_hash: str) -> bool:
    """Did a valid point with this hash land in the store?"""
    return store.load(config_hash) is not None


def _local_start() -> multiprocessing.context.BaseContext:
    """How local workers start: forked where the platform can fork and
    this process runs one thread (the child inherits the coordinator's
    imports instead of paying a fresh interpreter's, but also any lock
    another thread held at the fork), spawned otherwise."""
    fork = "fork" in multiprocessing.get_all_start_methods() and threading.active_count() == 1
    return multiprocessing.get_context("fork" if fork else "spawn")


class LocalBackend:
    """Worker processes on this machine pulling from the shared queue."""

    name = "local"

    def __init__(self, spec: FleetSpec, *, poll_s: float = 0.2) -> None:
        self.spec = spec
        self.poll_s = poll_s

    def run_round(self, manifest: Manifest, store: ResultsStore,
                  progress: Callable[[str], None]) -> RoundOutcome:
        outcome = RoundOutcome()
        start = _local_start()
        procs: dict[str, multiprocessing.process.BaseProcess] = {}
        for index, host in enumerate(self.spec.hosts):
            for worker_id in host.worker_ids(index):
                proc = procs[worker_id] = start.Process(
                    target=worker.main,
                    args=([
                        "--fleet", str(manifest.root),
                        "--results", str(store.root),
                        "--worker-id", worker_id,
                    ],),
                    name=f"fleet-{worker_id}",
                )
                proc.start()
                outcome.workers.append(worker_id)
        progress(f"[fleet] local round: {len(procs)} workers on {manifest.root}")
        try:
            while running := [p.sentinel for p in procs.values() if p.exitcode is None]:
                # Wake when a worker exits or the poll interval passes,
                # whichever is first.
                wait(running, timeout=self.poll_s)
                # Mid-round straggler release: a claim past the retry
                # timeout whose point never landed goes back to the
                # queue for the surviving workers.
                released, _ = manifest.release_stale(
                    older_than_s=self.spec.retry_timeout_s,
                    landed=lambda h: point_landed(store, h),
                    max_attempts=self.spec.max_attempts,
                )
                outcome.redispatched += len(released)
        finally:
            for worker_id, proc in procs.items():
                if proc.exitcode is None:  # pragma: no cover - interrupt path
                    proc.terminate()
                proc.join()
                if proc.exitcode != 0:
                    outcome.failures.append(worker_id)
                    progress(f"[fleet] worker {worker_id} exited {proc.exitcode}")
        return outcome


def _default_runner(command: list[str], **kwargs) -> "subprocess.CompletedProcess[str]":
    return subprocess.run(command, capture_output=True, text=True, **kwargs)


class SshBackend:
    """Shard dispatch over ``ssh``/``rsync``.

    ``run_command`` is injectable for tests (and for exotic transports:
    anything that executes an argv and reports an exit code works).
    """

    name = "ssh"

    def __init__(self, spec: FleetSpec, *, run_command: CommandRunner | None = None) -> None:
        self.spec = spec
        self.run_command = run_command or _default_runner

    # -- command construction (unit-testable without a network) --------
    def push_shard_command(self, host: FleetHost, shard: Path, shard_name: str) -> list[str]:
        return [
            self.spec.rsync_command, "-az", str(shard),
            f"{host.host}:{host.remote_path}/{shard_name}",
        ]

    def worker_command(self, host: FleetHost, shard_name: str, worker_id: str) -> list[str]:
        remote = (
            f"cd {host.remote_path} && "
            f"PYTHONPATH=src "
            f"{host.python} -m repro.fleet.worker "
            f"--shard {shard_name} --results results --worker-id {worker_id}"
        )
        return [self.spec.ssh_command, host.host, remote]

    def pull_results_command(self, host: FleetHost, store: ResultsStore) -> list[str]:
        return [
            self.spec.rsync_command, "-az",
            f"{host.host}:{host.remote_path}/results/points/",
            f"{store.points_dir}{os.sep}",
        ]

    # -- dispatch -------------------------------------------------------
    def _claim_assignments(self, manifest: Manifest) -> dict[str, tuple[FleetHost, list[WorkItem]]]:
        """Claim pending points round-robin across every worker slot."""
        slots: list[tuple[str, FleetHost]] = []
        for index, host in enumerate(self.spec.hosts):
            for worker_id in host.worker_ids(index):
                slots.append((worker_id, host))
        assignments: dict[str, tuple[FleetHost, list[WorkItem]]] = {
            worker_id: (host, []) for worker_id, host in slots
        }
        drained = False
        while not drained:
            drained = True
            for worker_id, host in slots:
                item = manifest.claim(worker_id)
                if item is not None:
                    assignments[worker_id][1].append(item)
                    drained = False
        return assignments

    def _run_shard(
        self,
        manifest: Manifest,
        store: ResultsStore,
        host: FleetHost,
        worker_id: str,
        items: list[WorkItem],
        progress: Callable[[str], None],
        failures: list[str],
    ) -> None:
        shard_name = f"fleet-shard-{worker_id}.json"
        shards_dir = manifest.root / "shards"
        shards_dir.mkdir(parents=True, exist_ok=True)
        shard = shards_dir / shard_name
        shard.write_text(json.dumps([item.to_dict() for item in items], sort_keys=True))
        for command in (
            self.push_shard_command(host, shard, shard_name),
            self.worker_command(host, shard_name, worker_id),
            self.pull_results_command(host, store),
        ):
            proc = self.run_command(command)
            if proc.returncode != 0:
                failures.append(worker_id)
                progress(
                    f"[fleet] {worker_id}: `{' '.join(command)}` exited "
                    f"{proc.returncode}: {(proc.stderr or '').strip()[:200]}"
                )
                return  # leave the claims; the straggler pass releases them
        for item in items:
            if point_landed(store, item.config_hash):
                manifest.complete(item, worker_id)

    def run_round(self, manifest: Manifest, store: ResultsStore,
                  progress: Callable[[str], None]) -> RoundOutcome:
        outcome = RoundOutcome()
        assignments = self._claim_assignments(manifest)
        threads = []
        for worker_id, (host, items) in assignments.items():
            if not items:
                continue
            outcome.workers.append(worker_id)
            thread = threading.Thread(
                target=self._run_shard,
                args=(manifest, store, host, worker_id, items, progress,
                      outcome.failures),
                name=f"fleet-{worker_id}",
            )
            thread.start()
            threads.append(thread)
        progress(
            f"[fleet] ssh round: {len(threads)} shards over "
            f"{len(self.spec.hosts)} hosts"
        )
        for thread in threads:
            thread.join()
        return outcome


def make_backend(spec: FleetSpec, *, run_command: CommandRunner | None = None) -> WorkerBackend:
    """The backend named by the spec."""
    if spec.backend == "local":
        return LocalBackend(spec)
    return SshBackend(spec, run_command=run_command)
