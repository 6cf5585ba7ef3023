"""The shared fleet manifest: a filesystem pull queue.

Scheduling is deliberately dumb and crash-safe.  The coordinator writes
one JSON file per pending point into ``<fleet-dir>/queue/``; a worker
*claims* a point by atomically renaming its queue file into
``<fleet-dir>/claims/`` — the rename either succeeds (the worker owns
the point) or raises (another worker got there first), so **two workers
can never both own a claim**.  A finished point moves the claim into
``<fleet-dir>/done/`` after the result has landed in the
content-addressed store.  A worker that dies mid-claim leaves its claim
file behind; the coordinator's straggler pass returns such claims to
the queue once they are older than the retry timeout (or immediately,
once no worker is left alive), bumping a per-point attempt counter so a
poisonous point eventually fails the run instead of looping forever.

Because the results store is content-addressed and experiment results
are deterministic, the race left open by straggler release — a slow but
alive worker and a re-dispatched worker both finishing the same point —
is harmless: both write byte-identical files via atomic rename.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable

from ..errors import ReproError


class FleetError(ReproError):
    """Fleet orchestration failed (exhausted retries, a merge
    verification mismatch, an unusable fleet spec...)."""


@dataclass(frozen=True)
class WorkItem:
    """One pending sweep point, as carried by the manifest."""

    config_hash: str
    config: dict
    sweep: str = ""
    attempts: int = 0

    def to_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "config": self.config,
            "sweep": self.sweep,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkItem":
        return cls(
            config_hash=str(data["config_hash"]),
            config=dict(data["config"]),
            sweep=str(data.get("sweep", "")),
            attempts=int(data.get("attempts", 0)),
        )


@dataclass(frozen=True)
class Claim:
    """One claim file currently sitting in ``claims/``."""

    config_hash: str
    worker: str
    path: Path
    age_s: float


class Manifest:
    """Pull queue + completion ledger under one shared directory.

    Layout::

        <root>/manifest.json           the full point list (merge scope)
        <root>/queue/<hash>.json       pending points (one WorkItem each)
        <root>/claims/<hash>.<worker>.json   in-flight points
        <root>/done/<hash>.<worker>.json     completed points (receipts)
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.queue_dir = self.root / "queue"
        self.claims_dir = self.root / "claims"
        self.done_dir = self.root / "done"

    # ------------------------------------------------------------------
    # Creation
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, root: str | os.PathLike, items: Iterable[WorkItem]) -> "Manifest":
        """Materialize a fresh manifest (deduplicated by config hash)."""
        manifest = cls(root)
        for directory in (manifest.queue_dir, manifest.claims_dir, manifest.done_dir):
            directory.mkdir(parents=True, exist_ok=True)
        unique: dict[str, WorkItem] = {}
        for item in items:
            unique.setdefault(item.config_hash, item)
        for item in unique.values():
            manifest._enqueue(item)
        (manifest.root / "manifest.json").write_text(
            json.dumps(
                {
                    "schema": 1,
                    "items": [
                        {"config_hash": i.config_hash, "sweep": i.sweep}
                        for i in unique.values()
                    ],
                },
                indent=2,
                sort_keys=True,
            )
        )
        return manifest

    def _enqueue(self, item: WorkItem) -> None:
        path = self.queue_dir / f"{item.config_hash}.json"
        tmp = self.root / f".{item.config_hash}.{os.getpid()}.tmp"
        tmp.write_text(json.dumps(item.to_dict(), sort_keys=True))
        tmp.replace(path)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def item_hashes(self) -> list[str]:
        """Every point in the manifest's scope (the merge contract)."""
        data = json.loads((self.root / "manifest.json").read_text())
        return [entry["config_hash"] for entry in data["items"]]

    def pending(self) -> list[str]:
        """Hashes currently waiting in the queue."""
        return sorted(path.stem for path in self.queue_dir.glob("*.json"))

    def claims(self) -> list[Claim]:
        """Claims currently in flight, oldest first."""
        now = time.time()
        out = []
        for path in sorted(self.claims_dir.glob("*.json")):
            config_hash, _, worker = path.stem.partition(".")
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue  # completed or released under us
            out.append(Claim(config_hash=config_hash, worker=worker, path=path, age_s=age))
        return sorted(out, key=lambda claim: -claim.age_s)

    def completions(self) -> dict[str, str]:
        """``config_hash -> worker`` for completed points (first receipt
        wins when straggler re-dispatch double-ran a point)."""
        out: dict[str, str] = {}
        for path in sorted(self.done_dir.glob("*.json")):
            config_hash, _, worker = path.stem.partition(".")
            out.setdefault(config_hash, worker)
        return out

    # ------------------------------------------------------------------
    # The claim protocol
    # ------------------------------------------------------------------
    def claim(self, worker_id: str) -> WorkItem | None:
        """Claim one pending point for ``worker_id``, or ``None`` when
        the queue is empty.

        The claim is an atomic rename of the queue file: exactly one
        contending worker succeeds, losers simply move to the next
        queue entry.  Workers start scanning at an offset derived from
        their id so a fresh fleet does not stampede the same file.
        """
        while True:
            entries = sorted(self.queue_dir.glob("*.json"))
            if not entries:
                return None
            offset = zlib.crc32(worker_id.encode()) % len(entries)
            for path in entries[offset:] + entries[:offset]:
                target = self.claims_dir / f"{path.stem}.{worker_id}.json"
                try:
                    os.rename(path, target)
                except FileNotFoundError:
                    continue  # lost the race for this entry
                return WorkItem.from_dict(json.loads(target.read_text()))
            # Every listed entry was claimed while we scanned; re-list.

    def complete(self, item: WorkItem, worker_id: str) -> None:
        """Move this worker's claim to ``done/`` (call *after* the
        result landed in the store)."""
        claim = self.claims_dir / f"{item.config_hash}.{worker_id}.json"
        try:
            os.rename(claim, self.done_dir / f"{item.config_hash}.{worker_id}.json")
        except FileNotFoundError:
            # The claim was released (we looked dead) and someone else
            # may re-run the point; our result is already in the store
            # and byte-identical, so there is nothing left to record.
            pass

    def release_stale(
        self,
        *,
        older_than_s: float,
        landed: Callable[[str], bool],
        max_attempts: int,
    ) -> tuple[list[str], list[str]]:
        """The straggler pass: deal with claims of (presumed) dead workers.

        A claim older than ``older_than_s`` whose point already
        ``landed`` in the store is promoted straight to ``done/`` (the
        worker died between the store write and the receipt).  One whose
        point did *not* land goes back to the queue with its attempt
        counter bumped — unless the counter exceeds ``max_attempts``,
        which marks the point poisonous.

        Returns ``(released_hashes, exhausted_hashes)``.
        """
        released: list[str] = []
        exhausted: list[str] = []
        for claim in self.claims():
            if claim.age_s < older_than_s:
                continue
            if landed(claim.config_hash):
                try:
                    os.rename(claim.path, self.done_dir / claim.path.name)
                except FileNotFoundError:
                    pass
                continue
            try:
                item = WorkItem.from_dict(json.loads(claim.path.read_text()))
            except (OSError, ValueError, KeyError):
                continue  # released or completed under us
            item = replace(item, attempts=item.attempts + 1)
            if item.attempts >= max_attempts:
                exhausted.append(item.config_hash)
                claim.path.unlink(missing_ok=True)
                continue
            self._enqueue(item)
            claim.path.unlink(missing_ok=True)
            released.append(item.config_hash)
        return released, exhausted
