"""Fleet descriptions: which backend, which hosts, how many workers.

A fleet spec is a small TOML or JSON document::

    backend = "ssh"            # or "local"
    retry_timeout_s = 120.0    # straggler release threshold
    max_attempts = 3           # per-point retries before failing

    [[hosts]]
    host = "node1.example.com" # ssh destination (user@host works)
    workers = 8                # worker processes on that host
    remote_path = "~/repro"    # repo checkout on the host
    python = "python3"

    [[hosts]]
    host = "node2.example.com"
    workers = 8
    remote_path = "~/repro"

The local backend needs no file at all: ``repro-bench --fleet local:4``
expands to a spec with one implicit host running four worker
processes, and ``local`` (``repro-bench``'s default) to one worker per
core.  TOML parsing uses :mod:`tomllib` (Python 3.11+); on older
interpreters use the JSON equivalent (same keys, ``hosts`` as a list of
objects).
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

from .manifest import FleetError

try:  # Python 3.11+
    import tomllib
except ImportError:  # pragma: no cover - exercised on 3.10 only
    tomllib = None


@dataclass(frozen=True)
class FleetHost:
    """One machine of the fleet."""

    host: str = ""  #: ssh destination; empty = this machine
    workers: int = 1
    remote_path: str = ""  #: repo checkout on the host (ssh backend)
    python: str = "python3"

    @property
    def name(self) -> str:
        return self.host or "local"

    def worker_ids(self, index: int) -> list[str]:
        """Stable worker names for claims/receipts (dots are reserved
        as the claim-file separator)."""
        label = re.sub(r"[^A-Za-z0-9_-]+", "-", self.name)
        return [f"{label}-{index}-{i}" for i in range(self.workers)]


@dataclass(frozen=True)
class FleetSpec:
    """A parsed fleet description."""

    backend: str = "local"
    hosts: tuple[FleetHost, ...] = field(default_factory=tuple)
    retry_timeout_s: float = 120.0
    max_attempts: int = 3
    ssh_command: str = "ssh"
    rsync_command: str = "rsync"

    def __post_init__(self) -> None:
        if self.backend not in ("local", "ssh"):
            raise FleetError(f"unknown fleet backend {self.backend!r}")
        if not self.hosts:
            raise FleetError("a fleet spec needs at least one host")
        if any(host.workers < 1 for host in self.hosts):
            raise FleetError("every fleet host needs workers >= 1")
        if self.backend == "ssh" and any(not host.host for host in self.hosts):
            raise FleetError("ssh fleet hosts need a non-empty 'host'")
        if self.max_attempts < 1:
            raise FleetError("max_attempts must be >= 1")

    @property
    def total_workers(self) -> int:
        return sum(host.workers for host in self.hosts)

    @classmethod
    def local(cls, workers: int) -> "FleetSpec":
        """The ``local:N`` shorthand."""
        if workers < 1:
            raise FleetError("a local fleet needs workers >= 1")
        return cls(backend="local", hosts=(FleetHost(workers=workers),))

    @classmethod
    def parse(cls, text: str, *, fmt: str) -> "FleetSpec":
        """Parse a spec document (``fmt`` is ``"toml"`` or ``"json"``)."""
        if fmt == "toml":
            if tomllib is None:
                raise FleetError(
                    "TOML fleet specs need Python 3.11+ (tomllib); "
                    "use the JSON equivalent on older interpreters"
                )
            try:
                data = tomllib.loads(text)
            except tomllib.TOMLDecodeError as error:
                raise FleetError(f"unparseable TOML fleet spec: {error}") from error
        elif fmt == "json":
            try:
                data = json.loads(text)
            except json.JSONDecodeError as error:
                raise FleetError(f"unparseable JSON fleet spec: {error}") from error
        else:
            raise FleetError(f"unknown fleet spec format {fmt!r}")
        if not isinstance(data, dict):
            raise FleetError("a fleet spec must be a table/object at the top level")
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: dict) -> "FleetSpec":
        known_host_keys = {"host", "workers", "remote_path", "python"}
        hosts = []
        for raw in data.get("hosts", ()):
            unknown = set(raw) - known_host_keys
            if unknown:
                raise FleetError(f"unknown fleet host keys: {sorted(unknown)}")
            hosts.append(FleetHost(**raw))
        known_keys = {
            "backend", "hosts", "retry_timeout_s", "max_attempts",
            "ssh_command", "rsync_command",
        }
        unknown = set(data) - known_keys
        if unknown:
            raise FleetError(f"unknown fleet spec keys: {sorted(unknown)}")
        return cls(
            backend=str(data.get("backend", "local")),
            hosts=tuple(hosts),
            retry_timeout_s=float(data.get("retry_timeout_s", 120.0)),
            max_attempts=int(data.get("max_attempts", 3)),
            ssh_command=str(data.get("ssh_command", "ssh")),
            rsync_command=str(data.get("rsync_command", "rsync")),
        )

    @classmethod
    def load(cls, source: str) -> "FleetSpec":
        """Load a spec from ``local:N`` shorthand or a TOML/JSON path."""
        shorthand = re.fullmatch(r"local(?::(\d+))?", source)
        if shorthand:
            workers = shorthand.group(1)
            return cls.local(int(workers) if workers else os.cpu_count() or 1)
        path = Path(source)
        if not path.is_file():
            raise FleetError(
                f"fleet spec {source!r} is neither 'local[:N]' nor a readable file"
            )
        fmt = "json" if path.suffix.lower() == ".json" else "toml"
        return cls.parse(path.read_text(), fmt=fmt)
