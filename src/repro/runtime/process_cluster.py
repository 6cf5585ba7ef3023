"""Multi-process localhost clusters: one OS process per validator.

The in-process :class:`~repro.runtime.cluster.LocalCluster` shares one
event loop (and one Python interpreter) across the committee, which
hides exactly the failure modes recovery is about: a killed validator
there cannot lose its socket buffers, its fsyncs, or its interpreter
state.  This harness runs every validator as its own OS process over
real TCP sockets with fsynced write-ahead logs, so ``kill -9`` is a real
crash and a restart is a real recovery:

* :class:`ProcessCluster` — the driver: spawns validator processes,
  kills them with ``SIGKILL``, restarts them in any recovery mode,
  resizes the committee live, and asserts byte-identical committed
  prefixes across all incarnations;
* :class:`ClientFleet` — open-loop transaction submission over the same
  framed TCP protocol the validators speak (clients introduce
  themselves with pseudo authority ids above the provisioned range);
* the ``__main__`` entry point — one validator process, driven by a
  JSON spec file, reporting through an atomically-replaced status file
  and an append-only commit log.

Every incarnation logs its committed sequence as ``<index> <digest>``
lines, where the index is the block's position in the *global* commit
sequence (a checkpoint-recovered validator starts at its adopted
checkpoint's sequence length).  Theorem 1 says these logs must agree on
every index any two incarnations both cover —
:meth:`ProcessCluster.assert_consistent_prefixes` checks exactly that.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

from ..committee import RECONFIG_TX_BASE, ReconfigCommand
from ..config import ProtocolConfig
from ..messages import TransactionMessage, encode_message, frame
from ..obs.export import write_chrome_trace, write_jsonl
from ..obs.trace import NULL_TRACER, Tracer
from ..transaction import Transaction
from .cluster import Deployment
from .node import ValidatorNode
from .transport import TcpTransport

#: How often a validator process rewrites its status file (seconds).
STATUS_INTERVAL = 0.2


def _build_node(spec: dict, tracer=NULL_TRACER) -> ValidatorNode:
    """Construct one validator from a spec dict (child-process side).

    Keys, coin, and committee are re-derived deterministically from the
    seed, so every process independently builds the same deployment —
    nothing is pickled across the process boundary.
    """
    authority = spec["authority"]
    provisioned = spec["provisioned"]
    addresses = {v: ("127.0.0.1", spec["base_port"] + v) for v in range(provisioned)}
    return Deployment(spec["n"], provisioned, spec["seed"]).node(
        authority,
        ProtocolConfig(**spec["config"]),
        TcpTransport(authority, addresses),
        wal_path=spec["wal_path"],
        wal_sync=True,
        min_block_interval=spec.get("min_block_interval", 0.0),
        recover_mode=spec["recover_mode"],
        tracer=tracer,
    )


def _write_status(path: Path, status: dict) -> None:
    """Atomic status publication: readers never see a torn file."""
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(status))
    os.replace(tmp, path)


async def _child_main(spec_path: str) -> None:
    """Run one validator until SIGTERM (the child-process entry)."""
    spec = json.loads(Path(spec_path).read_text())
    trace_path = spec.get("trace_path")
    tracer = Tracer() if trace_path else NULL_TRACER
    node = _build_node(spec, tracer=tracer)
    status_path = Path(spec["status_path"])
    commit_log = open(spec["commit_log_path"], "a", encoding="ascii")
    started_at = time.monotonic()
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)

    async def peer_barrier() -> None:
        """Wait for every genesis peer's listener (our own is already
        bound): without this, genesis-round broadcasts race sibling
        process boots and get dropped."""
        if not spec.get("wait_for_peers", True):
            return
        deadline = time.monotonic() + 15.0
        for peer in range(spec["n"]):
            if peer == spec["authority"]:
                continue
            while time.monotonic() < deadline:
                try:
                    _, writer = await asyncio.open_connection(
                        "127.0.0.1", spec["base_port"] + peer
                    )
                    writer.close()
                    break
                except (ConnectionError, OSError):
                    await asyncio.sleep(0.05)

    await node.start(barrier=peer_barrier)
    logged = 0
    latencies: list[float] = []

    def publish(final: bool = False) -> None:
        nonlocal logged
        core = node.core
        ledger = core.committer.ledger
        fresh = []
        while not node.commits.empty():
            fresh.extend(node.commits.get_nowait().linearized)
        # Global indexes: the ledger's sequence length counts every block
        # committed so far (an adopted checkpoint's too), the newest last.
        for index, block in enumerate(fresh, ledger.sequence_length - len(fresh)):
            commit_log.write(f"{index} {block.digest.hex()}\n")
            now = time.time()
            for tx in block.transactions:
                if 0 < tx.submitted_at <= now and tx.tx_id < RECONFIG_TX_BASE:
                    latencies.append(now - tx.submitted_at)
        if fresh:
            commit_log.flush()
            logged += len(fresh)
        latencies_sorted = sorted(latencies)
        # Point-in-time gauges are read off the node at publication
        # time (per-event updates would under-report an idle or stalled
        # validator, and nothing else reads them).
        gauge = node.metrics.gauge
        gauge("round", "current proposal round").set(core.round)
        gauge("pending_blocks", "blocks buffered awaiting ancestors").set(core.pending_count)
        gauge("missing_refs", "references the synchronizer is fetching").set(
            node.synchronizer.missing
        )
        gauge("sync_requests_sent", "shallow fetch requests issued").set(
            node.synchronizer.requests_sent
        )
        gauge("sync_refs_abandoned", "missing references given up behind the GC horizon").set(
            node.synchronizer.refs_abandoned
        )
        gauge("sync_deep_requests_sent", "deep (chunked re-sync) requests issued").set(
            node.deep_sync_requests
        )
        status = {
            "ready": True,
            "final": final,
            "authority": node.authority,
            "pid": os.getpid(),
            "uptime": time.monotonic() - started_at,
            "highest_round": core.store.highest_round,
            "round": core.round,
            "pending": core.pending_count,
            "proposed": core.total_proposed,
            "missing_refs": node.synchronizer.missing,
            "committed_blocks": logged,
            "sequence_length": ledger.sequence_length,
            "sequence_base": ledger.sequence_length - logged,
            "chain": ledger.chain.hex(),
            "checkpoints": len(ledger.checkpoints),
            "adopted_base_round": ledger.adopted_base.round if ledger.adopted_base else None,
            "recovery_mode_used": node.recovery_mode_used,
            "recovery_time": node.recovery_time,
            "recovery_error": (
                str(node.recovery_error) if node.recovery_error else None
            ),
            "syncing": node.syncing,
            "left": node.left,
            "epochs": [list(info) for info in node.schedule.snapshot()],
            "tx_committed": len(latencies),
            "latency_avg": (
                sum(latencies) / len(latencies) if latencies else None
            ),
            "latency_p50": (
                latencies_sorted[len(latencies) // 2] if latencies else None
            ),
            "latency_p95": (
                latencies_sorted[int(len(latencies) * 0.95)] if latencies else None
            ),
            # Live committee view (the latest epoch this validator's
            # commit walk scheduled) and the node's metrics registry,
            # flushed verbatim so drivers can report live telemetry.
            "epoch": node.schedule.latest.epoch_id,
            "committee_size": node.schedule.latest.committee.size,
            "metrics": node.metrics.snapshot(),
        }
        _write_status(status_path, status)

    try:
        while not stop.is_set():
            publish()
            try:
                await asyncio.wait_for(
                    stop.wait(), timeout=spec.get("status_interval", STATUS_INTERVAL)
                )
            except asyncio.TimeoutError:
                pass
    finally:
        await node.stop()
        publish(final=True)
        commit_log.close()
        if tracer.enabled and trace_path:
            path = Path(trace_path)
            write_chrome_trace(tracer.events, path, process_prefix="validator")
            write_jsonl(tracer.events, path.with_suffix(".jsonl"))


# ----------------------------------------------------------------------
# The open-loop client fleet
# ----------------------------------------------------------------------
class ClientFleet:
    """Open-loop clients submitting transactions over real sockets.

    One framed TCP connection per target validator; submission is
    paced by wall-clock rate, never by commit feedback (open loop —
    Section 5's load model).  Client authority ids sit above the
    provisioned range so they can never collide with a validator.
    """

    def __init__(
        self, base_port: int, provisioned: int, targets: list[int]
    ) -> None:
        self._base_port = base_port
        self._provisioned = provisioned
        self._targets = targets
        self._writers: dict[int, asyncio.StreamWriter] = {}
        self._next_tx = 1
        self.submitted = 0

    async def _writer_for(self, validator: int) -> asyncio.StreamWriter | None:
        writer = self._writers.get(validator)
        if writer is not None and not writer.is_closing():
            return writer
        try:
            _, writer = await asyncio.open_connection(
                "127.0.0.1", self._base_port + validator
            )
        except (ConnectionError, OSError):
            return None
        writer.write(struct.pack("<I", self._provisioned + validator))
        self._writers[validator] = writer
        return writer

    async def submit(
        self, validator: int, transactions: tuple[Transaction, ...]
    ) -> bool:
        writer = await self._writer_for(validator)
        if writer is None:
            return False
        try:
            writer.write(
                frame(encode_message(TransactionMessage(transactions=transactions)))
            )
            await writer.drain()
        except (ConnectionError, OSError):
            self._writers.pop(validator, None)
            return False
        self.submitted += len(transactions)
        return True

    async def run_load(
        self, rate_tps: float, duration: float, *, batch: int = 10, tx_size: int = 128
    ) -> int:
        """Submit ``rate_tps`` transactions/second for ``duration``
        seconds, round-robin across the targets; returns the number
        submitted.  A dead target drops its share (open loop: the
        offered load does not slow down for failures)."""
        interval = batch / rate_tps
        deadline = time.monotonic() + duration
        turn = 0
        while time.monotonic() < deadline:
            tick = time.monotonic()
            transactions = tuple(
                Transaction.dummy(self._next_tx + k, submitted_at=time.time(), size=tx_size)
                for k in range(batch)
            )
            self._next_tx += batch
            target = self._targets[turn % len(self._targets)]
            turn += 1
            await self.submit(target, transactions)
            elapsed = time.monotonic() - tick
            if elapsed < interval:
                await asyncio.sleep(interval - elapsed)
        return self.submitted

    async def close(self) -> None:
        for writer in self._writers.values():
            writer.close()
        self._writers.clear()


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
class ProcessCluster:
    """Drives a committee of validator *processes* on localhost."""

    def __init__(
        self,
        n: int = 4,
        *,
        base_port: int = 29900,
        run_dir: str | Path,
        seed: int = 0,
        provisioned: int | None = None,
        config: dict | None = None,
        min_block_interval: float = 0.0,
        trace: bool = False,
        trace_dir: str | Path | None = None,
    ) -> None:
        """Args:
        n: Genesis committee size.
        base_port: Validator ``i`` listens on ``base_port + i``.
        run_dir: Holds per-validator WALs, status files, specs, commit
            logs, and child stderr.
        seed: Key/coin derivation seed (must match across processes —
            each child re-derives the deployment from it).
        provisioned: Total wire identities (join targets included).
        config: :class:`~repro.config.ProtocolConfig` kwargs.
        trace: Record lifecycle traces in every validator process; each
            incarnation writes a Chrome trace JSON (plus a JSONL span
            log) into ``trace_dir`` at shutdown.
        trace_dir: Where traced children export (default
            ``run_dir/trace``).
        """
        self.n = n
        self.base_port = base_port
        self.provisioned = provisioned if provisioned is not None else n
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.seed = seed
        self.config = config or {"wave_length": 5, "leaders_per_round": 2}
        self._min_block_interval = min_block_interval
        self.trace = trace
        self.trace_dir = Path(trace_dir) if trace_dir is not None else self.run_dir / "trace"
        self._procs: dict[int, subprocess.Popen] = {}
        self._incarnation = dict.fromkeys(range(self.provisioned), 0)
        self._reconfig_seq = 0
        self.fleet = ClientFleet(base_port, self.provisioned, list(range(n)))

    # -- paths ----------------------------------------------------------
    def _status_path(self, validator: int) -> Path:
        return self.run_dir / f"status-{validator}.json"

    def _commit_log_path(self, validator: int) -> Path:
        incarnation = self._incarnation[validator]
        return self.run_dir / f"commits-{validator}-{incarnation}.log"

    # -- lifecycle ------------------------------------------------------
    def spawn(self, validator: int, *, recover_mode: str = "warm") -> None:
        """Start one validator process (does not wait for readiness)."""
        if validator in self._procs and self._procs[validator].poll() is None:
            raise RuntimeError(f"validator {validator} is already running")
        self._incarnation[validator] += 1
        spec = {
            "authority": validator,
            "n": self.n,
            "provisioned": self.provisioned,
            "base_port": self.base_port,
            "seed": self.seed,
            "config": self.config,
            "min_block_interval": self._min_block_interval,
            "recover_mode": recover_mode,
            "wal_path": str(self.run_dir / f"validator-{validator}.wal"),
            "status_path": str(self._status_path(validator)),
            "commit_log_path": str(self._commit_log_path(validator)),
        }
        if self.trace:
            incarnation = self._incarnation[validator]
            spec["trace_path"] = str(
                self.trace_dir / f"validator-{validator}-{incarnation}.trace.json"
            )
        spec_path = self.run_dir / f"spec-{validator}.json"
        spec_path.write_text(json.dumps(spec))
        self._status_path(validator).unlink(missing_ok=True)
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        stderr = open(self.run_dir / f"stderr-{validator}.log", "ab")
        self._procs[validator] = subprocess.Popen(
            [sys.executable, "-m", "repro.runtime.process_cluster", str(spec_path)],
            env=env,
            stderr=stderr,
            stdout=subprocess.DEVNULL,
        )

    async def start(self, *, timeout: float = 30.0) -> None:
        """Spawn the genesis committee and wait for every listener."""
        for validator in range(self.n):
            self.spawn(validator)
        await self.wait_ready(list(range(self.n)), timeout=timeout)

    async def wait_ready(self, validators: list[int], *, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        for validator in validators:
            while True:
                status = self.status(validator)
                if status is not None and status.get("ready"):
                    break
                proc = self._procs.get(validator)
                if proc is not None and proc.poll() is not None:
                    raise RuntimeError(
                        f"validator {validator} exited with {proc.returncode} "
                        f"before becoming ready (see stderr-{validator}.log)"
                    )
                if time.monotonic() > deadline:
                    raise TimeoutError(f"validator {validator} never became ready")
                await asyncio.sleep(0.05)

    def kill(self, validator: int) -> None:
        """``kill -9``: a real crash — no flushes, no goodbyes."""
        proc = self._procs.get(validator)
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()

    async def restart(
        self, validator: int, *, recover_mode: str, timeout: float = 30.0
    ) -> None:
        """Bring a killed validator back in the given recovery mode."""
        self.kill(validator)
        self.spawn(validator, recover_mode=recover_mode)
        await self.wait_ready([validator], timeout=timeout)

    async def stop(self, *, timeout: float = 10.0) -> None:
        """Graceful shutdown: SIGTERM, final status dumps, reap."""
        for proc in self._procs.values():
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + timeout
        for validator, proc in self._procs.items():
            while proc.poll() is None and time.monotonic() < deadline:
                await asyncio.sleep(0.05)
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        await self.fleet.close()

    async def __aenter__(self) -> "ProcessCluster":
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    # -- control --------------------------------------------------------
    async def submit_reconfig(self, kind: str, validator: int, *, at: int = 0) -> None:
        """Resize the committee live: inject a join/leave command."""
        tx = ReconfigCommand(kind=kind, validator=validator).as_transaction(self._reconfig_seq)
        self._reconfig_seq += 1
        await self.fleet.submit(at, (tx,))

    # -- observation ----------------------------------------------------
    def status(self, validator: int) -> dict | None:
        path = self._status_path(validator)
        try:
            return json.loads(path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            return None

    async def wait_status(
        self,
        validator: int,
        predicate,
        *,
        timeout: float = 30.0,
        what: str = "condition",
    ) -> dict:
        """Poll a validator's status until ``predicate(status)``."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(validator)
            if status is not None and predicate(status):
                return status
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"validator {validator}: {what} not reached within {timeout}s "
                    f"(last status: {status})"
                )
            await asyncio.sleep(0.05)

    def commit_claims(self) -> dict[int, bytes]:
        """Merge every incarnation's commit log into one global
        ``index -> digest`` map, failing on any disagreement."""
        claims: dict[int, bytes] = {}
        owner: dict[int, str] = {}
        for path in sorted(self.run_dir.glob("commits-*.log")):
            for line in path.read_text().splitlines():
                index_text, digest_hex = line.split()
                index, digest = int(index_text), bytes.fromhex(digest_hex)
                if index in claims and claims[index] != digest:
                    raise AssertionError(
                        f"commit divergence at global index {index}: "
                        f"{path.name} says {digest_hex[:16]}..., "
                        f"{owner[index]} said {claims[index].hex()[:16]}..."
                    )
                claims.setdefault(index, digest)
                owner.setdefault(index, path.name)
        return claims

    def assert_consistent_prefixes(self) -> int:
        """Theorem 1 across processes, crashes, recoveries and resizes:
        every pair of incarnations must agree on every global commit
        index both logged.  Returns the number of indices covered."""
        claims = self.commit_claims()
        if claims:
            covered = sorted(claims)
            # The union must be gap-free from its lowest index: a gap
            # would mean some span was committed by nobody we can check.
            expected = range(covered[0], covered[0] + len(covered))
            if covered != list(expected):
                missing = sorted(set(expected) - set(covered))[:5]
                raise AssertionError(
                    f"commit coverage has gaps (first missing: {missing})"
                )
        return len(claims)


if __name__ == "__main__":
    asyncio.run(_child_main(sys.argv[1]))
