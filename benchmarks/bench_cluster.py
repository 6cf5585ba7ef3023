#!/usr/bin/env python3
"""End-to-end localhost cluster benchmark (the runtime backend).

Every other benchmark in this directory measures the *simulator*; this
one measures the asyncio runtime the way the paper measures its Rust
implementation (Section 4): validators as separate OS processes over
real TCP sockets with fsynced write-ahead logs, driven by an open-loop
client fleet (:mod:`repro.runtime.process_cluster`).  Three scenarios:

* **steady** — sustained load against a healthy committee: end-to-end
  commit latency (avg/p50/p95, submission wall-clock to commit
  wall-clock on the same machine) and committed-transaction throughput;
* **recovery** — ``kill -9`` a validator mid-load and restart it in
  each recovery mode, recording per-mode recovery time (restart to
  first post-restart proposal).  Cold and warm run with GC disabled
  (they need fetchable history, like the simulator's crash-restart
  sweeps); checkpoint runs with GC *enabled* — the regime state
  transfer exists for — and must adopt a quorum-attested checkpoint;
* **resize** — a live committee resize under load: a provisioned-but-
  idle validator joins via checkpoint state transfer, then a founding
  member leaves and goes silent at its exclusion boundary.

Every scenario ends with the Theorem 1 assertion: byte-identical
committed prefixes across all validator incarnations, no global commit
index left uncovered and one epoch schedule
(:meth:`ProcessCluster.assert_consistent_prefixes`, judged by
:class:`repro.statesync.checkpoint.TotalOrder`, the checker the
simulator and the in-process cluster share).  Results land in
``results/cluster/cluster_metrics.json`` and are validated by
:func:`benchmarks.curve_checks.check_cluster_metrics` (also enforced by
``run_all.py`` whenever the metrics file exists — the CI gate).

Usage::

    python benchmarks/bench_cluster.py --smoke     # seconds-long CI gate
    python benchmarks/bench_cluster.py             # longer measurement run
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for _path in (REPO_ROOT / "src", REPO_ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from repro.runtime.process_cluster import ProcessCluster  # noqa: E402

#: This module measures the runtime backend end to end; it declares no
#: simulator sweeps (run_all gates its metrics file instead).
SWEEPS = ()

#: Scenario knobs: (duration_s, offered_tps, min_block_interval_s).
FULL_PROFILE = {"duration": 15.0, "tps": 400.0, "interval": 0.02}
SMOKE_PROFILE = {"duration": 4.0, "tps": 120.0, "interval": 0.04}


def _base_config(**overrides) -> dict:
    config = {
        "wave_length": 5,
        "leaders_per_round": 2,
        "checkpoint_interval_rounds": 10,
        "garbage_collection_depth": 0,
        "reconfig_activation_lag": 10,
    }
    config.update(overrides)
    return config


def _telemetry(cluster: ProcessCluster, validators: range, elapsed: float) -> dict:
    """Live telemetry from each validator's status-JSON registry
    snapshot: commit rate, pending-queue depth, and sync activity."""
    out: dict[str, dict] = {}
    for validator in validators:
        status = cluster.status(validator) or {}
        metrics = status.get("metrics") or {}
        out[str(validator)] = {
            "commit_rate_tps": round(metrics.get("txs_committed", 0.0) / max(elapsed, 1e-9), 1),
            "blocks_proposed": metrics.get("blocks_proposed", 0.0),
            "pending_blocks": metrics.get("pending_blocks", 0.0),
            "missing_refs": metrics.get("missing_refs", 0.0),
            "sync_requests": metrics.get("sync_requests_sent", 0.0),
            "deep_sync_requests": metrics.get("sync_deep_requests_sent", 0.0),
            "round": metrics.get("round", 0.0),
        }
    return out


async def bench_steady(
    run_dir: Path, profile: dict, base_port: int, trace_dir: Path | None = None
) -> dict:
    """Sustained load against a healthy 4-validator committee."""
    cluster = ProcessCluster(
        4,
        base_port=base_port,
        run_dir=run_dir,
        config=_base_config(),
        min_block_interval=profile["interval"],
        trace_dir=trace_dir,
    )
    async with cluster:
        started = time.monotonic()
        submitted = await cluster.fleet.run_load(profile["tps"], profile["duration"])
        # Let the tail of the pipeline drain before the final reading.
        status = await cluster.wait_status(
            0,
            lambda s: s["tx_committed"] >= 0.9 * submitted,
            timeout=15.0,
            what="load tail committed",
        )
        elapsed = time.monotonic() - started
        telemetry = _telemetry(cluster, range(4), elapsed)
    indices = cluster.assert_consistent_prefixes()
    return {
        "telemetry": telemetry,
        "n": 4,
        "duration_s": round(elapsed, 3),
        "offered_tps": profile["tps"],
        "submitted_tx": submitted,
        "committed_tx": status["tx_committed"],
        "throughput_tps": round(status["tx_committed"] / elapsed, 1),
        "latency_avg_s": status["latency_avg"],
        "latency_p50_s": status["latency_p50"],
        "latency_p95_s": status["latency_p95"],
        "commit_indices": indices,
    }


async def bench_recovery(run_dir: Path, profile: dict, base_port: int) -> dict:
    """``kill -9`` + restart in each mode, one phase per mode.

    Each phase runs its own cluster so a mode's history length never
    depends on the previous mode's run.  Cold and warm keep the full
    DAG history (GC off); the checkpoint phase enables GC so adoption +
    suffix fetch is the *only* way back in.
    """
    victim = 3
    per_mode: dict[str, dict] = {}
    for mode in ("cold", "warm", "checkpoint"):
        gc_depth = 64 if mode == "checkpoint" else 0
        phase_dir = run_dir / mode
        cluster = ProcessCluster(
            4,
            base_port=base_port,
            run_dir=phase_dir,
            config=_base_config(garbage_collection_depth=gc_depth),
            min_block_interval=profile["interval"],
        )
        async with cluster:
            load = asyncio.create_task(
                cluster.fleet.run_load(profile["tps"], profile["duration"] + 3.0)
            )
            await cluster.wait_status(
                0, lambda s: s["committed_blocks"] > 30, what="steady commits"
            )
            cluster.kill(victim)
            killed_at = time.monotonic()
            await asyncio.sleep(1.0)  # history accrues while the victim is down
            await cluster.restart(victim, recover_mode=mode)
            status = await cluster.wait_status(
                victim,
                lambda s: s["recovery_time"] is not None
                and s["recovery_error"] is None,
                timeout=30.0,
                what=f"{mode} recovery",
            )
            downtime = time.monotonic() - killed_at
            victim_metrics = status.get("metrics") or {}
            await load
        indices = cluster.assert_consistent_prefixes()
        per_mode[mode] = {
            "recovery_s": round(status["recovery_time"], 4),
            "downtime_s": round(downtime, 3),
            "mode_used": status["recovery_mode_used"],
            "gc_depth": gc_depth,
            "adopted_base_round": status["adopted_base_round"],
            "commit_indices": indices,
            # The victim's re-sync activity: how the recovery actually
            # proceeded (shallow fetches vs chunked deep re-sync).
            "victim_sync_requests": victim_metrics.get("sync_requests_sent", 0.0),
            "victim_deep_sync_requests": victim_metrics.get(
                "sync_deep_requests_sent", 0.0
            ),
            "victim_blocks_received": victim_metrics.get("blocks_received", 0.0),
        }
    return per_mode


async def bench_resize(run_dir: Path, profile: dict, base_port: int) -> dict:
    """Live committee resize under load: join, then leave."""
    cluster = ProcessCluster(
        4,
        base_port=base_port,
        run_dir=run_dir,
        provisioned=6,
        config=_base_config(garbage_collection_depth=64),
        min_block_interval=profile["interval"],
    )
    joiner, leaver = 4, 2
    async with cluster:
        load = asyncio.create_task(
            cluster.fleet.run_load(profile["tps"], 2.5 * profile["duration"])
        )
        await cluster.wait_status(
            0, lambda s: s["committed_blocks"] > 30, what="steady commits"
        )
        # Join: the newcomer state-transfers in (its history floor sits
        # behind every peer's GC horizon, so checkpoint is the only way).
        cluster.spawn(joiner, recover_mode="checkpoint")
        await cluster.wait_ready([joiner])
        await cluster.submit_reconfig("join", joiner)
        await cluster.wait_status(
            0,
            lambda s: any(e[0] == 1 for e in s["epochs"]),
            timeout=30.0,
            what="join epoch scheduled",
        )
        joiner_status = await cluster.wait_status(
            joiner,
            lambda s: s["recovery_time"] is not None and s["recovery_error"] is None,
            timeout=30.0,
            what="joiner recovered and proposing",
        )
        # Leave: a founding member is voted out and must observe its own
        # exclusion boundary to go silent.
        await cluster.submit_reconfig("leave", leaver)
        leaver_status = await cluster.wait_status(
            leaver, lambda s: s["left"], timeout=30.0, what="leaver observes exit"
        )
        await load
    indices = cluster.assert_consistent_prefixes()
    final_epoch = leaver_status["epochs"][-1]
    return {
        "epochs": leaver_status["epochs"],
        "final_committee": final_epoch[2],
        "joiner_recovery_s": round(joiner_status["recovery_time"], 4),
        "joiner_mode": joiner_status["recovery_mode_used"],
        "leaver_left": leaver_status["left"],
        "commit_indices": indices,
    }


async def run_benchmark(
    results_dir: Path, *, smoke: bool, base_port: int, trace: bool = False
) -> dict:
    profile = SMOKE_PROFILE if smoke else FULL_PROFILE
    metrics: dict = {"mode": "smoke" if smoke else "full", "profile": profile}
    # Traces land beside the cluster metrics, under results/trace/:
    # one Chrome trace JSON (+ JSONL span log) per validator process.
    trace_dir = results_dir.parent / "trace" / "cluster" if trace else None
    with tempfile.TemporaryDirectory(prefix="repro-cluster-") as tmp:
        tmp_dir = Path(tmp)
        print(f"bench_cluster[steady]: {profile['duration']}s at {profile['tps']} tps")
        metrics["steady"] = await bench_steady(
            tmp_dir / "steady", profile, base_port, trace_dir
        )
        print(
            f"bench_cluster[steady]: {metrics['steady']['throughput_tps']} tx/s, "
            f"p50 {metrics['steady']['latency_p50_s']:.3f}s"
        )
        print("bench_cluster[recovery]: kill -9 + restart per mode")
        metrics["recovery"] = await bench_recovery(
            tmp_dir / "recovery", profile, base_port + 10
        )
        for mode, entry in metrics["recovery"].items():
            print(f"bench_cluster[recovery]: {mode} -> {entry['recovery_s']}s")
        print("bench_cluster[resize]: live join + leave")
        metrics["resize"] = await bench_resize(tmp_dir / "resize", profile, base_port + 20)
        print(
            f"bench_cluster[resize]: final committee {metrics['resize']['final_committee']}, "
            f"joiner in {metrics['resize']['joiner_recovery_s']}s"
        )
    results_dir.mkdir(parents=True, exist_ok=True)
    out = results_dir / "cluster_metrics.json"
    out.write_text(json.dumps(metrics, indent=2, sort_keys=True))
    print(f"bench_cluster: wrote {out}")
    if trace_dir is not None:
        traces = sorted(trace_dir.glob("*.trace.json"))
        print(f"bench_cluster: {len(traces)} trace files -> {trace_dir}/")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="seconds-long run (the CI gate)"
    )
    parser.add_argument(
        "--results",
        default=None,
        help="results directory (default: results/cluster, or REPRO_RESULTS_DIR/cluster)",
    )
    parser.add_argument(
        "--base-port", type=int, default=30300, help="first TCP port of the sweep"
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record per-validator lifecycle traces in the steady scenario "
        "and export Chrome trace JSON under results/trace/cluster/",
    )
    args = parser.parse_args(argv)
    results_root = args.results or os.environ.get("REPRO_RESULTS_DIR") or "results"
    results_dir = Path(results_root) / "cluster"
    metrics = asyncio.run(
        run_benchmark(
            results_dir, smoke=args.smoke, base_port=args.base_port, trace=args.trace
        )
    )

    from benchmarks.curve_checks import check_cluster_metrics

    violations = check_cluster_metrics(metrics)
    for violation in violations:
        print(f"bench_cluster: FAIL - {violation}")
    if violations:
        return 1
    print("bench_cluster: all cluster gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
