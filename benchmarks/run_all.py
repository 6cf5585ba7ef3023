#!/usr/bin/env python3
"""One-command reproduction driver (``repro-bench``).

Collects every sweep declared by the ``bench_*`` modules (their
``SWEEPS`` tuples) and executes them through the parallel, cached sweep
engine (:mod:`repro.sim.sweep`).  Finished points land in
``results/points/<config-hash>.json``; per-sweep series summaries in
``results/<sweep>.json``; a run-level roll-up in
``results/summary.json``.  Re-running resumes: cached points are served
near-instantly, only missing ones compute.  Every run ends by holding
the results to the claim rules of ``benchmarks/curve_checks.py``.

Usage::

    python benchmarks/run_all.py --smoke          # seconds-long CI gate
    python benchmarks/run_all.py                  # full figure sweeps
    python benchmarks/run_all.py --only fig3      # one figure's sweeps
    python benchmarks/run_all.py --list           # show the sweep plan
    python benchmarks/run_all.py --scale 3        # longer runs
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Benchmark modules that declare sweeps, in execution order.
BENCH_MODULES = (
    "benchmarks.bench_fig3_ideal",
    "benchmarks.bench_fig4_faults",
    "benchmarks.bench_fig5_leaders_w4",
    "benchmarks.bench_fig7_leaders_w5",
    "benchmarks.bench_ablations",
    "benchmarks.bench_commit_probability",
    "benchmarks.bench_recovery",
    "benchmarks.bench_adversary",
    # bench_cluster declares no simulator sweeps (SWEEPS = ()): it is a
    # standalone multi-process runtime benchmark, run separately as
    # `python benchmarks/bench_cluster.py [--smoke]`.  Its metrics file
    # is gated below whenever it exists.
    "benchmarks.bench_cluster",
)


def _bootstrap_sys_path() -> None:
    """Make ``repro`` and ``benchmarks`` importable from a checkout."""
    for path in (REPO_ROOT / "src", REPO_ROOT):
        entry = str(path)
        if entry not in sys.path:
            sys.path.insert(0, entry)


def discover_sweeps() -> list:
    """All declared sweeps, in module order."""
    sweeps = []
    for module_name in BENCH_MODULES:
        module = importlib.import_module(module_name)
        sweeps.extend(getattr(module, "SWEEPS", ()))
    return sweeps


def run_traced_point(results_dir: Path, *, smoke: bool) -> Path:
    """Run one lifecycle-traced experiment and export its trace.

    The point runs directly through :class:`~repro.sim.runner.Experiment`
    rather than the cached sweep engine — a cache hit would skip
    execution and produce no events.  The protocol is Tusk (the one
    certified baseline), so the export exhibits *every* lifecycle stage
    including ``block_certified``; the Mahi-Mahi protocols are
    uncertified by design and would legitimately lack that stage.
    """
    from repro.obs.export import write_chrome_trace, write_jsonl
    from repro.sim.runner import Experiment, ExperimentConfig

    config = ExperimentConfig(
        protocol="tusk",
        num_validators=10,
        load_tps=500.0,
        duration=6.0 if smoke else 15.0,
        warmup=1.0,
        trace=True,
        seed=7,
    )
    experiment = Experiment(config)
    experiment.run()
    trace_dir = Path(results_dir) / "trace"
    chrome_path = write_chrome_trace(
        experiment.tracer.events, trace_dir / "sim-tusk.trace.json"
    )
    write_jsonl(experiment.tracer.events, trace_dir / "sim-tusk.trace.jsonl")
    stages = sorted(experiment.tracer.stages_seen())
    print(
        f"repro-bench: traced point -> {chrome_path} "
        f"({len(experiment.tracer)} events; stages: {', '.join(stages)})"
    )
    return chrome_path


def main(argv: list[str] | None = None) -> int:
    _bootstrap_sys_path()
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="shrink every sweep to seconds-long deployments (the CI gate)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel worker processes (default: all cores, or REPRO_BENCH_WORKERS)",
    )
    parser.add_argument(
        "--fleet",
        default=None,
        metavar="SPEC",
        help="shard pending points over a worker fleet before summarizing: "
        "'local[:N]' for N subprocess workers on this machine, or a "
        "TOML/JSON fleet-spec path for ssh hosts (see benchmarks/README.md)",
    )
    parser.add_argument(
        "--fleet-plan",
        action="store_true",
        help="with --list: also print the fleet shard assignment "
        "(pending points per worker, cache hits excluded) without running",
    )
    parser.add_argument(
        "--results",
        default=None,
        help="results directory (default: results/, or REPRO_RESULTS_DIR)",
    )
    parser.add_argument(
        "--only",
        default=None,
        help="run only sweeps whose name contains this substring",
    )
    parser.add_argument(
        "--list", action="store_true", help="print the sweep plan and exit"
    )
    parser.add_argument(
        "--force", action="store_true", help="ignore cached points and recompute"
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="duration multiplier for full (non-smoke) sweeps (sets REPRO_BENCH_SCALE)",
    )
    parser.add_argument(
        "--render",
        action="store_true",
        help="after the sweeps, render results/figures/*.svg + results/REPORT.md",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="also run one dedicated traced sweep point and export the "
        "per-transaction lifecycle trace to results/trace/ (Chrome "
        "trace-event JSON for Perfetto plus a JSONL span log)",
    )
    args = parser.parse_args(argv)

    if args.scale is not None:
        # Must land in the environment before the bench modules build
        # their specs at import time.
        os.environ["REPRO_BENCH_SCALE"] = str(args.scale)

    from repro.sim.sweep import ResultsStore, default_workers, run_sweep

    sweeps = discover_sweeps()
    if args.smoke:
        sweeps = [sweep.smoke() for sweep in sweeps]
    if args.only:
        sweeps = [sweep for sweep in sweeps if args.only in sweep.name]
        if not sweeps:
            parser.error(f"no sweep name contains {args.only!r}")

    total_points = sum(len(sweep.configs) for sweep in sweeps)
    results_dir = args.results or os.environ.get("REPRO_RESULTS_DIR") or "results"
    store = ResultsStore(results_dir)
    if args.fleet_plan and not args.list:
        parser.error("--fleet-plan only makes sense with --list")
    fleet_spec = None
    if args.fleet is not None or args.fleet_plan:
        from repro.fleet import FleetSpec

        fleet_spec = FleetSpec.load(args.fleet if args.fleet is not None else "local")
    if args.list:
        # Enumerate without running anything: per sweep, the paper
        # figure id, the point count, and how many points the
        # content-addressed cache already holds.
        total_cached = 0
        header = f"{'sweep':<28} {'figure':<14} {'points':>6} {'cached':>9}  title"
        print(header)
        print("-" * len(header))
        for sweep in sweeps:
            cached = sum(1 for config in sweep.configs if store.get(config) is not None)
            total_cached += cached
            print(
                f"{sweep.name:<28} {sweep.figure.figure:<14} "
                f"{len(sweep.configs):>6} {f'{cached}/{len(sweep.configs)}':>9}  "
                f"{sweep.figure.title}"
            )
        print("-" * len(header))
        print(
            f"{'total':<28} {'':<14} {total_points:>6} "
            f"{f'{total_cached}/{total_points}':>9}  (cache: {store.root}/points/)"
        )
        if args.fleet_plan:
            # Shard sizing for the fleet: how a round-robin split of
            # today's *pending* points (cache hits excluded) would land
            # per worker slot — the number that sizes an ssh fleet.
            from repro.fleet import plan_shards
            from repro.fleet.coordinator import pending_items

            items = pending_items(sweeps, store)
            print()
            print(
                f"fleet plan: {fleet_spec.backend} backend, "
                f"{fleet_spec.total_workers} workers, "
                f"{len(items)} pending points "
                f"({total_points - len(items)} cached or duplicate points excluded)"
            )
            for worker, count in plan_shards(items, fleet_spec):
                print(f"  {worker:<24} {count:>6} points")
        return 0
    workers = args.workers if args.workers is not None else default_workers()
    if fleet_spec is not None:
        # The fleet is the fan-out; the summary pass below must not
        # open a process pool on top of it (every point is a cache hit
        # by then anyway).
        workers = 1
    mode = "smoke" if args.smoke else "full"
    print(
        f"repro-bench: {len(sweeps)} sweeps, {total_points} points, "
        + (
            f"fleet={fleet_spec.backend}:{fleet_spec.total_workers}"
            if fleet_spec is not None
            else f"{workers} workers"
        )
        + f", mode={mode}, results={store.root}/"
    )

    if args.force:
        for sweep in sweeps:
            for config in sweep.configs:
                store.point_path(config).unlink(missing_ok=True)
                store.wall_path(config).unlink(missing_ok=True)

    fleet_report = None
    if fleet_spec is not None:
        # Phase 1: shard every cache-missing point over the fleet and
        # merge the results into the content-addressed store.  Phase 2
        # below is then a pure cache walk that writes the per-sweep
        # summaries and applies the usual gates.
        from repro.fleet import run_fleet
        from repro.fleet.coordinator import pending_items

        items = pending_items(sweeps, store)
        if items:
            fleet_report = run_fleet(items, store, fleet_spec, progress=print)
        else:
            print("[fleet] nothing pending - every point already cached")

    started = time.perf_counter()
    outcomes = []
    for sweep in sweeps:
        outcome = run_sweep(sweep, store, workers=workers, progress=print)
        print(
            f"[{sweep.name}] done: {outcome.executed} run, {outcome.cached} cached, "
            f"{outcome.wall_seconds:.1f}s"
        )
        outcomes.append(outcome)
    wall = time.perf_counter() - started

    executed = sum(o.executed for o in outcomes)
    cached = sum(o.cached for o in outcomes)
    sim_events = sum(r.events_processed for o in outcomes for r in o.results)
    committed = sum(r.blocks_committed for o in outcomes for r in o.results)
    # Drain rate over *executed* points only: mixing cached points'
    # events with this run's wall clock would inflate the rate on any
    # resumed run.
    executed_events = sum(o.executed_events for o in outcomes)
    executed_wall = sum(o.executed_wall_seconds for o in outcomes)
    summary = {
        "mode": mode,
        "sweeps": [
            {
                "name": o.spec.name,
                "points": len(o.results),
                "executed": o.executed,
                "cached": o.cached,
                "wall_seconds": round(o.wall_seconds, 3),
            }
            for o in outcomes
        ],
        "fleet": fleet_report.to_dict() if fleet_report is not None else None,
        "totals": {
            "points": total_points,
            "executed": executed,
            "cached": cached,
            "wall_seconds": round(wall, 3),
            "sim_events": sim_events,
            "blocks_committed": committed,
            "executed_sim_events": executed_events,
            "executed_wall_seconds": round(executed_wall, 3),
            "sim_events_per_second": (
                round(executed_events / executed_wall) if executed_wall > 0 else None
            ),
        },
    }
    store.root.mkdir(parents=True, exist_ok=True)
    (store.root / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    print(
        f"repro-bench: {executed} points run, {cached} cached in {wall:.1f}s "
        f"({sim_events:,} sim events; {committed:,} blocks committed)"
    )

    if args.trace:
        run_traced_point(store.root, smoke=args.smoke)

    if args.render:
        # Render before the gates: a failing gate still leaves figures
        # and REPORT.md on disk for the CI artifact / post-mortem.
        from benchmarks.render import render_report

        outputs = render_report(store.root)
        print(
            f"repro-bench: rendered {len(outputs['figures'])} figures -> "
            f"{store.root}/figures/, report -> {outputs['report']}"
        )

    all_results = [r for o in outcomes for r in o.results]

    # A full run must put every workload the rules below exist for on the
    # simulated network: a GC-enabled warm restart (the long-run regime
    # the checkpoint & state-transfer subsystem exists for), a committee
    # that resizes mid-run, and each modeled adversary.  An --only subset
    # is exempt from declaring such points, not from the rules over the
    # ones it does declare.
    if not args.only:
        configs = [r.config for r in all_results]
        declared = {
            "GC-enabled warm restart": any(
                c.recover_mode == "warm" and c.gc_depth > 0 for c in configs
            ),
            "epoch reconfiguration": any(c.reconfigures for c in configs),
            "equivocation campaign": any(c.campaign_equivocators for c in configs),
            "partition and heal": any(
                e.kind == "heal" for c in configs for e in c.fault_schedule
            ),
            "leader DoS": any(c.leader_dos_slots for c in configs),
        }
        missing = [name for name, found in declared.items() if not found]
        if missing:
            print(f"repro-bench: FAIL - no point declared for: {', '.join(missing)}")
            return 1

    # The claims, one rule each over the cached results (which claim is
    # which rule: benchmarks/README.md): every point commits and every
    # scheduled restart completes, the paper's protocol orderings and the
    # mechanisms behind them, and the recovery-mode, epoch-reconfiguration
    # and adversary-scenario shapes.  Enforced at any scale; a rule that
    # needs a full-length run skips smoke points by their duration.
    from benchmarks.curve_checks import RESULT_CHECKS

    violations = [v for check in RESULT_CHECKS for v in check(all_results)]
    for violation in violations:
        print(f"repro-bench: claim violation - {violation}")
    if violations:
        return 1

    # The localhost-cluster gate: when bench_cluster.py has produced a
    # metrics file (the CI cluster-smoke job runs it before run_all),
    # hold the runtime backend to its own claims — steady-load commits,
    # all three recovery modes succeeding, checkpoint adoption under GC,
    # and a completed live resize.
    from benchmarks.curve_checks import check_cluster_metrics

    cluster_metrics_path = Path(results_dir) / "cluster" / "cluster_metrics.json"
    if cluster_metrics_path.exists():
        cluster_metrics = json.loads(cluster_metrics_path.read_text())
        cluster_violations = check_cluster_metrics(cluster_metrics)
        for violation in cluster_violations:
            print(f"repro-bench: cluster violation - {violation}")
        if cluster_violations:
            return 1
        print(f"repro-bench: cluster metrics gate passed ({cluster_metrics_path})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
