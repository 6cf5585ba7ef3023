#!/usr/bin/env python3
"""Machine-readable micro-benchmark summary (the CI ``perf`` job).

Runs the ``bench_micro.py`` comparison suites under pytest-benchmark,
collects each suite's recorded before/after numbers (``extra_info``),
and writes ``results/perf_summary.json``: events/s for the event loop,
the network-delivery event reduction, and the speedup ratios — the
numbers the repo's "every optimization lands with a before/after point"
discipline produces, in one artifact.

A soft floor gates the event-loop drain rate: the exact rate varies with
runner hardware, so the bar is set an order of magnitude below typical —
it only trips on catastrophic regressions (an accidentally quadratic
heap, debug instrumentation left on), not on noisy neighbors.

Usage::

    python benchmarks/perf_summary.py                 # run + summarize + gate
    python benchmarks/perf_summary.py --out out.json  # custom output path
    python benchmarks/perf_summary.py --no-gate       # record only, never fail
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _bootstrap_sys_path() -> None:
    for path in (str(REPO_ROOT / "src"),):
        if path not in sys.path:
            sys.path.insert(0, path)


_bootstrap_sys_path()

#: Order-of-magnitude floor on the optimized event loop's drain rate
#: (events/s).  Typical runners measure 10-30x this.
EVENTS_PER_SECOND_FLOOR = 50_000.0

#: The comparison suites whose ``extra_info`` feeds the summary.
SUITES = (
    "TestEventLoop",
    "TestNetworkDelivery",
    "TestWireSizes",
)

#: extra_info keys lifted into the summary, grouped by section.
SECTIONS = {
    "event_loop": (
        "baseline_events_per_s",
        "optimized_events_per_s",
        "speedup",
        "sim_events_per_s",
    ),
    "network_delivery": ("per_message_events", "batched_events", "event_reduction"),
    "wire_sizes": ("recompute_us", "memoized_us"),
}

#: Benchmark class that feeds each section.
SECTION_CLASSES = {
    "event_loop": "TestEventLoop",
    "network_delivery": "TestNetworkDelivery",
    "wire_sizes": "TestWireSizes",
}


def run_benchmarks(benchmark_json: Path) -> int:
    """Run the comparison suites with ``--benchmark-json``."""
    selector = " or ".join(SUITES)
    command = [
        sys.executable,
        "-m",
        "pytest",
        str(REPO_ROOT / "benchmarks" / "bench_micro.py"),
        "-q",
        "-k",
        selector,
        f"--benchmark-json={benchmark_json}",
    ]
    return subprocess.call(command, cwd=REPO_ROOT)


def summarize(benchmark_json: Path) -> dict:
    """Collapse the pytest-benchmark report into the perf summary."""
    report = json.loads(benchmark_json.read_text())
    by_class: dict[str, dict] = {}
    stats: dict[str, dict] = {}
    for entry in report.get("benchmarks", ()):
        # fullname looks like "benchmarks/bench_micro.py::TestX::test_y".
        parts = entry.get("fullname", "").split("::")
        cls = parts[1] if len(parts) >= 3 else ""
        by_class.setdefault(cls, {}).update(entry.get("extra_info", {}))
        entry_stats = entry.get("stats", {})
        stats[parts[-1]] = {
            "min_s": entry_stats.get("min"),
            "mean_s": entry_stats.get("mean"),
            "rounds": entry_stats.get("rounds"),
        }
    summary: dict = {
        "schema": 1,
        "machine_info": {
            key: report.get("machine_info", {}).get(key)
            for key in ("python_version", "python_implementation", "cpu")
        },
        "benchmarks": stats,
    }
    for section, keys in SECTIONS.items():
        info = by_class.get(SECTION_CLASSES[section], {})
        summary[section] = {key: info.get(key) for key in keys if key in info}
    return summary


def fleet_comparison(workers: int = 2, points: int = 6) -> dict:
    """Cold serial pass vs a cold ``local:N`` fleet over the same tiny
    point set (both into fresh stores; results asserted byte-identical).

    The speedup is recorded unconditionally but only *gated* when the
    machine has enough cores to expect one (``--assert-fleet-speedup``,
    set by the CI perf job): fleet workers are processes, so a 1-CPU
    box legitimately measures overhead instead of parallelism.
    """
    from repro.fleet import FleetSpec, run_fleet
    from repro.fleet.coordinator import items_for_configs
    from repro.fleet.worker import run_item
    from repro.sim.runner import ExperimentConfig
    from repro.sim.sweep import ResultsStore

    # ~1.5s of compute per point: heavy enough that parallelism beats
    # the ~0.5s/worker interpreter start on a multi-core machine.
    configs = [
        ExperimentConfig(
            protocol="mahi-mahi-4",
            num_validators=10,
            load_tps=2000.0 + 100.0 * i,
            duration=15.0,
            warmup=1.0,
        )
        for i in range(points)
    ]
    with tempfile.TemporaryDirectory(prefix="fleet-perf-") as tmp:
        serial_store = ResultsStore(Path(tmp) / "serial")
        serial_started = time.perf_counter()
        for item in items_for_configs(configs):
            run_item(item, serial_store)
        serial_wall = time.perf_counter() - serial_started

        fleet_store = ResultsStore(Path(tmp) / "fleet")
        fleet_started = time.perf_counter()
        report = run_fleet(
            items_for_configs(configs), fleet_store, FleetSpec.local(workers)
        )
        fleet_wall = time.perf_counter() - fleet_started

        identical = all(
            (serial_store.points_dir / name).read_bytes()
            == (fleet_store.points_dir / name).read_bytes()
            for name in sorted(
                p.name for p in serial_store.points_dir.glob("*.json")
                if not p.name.endswith(".wall.json")
            )
        )
    return {
        "workers": workers,
        "points": points,
        "cpu_count": os.cpu_count(),
        "serial_wall_s": round(serial_wall, 3),
        "fleet_wall_s": round(fleet_wall, 3),
        "speedup": round(serial_wall / fleet_wall, 3) if fleet_wall > 0 else None,
        "byte_identical": identical,
        "redispatched": report.redispatched,
        "worker_failures": report.worker_failures,
    }


def apply_gate(summary: dict, *, assert_fleet_speedup: bool = False) -> list[str]:
    """The soft floor gate; returns violation messages (empty = pass)."""
    violations: list[str] = []
    rate = summary.get("event_loop", {}).get("optimized_events_per_s")
    if rate is None:
        violations.append("event-loop drain rate missing from the benchmark report")
    elif rate < EVENTS_PER_SECOND_FLOOR:
        violations.append(
            f"event-loop drain rate {rate:,.0f} events/s is below the floor "
            f"({EVENTS_PER_SECOND_FLOOR:,.0f} events/s) - an order-of-magnitude "
            "regression"
        )
    fleet = summary.get("fleet")
    if isinstance(fleet, dict):
        # Correctness is gated unconditionally; the speedup only where
        # the hardware can deliver one (multi-core CI runners).
        if not fleet.get("byte_identical"):
            violations.append("fleet point cache is not byte-identical to the serial run")
        if fleet.get("worker_failures"):
            violations.append(f"fleet workers failed: {fleet['worker_failures']}")
        speedup = fleet.get("speedup")
        if assert_fleet_speedup and (speedup is None or speedup <= 1.0):
            violations.append(
                f"fleet speedup {speedup} is not > 1.0 with "
                f"{fleet.get('workers')} workers on {fleet.get('cpu_count')} CPUs"
            )
    return violations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "results" / "perf_summary.json"),
        help="summary output path (default: results/perf_summary.json)",
    )
    parser.add_argument(
        "--benchmark-json",
        default=None,
        help="reuse an existing pytest-benchmark report instead of running",
    )
    parser.add_argument(
        "--no-gate",
        action="store_true",
        help="record the summary but never fail the run",
    )
    parser.add_argument(
        "--skip-fleet",
        action="store_true",
        help="skip the serial-vs-fleet wall-clock comparison",
    )
    parser.add_argument(
        "--fleet-workers",
        type=int,
        default=2,
        help="local fleet size for the comparison (default: 2)",
    )
    parser.add_argument(
        "--assert-fleet-speedup",
        action="store_true",
        help="gate fleet speedup > 1.0 (only meaningful on multi-core machines)",
    )
    args = parser.parse_args(argv)

    started = time.perf_counter()
    if args.benchmark_json is not None:
        benchmark_json = Path(args.benchmark_json)
        status = 0
    else:
        benchmark_json = Path(tempfile.mkdtemp(prefix="perf-")) / "bench_micro.json"
        status = run_benchmarks(benchmark_json)
        if status != 0:
            print(f"perf-summary: FAIL - benchmark run exited {status}")
            return status

    summary = summarize(benchmark_json)
    if not args.skip_fleet:
        summary["fleet"] = fleet_comparison(workers=args.fleet_workers)
    summary["wall_seconds"] = round(time.perf_counter() - started, 3)
    violations = apply_gate(summary, assert_fleet_speedup=args.assert_fleet_speedup)
    summary["gate"] = {
        "events_per_second_floor": EVENTS_PER_SECOND_FLOOR,
        "passed": not violations,
        "violations": violations,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=2, sort_keys=True))
    print(f"perf-summary: wrote {out}")
    for section in SECTIONS:
        values = summary.get(section, {})
        if values:
            rendered = ", ".join(
                f"{key}={value:,.0f}" if isinstance(value, float) and value > 100
                else f"{key}={value}"
                for key, value in values.items()
                if value is not None
            )
            print(f"perf-summary: {section}: {rendered}")
    fleet = summary.get("fleet")
    if isinstance(fleet, dict):
        print(
            f"perf-summary: fleet: {fleet['points']} points, "
            f"serial {fleet['serial_wall_s']}s vs {fleet['workers']}-worker fleet "
            f"{fleet['fleet_wall_s']}s (speedup {fleet['speedup']}x, "
            f"byte_identical={fleet['byte_identical']}, "
            f"{fleet['cpu_count']} CPUs)"
        )
    for violation in violations:
        print(f"perf-summary: GATE - {violation}")
    if violations and not args.no_gate:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
