#!/usr/bin/env python3
"""The repo benchmark: one command, five workloads, both fabrics.

Two ways to call it (``README.md`` in this directory has the tables):

``python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One run of one workload in this process — the form ``BENCHMARK.json``
    names.  The last line of standard output is one JSON object with
    ``correct``, ``attempted``, ``failed`` and ``metrics``: every
    end-to-end metric with ``--trace 0``, every per-layer metric with
    ``--trace 1``.  Lines before it start with ``#``.

``python3 benchmarks/perf/run.py --seed N`` (or ``python -m benchmarks.perf``)
    The whole suite: every workload three times untraced in fresh child
    processes, one child at a time, repetitions interleaved round-robin
    across workloads, then once traced; prints every metric by name and
    unit and, with ``--out DIR``, writes ``DIR/summary.json`` plus one
    Perfetto trace per workload.

End-to-end numbers only ever come from untraced runs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from mmperf.layers import END_TO_END, PER_LAYER, install, per_layer_metrics  # noqa: E402
from mmperf.spans import SpanRecorder  # noqa: E402
from mmperf.stats import percentile, quartile_spread  # noqa: E402
from mmperf.workloads import (  # noqa: E402
    PROBE_REFERENCE_S,
    WORKLOADS,
    IncorrectOutput,
    Unit,
    speed_probe,
)
from repro.errors import ReproError  # noqa: E402
from repro.obs.export import write_chrome_trace, write_jsonl  # noqa: E402
from repro.obs.trace import Tracer  # noqa: E402
from repro.runtime.wal import WriteAheadLog  # noqa: E402

#: Everything the benchmark writes at run time lives here (inside the
#: checkout, gitignored) and is removed before the process exits.
SCRATCH = ROOT / ".bench_tmp"
#: Fresh-process set-ups timed per untraced run (median reported).
SETUP_PROBES = 7
#: Untraced repetitions of each workload in suite mode.
SUITE_REPS = 3
#: Appends timed by the informational fsync probe.
FSYNC_PROBE_APPENDS = 300

_scratch_ids = itertools.count()


def fresh_scratch() -> Path:
    return SCRATCH / f"{os.getpid()}-{next(_scratch_ids)}"


def calibration_loop() -> float:
    """Best of three speed probes, so numbers from different machines
    can be compared as ratios to it."""
    return min(speed_probe() for _ in range(3))


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------
def run_unit(cls, seed: int, scale: float, wal_sync: bool) -> Unit:
    """Build, time, check and tear down one unit of ``cls``."""
    workload = cls(seed, fresh_scratch(), scale, wal_sync)
    try:
        workload.prepare()
        unit = workload.execute()
        workload.verify(unit)
    finally:
        workload.cleanup()
    return unit


def run_units(cls, seed: int, seconds: float, scale: float, wal_sync: bool) -> list[Unit]:
    """Units of ``cls``, one after another, for ``seconds`` (building
    and checking included, so a run's length does not depend on the
    workload).  All units of a run share the seed, so simulator units
    must reproduce one fingerprint."""
    deadline = time.perf_counter() + seconds
    units = [run_unit(cls, seed, scale, wal_sync)]
    while time.perf_counter() < deadline:
        units.append(run_unit(cls, seed, scale, wal_sync))
    if len({unit.fingerprint for unit in units}) > 1:
        raise IncorrectOutput(f"{cls.name}: one seed produced different results")
    return units


def probe_setup(name: str, seed: int, scale: float) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    the program and built the workload, ready to time — at reference
    host speed, like every processor-bound time."""
    command = [sys.executable, __file__, "--workload", name, "--seed", str(seed)]
    command += ["--setup-probe", str(scale)]
    probe = speed_probe()
    start = time.time()
    done = subprocess.run(command, capture_output=True, text=True, check=True, timeout=120)
    ready = float(done.stdout.split()[-1])
    probe = (probe + speed_probe()) / 2.0
    return (ready - start) * PROBE_REFERENCE_S / probe


def setup_probe_child(name: str, seed: int, scale: float) -> None:
    workload = WORKLOADS[name](seed, fresh_scratch(), scale)
    try:
        workload.prepare()
        print(repr(time.time()))
    finally:
        workload.cleanup()


def end_to_end(name: str, seed: int, seconds: float, scale: float, info: dict):
    cls = WORKLOADS[name]
    setups = [probe_setup(name, seed, scale) for _ in range(SETUP_PROBES)]
    units = run_units(cls, seed, seconds, scale, wal_sync=False)
    wall_s = statistics.median(unit.wall_s * unit.speed for unit in units)
    if units[0].latencies_ms:
        p50, p95 = (
            statistics.median(percentile(unit.latencies_ms, q) * unit.speed for unit in units)
            for q in (50, 95)
        )
    else:
        # The simulator commits in virtual time: no host-time commit
        # latency exists, so both read as the unit's wall time.
        p50 = p95 = wall_s * 1e3
    info.update(
        units=len(units),
        unit_wall_s=[round(unit.wall_s, 4) for unit in units],
        unit_speed=[round(unit.speed, 4) for unit in units],
        setup_probes_s=[round(value, 4) for value in setups],
        latency_samples=[len(unit.latencies_ms) for unit in units],
        fingerprint=units[0].fingerprint,
    )
    return units, {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "commit_latency_p50_ms": p50,
        "commit_latency_p95_ms": p95,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def fsync_probe_ms() -> float:
    """Median append+fsync time on the disk the WALs use (informational:
    it measures the sandbox's disk, not the program)."""
    directory = fresh_scratch()
    directory.mkdir(parents=True)
    samples = []
    try:
        with WriteAheadLog(directory / "probe.wal", sync=True) as wal:
            for _ in range(FSYNC_PROBE_APPENDS):
                start = time.perf_counter()
                wal.append(1, b"\0" * 2048)
                samples.append(time.perf_counter() - start)
    finally:
        (directory / "probe.wal").unlink(missing_ok=True)
        directory.rmdir()
    return statistics.median(samples) * 1e3


def per_layer(name: str, seed: int, seconds: float, scale: float, out: Path | None, info: dict):
    """An untraced reference unit, then traced units with every layer
    wrapped; the wrappers are removed before returning.  Both wait for
    the disk after every WAL record (see ``RtWorkload``)."""
    cls = WORKLOADS[name]
    calib_s = calibration_loop()
    probe_ms = fsync_probe_ms() if name.startswith("rt-") else 0.0
    reference = run_unit(cls, seed, scale, wal_sync=True)
    recorder = SpanRecorder()
    if out is not None:
        recorder.sink = Tracer()
    recorder.calibrate()
    install(recorder)
    try:
        traced = run_units(cls, seed, seconds / 2, scale, wal_sync=True)
    finally:
        recorder.unpatch()
    if out is not None:
        write_chrome_trace(recorder.sink.events, out / f"{name}.trace.json")
        write_jsonl(recorder.sink.events, out / f"{name}.trace.jsonl")
        info["trace_spans_exported"] = recorder.exported
    if reference.fingerprint != traced[0].fingerprint:
        raise IncorrectOutput(f"{name}: tracing changed the program's outputs")
    info.update(traced_units=len(traced), fingerprint=reference.fingerprint)
    return [reference, *traced], per_layer_metrics(recorder, traced, reference, calib_s, probe_ms)


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, out: Path | None = None, scale: float = 1.0
) -> tuple[dict, dict]:
    """One run: ``(result object for the last output line, info)``."""
    info: dict = {
        "workload": name,
        "seed": seed,
        "wal_dir": str(SCRATCH.relative_to(ROOT)) if name.startswith("rt-") else None,
        "wal_sync": trace if name.startswith("rt-") else None,
        "injected_network_delay_s": 0.0 if name.startswith("rt-") else "paper 5-region WAN",
    }
    units: list[Unit] = []
    table = PER_LAYER if trace else END_TO_END
    seconds *= scale
    try:
        if trace:
            units, values = per_layer(name, seed, seconds, scale, out, info)
        else:
            units, values = end_to_end(name, seed, seconds, scale, info)
        correct = True
    except (IncorrectOutput, ReproError) as error:
        info["error"] = f"{type(error).__name__}: {error}"
        correct, values = False, {}
    finally:
        if SCRATCH.exists() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()
    result = {
        "correct": correct,
        "attempted": max(1, sum(unit.attempted for unit in units)),
        "failed": sum(unit.failed for unit in units),
        "metrics": {
            metric: {"value": values[metric], "unit": unit} for metric, unit in table if values
        },
    }
    return result, info


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------
def run_child(name: str, seed: int, seconds: float, trace: int, out: Path | None):
    """One single-workload run in a fresh process: ``(result, info)``.
    A child that reports a failure exits non-zero and ends the suite."""
    command = [sys.executable, __file__, "--workload", name, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", str(trace)]
    if out is not None:
        command += ["--out", str(out)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{name}: child exited with code {done.returncode}")
    info = next(json.loads(line[7:]) for line in lines if line.startswith("# info "))
    return json.loads(lines[-1]), info


def fold(metric: str, values: list[float]) -> float:
    """One value from a metric's repetitions: the median (times are
    speed-normalised, so a repetition can err to either side), memory
    the maximum."""
    return max(values) if metric == "peak_rss_mb" else statistics.median(values)


def run_suite(seed: int, seconds: float, names: list[str], trace_only: bool, out: Path | None):
    """Every workload ``SUITE_REPS`` times untraced (interleaved, one
    child at a time), then once traced."""
    untraced: dict[str, list] = {name: [] for name in names}
    for rep in range(0 if trace_only else SUITE_REPS):
        for name in names:
            untraced[name].append(run_child(name, seed, seconds, 0, None))
            print(f"# {name}: repetition {rep + 1} of {SUITE_REPS} done", flush=True)
    summary: dict = {
        "seed": seed,
        "seconds": seconds,
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "calib_s": calibration_loop(),
        },
        "workloads": {},
    }
    status = 0
    for name in names:
        runs = untraced[name]
        traced, traced_info = run_child(name, seed, seconds, 1, out)
        fingerprints = {info["fingerprint"] for _, info in runs} | {traced_info["fingerprint"]}
        if len(fingerprints) > 1:
            print(f"# {name}: runs of one seed disagree on the fingerprint")
            status = 1
        end_to_end_rows = {}
        for metric, unit in END_TO_END if runs else ():
            values = [result["metrics"][metric]["value"] for result, _ in runs]
            end_to_end_rows[metric] = {
                "value": fold(metric, values),
                "unit": unit,
                "reps": values,
                "spread": quartile_spread(values),
            }
        entry = {
            "attempted": sum(result["attempted"] for result, _ in runs),
            "failed": sum(result["failed"] for result, _ in runs),
            "fingerprint": " ".join(sorted(fingerprints)),
            "latency_samples": [info["latency_samples"] for _, info in runs],
            "end_to_end": end_to_end_rows,
            "per_layer": traced["metrics"],
        }
        summary["workloads"][name] = entry
        print_workload(name, entry)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    return status


def print_workload(name: str, entry: dict) -> None:
    print(f"\n== {name}  (rt-*: no injected network delay; sim-*: virtual 5-region WAN)")
    print(
        f"   attempted {entry['attempted']}  failed {entry['failed']}  "
        f"fingerprint {entry['fingerprint'] or '-'}  "
        f"latency samples per repetition {entry['latency_samples']}"
    )
    for metric, row in entry["end_to_end"].items():
        reps = " ".join(f"{value:.4g}" for value in row["reps"])
        print(
            f"   {metric:<42} {row['value']:>12.4f} {row['unit']:<6} reps [{reps}]"
            f" spread {row['spread']:.3f}"
        )
    for metric, row in entry["per_layer"].items():
        if row["value"]:
            print(f"   {metric:<42} {row['value']:>12.6g} {row['unit']}")


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append",
                        help="run only this workload (repeatable in suite mode)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, help="timed seconds per run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="single run: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--trace-only", action="store_true",
                        help="suite: skip the untraced repetitions")
    parser.add_argument("--out", type=Path, help="directory for summary.json and traces")
    parser.add_argument("--setup-probe", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe is not None:
        setup_probe_child(args.workload[0], args.seed, args.setup_probe)
        return 0
    if args.seconds is None:
        args.seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    if args.trace is None:
        names = args.workload or list(WORKLOADS)
        return run_suite(args.seed, args.seconds, names, args.trace_only, args.out)
    if not args.workload or len(args.workload) != 1:
        parser.error("--trace needs exactly one --workload")
    result, info = run_workload(
        args.workload[0], args.seed, args.seconds, bool(args.trace), args.out
    )
    print("# info " + json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
