#!/usr/bin/env python3
"""Where one simulated run spends its host time, by sampling.

Runs one :class:`~repro.sim.runner.ExperimentConfig` — a simulator
workload of the repo benchmark (``benchmarks/perf``) by name, or any
config as JSON — on a fresh ``Experiment`` per run, untraced (nothing is
wrapped, so call-heavy layers are not inflated the way the traced
harness inflates them).  Each unit is two runs:

* **plain**: the wall time and the garbage collections of each
  generation (``gc.callbacks``);
* **sampled**: a ``SIGPROF`` timer interrupts the run every
  :data:`INTERVAL` of process CPU time (the kernel rounds it up to its
  tick, often 4 ms) and the handler keeps the interrupted Python stack.

One more run, once (a run is deterministic), is **counted**:
``sys.setprofile`` counts every call event, Python functions and
builtins alike; the run is slow there, and nothing else is measured.

A sample is charged to the innermost *bucket root* on its stack — the
hop's two halves, proposing, the commit walk, the checkpoint ledger
(chain steps, captures, checkpoint builds and encodes), the client
arrivals, the commit-latency books and the event loop itself
(:data:`BUCKETS`) — which
is the bucket's *self* share; its *inclusive* share counts every sample
with a root of the bucket anywhere on the stack.  The same two shares
are printed for the busiest functions.  ``--json FILE`` also writes the
figures as JSON: the bucket shares over all units and per unit, calls
and GC collections per unit.

Usage::

    python tools/sample_profile.py                      # sim-mahi-n50, seed 7
    python tools/sample_profile.py --workload sim-tusk-n10 --seed 11 --units 10
    python tools/sample_profile.py --config '{"num_validators": 10, "duration": 0.5}'
    python tools/sample_profile.py --workload sim-tusk-n10 --json profile.json
"""

from __future__ import annotations

import argparse
import gc
import json
import signal
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.protocol import MahiMahiCore  # noqa: E402
from repro.sim.client import ArrivalRouter  # noqa: E402
from repro.sim.events import EventLoop  # noqa: E402
from repro.sim.metrics import ExperimentMetrics  # noqa: E402
from repro.sim.network import SimNetwork  # noqa: E402
from repro.sim.node import SimValidator  # noqa: E402
from repro.sim.runner import Experiment, ExperimentConfig  # noqa: E402
from repro.statesync.checkpoint import Checkpoint, CommitLedger  # noqa: E402

#: Bucket -> the functions that root it.  A delivered message runs from
#: the link flush through the consensus stage's completion to the
#: validator step; what it proposes, commits or sends from there is
#: charged to those buckets instead.
BUCKETS = {
    "per-hop receive": (SimNetwork._flush_link, SimValidator._handle_batch_queued),
    "per-hop send": (SimNetwork._fan_out,),
    "propose": (MahiMahiCore.maybe_propose,),
    "commit walk": (MahiMahiCore.try_commit,),
    "checkpoints": (
        CommitLedger.extend,
        CommitLedger.maybe_capture,
        CommitLedger.adopt,
        CommitLedger._build,
        Checkpoint.encode,
    ),
    "client arrivals": (ArrivalRouter.route,),
    "metrics": (
        ExperimentMetrics.record_commit,
        ExperimentMetrics.record_inclusion,
        ExperimentMetrics.record_block_times,
        Experiment._result,
    ),
    "event loop": (EventLoop._drain,),
}
#: Samples with no bucket root on the stack.
OTHER = "other"
#: Seconds of process CPU time between samples.
INTERVAL = 0.001
#: Functions listed, busiest first.
TOP = 15

_ROOT_BUCKET = {
    function.__code__: bucket for bucket, functions in BUCKETS.items() for function in functions
}


@dataclass
class Profile:
    """What the units of one config measured, summed over units."""

    units: int = 0
    wall_s: float = 0.0
    #: Call events of one run.
    calls: int = 0
    collections: list[int] = field(default_factory=lambda: [0, 0, 0])
    #: One entry per sample: the stack's code objects, innermost first.
    stacks: list[tuple] = field(default_factory=list)
    #: Where each unit's samples end in :attr:`stacks`.
    unit_ends: list[int] = field(default_factory=list)

    def bucket_shares(self, stacks: list[tuple] | None = None) -> dict[str, tuple[float, float]]:
        """Bucket -> ``(self %, inclusive %)`` of the samples (of
        ``stacks``, by default all of them)."""
        own, anywhere = Counter(), Counter()
        stacks = self.stacks if stacks is None else stacks
        for stack in stacks:
            buckets = [_ROOT_BUCKET[code] for code in stack if code in _ROOT_BUCKET]
            own[buckets[0] if buckets else OTHER] += 1
            anywhere.update(set(buckets) or {OTHER})
        total = max(1, len(stacks))
        return {
            bucket: (100.0 * own[bucket] / total, 100.0 * anywhere[bucket] / total)
            for bucket in (*BUCKETS, OTHER)
        }

    def as_json(self, title: str) -> dict:
        """The figures :func:`render` prints but the functions, with the
        bucket shares of each unit too."""
        units = max(1, self.units)
        starts = [0, *self.unit_ends[:-1]]
        return {
            "title": title,
            "units": self.units,
            "samples": len(self.stacks),
            "wall_s_per_unit": self.wall_s / units,
            "calls_per_unit": self.calls,
            "gc_collections_per_unit": [count / units for count in self.collections],
            "buckets": _shares_json(self.bucket_shares()),
            "unit_buckets": [
                _shares_json(self.bucket_shares(self.stacks[start:end]))
                for start, end in zip(starts, self.unit_ends)
            ],
        }

    def function_shares(self, top: int) -> list[tuple[str, float, float]]:
        """The ``top`` functions by self samples, as ``(name, self %,
        inclusive %)``."""
        own, anywhere = Counter(), Counter()
        for stack in self.stacks:
            if stack:
                own[stack[0]] += 1
            anywhere.update(set(stack))
        total = max(1, len(self.stacks))
        ranked = sorted(own, key=lambda code: (-own[code], -anywhere[code], _name(code)))
        return [
            (_name(code), 100.0 * own[code] / total, 100.0 * anywhere[code] / total)
            for code in ranked[:top]
        ]


def _shares_json(shares: dict[str, tuple[float, float]]) -> dict:
    return {
        bucket: {"self_pct": round(own, 2), "incl_pct": round(inclusive, 2)}
        for bucket, (own, inclusive) in shares.items()
    }


def _name(code) -> str:
    module = Path(code.co_filename).stem
    return f"{module}:{getattr(code, 'co_qualname', code.co_name)}"


_RUN_CODE = Experiment.run.__code__


def _outermost_run(frame):
    """The code objects of an interrupted stack up to (and including)
    ``Experiment.run``, innermost first."""
    codes = []
    while frame is not None:
        codes.append(frame.f_code)
        if frame.f_code is _RUN_CODE:
            break
        frame = frame.f_back
    return tuple(codes)


def _fresh(config: ExperimentConfig) -> Experiment:
    gc.collect()
    return Experiment(config)


def _plain(config: ExperimentConfig, profile: Profile) -> None:
    experiment = _fresh(config)
    collections = [0, 0, 0]

    def count(phase, info):
        if phase == "start":
            collections[info["generation"]] += 1

    gc.callbacks.append(count)
    try:
        start = time.perf_counter()
        experiment.run(check_safety=False)
        profile.wall_s += time.perf_counter() - start
    finally:
        gc.callbacks.remove(count)
    profile.collections = [a + b for a, b in zip(profile.collections, collections)]


def _sampled(config: ExperimentConfig, profile: Profile) -> None:
    experiment = _fresh(config)
    stacks = profile.stacks

    def sample(signum, frame):
        stacks.append(_outermost_run(frame))

    previous = signal.signal(signal.SIGPROF, sample)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
    try:
        experiment.run(check_safety=False)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, previous)


def _counted(config: ExperimentConfig, profile: Profile) -> None:
    experiment = _fresh(config)
    calls = [0]

    def count(frame, event, arg):
        if event == "call" or event == "c_call":
            calls[0] += 1

    sys.setprofile(count)
    try:
        experiment.run(check_safety=False)
    finally:
        sys.setprofile(None)
    # The call that switched the profiler off is not the run's.
    profile.calls = calls[0] - 1


def profile_config(config: ExperimentConfig, units: int = 5) -> Profile:
    """Measure ``units`` units of ``config`` (see the module docstring)."""
    profile = Profile()
    for _ in range(units):
        _plain(config, profile)
        _sampled(config, profile)
        profile.unit_ends.append(len(profile.stacks))
        profile.units += 1
    _counted(config, profile)
    return profile


def workload_fields(name: str) -> dict:
    """The config fields of a simulator workload of the repo benchmark."""
    sys.path.append(str(REPO_ROOT / "benchmarks" / "perf"))
    from mmperf import workloads

    for value in vars(workloads).values():
        if (
            isinstance(value, type)
            and issubclass(value, workloads.SimWorkload)
            and getattr(value, "name", None) == name
        ):
            return dict(value.config)
    raise SystemExit(f"no simulator workload named {name!r} in benchmarks/perf")


def render(title: str, profile: Profile) -> str:
    units = max(1, profile.units)
    per_unit = [count / units for count in profile.collections]
    lines = [
        f"{title}: {profile.units} unit(s), {len(profile.stacks)} samples",
        f"wall per unit (plain run): {profile.wall_s / units:.3f} s",
        f"calls per unit (Python and builtin): {profile.calls:,}",
        "GC collections per unit: "
        + ", ".join(f"gen-{g} {n:g}" for g, n in enumerate(per_unit)),
        "",
        f"{'bucket':<18} {'self %':>7} {'incl %':>7}",
    ]
    for bucket, (own, inclusive) in profile.bucket_shares().items():
        lines.append(f"{bucket:<18} {own:7.1f} {inclusive:7.1f}")
    lines += ["", f"{'function':<52} {'self %':>7} {'incl %':>7}"]
    for name, own, inclusive in profile.function_shares(TOP):
        lines.append(f"{name[:52]:<52} {own:7.1f} {inclusive:7.1f}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--workload", default="sim-mahi-n50",
                        help="a simulator workload of benchmarks/perf (default sim-mahi-n50)")
    source.add_argument("--config", help="ExperimentConfig fields as a JSON object")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--units", type=int, default=5)
    parser.add_argument("--json", metavar="FILE", help="also write the figures as JSON to FILE")
    args = parser.parse_args(argv)
    if args.units < 1:
        parser.error("--units must be at least 1")
    if args.config is not None:
        fields, title = json.loads(args.config), "config"
    else:
        fields, title = workload_fields(args.workload), args.workload
    config = ExperimentConfig(**{**fields, "seed": args.seed})
    profile = profile_config(config, args.units)
    print(render(f"{title}, seed {args.seed}", profile))
    if args.json is not None:
        figures = profile.as_json(title)
        Path(args.json).write_text(json.dumps({**figures, "seed": args.seed}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
