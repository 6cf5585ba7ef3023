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

One more run, once and first (a run is deterministic), is **counted**:
``sys.setprofile`` counts every call event, Python functions and
builtins alike, and ``tracemalloc`` (started just before the
``Experiment`` is built) gives the run's traced peak and the bytes it
holds when ``Experiment._result`` starts — the run's DAGs, links and
books at their fullest.  Both are exact for a given interpreter and
checkout, like the call count.  The run is slow there, and no time is measured.

A sample is charged to the innermost *bucket root* on its stack — the
hop's two halves, proposing, the commit walk, the checkpoint ledger
(chain steps, captures, checkpoint builds and encodes), the client
arrivals, the commit-latency books and the event loop itself
(:data:`ROOTS`) — which
is the bucket's *self* share; its *inclusive* share counts every sample
with a root of the bucket anywhere on the stack.  The same two shares
are printed for the busiest functions.  ``--json FILE`` also writes the
figures as JSON: the bucket shares over all units and per unit, calls,
GC collections and traced bytes per unit.

The roots are named, not imported: each is looked up by qualified name
in the ``repro`` the tool runs against — the one on ``PYTHONPATH`` if
there is one, else this tree's — and a root that tree lacks is skipped
and listed.  ``--parent DIR`` (a checkout directory or a git revision,
as for ``tools/perf_pairs.py``) profiles both sides in one command: each
in a process of its own on its own ``src``, then their figures side by
side (with ``--json``, both sides' figures under ``parent`` and
``change``).

Usage::

    python tools/sample_profile.py                      # sim-mahi-n50, seed 7
    python tools/sample_profile.py --workload sim-tusk-n10 --seed 11 --units 10
    python tools/sample_profile.py --config '{"num_validators": 10, "duration": 0.5}'
    python tools/sample_profile.py --workload sim-tusk-n10 --json profile.json
    python tools/sample_profile.py --workload sim-mahi-n10-faulty --parent HEAD~1
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))
if not os.environ.get("PYTHONPATH"):  # else the tree on it: how --parent runs each side
    sys.path.insert(0, str(REPO_ROOT / "src"))

from perf_pairs import materialize  # noqa: E402
from repro.sim.runner import Experiment, ExperimentConfig  # noqa: E402

#: Bucket -> the functions that root it, as ``module:qualified name``.
#: A delivered message runs from the link flush through the consensus
#: stage's completion to the validator step; what it proposes, commits
#: or sends from there is charged to those buckets instead.
ROOTS = {
    "per-hop receive": (
        "repro.sim.network:SimNetwork._flush_link",
        "repro.sim.node:SimValidator._handle_batch_queued",
    ),
    "per-hop send": ("repro.sim.network:SimNetwork._fan_out",),
    "propose": ("repro.core.protocol:MahiMahiCore.maybe_propose",),
    "commit walk": ("repro.core.protocol:MahiMahiCore.try_commit",),
    "checkpoints": (
        "repro.statesync.checkpoint:CommitLedger.extend",
        "repro.statesync.checkpoint:CommitLedger.maybe_capture",
        "repro.statesync.checkpoint:CommitLedger.adopt",
        "repro.statesync.checkpoint:CommitLedger._build",
        "repro.statesync.checkpoint:Checkpoint.encode",
    ),
    "client arrivals": ("repro.sim.client:ArrivalRouter.route",),
    "metrics": (
        "repro.sim.metrics:ExperimentMetrics.record_commit",
        "repro.sim.metrics:ExperimentMetrics.record_inclusion",
        "repro.sim.metrics:ExperimentMetrics.record_block_times",
        "repro.sim.runner:Experiment._result",
    ),
    "event loop": ("repro.sim.events:EventLoop._drain",),
}


def resolve_roots(roots: dict[str, tuple[str, ...]]) -> tuple[dict[str, tuple], list[str]]:
    """``(bucket -> functions, names missing)``: each root of ``roots``
    looked up in the ``repro`` imported here, skipping (and listing)
    any this tree lacks — an older tree may predate a root."""
    buckets: dict[str, tuple] = {}
    missing: list[str] = []
    for bucket, names in roots.items():
        functions = []
        for name in names:
            module_name, _, qualname = name.partition(":")
            try:
                found = importlib.import_module(module_name)
                for attribute in qualname.split("."):
                    found = getattr(found, attribute)
            except (ImportError, AttributeError):
                missing.append(name)
                continue
            functions.append(found)
        buckets[bucket] = tuple(functions)
    return buckets, missing


#: Bucket -> the functions of :data:`ROOTS` this tree has.
BUCKETS, MISSING_ROOTS = resolve_roots(ROOTS)

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
    #: ``tracemalloc`` bytes of one run: its peak, and what it holds
    #: when ``Experiment._result`` starts.
    traced_peak_bytes: int = 0
    traced_held_bytes: int = 0
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
            "missing_roots": MISSING_ROOTS,
            "units": self.units,
            "samples": len(self.stacks),
            "wall_s_per_unit": self.wall_s / units,
            "calls_per_unit": self.calls,
            "gc_collections_per_unit": [count / units for count in self.collections],
            "traced_peak_bytes_per_unit": self.traced_peak_bytes,
            "traced_held_bytes_per_unit": self.traced_held_bytes,
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
_RESULT_CODE = Experiment._result.__code__


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
    tracemalloc.start()
    try:
        experiment = _fresh(config)
        calls = [0]
        held = []

        def count(frame, event, arg):
            if event == "call" or event == "c_call":
                calls[0] += 1
                if frame.f_code is _RESULT_CODE and event == "call":
                    held.append(tracemalloc.get_traced_memory()[0])

        sys.setprofile(count)
        try:
            experiment.run(check_safety=False)
        finally:
            sys.setprofile(None)
        profile.traced_peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The call that switched the profiler off is not the run's.
    profile.calls = calls[0] - 1
    profile.traced_held_bytes = held[0]


def profile_config(config: ExperimentConfig, units: int = 5) -> Profile:
    """Measure ``units`` units of ``config`` (see the module docstring)."""
    profile = Profile()
    # Counted first: what earlier runs leave allocated in the process
    # would otherwise go untraced, and the bytes would depend on --units.
    _counted(config, profile)
    for _ in range(units):
        _plain(config, profile)
        _sampled(config, profile)
        profile.unit_ends.append(len(profile.stacks))
        profile.units += 1
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
        f"traced bytes per unit: peak {profile.traced_peak_bytes:,}, "
        f"held at Experiment._result {profile.traced_held_bytes:,}",
        "",
        f"{'bucket':<18} {'self %':>7} {'incl %':>7}",
    ]
    for bucket, (own, inclusive) in profile.bucket_shares().items():
        lines.append(f"{bucket:<18} {own:7.1f} {inclusive:7.1f}")
    if MISSING_ROOTS:
        lines.append("roots this tree lacks: " + ", ".join(MISSING_ROOTS))
    lines += ["", f"{'function':<52} {'self %':>7} {'incl %':>7}"]
    for name, own, inclusive in profile.function_shares(TOP):
        lines.append(f"{name[:52]:<52} {own:7.1f} {inclusive:7.1f}")
    return "\n".join(lines)


def compare(parent: dict, change: dict) -> str:
    """Both sides' ``--json`` figures side by side."""
    lines = [
        f"{'':<26} {'parent':>11} {'change':>11}",
        f"{'wall per unit (s)':<26} {parent['wall_s_per_unit']:11.3f} "
        f"{change['wall_s_per_unit']:11.3f}",
        f"{'calls per unit':<26} {parent['calls_per_unit']:11,} {change['calls_per_unit']:11,}",
    ]
    for generation in range(3):
        lines.append(
            f"{f'gen-{generation} collections per unit':<26} "
            f"{parent['gc_collections_per_unit'][generation]:11g} "
            f"{change['gc_collections_per_unit'][generation]:11g}"
        )
    for key, label in (("traced_peak_bytes_per_unit", "traced peak bytes"),
                       ("traced_held_bytes_per_unit", "traced bytes held")):
        lines.append(f"{label:<26} {parent[key]:11,} {change[key]:11,}")
    for bucket in parent["buckets"]:  # both sides run this tool: the same buckets
        lines.append(
            f"{bucket + ' self %':<26} {parent['buckets'][bucket]['self_pct']:11.1f} "
            f"{change['buckets'][bucket]['self_pct']:11.1f}"
        )
    return "\n".join(lines)


def profile_both(parent: str, passthrough: list[str]) -> dict:
    """Profile ``parent`` (a checkout directory or a git revision) and
    this tree, each in a process of its own that runs this tool with
    that tree's ``src`` on ``PYTHONPATH``; print each side's report and
    both side by side, and return ``{"parent": figures, "change":
    figures}``."""
    figures = {}
    with tempfile.TemporaryDirectory(prefix="sample-profile-") as tmp:
        (Path(tmp) / "parent").mkdir()
        trees = {"parent": materialize(parent, Path(tmp) / "parent"), "change": REPO_ROOT}
        for side, tree in trees.items():
            out = Path(tmp) / f"{side}.json"
            env = {**os.environ, "PYTHONPATH": str(tree / "src")}
            done = subprocess.run(
                [sys.executable, __file__, *passthrough, "--json", str(out)],
                env=env, capture_output=True, text=True, check=False,
            )
            if done.returncode != 0:
                raise SystemExit(f"{side} side failed ({tree}):\n{done.stderr[-2000:]}")
            print(f"# {side}: {tree}\n{done.stdout}")
            figures[side] = json.loads(out.read_text())
    print(compare(figures["parent"], figures["change"]))
    return figures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--workload", default="sim-mahi-n50",
                        help="a simulator workload of benchmarks/perf (default sim-mahi-n50)")
    source.add_argument("--config", help="ExperimentConfig fields as a JSON object")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--units", type=int, default=5)
    parser.add_argument("--json", metavar="FILE", help="also write the figures as JSON to FILE")
    parser.add_argument("--parent", metavar="DIR",
                        help="also profile this checkout directory or git revision")
    args = parser.parse_args(argv)
    if args.units < 1:
        parser.error("--units must be at least 1")
    if args.parent is not None:
        source_args = (["--config", args.config] if args.config is not None
                       else ["--workload", args.workload])
        passthrough = [*source_args, "--seed", str(args.seed), "--units", str(args.units)]
        figures = profile_both(args.parent, passthrough)
        if args.json is not None:
            Path(args.json).write_text(json.dumps(figures, indent=1) + "\n")
        return 0
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
