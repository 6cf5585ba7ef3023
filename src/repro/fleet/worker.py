"""The fleet worker entry point (``python -m repro.fleet.worker``).

One worker process drains sweep points and writes results into the
content-addressed store.  Two modes share the same execution path:

* **Pull mode** (``--fleet <dir>``, the local backend): the worker
  claims points off the shared manifest queue until it is empty.
* **Shard mode** (``--shard <file>``, the ssh backend): the worker runs
  an explicit point list shipped to the host by the coordinator — no
  shared filesystem required.

A worker runs its points in its own process, one after another: the
fleet's workers are the only fan-out.  Results are deterministic, so
whatever worker runs a point writes a byte-identical file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from ..sim.sweep import ResultsStore, config_from_dict, config_hash, run_point
from .manifest import Manifest, WorkItem


def run_item(item: WorkItem, store: ResultsStore) -> float:
    """Run one point in-process and persist it; returns wall seconds."""
    config = config_from_dict(item.config)
    if config_hash(config) != item.config_hash:
        raise ValueError(
            f"manifest hash {item.config_hash} does not match the config "
            f"it carries ({config_hash(config)}) - mixed schema versions?"
        )
    started = time.perf_counter()
    result = run_point(config)
    wall = time.perf_counter() - started
    store.put(config, result, wall_seconds=wall)
    return wall


def _pull_loop(manifest: Manifest, store: ResultsStore, worker_id: str) -> int:
    completed = 0
    while True:
        item = manifest.claim(worker_id)
        if item is None:
            return completed
        # A re-dispatched point may already have landed (its first
        # worker died after the store write): skip the compute, keep
        # the receipt.
        if store.load(item.config_hash) is None:
            wall = run_item(item, store)
            print(
                f"fleet-worker[{worker_id}]: {item.config_hash} done in {wall:.1f}s",
                flush=True,
            )
        manifest.complete(item, worker_id)
        completed += 1


def _shard_loop(shard_path: Path, store: ResultsStore, worker_id: str) -> int:
    items = [WorkItem.from_dict(raw) for raw in json.loads(shard_path.read_text())]
    completed = 0
    for item in items:
        if store.load(item.config_hash) is None:
            wall = run_item(item, store)
            print(
                f"fleet-worker[{worker_id}]: {item.config_hash} done in {wall:.1f}s",
                flush=True,
            )
        completed += 1
    return completed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.fleet.worker",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--fleet", default=None, help="fleet directory (pull mode)")
    mode.add_argument("--shard", default=None, help="point-shard JSON file (shard mode)")
    parser.add_argument(
        "--results", default="results", help="results store root (default: results/)"
    )
    parser.add_argument(
        "--worker-id",
        default=f"w{os.getpid()}",
        help="stable worker name for claims and logs (default: w<pid>)",
    )
    args = parser.parse_args(argv)

    store = ResultsStore(args.results)
    if args.fleet is not None:
        completed = _pull_loop(Manifest(args.fleet), store, args.worker_id)
    else:
        completed = _shard_loop(Path(args.shard), store, args.worker_id)
    print(f"fleet-worker[{args.worker_id}]: {completed} points", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
