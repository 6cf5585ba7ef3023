#!/usr/bin/env python3
"""Paired parent/change runs of the repo benchmark, with the verdict of
the choosing-metrics guide (section 8) per end-to-end metric.

Runs the ``BENCHMARK.json`` command for one workload alternately in a
parent checkout and in this working tree — which side goes first
alternates from pair to pair, so drift of the host hits both alike — and
prints, per metric, each side's median and quartiles, how many pairs the
change won, and a verdict:

* ``gain``: the change won at least nine tenths of the pairs (ties count
  for neither side) *and* the medians differ by more than the distance
  between the quartiles of the parent's own runs;
* ``regression``: the change's median is worse than the parent's by more
  than the bound ``BENCHMARK.json`` fixes for the metric;
* ``unresolved``: neither, but a side's own runs spread (quartile
  distance over median) wider than the bound, so "unchanged" cannot be
  told from "changed";
* ``unchanged`` otherwise.

Both trees are byte-compiled before the first pair (``compileall``,
which writes even under ``PYTHONDONTWRITEBYTECODE``): a fresh parent
checkout has no ``__pycache__`` while the working tree has one from its
test runs, and that asymmetry alone reads as a 30-40 % ``setup_s``
difference.

Usage::

    python tools/perf_pairs.py --parent /path/to/parent-checkout --workload sim-mahi-n50
    python tools/perf_pairs.py --parent HEAD~1 --workload rt-steady --pairs 10 --seed 11
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Share of the pairs the change must win before a gain is claimed.
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` (inclusive method; a single value is all three)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def count_wins(parent: list[float], change: list[float], better: str = "lower") -> tuple[int, int]:
    """``(pairs the change won, ties)`` over runs paired by position."""
    sign = -1.0 if better == "higher" else 1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * c < sign * p)
    ties = sum(1 for p, c in zip(parent, change) if c == p)
    return wins, ties


def verdict(parent: list[float], change: list[float], bound: float, better: str = "lower") -> str:
    """The section-8 verdict for one metric (see the module docstring).

    ``parent[i]`` and ``change[i]`` are the two runs of pair ``i``.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same non-zero number of parent and change runs")
    sign = -1.0 if better == "higher" else 1.0
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    improvement = sign * (p_median - c_median)  # > 0: the change is better
    wins, _ = count_wins(parent, change, better)
    if wins >= WIN_SHARE * len(parent) and improvement > p_q3 - p_q1:
        return "gain"
    if -improvement > bound * abs(p_median):
        return "regression"
    for q1, median, q3 in ((p_q1, p_median, p_q3), (c_q1, c_median, c_q3)):
        if q3 - q1 > bound * abs(median):
            return "unresolved"
    return "unchanged"


def run_once(checkout: Path, command: list[str], timeout: float) -> dict:
    """One benchmark run in ``checkout``: the JSON of its last stdout line."""
    done = subprocess.run(
        command, cwd=checkout, capture_output=True, text=True, timeout=timeout, check=False
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{' '.join(command)} failed in {checkout} (exit {done.returncode}):\n"
            + done.stderr[-2000:]
        )
    return json.loads(lines[-1])


def materialize(parent: str, scratch: Path) -> Path:
    """``parent`` as a directory: itself if it is one, else that git
    revision of this repository exported into ``scratch``."""
    if Path(parent).is_dir():
        return Path(parent).resolve()
    archive = subprocess.run(
        ["git", "archive", "--format=tar", parent], cwd=REPO_ROOT, capture_output=True, check=True
    )
    subprocess.run(["tar", "-x", "-C", str(scratch)], input=archive.stdout, check=True)
    return scratch


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent checkout directory or git revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json", type=Path, help="also write every run's metrics here")
    args = parser.parse_args(argv)

    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())

    command = [
        *spec["command"],
        *("--workload", args.workload, "--seed", str(args.seed)),
        *("--seconds", str(spec["run_seconds"]), "--trace", "0"),
    ]
    timeout = 20 * spec["run_seconds"] + 120
    with tempfile.TemporaryDirectory(prefix="perf-pairs-parent-") as scratch:
        sides = {"parent": materialize(args.parent, Path(scratch)), "change": REPO_ROOT}
        for side, checkout in sides.items():
            subprocess.run([sys.executable, "-m", "compileall", "-q", str(checkout)], check=True)
            print(f"# compiled {side}: {checkout}", flush=True)
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(sides[side], command, timeout))
            print(
                f"# pair {pair + 1}/{args.pairs} ({order[0]} first): "
                + "  ".join(
                    f"{side} wall_s={runs[side][-1]['metrics']['wall_s']['value']:.3f}"
                    for side in ("parent", "change")
                ),
                flush=True,
            )
    if args.json:
        args.json.write_text(json.dumps({"command": command, "runs": runs}, indent=1))

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs: {' '.join(command)}")
    print(
        f"{'metric':24} {'parent med [q1, q3]':30} {'change med [q1, q3]':30} "
        f"{'wins':>6} {'ties':>4} {'change':>8}  verdict"
    )
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [run["metrics"][name]["value"] for run in runs["parent"]]
        change = [run["metrics"][name]["value"] for run in runs["change"]]
        wins, ties = count_wins(parent, change, metric["better"])
        cells = []
        for values in (parent, change):
            q1, median, q3 = quartiles(values)
            cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}]")
        p_median, c_median = statistics.median(parent), statistics.median(change)
        delta = f"{(c_median - p_median) / p_median:+.1%}" if p_median else "n/a"
        print(
            f"{name:24} {cells[0]:30} {cells[1]:30} {wins:>3}/{len(parent):<2} {ties:>4} "
            f"{delta:>8}  {verdict(parent, change, metric['bound'], metric['better'])}"
        )
    for side in ("parent", "change"):
        failed = sum(run["failed"] for run in runs[side])
        attempted = sum(run["attempted"] for run in runs[side])
        incorrect = sum(1 for run in runs[side] if not run["correct"])
        print(f"{side}: failed {failed}/{attempted} operations, {incorrect} incorrect run(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
