#!/usr/bin/env python3
"""Standalone figure-rendering and report CLI.

Renders ``results/figures/figure-<id>.svg`` (one per paper figure) and
``results/REPORT.md`` from the sweep summaries already on disk — no
sweeps are re-run; use ``repro-bench [--smoke] --render`` to run and
render in one command.  The chart backend is pure Python SVG
(:mod:`repro.analysis.plotting`).

Usage::

    python -m benchmarks.render                 # render results/
    python -m benchmarks.render --results out/  # another results dir

This module also owns the paper-vs-measured *deviation tables* of the
report: it joins each rendered point against the reference numbers in
``benchmarks/paper_data.py`` (the analysis layer deliberately knows
nothing about the paper's values).  See ``docs/EXPERIMENTS.md`` for the
recorded comparison workflow.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _bootstrap_sys_path() -> None:
    for path in (REPO_ROOT / "src", REPO_ROOT):
        entry = str(path)
        if entry not in sys.path:
            sys.path.insert(0, entry)


_bootstrap_sys_path()

from repro.analysis.report import (  # noqa: E402
    DeviationRow,
    LoadedSweep,
    generate_report,
)
from repro.sim.sweep import config_from_dict  # noqa: E402

from benchmarks.curve_checks import paper_table_for_config  # noqa: E402
from benchmarks.paper_data import LEADER_SWEEP_IMPROVEMENT  # noqa: E402


def _ratio(measured: float, paper: float) -> str:
    if paper <= 0:
        return ""
    return f"{measured / paper:.2f}x paper"


def _latency_rows(sweeps: list[LoadedSweep]) -> list[DeviationRow]:
    """Paper-vs-measured latency/throughput rows for the load sweeps
    (Figures 3 and 4), one per point with a matching reference entry."""
    rows = []
    seen: set[str] = set()
    for sweep in sweeps:
        for point in sweep.points:
            if point.config is None or point.result is None:
                continue  # point cache evicted: no config to match on
            if point.config_hash in seen:
                continue  # smoke collapsing: sweeps share identical points
            seen.add(point.config_hash)
            config = config_from_dict(point.config)
            table = paper_table_for_config(config)
            if table is None or config.protocol not in table:
                continue
            paper = table[config.protocol]
            latency = (point.result.get("latency") or {}).get("avg")
            throughput = point.result.get("throughput_tps", 0.0)
            if latency is None:
                continue
            rows.append(
                DeviationRow(
                    label=(
                        f"{config.protocol}, n={config.num_validators} "
                        f"@ {config.load_tps / 1000:.0f}k tx/s"
                    ),
                    paper=(
                        f"{paper['latency_s']:.2f}s "
                        f"@ <= {paper['peak_tps'] / 1000:.0f}k tx/s"
                    ),
                    measured=(
                        f"{latency:.2f}s, {throughput / 1000:.1f}k tx/s committed"
                    ),
                    deviation=_ratio(latency, paper["latency_s"]),
                )
            )
    return rows


def _leader_gain_rows(sweeps: list[LoadedSweep]) -> list[DeviationRow]:
    """1 -> 3 leader-slot latency improvement vs the paper's ~40 ms
    (ideal) / ~100 ms (3 faults) for the Figure 5/7 sweeps."""
    rows = []
    for sweep in sweeps:
        by_series: dict[object, dict] = {}
        for point in sweep.points:
            by_series.setdefault(point.series, {})[point.x] = point.y
        for crashed, by_leaders in by_series.items():
            one, three = by_leaders.get(1), by_leaders.get(3)
            if one is None or three is None:
                continue
            paper_ms = (
                LEADER_SWEEP_IMPROVEMENT["faulty_ms"]
                if crashed
                else LEADER_SWEEP_IMPROVEMENT["ideal_ms"]
            )
            gain_ms = (one - three) * 1000.0
            rows.append(
                DeviationRow(
                    label=f"{sweep.name}: 1 -> 3 leaders ({crashed} crash faults)",
                    paper=f"~{paper_ms:.0f} ms lower latency",
                    measured=f"{gain_ms:.0f} ms lower",
                    deviation=_ratio(gain_ms, paper_ms) if gain_ms > 0 else "no gain measured",
                )
            )
    return rows


def paper_deviation_rows(
    figure_id: str, sweeps: list[LoadedSweep]
) -> list[tuple[str, list[DeviationRow]]]:
    """The report callback: deviation tables for one figure group."""
    if figure_id in ("3", "4"):
        return [("Paper vs measured (latency at offered load)", _latency_rows(sweeps))]
    if figure_id in ("5", "7"):
        return [("Paper vs measured (leader-slot improvement)", _leader_gain_rows(sweeps))]
    return []


def render_report(results_dir: str | Path) -> dict:
    """Render figures + REPORT.md for ``results_dir`` (the shared path
    behind both this CLI and ``repro-bench --render``)."""
    return generate_report(
        results_dir,
        paper_rows=paper_deviation_rows,
        title="Reproduction report - Mahi-Mahi (ICDCS'25)",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.render",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--results",
        default="results",
        help="results directory written by repro-bench (default: results/)",
    )
    args = parser.parse_args(argv)

    from repro.analysis.report import ReportError

    try:
        outputs = render_report(args.results)
    except ReportError as error:
        print(f"benchmarks.render: {error}", file=sys.stderr)
        return 1
    for figure_id, path in outputs["figures"].items():
        print(f"[render] {figure_id:<12} -> {path}")
    print(f"[render] report       -> {outputs['report']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
