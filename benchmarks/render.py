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

This module also owns the paper-vs-measured join (:func:`paper_joins`):
it matches each rendered point to the reference numbers in
``benchmarks/paper_data.py`` (the analysis layer deliberately knows
nothing about the paper's values).  The report's *deviation tables* and
the drift gate of ``benchmarks/deviation_trend.py`` both read it.  See
``docs/EXPERIMENTS.md`` for the recorded comparison workflow.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
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

from benchmarks.curve_checks import paper_table_for_config  # noqa: E402
from benchmarks.paper_data import LEADER_SWEEP_IMPROVEMENT  # noqa: E402


@dataclass(frozen=True)
class PaperJoin:
    """One measured number joined to the paper's number for it: a row
    of REPORT.md's deviation tables and a ratio the drift gate tracks."""

    key: str  #: the drift gate's name for the ratio
    label: str  #: the table row's label
    paper: str  #: the paper's number, as the table shows it
    measured: str  #: the measured number, as the table shows it
    ratio: float  #: measured / paper

    def row(self) -> DeviationRow:
        # Only a leader-slot gain can be zero or negative.
        deviation = f"{self.ratio:.2f}x paper" if self.ratio > 0 else "no gain measured"
        return DeviationRow(self.label, self.paper, self.measured, deviation)


def _latency_joins(figure_id: str, sweeps: list[LoadedSweep]) -> list[PaperJoin]:
    """Measured vs paper average commit latency for the load sweeps
    (Figures 3 and 4), one per point with a matching reference entry."""
    joins = []
    seen: set[str] = set()
    for sweep in sweeps:
        for point in sweep.points:
            config = point.config
            if config is None:
                continue  # point cache evicted: no config to match on
            if point.config_hash in seen:
                continue  # smoke collapsing: sweeps share identical points
            seen.add(point.config_hash)
            table = paper_table_for_config(config)
            latency = point.result.latency.avg
            if table is None or config.protocol not in table or math.isnan(latency):
                continue
            paper = table[config.protocol]
            joins.append(
                PaperJoin(
                    key=(
                        f"fig{figure_id}:{config.protocol}:n{config.num_validators}"
                        f":load{int(config.load_tps)}"
                    ),
                    label=(
                        f"{config.protocol}, n={config.num_validators} "
                        f"@ {config.load_tps / 1000:.0f}k tx/s"
                    ),
                    paper=(
                        f"{paper['latency_s']:.2f}s "
                        f"@ <= {paper['peak_tps'] / 1000:.0f}k tx/s"
                    ),
                    measured=(
                        f"{latency:.2f}s, {point.result.throughput_tps / 1000:.1f}k "
                        "tx/s committed"
                    ),
                    ratio=latency / paper["latency_s"],
                )
            )
    return joins


def _leader_gain_joins(figure_id: str, sweeps: list[LoadedSweep]) -> list[PaperJoin]:
    """1 -> 3 leader-slot latency improvement vs the paper's ~40 ms
    (ideal) / ~100 ms (3 faults) for the Figure 5/7 sweeps."""
    joins = []
    for sweep in sweeps:
        by_series: dict[object, dict] = {}
        for point in sweep.points:
            by_series.setdefault(point.series, {})[point.x] = point.y
        for crashed, by_leaders in by_series.items():
            one, three = by_leaders.get(1), by_leaders.get(3)
            if one is None or three is None:
                continue
            paper_ms = LEADER_SWEEP_IMPROVEMENT["faulty_ms" if crashed else "ideal_ms"]
            gain_ms = (one - three) * 1000.0
            joins.append(
                PaperJoin(
                    key=f"fig{figure_id}:{sweep.name}:crashed{crashed}",
                    label=f"{sweep.name}: 1 -> 3 leaders ({crashed} crash faults)",
                    paper=f"~{paper_ms:.0f} ms lower latency",
                    measured=f"{gain_ms:.0f} ms lower",
                    ratio=gain_ms / paper_ms,
                )
            )
    return joins


_LATENCY_TITLE = "Paper vs measured (latency at offered load)"
_LEADER_TITLE = "Paper vs measured (leader-slot improvement)"

#: The paper figures with a reference to join: deviation-table title and join.
_JOINS = {
    "3": (_LATENCY_TITLE, _latency_joins),
    "4": (_LATENCY_TITLE, _latency_joins),
    "5": (_LEADER_TITLE, _leader_gain_joins),
    "7": (_LEADER_TITLE, _leader_gain_joins),
}


def paper_joins(figure_id: str, sweeps: list[LoadedSweep]) -> list[PaperJoin]:
    """Every paper-vs-measured join of one figure group's sweeps."""
    if figure_id not in _JOINS:
        return []
    _, join = _JOINS[figure_id]
    return join(figure_id, sweeps)


def paper_deviation_rows(
    figure_id: str, sweeps: list[LoadedSweep]
) -> list[tuple[str, list[DeviationRow]]]:
    """The report callback: deviation tables for one figure group."""
    if figure_id not in _JOINS:
        return []
    title, join = _JOINS[figure_id]
    return [(title, [joined.row() for joined in join(figure_id, sweeps)])]


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
