"""Reproduction-report generation from sweep results.

Turns a ``results/`` directory — per-sweep series summaries plus the
content-addressed point cache, as written by the sweep engine
(:mod:`repro.sim.sweep`) — into a browsable artifact:

* ``results/figures/figure-<id>.svg`` — one chart per paper figure id,
  rendered by the dependency-free SVG backend
  (:mod:`repro.analysis.plotting`); sweeps sharing a figure id become
  stacked panels of one figure.
* ``results/REPORT.md`` — a provenance header (git revision, sweep
  schema versions, smoke vs full mode, point-cache hit statistics),
  then one section per figure: the rendered chart, the sweep inventory,
  optional paper-vs-measured deviation tables (supplied by the caller,
  who owns the paper's reference numbers — see
  ``benchmarks/render.py``), and recovery/availability tables wherever
  points carry the fault-schedule metrics.

The loader is deliberately tolerant: a malformed summary is skipped,
and a point the store does not hold as valid (missing, corrupt, another
schema) only costs the report its per-point detail.  An axis is labelled
with its :class:`~repro.sim.sweep.FigureSpec` label, or the axis field's
name where a sweep sets none.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from ..errors import ReproError
from ..sim.runner import ExperimentConfig, ExperimentResult
from ..sim.sweep import SCHEMA_VERSION, FigureSpec, ResultsStore
from .plotting import Panel, Series, CATEGORICAL_COLORS, render_figure

__all__ = [
    "DeviationRow",
    "LoadedSweep",
    "ReportError",
    "SweepPoint",
    "figure_file_name",
    "figure_spec_from_dict",
    "generate_report",
    "git_revision",
    "group_by_figure",
    "load_sweeps",
]

#: Pretty titles for the non-numeric figure groups.
_GROUP_TITLES = {
    "ablation": "Design ablations",
    "appendix-c": "Appendix C: commit probability",
    "recovery": "Crash-recovery",
    "recovery-modes": "Recovery modes: cold vs warm vs checkpoint",
    "recovery-gc": "Recovery past the GC horizon",
    "reconfig": "Reconfiguration",
    "mixed-sizes": "Mixed transaction sizes",
}


class ReportError(ReproError):
    """Report generation was asked for something impossible (e.g. a
    results directory with no sweep summaries)."""


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepPoint:
    """One (x, y) point of a sweep summary, joined with its stored
    result when the content-addressed store holds it as a valid point."""

    config_hash: str
    series: object
    x: object
    y: float | None
    result: ExperimentResult | None = None
    wall_seconds: float | None = None

    @property
    def config(self) -> ExperimentConfig | None:
        return self.result.config if self.result is not None else None


@dataclass(frozen=True)
class LoadedSweep:
    """One parsed ``results/<sweep>.json`` summary."""

    name: str
    spec: FigureSpec
    points: tuple[SweepPoint, ...]
    cached: int
    executed: int
    wall_seconds: float
    schema: int | None


def figure_spec_from_dict(data: dict) -> FigureSpec:
    """Rebuild a :class:`FigureSpec` from a summary's ``figure`` dict,
    tolerating summaries written before newer fields existed."""
    known = {field.name for field in dataclasses.fields(FigureSpec)}
    return FigureSpec(**{key: value for key, value in data.items() if key in known})


def load_sweeps(results_dir: str | Path) -> list[LoadedSweep]:
    """Parse every per-sweep summary under ``results_dir``.

    ``summary.json`` (the run roll-up) and files that are not sweep
    summaries are skipped; a malformed summary is skipped rather than
    fatal, so one corrupt file cannot take down the whole report.
    """
    results_dir = Path(results_dir)
    store = ResultsStore(results_dir)
    sweeps = []
    for path in sorted(results_dir.glob("*.json")):
        if path.name == "summary.json":
            continue
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(data, dict) or "sweep" not in data or "figure" not in data:
            continue
        try:
            points = []
            for raw in data.get("points", ()):
                key = raw.get("config_hash", "")
                result = store.load(key)
                points.append(
                    SweepPoint(
                        config_hash=key,
                        series=raw.get("series"),
                        x=raw.get("x"),
                        y=raw.get("y"),
                        result=result,
                        wall_seconds=store.wall_seconds(key) if result is not None else None,
                    )
                )
            sweeps.append(
                LoadedSweep(
                    name=str(data["sweep"]),
                    spec=figure_spec_from_dict(data["figure"]),
                    points=tuple(points),
                    cached=int(data.get("cached", 0)),
                    executed=int(data.get("executed", 0)),
                    wall_seconds=float(data.get("wall_seconds", 0.0)),
                    schema=data.get("schema"),
                )
            )
        except (AttributeError, KeyError, TypeError, ValueError):
            continue  # valid JSON, wrong shape (e.g. a bad scale name)
    return sweeps


def group_by_figure(sweeps: Iterable[LoadedSweep]) -> dict[str, list[LoadedSweep]]:
    """Sweeps keyed by paper figure id, numeric figures first."""
    groups: dict[str, list[LoadedSweep]] = {}
    for sweep in sweeps:
        groups.setdefault(sweep.spec.figure, []).append(sweep)

    def order(figure_id: str):
        return (0, int(figure_id), "") if figure_id.isdigit() else (1, 0, figure_id)

    return {figure_id: groups[figure_id] for figure_id in sorted(groups, key=order)}


def figure_file_name(figure_id: str) -> str:
    """Safe, stable SVG file name for one figure id."""
    slug = re.sub(r"[^A-Za-z0-9]+", "-", figure_id).strip("-").lower() or "untitled"
    return f"figure-{slug}.svg"


def figure_title(figure_id: str) -> str:
    if figure_id.isdigit():
        return f"Figure {figure_id}"
    return _GROUP_TITLES.get(figure_id, figure_id.replace("-", " ").title())


# ----------------------------------------------------------------------
# Chart assembly
# ----------------------------------------------------------------------
class _ColorRegistry:
    """Stable series-label -> color assignment across the whole report.

    Color follows the entity: ``tusk`` keeps one hue in every figure it
    appears in, assigned from the fixed categorical order by first
    appearance (summaries are loaded in sorted order, so assignment is
    deterministic for a given results directory).
    """

    def __init__(self) -> None:
        self._assigned: dict[str, str] = {}

    def color_for(self, label: str) -> str:
        if label not in self._assigned:
            slot = len(self._assigned) % len(CATEGORICAL_COLORS)
            self._assigned[label] = CATEGORICAL_COLORS[slot]
        return self._assigned[label]


def _sweep_panel(sweep: LoadedSweep, colors: _ColorRegistry) -> Panel:
    """One sweep summary becomes one panel of its figure."""
    spec = sweep.spec
    by_series: dict[object, list[SweepPoint]] = {}
    for point in sweep.points:  # first-seen series order = config order
        by_series.setdefault(point.series, []).append(point)
    series = []
    for value, points in by_series.items():
        if all(isinstance(p.x, (int, float)) and not isinstance(p.x, bool) for p in points):
            points = sorted(points, key=lambda p: p.x)
        label = spec.format_series(value)
        series.append(
            Series(
                label=label,
                xs=tuple(p.x for p in points),
                ys=tuple(p.y for p in points),
                color=colors.color_for(label),
            )
        )
    return Panel(
        title=spec.title,
        series=tuple(series),
        x_label=spec.x_label or spec.x_axis,
        y_label=spec.y_label or spec.y_axis,
        x_scale=spec.x_scale,
        y_scale=spec.y_scale,
        caption=f"sweep: {sweep.name} ({len(sweep.points)} points)",
    )


# ----------------------------------------------------------------------
# Markdown assembly
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DeviationRow:
    """One paper-vs-measured comparison row."""

    label: str
    paper: str
    measured: str
    deviation: str = ""


def _md_escape(text: str) -> str:
    return str(text).replace("|", "\\|")


def _md_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    lines = [
        "| " + " | ".join(_md_escape(h) for h in headers) + " |",
        "|" + "|".join(" --- " for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_md_escape(cell) for cell in row) + " |")
    return lines


def _format_value(value, digits: int = 3) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        if math.isnan(value):
            return "n/a"
        return f"{value:.{digits}f}".rstrip("0").rstrip(".")
    return str(value)


def git_revision(repo_dir: Path) -> str:
    """The short hash of ``repo_dir``'s checked-out commit, or
    ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=repo_dir,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _provenance_lines(
    results_dir: Path, sweeps: list[LoadedSweep], git_rev: str | None
) -> list[str]:
    summary = None
    try:
        summary = json.loads((results_dir / "summary.json").read_text())
    except (OSError, json.JSONDecodeError):
        pass
    mode = (summary or {}).get("mode", "unknown")
    totals = (summary or {}).get("totals", {})
    schemas = sorted({sweep.schema for sweep in sweeps if sweep.schema is not None})
    point_files = [p for sweep in sweeps for p in sweep.points if p.result is not None]
    total_points = sum(len(sweep.points) for sweep in sweeps)
    point_wall = sum(p.wall_seconds or 0.0 for p in point_files)
    rev = git_rev if git_rev is not None else git_revision(results_dir.resolve().parent)
    rows = [
        ["git revision", rev],
        ["run mode", str(mode)],
        ["sweep schema version", f"{', '.join(map(str, schemas)) or 'unknown'} "
                                 f"(current: {SCHEMA_VERSION})"],
        ["sweeps / points", f"{len(sweeps)} / {total_points}"],
        [
            "point cache",
            f"{len(point_files)}/{total_points} points on disk, "
            f"{point_wall:.1f}s recorded compute",
        ],
    ]
    if totals:
        sim_events = totals.get("sim_events")
        events_text = f"{sim_events:,}" if isinstance(sim_events, int) else "?"
        rows.append(
            [
                "last run",
                f"{totals.get('executed', '?')} executed, {totals.get('cached', '?')} cached, "
                f"{totals.get('wall_seconds', '?')}s wall, {events_text} sim events",
            ]
        )
    fleet = (summary or {}).get("fleet")
    if isinstance(fleet, dict):
        rows.append(
            [
                "fleet",
                f"{fleet.get('workers', '?')} workers, {fleet.get('points', '?')} points, "
                f"{fleet.get('wall_seconds', '?')}s wall",
            ]
        )
    return _md_table(["provenance", ""], rows)


def _deviation_trend_lines(results_dir: Path) -> list[str]:
    """Fidelity history from ``deviation_trend.jsonl`` (written by
    ``benchmarks/deviation_trend.py``), newest rows last."""
    rows = []
    try:
        lines = (results_dir / "deviation_trend.jsonl").read_text().splitlines()
    except OSError:
        return []
    for line in lines:
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(row, dict) and isinstance(row.get("ratios"), dict):
            rows.append(row)
    if not rows:
        return []
    table = []
    for row in rows[-10:]:
        max_drift = row.get("max_drift")
        table.append(
            [
                str(row.get("rev", "?")),
                str(row.get("mode", "?")),
                str(len(row["ratios"])),
                f"{max_drift:.1%}" if isinstance(max_drift, (int, float)) else "n/a",
                "pass" if row.get("gate_passed") else "FAIL",
            ]
        )
    return [
        "",
        "**Deviation trend** (paper-vs-measured ratios per commit; "
        "gate trips on >25% drift from the frozen baseline):",
        "",
        *_md_table(["rev", "mode", "tracked ratios", "max drift", "gate"], table),
    ]


def _recovery_lines(group: list[LoadedSweep]) -> list[str]:
    """Recovery/availability table for figure groups whose points carry
    the fault-schedule metrics (recoveries, recovery time, availability)."""
    rows = []
    for sweep in group:
        for point in sweep.points:
            result = point.result
            if result is None:
                continue
            config = result.config
            if not (config.num_recovering or config.fault_schedule or result.recoveries):
                continue
            rows.append(
                [
                    sweep.name,
                    str(point.series),
                    _format_value(point.x),
                    config.recover_mode,
                    _format_value(result.recoveries),
                    _format_value(result.recovery_time_s),
                    _format_value(result.recovery_time_max_s),
                    _format_value(result.checkpoint_adoptions),
                    _format_value(result.availability, digits=4),
                ]
            )
    if not rows:
        return []
    return [
        "",
        "**Recovery and availability** (restart -> first post-restart proposal):",
        "",
        *_md_table(
            ["sweep", "series", "x", "mode", "recoveries", "recovery avg (s)",
             "recovery max (s)", "ckpt adoptions", "availability"],
            rows,
        ),
    ]


def _stage_breakdown_lines(group: list[LoadedSweep]) -> list[str]:
    """Per-stage latency decomposition table for figure groups whose
    points carry ``stage_breakdown`` (queue / network / cpu /
    commit-walk shares of the observer's commit latency)."""
    rows = []
    for sweep in group:
        for point in sweep.points:
            breakdown = point.result.stage_breakdown if point.result is not None else {}
            if not breakdown.get("samples"):
                continue
            rows.append(
                [
                    sweep.name,
                    str(point.series),
                    _format_value(point.x),
                    _format_value(breakdown.get("queue_s")),
                    _format_value(breakdown.get("network_s")),
                    _format_value(breakdown.get("cpu_s")),
                    _format_value(breakdown.get("commit_walk_s")),
                    _format_value(breakdown.get("commit_walk_share"), digits=2),
                    _format_value(int(breakdown["samples"])),
                ]
            )
    if not rows:
        return []
    return [
        "",
        "**Latency decomposition** (mean seconds per lifecycle stage at the observer):",
        "",
        *_md_table(
            ["sweep", "series", "x", "queue (s)", "network (s)", "cpu (s)",
             "commit walk (s)", "walk share", "samples"],
            rows,
        ),
    ]


def _sweep_inventory_lines(group: list[LoadedSweep]) -> list[str]:
    rows = [
        [
            sweep.name,
            str(len(sweep.points)),
            str(sweep.cached),
            str(sweep.executed),
            f"{sweep.wall_seconds:.2f}",
        ]
        for sweep in group
    ]
    return _md_table(["sweep", "points", "cached", "executed", "wall (s)"], rows)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def generate_report(
    results_dir: str | Path,
    *,
    paper_rows: Callable[[str, list[LoadedSweep]], list[tuple[str, list[DeviationRow]]]]
    | None = None,
    git_rev: str | None = None,
    title: str = "Reproduction report",
) -> dict:
    """Render every figure and write ``REPORT.md`` under ``results_dir``.

    Args:
        results_dir: The sweep engine's output directory.
        paper_rows: Optional callback supplying paper-vs-measured
            deviation tables for one figure group: called with
            ``(figure_id, sweeps)``, returns ``(table_title, rows)``
            pairs.  The caller owns the paper's reference numbers; the
            report only formats them.
        git_rev: Provenance override; default asks ``git`` and falls
            back to ``"unknown"``.
        title: Report headline.

    Returns:
        ``{"report": <REPORT.md path>, "figures": {figure_id: svg path}}``

    Raises:
        ReportError: When ``results_dir`` holds no sweep summaries —
            run ``repro-bench`` (or ``--smoke``) first.
    """
    results_dir = Path(results_dir)
    sweeps = load_sweeps(results_dir)
    if not sweeps:
        raise ReportError(
            f"no sweep summaries under {results_dir}/ - run `repro-bench --smoke` first"
        )
    figures_dir = results_dir / "figures"
    figures_dir.mkdir(parents=True, exist_ok=True)

    colors = _ColorRegistry()
    groups = group_by_figure(sweeps)
    figure_paths: dict[str, Path] = {}
    lines: list[str] = [f"# {title}", ""]
    lines += _provenance_lines(results_dir, sweeps, git_rev)
    lines += _deviation_trend_lines(results_dir)
    lines += [
        "",
        "Regenerate with `repro-bench --smoke --render` (or `python -m benchmarks.render` "
        "to re-render from cached results without re-running sweeps).",
        "",
    ]

    for figure_id, group in groups.items():
        panels = [_sweep_panel(sweep, colors) for sweep in group]
        svg_path = figures_dir / figure_file_name(figure_id)
        svg_path.write_text(render_figure(figure_title(figure_id), panels))
        figure_paths[figure_id] = svg_path

        lines += [f"## {figure_title(figure_id)}", ""]
        first_title = group[0].spec.title
        if first_title:
            lines += [first_title if len(group) == 1 else
                      f"{len(group)} sweeps, e.g. {first_title}", ""]
        lines += [f"![{figure_title(figure_id)}](figures/{svg_path.name})", ""]
        lines += _sweep_inventory_lines(group)
        for table_title, rows in (paper_rows or (lambda *_: []))(figure_id, group):
            if not rows:
                continue
            lines += ["", f"**{table_title}**", ""]
            lines += _md_table(
                ["", "paper", "measured", "deviation"],
                [[row.label, row.paper, row.measured, row.deviation] for row in rows],
            )
        lines += _stage_breakdown_lines(group)
        lines += _recovery_lines(group)
        lines += [""]

    report_path = results_dir / "REPORT.md"
    report_path.write_text("\n".join(lines).rstrip() + "\n")
    return {"report": report_path, "figures": figure_paths}
