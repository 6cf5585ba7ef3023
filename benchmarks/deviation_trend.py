#!/usr/bin/env python3
"""Deviation-trend tracking: reproduction fidelity as a regression test.

The report's paper-vs-measured tables are re-derived from scratch on
every run and never compared across commits — a silent fidelity drift
(a protocol change that doubles Tusk's measured latency ratio, say)
only shows up when a human re-reads the table.  This tool makes the
ratios first-class data:

1. **Compute** per-figure deviation ratios from any results directory:
   measured/paper commit latency for the Figure 3/4 load points and
   measured/paper leader-slot latency gain for Figures 5/7 — the ratios
   of the joins the report renders (``benchmarks/render.paper_joins``).
2. **Append** one row keyed by git revision (and run mode) to
   ``results/deviation_trend.jsonl``, so fidelity history reads as a
   diffable log across commits.
3. **Gate** the current ratios against the frozen baselines under
   ``results/reference/`` (written once from a full-scale fleet run,
   plus the seed-stable smoke baselines CI compares against): any
   tracked ratio drifting more than ``--tolerance`` (default 25%)
   from its baseline fails the run.

Usage::

    python benchmarks/deviation_trend.py                  # gate results/
    python benchmarks/deviation_trend.py --update-baseline  # freeze current
    python benchmarks/deviation_trend.py --no-gate        # record only

The smoke baselines are exact by construction — the simulator is
deterministic and smoke configs are pinned — so a tripped smoke gate
means the *code* changed measured behavior, not that a runner was
noisy.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _bootstrap_sys_path() -> None:
    for path in (REPO_ROOT / "src", REPO_ROOT):
        entry = str(path)
        if entry not in sys.path:
            sys.path.insert(0, entry)


_bootstrap_sys_path()

from repro.analysis.report import git_revision, group_by_figure, load_sweeps  # noqa: E402

from benchmarks.render import paper_joins  # noqa: E402

#: Relative drift allowed against a baseline ratio before the gate trips.
DEFAULT_TOLERANCE = 0.25

#: Floor on the drift denominator: leader-gain ratios can sit near zero
#: at smoke scale, where a relative comparison would explode.
RATIO_FLOOR = 0.1


# ----------------------------------------------------------------------
# Ratio computation
# ----------------------------------------------------------------------
def compute_ratios(results_dir: str | Path) -> dict[str, float]:
    """Every tracked paper-vs-measured ratio for one results directory."""
    ratios: dict[str, float] = {}
    for figure_id, sweeps in group_by_figure(load_sweeps(Path(results_dir))).items():
        ratios.update((join.key, join.ratio) for join in paper_joins(figure_id, sweeps))
    return dict(sorted(ratios.items()))


def run_mode(results_dir: str | Path) -> str:
    """The run mode (``smoke``/``full``) recorded by ``repro-bench``."""
    try:
        summary = json.loads((Path(results_dir) / "summary.json").read_text())
    except (OSError, ValueError):
        return "unknown"
    return str(summary.get("mode", "unknown")) if isinstance(summary, dict) else "unknown"


# ----------------------------------------------------------------------
# Baseline + gate
# ----------------------------------------------------------------------
def load_baseline(reference_dir: str | Path) -> dict:
    """The frozen baseline document (``{"modes": {mode: {metric: ratio}}}``)."""
    path = Path(reference_dir) / "deviation_baseline.json"
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return {"schema": 1, "modes": {}}
    if not isinstance(data, dict) or not isinstance(data.get("modes"), dict):
        return {"schema": 1, "modes": {}}
    return data


def drift(current: float, baseline: float) -> float:
    """Relative drift of one ratio against its baseline (floored
    denominator: near-zero baselines compare absolutely)."""
    return abs(current - baseline) / max(abs(baseline), RATIO_FLOOR)


def gate_ratios(
    current: dict[str, float],
    baseline_for_mode: dict[str, float],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> tuple[list[str], float]:
    """Hold the current ratios to the baseline.

    Every baseline metric must still be measured, and must sit within
    ``tolerance`` relative drift.  Metrics the baseline does not know
    (new sweeps) pass freely — they become gated once the baseline is
    refreshed.  Returns ``(violations, max_drift)``.
    """
    violations: list[str] = []
    max_drift = 0.0
    for metric, base in sorted(baseline_for_mode.items()):
        if metric not in current:
            violations.append(
                f"{metric}: tracked by the baseline but no longer measured "
                "(sweep removed or its point cache evicted?)"
            )
            continue
        d = drift(current[metric], float(base))
        max_drift = max(max_drift, d)
        if d > tolerance:
            violations.append(
                f"{metric}: ratio {current[metric]:.3f} drifted "
                f"{d:.0%} from baseline {float(base):.3f} "
                f"(tolerance {tolerance:.0%})"
            )
    return violations, max_drift


# ----------------------------------------------------------------------
# The trend log
# ----------------------------------------------------------------------
def append_trend_row(trend_path: Path, row: dict) -> bool:
    """Append one row unless the log's most recent row *for this mode*
    is an identical measurement at the same revision (idempotent
    re-runs, even when full/smoke appends interleave)."""
    rows = [r for r in read_trend(trend_path) if r.get("mode") == row.get("mode")]
    if rows:
        last = rows[-1]
        if (
            last.get("rev") == row.get("rev")
            and last.get("ratios") == row.get("ratios")
        ):
            return False
    trend_path.parent.mkdir(parents=True, exist_ok=True)
    with trend_path.open("a") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")
    return True


def read_trend(trend_path: str | Path) -> list[dict]:
    """Parsed trend rows, oldest first (malformed lines skipped)."""
    rows = []
    try:
        lines = Path(trend_path).read_text().splitlines()
    except OSError:
        return []
    for line in lines:
        try:
            row = json.loads(line)
        except ValueError:
            continue
        if isinstance(row, dict):
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="deviation-trend",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--results", default="results", help="results directory (default: results/)"
    )
    parser.add_argument(
        "--reference",
        default=None,
        help="reference-baseline directory (default: <results>/reference, "
        "falling back to the checked-in results/reference)",
    )
    parser.add_argument(
        "--trend-file",
        default=None,
        help="trend log path (default: <results>/deviation_trend.jsonl)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed relative drift per ratio (default: 0.25)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="freeze the current ratios as this mode's baseline instead of gating",
    )
    parser.add_argument(
        "--no-append", action="store_true", help="do not touch the trend log"
    )
    parser.add_argument(
        "--no-gate", action="store_true", help="record but never fail"
    )
    args = parser.parse_args(argv)

    results_dir = Path(args.results)
    if args.reference is not None:
        reference_dir = Path(args.reference)
    else:
        reference_dir = results_dir / "reference"
        if not (reference_dir / "deviation_baseline.json").is_file():
            reference_dir = REPO_ROOT / "results" / "reference"
    trend_path = (
        Path(args.trend_file)
        if args.trend_file is not None
        else results_dir / "deviation_trend.jsonl"
    )

    ratios = compute_ratios(results_dir)
    mode = run_mode(results_dir)
    if not ratios:
        print(
            f"deviation-trend: no comparable points under {results_dir}/ - "
            "run `repro-bench [--smoke]` first"
        )
        return 1
    print(f"deviation-trend: {len(ratios)} tracked ratios ({mode} mode)")
    for metric, value in ratios.items():
        print(f"  {metric:<48} {value:>8.3f}")

    baseline = load_baseline(reference_dir)
    if args.update_baseline:
        baseline.setdefault("modes", {})[mode] = {
            k: round(v, 6) for k, v in ratios.items()
        }
        baseline["schema"] = 1
        baseline["tolerance"] = args.tolerance
        reference_dir.mkdir(parents=True, exist_ok=True)
        path = reference_dir / "deviation_baseline.json"
        path.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
        print(f"deviation-trend: baseline for mode={mode} frozen -> {path}")

    baseline_for_mode = baseline.get("modes", {}).get(mode, {})
    violations, max_drift = gate_ratios(
        ratios, baseline_for_mode, tolerance=args.tolerance
    )

    row = {
        "rev": git_revision(REPO_ROOT),
        "mode": mode,
        "ratios": {k: round(v, 6) for k, v in ratios.items()},
        "max_drift": round(max_drift, 6) if baseline_for_mode else None,
        "gate_passed": not violations,
    }
    if not args.no_append:
        if append_trend_row(trend_path, row):
            print(f"deviation-trend: appended rev={row['rev']} mode={mode} -> {trend_path}")
        else:
            print(f"deviation-trend: {trend_path} already ends with this measurement")

    if not baseline_for_mode:
        print(
            f"deviation-trend: no baseline for mode={mode} under {reference_dir}/ "
            "- run with --update-baseline to freeze one"
        )
        return 0
    for violation in violations:
        print(f"deviation-trend: GATE - {violation}")
    if violations and not args.no_gate:
        return 1
    print(
        f"deviation-trend: gate passed - max drift {max_drift:.1%} of "
        f"{len(baseline_for_mode)} baseline ratios (tolerance {args.tolerance:.0%})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
