"""Analytical models (Appendices C and D) and results reporting.

* :mod:`repro.analysis.commit_probability` — closed-form direct-commit
  probabilities (Lemmas 13 and 16) and the random-network vote bound
  (Lemma 17), with Monte-Carlo checks;
* :mod:`repro.analysis.latency_model` — expected commit latency in
  message delays for Mahi-Mahi, Cordial Miners and Tusk, used to sanity-
  check the simulator's output;
* :mod:`repro.analysis.plotting` — dependency-free SVG line charts
  (log/linear axes, legends, fixed colorblind-validated palette);
* :mod:`repro.analysis.report` — loads ``results/*.json`` sweep
  summaries, renders one figure per paper figure id, and emits the
  ``results/REPORT.md`` reproduction report.
"""

from .commit_probability import (
    direct_commit_probability_w4,
    direct_commit_probability_w5,
    monte_carlo_direct_commit_w5,
    unreachable_pair_bound,
)
from .latency_model import expected_commit_delays, LatencyModelResult
from .plotting import Panel, Series, render_figure
from .report import DeviationRow, LoadedSweep, ReportError, SweepPoint, generate_report

__all__ = [
    "direct_commit_probability_w5",
    "direct_commit_probability_w4",
    "monte_carlo_direct_commit_w5",
    "unreachable_pair_bound",
    "expected_commit_delays",
    "LatencyModelResult",
    "Panel",
    "Series",
    "render_figure",
    "DeviationRow",
    "LoadedSweep",
    "ReportError",
    "SweepPoint",
    "generate_report",
]
