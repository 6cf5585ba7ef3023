"""Appendix C: the simulated direct-commit rate (Lemma 17).

In the benign simulated network nearly every slot decides via the direct
rule — Lemma 17's with-high-probability claim for the random network
model.  The point is declared as data (``SWEEPS``) for ``run_all.py``;
``curve_checks.check_mechanism_curves`` holds it, and every other
fault-free Mahi-Mahi point, to a direct-commit fraction above 0.9.  The
closed forms of Lemmas 13, 16 and 17 are checked against Monte-Carlo
sampling in ``tests/analysis/test_commit_probability.py``.
"""

from __future__ import annotations

from repro.sim.runner import ExperimentConfig
from repro.sim.sweep import FigureSpec, SweepSpec

SWEEP_DIRECT_RATE = SweepSpec(
    name="appendix-c-direct-rate",
    figure=FigureSpec(
        figure="appendix-c",
        title="Simulated direct-commit rate vs Lemma 17 (benign network)",
        y_axis="direct_commits",
        x_label="Offered load (tx/s)",
        y_label="Directly committed slots",
    ),
    configs=(
        ExperimentConfig(
            protocol="mahi-mahi-5",
            num_validators=10,
            load_tps=5_000,
            duration=12.0,
            warmup=3.0,
            seed=11,
        ),
    ),
)

SWEEPS = (SWEEP_DIRECT_RATE,)
