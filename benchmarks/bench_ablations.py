"""Ablations of Mahi-Mahi's design choices (DESIGN.md inventory).

Not paper figures, but quantifications of the decisions the paper
argues for in prose:

* **wave length 3 vs 4 vs 5** — w=3 stays safe but loses the common-core
  guarantee (Appendix C.3 note): under an active asynchronous adversary
  its direct-commit rate collapses, while w=4/5 keep committing;
* **direct skip on vs off** — the rule behind claim C3: disabling it
  turns crashed leaders into head-of-line blockers;
* **one wave per round vs non-overlapping waves** — Mahi-Mahi's
  overlapping waves vs the Cordial-Miners-style cadence.

The ablation points are declared as data (``SWEEPS``) for
``run_all.py``; each claim is a rule over the group of points that
differ only in the ablated field (``curve_checks.
check_mechanism_curves``; the overlapping-waves pair differs only in
protocol, so it is ``check_curve_shapes``).
"""

from __future__ import annotations

from repro.sim.runner import ExperimentConfig
from repro.sim.sweep import FigureSpec, SweepSpec

from .paper_data import bench_scale

_SCALE = bench_scale()


def _config(**overrides) -> ExperimentConfig:
    base = dict(
        protocol="mahi-mahi-5",
        num_validators=10,
        load_tps=5_000,
        duration=14.0 * _SCALE,
        warmup=4.0 * _SCALE,
        seed=17,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


SWEEP_WAVE_LENGTH = SweepSpec(
    name="ablation-wave-length",
    figure=FigureSpec(
        figure="ablation",
        title="Ablation: wave length under asynchronous adversary",
        x_axis="wave_length_override",
        y_axis="blocks_committed",
        series_key="protocol",
        x_label="Wave length (rounds)",
        y_label="Blocks committed",
    ),
    configs=tuple(
        _config(wave_length_override=wave, adversary_targets=3, adversary_delay=0.4)
        for wave in (3, 4, 5)
    ),
)

SWEEP_DIRECT_SKIP = SweepSpec(
    name="ablation-direct-skip",
    figure=FigureSpec(
        figure="ablation",
        title="Ablation: direct skip rule (3 crash faults)",
        x_axis="direct_skip",
        series_key="num_crashed",
        x_label="Direct skip rule",
        y_label="Average commit latency (s)",
        series_label="{} crash faults",
    ),
    configs=(
        _config(num_crashed=3),
        _config(num_crashed=3, direct_skip=False),
    ),
)

SWEEP_OVERLAPPING_WAVES = SweepSpec(
    name="ablation-overlapping-waves",
    figure=FigureSpec(
        figure="ablation",
        title="Ablation: overlapping waves vs one wave per 5 rounds",
        x_label="Offered load (tx/s)",
        y_label="Average commit latency (s)",
    ),
    configs=(
        _config(),
        _config(protocol="cordial-miners"),
    ),
)

SWEEPS = (SWEEP_WAVE_LENGTH, SWEEP_DIRECT_SKIP, SWEEP_OVERLAPPING_WAVES)
