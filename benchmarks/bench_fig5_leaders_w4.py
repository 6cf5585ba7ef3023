"""Figure 5: impact of the number of leader slots per round (wave 4).

Mahi-Mahi-4 with 1, 2 and 3 leaders per round, 10 validators, zero and
three crash faults (Section 5.4; claim C4).  The paper reports latency
dropping by ~40 ms (ideal) and ~100 ms (faulty) going from 1 to 3
leaders, with no further gain beyond 3.

The sweeps are declared as data (``SWEEPS``) for ``run_all.py``;
``bench_fig7_leaders_w5`` reuses the builder for the wave-5 variant, and
``curve_checks.check_mechanism_curves`` holds every group of points that
differ only in ``leaders_per_round`` to "more slots never hurt".
"""

from __future__ import annotations

from repro.sim.runner import ExperimentConfig
from repro.sim.sweep import FigureSpec, SweepSpec

from .paper_data import bench_scale

WAVE_PROTOCOL = "mahi-mahi-4"
LEADERS = (1, 2, 3)


def leader_sweep_spec(figure: str, protocol: str, num_crashed: int, seed: int = 7) -> SweepSpec:
    """The leader-slot sweep for one protocol/fault combination."""
    scale = bench_scale()
    label = f"{num_crashed}-faults" if num_crashed else "ideal"
    return SweepSpec(
        name=f"fig{figure}-leaders-{protocol}-{label}",
        figure=FigureSpec(
            figure=figure,
            title=f"Figure {figure}: leader slots per round ({protocol}, {label})",
            x_axis="leaders_per_round",
            series_key="num_crashed",
            x_label="Leader slots per round",
            y_label="Average commit latency (s)",
            series_label="{} crash faults",
        ),
        configs=tuple(
            ExperimentConfig(
                protocol=protocol,
                num_validators=10,
                leaders_per_round=leaders,
                num_crashed=num_crashed,
                load_tps=20_000,
                duration=14.0 * scale,
                warmup=4.0 * scale,
                seed=seed,
            )
            for leaders in LEADERS
        ),
    )


SWEEPS = (
    leader_sweep_spec("5", WAVE_PROTOCOL, 0),
    leader_sweep_spec("5", WAVE_PROTOCOL, 3),
)
