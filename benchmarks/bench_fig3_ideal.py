"""Figure 3: throughput-latency under ideal conditions.

Reproduces the comparative WAN measurement of Mahi-Mahi-5, Mahi-Mahi-4,
Cordial Miners and Tusk with 10 and 50 validators, no faults, 512-byte
transactions (Section 5.2; claims C1, C2 and C5).

The sweeps are declared as data (``SWEEPS``); ``run_all.py`` runs them
and ``curve_checks.check_curve_shapes`` holds every group of points that
differ only in protocol to the paper's latency ordering (Mahi-Mahi-4 <
Mahi-Mahi-5 < Cordial Miners < Tusk).  Absolute tx/s differ from the
paper's Rust-on-AWS testbed; the reproduction targets are the latency
ordering, the ratios between protocols, and the position of the
saturation knee (REPORT.md's deviation tables print measured vs paper).
"""

from __future__ import annotations

from repro.sim.runner import ExperimentConfig, PROTOCOLS
from repro.sim.sweep import FigureSpec, SweepSpec

from .paper_data import bench_scale

#: Offered loads for the 10-validator sweep (real tx/s).
LOADS_10 = [20_000, 60_000, 100_000, 130_000]

_SCALE = bench_scale()

SWEEP_10 = SweepSpec(
    name="fig3-ideal-10",
    figure=FigureSpec(
        figure="3",
        title="Figure 3: 10 validators, ideal conditions",
        x_label="Offered load (tx/s)",
        y_label="Average commit latency (s)",
    ),
    configs=tuple(
        ExperimentConfig(
            protocol=protocol,
            num_validators=10,
            load_tps=load,
            duration=20.0 * _SCALE,
            warmup=5.0 * _SCALE,
            seed=3,
        )
        for protocol in PROTOCOLS
        for load in LOADS_10
    ),
)

SWEEP_50 = SweepSpec(
    name="fig3-ideal-50",
    figure=FigureSpec(
        figure="3",
        title="Figure 3: 50 validators, ideal conditions",
        x_label="Offered load (tx/s)",
        y_label="Average commit latency (s)",
    ),
    configs=tuple(
        ExperimentConfig(
            protocol=protocol,
            num_validators=50,
            load_tps=200_000 if protocol != "tusk" else 80_000,
            duration=8.0 * _SCALE,
            warmup=3.0 * _SCALE,
            seed=3,
        )
        for protocol in PROTOCOLS
    ),
)

SWEEP_ORDERING = SweepSpec(
    name="fig3-ordering-10",
    figure=FigureSpec(
        figure="3",
        title="Figure 3 ordering: 10 validators @ 20k tx/s",
        x_label="Offered load (tx/s)",
        y_label="Average commit latency (s)",
    ),
    configs=tuple(
        ExperimentConfig(
            protocol=protocol,
            num_validators=10,
            load_tps=20_000,
            duration=14.0 * _SCALE,
            warmup=4.0 * _SCALE,
            seed=3,
        )
        for protocol in PROTOCOLS
    ),
)

SWEEPS = (SWEEP_10, SWEEP_50, SWEEP_ORDERING)
