"""Figure 4: performance under crash faults.

10 validators, 3 crashed (the maximum f for this committee), load sweep
(Section 5.3; claim C3).  The reproduction targets: Mahi-Mahi's direct
skip rule holds its latency near the ideal case, Cordial Miners pays
roughly two extra rounds per dead leader, and Tusk degrades the most.

The sweeps are declared as data (``SWEEPS``) for ``run_all.py``; the
claim's mechanism — Mahi-Mahi skips dead leaders directly, Cordial
Miners only through later anchors — is ``curve_checks.
check_mechanism_curves``, its latency side ``check_curve_shapes``.
"""

from __future__ import annotations

from repro.sim.runner import ExperimentConfig, PROTOCOLS
from repro.sim.sweep import FigureSpec, SweepSpec

LOADS = [10_000, 30_000]


SWEEP_FAULTS = SweepSpec(
    name="fig4-faults-10",
    figure=FigureSpec(
        figure="4",
        title="Figure 4: 10 validators, 3 crash faults",
        x_label="Offered load (tx/s)",
        y_label="Average commit latency (s)",
    ),
    configs=tuple(
        ExperimentConfig(
            protocol=protocol,
            num_validators=10,
            num_crashed=3,
            load_tps=load,
            duration=12.0,
            warmup=4.0,
            seed=5,
        )
        for protocol in PROTOCOLS
        for load in LOADS
    ),
)

SWEEP_SKIP_MECHANISM = SweepSpec(
    name="fig4-skip-mechanism",
    figure=FigureSpec(
        figure="4",
        title="Figure 4 mechanism: direct skips vs anchors",
        x_label="Offered load (tx/s)",
        y_label="Average commit latency (s)",
    ),
    configs=tuple(
        ExperimentConfig(
            protocol=protocol,
            num_validators=10,
            num_crashed=3,
            load_tps=10_000,
            duration=14.0,
            warmup=4.0,
            seed=5,
        )
        for protocol in ("mahi-mahi-5", "cordial-miners")
    ),
)

SWEEPS = (SWEEP_FAULTS, SWEEP_SKIP_MECHANISM)
