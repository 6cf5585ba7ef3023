"""Reference numbers quoted in the paper's evaluation (Section 5,
Appendix D): what ``curve_checks.py`` orders the measured curves by and
what REPORT.md's deviation tables and ``deviation_trend.py`` divide
them by.  Values are the prose/figure numbers, not pixel-perfect curve
reads.
"""

from __future__ import annotations

import os

#: Figure 3, 10 validators, ideal conditions: peak throughput (tx/s) and
#: average latency (s) at moderate load, per the Section 5.2 prose.
FIG3_10_NODES = {
    "tusk": {"peak_tps": 125_000, "latency_s": 3.5},
    "cordial-miners": {"peak_tps": 130_000, "latency_s": 1.5},
    "mahi-mahi-5": {"peak_tps": 130_000, "latency_s": 1.1},
    "mahi-mahi-4": {"peak_tps": 130_000, "latency_s": 0.9},
}

#: Figure 3, 50 validators.
FIG3_50_NODES = {
    "tusk": {"peak_tps": 125_000, "latency_s": 3.5},
    "cordial-miners": {"peak_tps": 350_000, "latency_s": 2.6},
    "mahi-mahi-5": {"peak_tps": 350_000, "latency_s": 2.0},
    "mahi-mahi-4": {"peak_tps": 350_000, "latency_s": 1.5},
}

#: Figure 4, 10 validators with 3 crash faults.
FIG4_FAULTS = {
    "tusk": {"peak_tps": 37_500, "latency_s": 7.0},
    "cordial-miners": {"peak_tps": 37_500, "latency_s": 1.7},
    "mahi-mahi-5": {"peak_tps": 37_500, "latency_s": 0.95},
    "mahi-mahi-4": {"peak_tps": 37_500, "latency_s": 0.85},
}

#: Figures 5 and 7: going from 1 to 3 leaders cuts average latency by
#: ~40 ms (no faults) and ~100 ms (3 faults).
LEADER_SWEEP_IMPROVEMENT = {"ideal_ms": 40.0, "faulty_ms": 100.0}


def bench_scale() -> float:
    """Scale factor for benchmark durations.

    ``REPRO_BENCH_SCALE=3`` triples simulated durations (tighter
    confidence, longer wall time); CI keeps the default 1.
    """
    return float(os.environ.get("REPRO_BENCH_SCALE", "1"))
