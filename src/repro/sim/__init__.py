"""Deterministic discrete-event WAN simulation.

This package replaces the paper's AWS testbed (Section 5.1): validators
exchange blocks over a simulated network with the geo-latency profile of
the paper's five regions, open-loop clients inject load, and the
experiment harness sweeps load to produce the throughput/latency curves
of Figures 3-5 and 7.  :mod:`repro.sim.faults` replays per-validator
``crash``/``recover``/``join``/``leave`` schedules for the recovery and
reconfiguration workloads; :mod:`repro.sim.sweep` executes whole figure
sweeps in parallel with a content-addressed, resumable point cache.

Everything is seeded and event-ordered, so experiments replay
bit-identically.
"""

from .costs import CostModel
from .events import EventLoop
from .latency import LatencyModel, UniformLatencyModel, PAPER_REGIONS
from .network import SimNetwork
from .node import SimValidator
from .metrics import ExperimentMetrics, LatencySummary
from .runner import Experiment, ExperimentConfig, ExperimentResult, PROTOCOLS
from .sweep import (
    FigureSpec,
    ResultsStore,
    SweepOutcome,
    SweepSpec,
    config_hash,
    run_sweep,
    smoke_config,
)

__all__ = [
    "FigureSpec",
    "ResultsStore",
    "SweepOutcome",
    "SweepSpec",
    "config_hash",
    "run_sweep",
    "smoke_config",
    "EventLoop",
    "LatencyModel",
    "UniformLatencyModel",
    "PAPER_REGIONS",
    "CostModel",
    "SimNetwork",
    "SimValidator",
    "ExperimentMetrics",
    "LatencySummary",
    "Experiment",
    "ExperimentConfig",
    "ExperimentResult",
    "PROTOCOLS",
]
