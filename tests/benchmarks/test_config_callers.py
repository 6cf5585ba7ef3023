"""No config field without a caller.

Every ``ExperimentConfig`` field doubles the configuration space the
tests and gates must cover, so each one must be set to a non-default
value by at least one declared sweep.  The exemptions below are fields
whose only callers live outside the sweeps; each names them.
"""

from __future__ import annotations

import dataclasses

from benchmarks.run_all import discover_sweeps
from repro.sim.runner import ExperimentConfig

#: Fields no sweep sets, and who does.
EXEMPT = {
    "trace": "the driver's --trace point (run_all.run_traced_point)",
    "num_equivocators": "examples/byzantine_equivocation.py (run by tests/test_examples.py)",
    "uniform_delay": "the message-delay arithmetic tests, e.g. "
    "test_uniform_delay_latency_tracks_message_delays",
    "model_cpu": "the message-delay arithmetic tests",
    "block_interval": "the message-delay arithmetic tests",
}


def test_every_field_is_set_by_a_sweep():
    defaults = ExperimentConfig()
    configs = [config for sweep in discover_sweeps() for config in sweep.configs]
    uncalled = [
        field.name
        for field in dataclasses.fields(ExperimentConfig)
        if field.name not in EXEMPT
        and all(getattr(c, field.name) == getattr(defaults, field.name) for c in configs)
    ]
    assert uncalled == [], f"no sweep sets {uncalled}: delete them or give them a caller"


def test_exemptions_are_fields():
    assert set(EXEMPT) <= {field.name for field in dataclasses.fields(ExperimentConfig)}
