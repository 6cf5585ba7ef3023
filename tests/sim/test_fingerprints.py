"""The three simulator workloads of the repo benchmark, byte for byte.

``benchmarks/perf`` hashes ``repr(result)`` of each ``sim-*`` run into a
fingerprint; a change to how the simulator does its work (not to what it
models) must leave all three where they are, ``events_processed``
included.  The configs are copied from
``benchmarks/perf/mmperf/workloads.py`` (``SimMahiN50``,
``SimMahiN10Faulty``, ``SimTuskN10``) at the benchmark's ``--seed 7``.
"""

import hashlib

import pytest

from repro.sim.runner import Experiment, ExperimentConfig

WORKLOADS = {
    "sim-mahi-n50": (
        dict(protocol="mahi-mahi-5", num_validators=50, load_tps=50_000, duration=2.0, warmup=0.4),
        "ee8d9d6d8230e430",
    ),
    "sim-mahi-n10-faulty": (
        dict(
            protocol="mahi-mahi-5",
            num_validators=10,
            num_crashed=2,
            num_recovering=1,
            recover_mode="checkpoint",
            gc_depth=64,
            checkpoint_interval=1,
            load_tps=50_000,
            duration=16.0,
            warmup=2.0,
        ),
        "e76e0117b27860b2",
    ),
    "sim-tusk-n10": (
        dict(protocol="tusk", num_validators=10, load_tps=50_000, duration=20.0, warmup=2.0),
        "90fba8c0c9ddbc74",
    ),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_fingerprint(workload):
    fields, fingerprint = WORKLOADS[workload]
    result = Experiment(ExperimentConfig(seed=7, **fields)).run(check_safety=False)
    assert hashlib.sha256(repr(result).encode()).hexdigest()[:16] == fingerprint
