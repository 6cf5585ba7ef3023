"""The three simulator workloads of the repo benchmark, byte for byte.

``benchmarks/perf`` hashes ``repr(result)`` of each ``sim-*`` run into a
fingerprint.  Each workload is pinned twice: that hash, and the hash with
``events_processed`` set aside.  A change to how the simulator does its
work (not to what it models) may move the event count alone: it re-pins
the first column and visibly leaves the second where it is.  The configs
are copied from ``benchmarks/perf/mmperf/workloads.py`` (``SimMahiN50``,
``SimMahiN10Faulty``, ``SimTuskN10``) at the benchmark's ``--seed 7``.  The
result's repr carries its config, so a change to the config's fields
moves both columns: re-pin them with every ``result_to_dict`` field
shown equal.
"""

import pytest

from repro.sim.runner import Experiment, ExperimentConfig
from tests.helpers import masked_result_hash, result_hash

WORKLOADS = {
    "sim-mahi-n50": (
        dict(protocol="mahi-mahi-5", num_validators=50, load_tps=50_000, duration=2.0, warmup=0.4),
        ("6e5a8a0f211cfc69", "47a4090e7c3bf16c"),
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
        ("33d2bc5212dafe32", "fa94ce1b5bbfe3b2"),
    ),
    "sim-tusk-n10": (
        dict(protocol="tusk", num_validators=10, load_tps=50_000, duration=20.0, warmup=2.0),
        ("ab0c3da4556e558d", "fdf170fb529c90da"),
    ),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_fingerprint(workload):
    fields, pins = WORKLOADS[workload]
    result = Experiment(ExperimentConfig(seed=7, **fields)).run(check_safety=False)
    assert (result_hash(result), masked_result_hash(result)) == pins
