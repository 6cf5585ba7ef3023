"""A finished experiment is freed by reference counting.

While it runs, an experiment is a knot of reference cycles: validator
<-> driver port, validator <-> the network's delivery callbacks,
validators <-> the event heap, validators <-> the loop's arrival router,
validator -> restart factory -> experiment.  A dead n = 50 experiment is
~10 MB that used to wait for a full collection; ``Experiment.run()`` now
unties the knot on its way out, so dropping the last reference frees
everything at once — with nothing the caller must remember to call, and
with everything that is read after a run still readable.
"""

import gc
import weakref

import pytest

from repro.sim.faults import FaultEvent
from repro.sim.runner import Experiment, ExperimentConfig

#: ``benchmarks/perf/mmperf/workloads.py``'s ``sim-mahi-n50`` and
#: ``sim-mahi-n10-faulty`` fields (built the same way: seed + fields),
#: shortened; then every other source of a cycle the runner has.
CONFIGS = {
    "sim-mahi-n50": dict(
        protocol="mahi-mahi-5", num_validators=50, load_tps=50_000, duration=1.2, warmup=0.2
    ),
    "sim-mahi-n10-faulty": dict(
        protocol="mahi-mahi-5",
        num_validators=10,
        num_crashed=2,
        num_recovering=1,
        recover_mode="checkpoint",
        gc_depth=64,
        checkpoint_interval=1,
        load_tps=50_000,
        duration=8.0,
        warmup=1.0,
    ),
    "tusk": dict(protocol="tusk", num_validators=10, load_tps=5_000, duration=3.0, warmup=1.0),
    "warm restart (WAL)": dict(
        protocol="mahi-mahi-5",
        num_validators=10,
        num_recovering=1,
        recover_mode="warm",
        load_tps=2_000,
        duration=6.0,
        warmup=1.0,
    ),
    "leader DoS (scheduler closure)": dict(
        protocol="mahi-mahi-5",
        num_validators=10,
        load_tps=2_000,
        duration=3.0,
        warmup=1.0,
        leader_dos_slots=1,
        leader_dos_delay=0.2,
    ),
    "epoch reconfiguration (schedule listener, fault events)": dict(
        protocol="mahi-mahi-5",
        num_validators=10,
        load_tps=2_000,
        duration=6.0,
        warmup=1.0,
        fault_schedule=(FaultEvent(time=1.0, validator=9, kind="join"),),
    ),
}


@pytest.mark.parametrize("name", CONFIGS)
def test_finished_experiment_is_freed_when_dropped(name):
    gc.collect()
    gc.disable()
    try:
        experiment = Experiment(ExperimentConfig(seed=7, **CONFIGS[name]))
        result = experiment.run(check_safety=False)
        # What the benchmark, the sweeps and the tests read after a run.
        experiment.assert_safety()
        assert sum(node.core.total_proposed for node in experiment.nodes) > 0
        assert result.blocks_committed > 0
        observer = experiment.nodes[0]
        assert observer.core.committer.ledger.sequence_length and not observer.down
        assert observer.checkpoint_adoptions == 0 and observer.blocks_rejected == 0
        assert len(experiment.tracer) == 0
        if name == "sim-mahi-n10-faulty":
            assert result.checkpoint_adoptions == 1
        if name.startswith("epoch"):
            assert result.epoch_transitions == 1
        # The validator, network and router classes are slotted (no
        # weak references): an object only they hold stands for each.
        held = [
            weakref.ref(target)
            for target in (
                experiment,
                observer.core,
                experiment.nodes[-1].core.store,
                observer.core.store.round_blocks(1)[0],
                observer._driver,
                observer.behavior,
                experiment._network._rng,
                experiment._router._clients[0].rng,
            )
        ]
        del experiment, observer
        assert [ref() for ref in held] == [None] * len(held)
        # The result owns nothing of the deployment.
        assert result.config.seed == 7 and result.summary()
    finally:
        gc.enable()
