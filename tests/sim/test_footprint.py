"""A validator's footprint is its window, not its history.

Garbage collection keeps ``gc_depth`` rounds behind the commit frontier,
and the frontier trails the DAG's top by a few waves, so everything a
validator holds is bounded by ``n x (gc_depth + 3 x wave_length)``
blocks, whatever the run length.  Each leg here runs one small
deployment (n = 4, ``gc_depth = 8``) for ten times the few virtual
seconds most simulator tests run, and every time the observer finalizes
a new round (after that step) it checks, against that bound:

* the ``Block`` objects alive in the whole process (every validator's
  DAG, in-flight messages, buffers and commit records together; one
  window more where a crashed validator still holds its old one);
* each validator's DAG, its committer's already-linearized digest set,
  its synchronizer's fetch table and — Tusk — its header table;
* the buffers a block passes on its way in: the core's blocks waiting on
  a parent, the index of what they wait on, the DAG tips, and the
  observer's wire-arrival stamps.

A structure that keeps what the validator committed, or what it ever
saw, grows past the bound within the first tenth of the run.
"""

import weakref

import pytest

from repro.block import Block
from repro.sim.faults import FaultEvent
from repro.sim.node import SimValidator
from repro.sim.runner import Experiment, ExperimentConfig

N = 4
GC_DEPTH = 8
DURATION = 40.0

LEGS = {
    "mahi-mahi-5": dict(protocol="mahi-mahi-5"),
    "cordial-miners": dict(protocol="cordial-miners"),
    "tusk": dict(protocol="tusk"),
    "checkpoint-recovery": dict(
        protocol="mahi-mahi-5",
        recover_mode="checkpoint",
        checkpoint_interval=4,
        fault_schedule=(FaultEvent(8.0, 3, "crash"), FaultEvent(12.0, 3, "recover")),
    ),
}


@pytest.mark.parametrize("leg", LEGS)
def test_footprint_follows_the_gc_window(leg, monkeypatch):
    live: list[weakref.ref] = []
    init = Block.__init__

    def tracked_init(block, *args, **kwargs):
        init(block, *args, **kwargs)
        live.append(weakref.ref(block))

    monkeypatch.setattr(Block, "__init__", tracked_init)
    experiment = Experiment(
        ExperimentConfig(
            num_validators=N,
            gc_depth=GC_DEPTH,
            load_tps=200.0,
            duration=DURATION,
            warmup=1.0,
            seed=3,
            **LEGS[leg],
        )
    )
    wave_length = experiment.nodes[0].core.config.wave_length
    window = N * (GC_DEPTH + 3 * wave_length)
    # A crashed validator keeps the window it had when it went down.
    live_bound = window * (2 if experiment.config.fault_schedule else 1)
    checked = [0]
    step = SimValidator._step

    def check(now_finalized: int) -> None:
        live[:] = [ref for ref in live if ref() is not None]
        alive = len(live)
        assert alive <= live_bound, f"{alive} live blocks at round {now_finalized}"
        for node in experiment.nodes:
            core = node.core
            where = f"validator {node.authority} at round {now_finalized}"
            assert len(core.store) <= window, where
            assert len(core.committer._output) <= window, where
            assert node._driver.synchronizer.missing <= window, where
            assert len(node._headers) <= window, where
            # The insertion path's buffers: blocks waiting on a parent,
            # the reverse index to them, the DAG tips, and the
            # observer's wire-arrival stamps.
            assert len(core._pending) <= window, where
            assert len(core._waiting_on) <= window, where
            assert len(core._tips) <= window, where
            assert len(node._arrivals) <= window, where
        checked.append(now_finalized)

    def checked_step(node):
        step(node)
        if node.authority == 0:
            finalized = node.core.committer.last_finalized_round
            if finalized > checked[-1]:
                check(finalized)

    monkeypatch.setattr(SimValidator, "_step", checked_step)
    result = experiment.run()
    # The run outlived its window five times over, and was checked all along.
    assert result.rounds_reached > 5 * (GC_DEPTH + 3 * wave_length)
    assert len(checked) > 20
    if experiment.config.fault_schedule:
        assert result.checkpoint_adoptions == 1
