"""Randomized adversary-scenario safety fuzzing.

Each case derives a full scenario — protocol, committee size, network
mode, and a fault schedule mixing equivocation campaigns, crash/recover
cycles, partitions (dropped or degraded, healed or not), stragglers and
leader DoS — from a single integer seed, runs a short simulation, and
asserts the Total Order property through the experiment's own check:
every validator's commits are compared, at their position in the global
sequence, as they happen — a campaigning validator's up to its campaign
— and nothing is committed twice.  The
generator is valid-by-construction: budget-consuming roles (campaigns +
crashes) never exceed ``f``, partition groups stay at most ``f`` wide,
each validator plays at most one role, and validator 0 is never faulted
so an honest full-ledger reference always exists.

Liveness is deliberately *not* asserted per case — some draws stack a
partition on top of ``f`` crashes and legitimately stall until heal.
The suite instead checks that commits happen across the seed corpus as
a whole.

On failure the offending seed is in the pytest parametrize id and in
every assertion message: reproduce with
``pytest "tests/sim/test_scenario_fuzz.py::test_randomized_scenario_is_safe[<seed>]"``.

Runtime is CI-capped: 3-second simulated runs at light load, ~50 cases.
"""

import random

import pytest

from repro.sim.faults import FaultEvent
from repro.sim.runner import Experiment, ExperimentConfig

NUM_SEEDS = 50
DURATION = 3.0
WARMUP = 1.0


def build_scenario(seed: int) -> ExperimentConfig:
    """Derive a valid scenario config from ``seed`` alone."""
    rng = random.Random(("scenario-fuzz", seed).__repr__())
    num_validators = rng.choice((7, 10))
    f = (num_validators - 1) // 3
    pool = list(range(1, num_validators))  # validator 0 stays clean
    rng.shuffle(pool)
    events: list[FaultEvent] = []

    def window():
        start = rng.uniform(0.3, 1.8)
        return start, start + rng.uniform(0.4, 1.0)

    # Budget-consuming roles: equivocation campaigns and crashes share
    # the f slots; distinct validators per role keep per-validator event
    # ordering trivially valid even when every window overlaps.
    budget = rng.randint(0, f)
    campaigns = rng.randint(0, budget)
    for _ in range(campaigns):
        validator = pool.pop()
        start, stop = window()
        events.append(FaultEvent(start, validator, "equivocate"))
        if rng.random() < 0.7:
            events.append(FaultEvent(stop, validator, "desist"))
    for _ in range(budget - campaigns):
        validator = pool.pop()
        start, stop = window()
        events.append(FaultEvent(start, validator, "crash"))
        if rng.random() < 0.7:
            events.append(FaultEvent(stop, validator, "recover"))

    # A partition of at most f validators; cross links dropped or
    # degraded; sometimes never healed.
    if pool and rng.random() < 0.6:
        width = rng.randint(1, min(f, len(pool)))
        members = [pool.pop() for _ in range(width)]
        start = rng.uniform(0.3, 1.5)
        cross_delay = rng.choice((0.0, 0.0, 0.3))
        for validator in members:
            events.append(
                FaultEvent(start, validator, "partition", group="cut", scale=cross_delay)
            )
        if rng.random() < 0.7:
            heal_at = start + rng.uniform(0.4, 1.2)
            for validator in members:
                events.append(FaultEvent(heal_at, validator, "heal"))

    if pool and rng.random() < 0.5:
        events.append(
            FaultEvent(
                rng.uniform(0.2, 1.0),
                pool.pop(),
                "straggle",
                scale=rng.choice((5.0, 25.0, 200.0)),
            )
        )

    kwargs = dict(
        protocol=rng.choice(("mahi-mahi-5", "mahi-mahi-4")),
        num_validators=num_validators,
        load_tps=float(rng.choice((500, 1_000))),
        duration=DURATION,
        warmup=WARMUP,
        fault_schedule=tuple(sorted(events, key=lambda e: e.time)),
        seed=seed,
    )
    network_mode = rng.random()
    if network_mode < 0.25:
        kwargs["wan_matrix"] = rng.choice(("metro-3", "paper-5"))
    elif network_mode < 0.45:
        kwargs["leader_dos_slots"] = 1
        kwargs["leader_dos_delay"] = rng.choice((0.1, 0.4))
    elif network_mode < 0.60:
        kwargs["adversary_targets"] = rng.randint(1, f)
        kwargs["adversary_delay"] = 0.2
    return ExperimentConfig(**kwargs)


def _describe(config: ExperimentConfig) -> str:
    schedule = ", ".join(
        f"{e.time:.2f}s v{e.validator} {e.kind}"
        + (f"[{e.group}]" if e.group else "")
        + (f" x{e.scale:g}" if e.scale else "")
        for e in config.fault_schedule
    ) or "clean"
    return (
        f"{config.protocol} n={config.num_validators} "
        f"wan={config.wan_matrix or '-'} dos={config.leader_dos_slots} "
        f"adv={config.adversary_targets} schedule: {schedule}"
    )


@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_randomized_scenario_is_safe(seed):
    config = build_scenario(seed)
    context = f"seed {seed}: {_describe(config)}"
    experiment = Experiment(config)
    try:
        experiment.run()  # raises the first divergence the run recorded
    except Exception as error:
        raise AssertionError(f"{context}: {error!r}") from error
    # The reference every validator was checked against: each block once.
    reference = experiment._total_order.sequence
    assert len(set(reference)) == len(reference), f"{context}: duplicate commit"


def test_corpus_generates_every_scenario_kind():
    """The 50-seed corpus must actually exercise each adversary lever —
    a drift in the generator that silently drops a scenario class would
    hollow the suite out."""
    configs = [build_scenario(seed) for seed in range(NUM_SEEDS)]
    kinds = {e.kind for c in configs for e in c.fault_schedule}
    assert {"equivocate", "crash", "partition", "heal", "straggle"} <= kinds
    assert any(c.wan_matrix for c in configs)
    assert any(c.leader_dos_slots for c in configs)
    assert any(c.adversary_targets for c in configs)
    assert any(
        e.kind == "partition" and e.scale > 0
        for c in configs
        for e in c.fault_schedule
    )
    # Some partitions never heal.
    assert any(
        any(e.kind == "partition" for e in c.fault_schedule)
        and not any(e.kind == "heal" for e in c.fault_schedule)
        for c in configs
    )


def test_corpus_commits_somewhere():
    """Liveness across the corpus: scenario seeds 0..4 include runs that
    commit post-warmup (individual draws may legitimately stall)."""
    assert any(
        Experiment(build_scenario(seed)).run().blocks_committed > 0
        for seed in range(5)
    )


def test_generator_is_deterministic():
    a, b = build_scenario(17), build_scenario(17)
    assert a == b
    assert build_scenario(18) != a
