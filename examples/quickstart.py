#!/usr/bin/env python3
"""Quickstart: four Mahi-Mahi validators committing transactions.

Drives four in-process validator cores in lockstep — no networking, no
simulation — to show the protocol's moving parts: proposals, the DAG,
the decision rules, and the resulting total order.

Run:  python examples/quickstart.py
"""

from repro import Committee, MahiMahiCore, ProtocolConfig, Transaction
from repro.crypto.coin import FastCoin


def main() -> None:
    # A committee of n = 4 validators tolerates f = 1 Byzantine fault.
    committee = Committee.of_size(4)
    config = ProtocolConfig(wave_length=5, leaders_per_round=2)
    coin = FastCoin(seed=b"quickstart", n=4, threshold=committee.quorum_threshold)
    validators = [MahiMahiCore(i, committee, config, coin) for i in range(4)]

    print(f"committee: n={committee.size}, f={committee.faults_tolerated}, "
          f"quorum={committee.quorum_threshold}")
    print(f"config: wave length {config.wave_length}, "
          f"{config.leaders_per_round} leader slots per round\n")

    # Drive 12 rounds: every validator proposes once per round and
    # receives everyone else's block ("lockstep" — the simulator and the
    # asyncio runtime replace this loop with a real network).  A core
    # hands each commit out once, from try_commit(), and keeps no
    # history: the sequences are collected here, as a host would.
    sequences = [[] for _ in validators]
    committed_txs = 0
    tx_id = 0
    for round_number in range(1, 13):
        blocks = []
        for validator in validators:
            tx_id += 1
            validator.add_transaction(Transaction.dummy(tx_id))
            block = validator.maybe_propose()
            if block is not None:
                blocks.append(block)
        for block in blocks:
            for validator in validators:
                if validator.authority != block.author:
                    validator.add_block(block)
        for validator, sequence in zip(validators, sequences):
            for observation in validator.try_commit():
                sequence.extend(b.digest for b in observation.linearized)
                if validator.authority == 0 and observation.linearized:
                    committed_txs += sum(len(b.transactions) for b in observation.linearized)
                    status = observation.status
                    print(
                        f"round {round_number:>2}: slot {status.slot} "
                        f"{'direct' if status.direct else 'indirect'}-committed, "
                        f"linearized {len(observation.linearized)} blocks"
                    )

    # Every validator reports the exact same committed sequence.
    assert all(s == sequences[0] for s in sequences), "total order violated!"
    print(f"\nall 4 validators agree on {len(sequences[0])} committed blocks "
          f"({committed_txs} transactions)")
    stats = validators[0].committer.stats
    print(f"decision mix: {stats.direct_commits} direct commits, "
          f"{stats.indirect_commits} indirect, "
          f"{stats.direct_skips + stats.indirect_skips} skips")


if __name__ == "__main__":
    main()
