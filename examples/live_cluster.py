#!/usr/bin/env python3
"""A live asyncio cluster: real sockets, real signatures, real WAL.

Starts four networked validators in this process (length-prefixed TCP on
localhost, like the paper's raw-TCP Rust validator), submits client
transactions, waits for commits, and prints per-transaction latency.

Run:  python examples/live_cluster.py
"""

import asyncio
import tempfile
import time

from repro.config import ProtocolConfig
from repro.runtime import LocalCluster
from repro.transaction import Transaction


async def main() -> None:
    with tempfile.TemporaryDirectory() as wal_dir:
        cluster = LocalCluster(
            n=4,
            config=ProtocolConfig(wave_length=5, leaders_per_round=2),
            transport="tcp",
            base_port=29210,
            wal_dir=wal_dir,
            min_block_interval=0.02,
        )
        async with cluster:
            print("4 validators listening on 127.0.0.1:29210-29213, "
                  f"WALs in {wal_dir}\n")

            latencies = []
            for i in range(10):
                tx_id = i + 1
                submitted = time.perf_counter()
                cluster.submit(Transaction.dummy(tx_id), validator=i % 4)
                await cluster.wait_for_transaction(tx_id, timeout=30)
                latency = time.perf_counter() - submitted
                latencies.append(latency)
                print(f"tx {tx_id:>2} submitted to validator {i % 4} -> "
                      f"committed in {latency * 1000:6.1f} ms")

            print(f"\navg commit latency: "
                  f"{sum(latencies) / len(latencies) * 1000:.1f} ms "
                  "(localhost loopback; WAN adds the paper's geo delays)")

        # Leaving the block checks Theorem 1 too: every validator's
        # committed sequence agrees at each global commit index.
        covered = cluster.assert_consistent_prefixes()
        print(f"all validators agree on the {covered} committed blocks")


if __name__ == "__main__":
    asyncio.run(main())
