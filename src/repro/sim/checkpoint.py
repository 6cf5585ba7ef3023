"""The simulator's cost model for a WAL replay.

Recovery itself — mode selection, the checkpoint tally and adoption,
WAL replay, the deep-fetch chain — is fabric-independent and lives in
:mod:`repro.statesync.driver` and :mod:`repro.statesync.recovery`;
:class:`~repro.sim.node.SimValidator` is one of its two adaptors.  What
only the simulator needs is a *price* for a warm restart's replay: it
is local work, so it is charged as consensus CPU time
(:func:`replay_cost`) rather than as network round trips.  The shared
replay names are re-exported here for existing importers.
"""

from __future__ import annotations

from ..statesync.recovery import CheckpointVotes, WalReplay, replay_wal

__all__ = [
    "CheckpointVotes",
    "WalReplay",
    "replay_wal",
    "replay_cost",
    "WAL_REPLAY_COST_FACTOR",
]

#: Fraction of the normal consensus CPU cost charged per replayed
#: block: replay skips signature verification (blocks were verified
#: before they were logged) and pays no deserialization-into-network
#: buffers, but still hashes and re-indexes every block.
WAL_REPLAY_COST_FACTOR = 0.25


def replay_cost(replay: WalReplay, cpu, tx_weight: float) -> float:
    """Simulated seconds of CPU the replay occupies (see
    :data:`WAL_REPLAY_COST_FACTOR`); 0 without a CPU model."""
    if cpu is None or not replay.blocks:
        return 0.0
    per_tx = cpu.tx_consensus_cost * tx_weight
    full = cpu.block_base_cost * replay.blocks + per_tx * replay.transactions
    return full * WAL_REPLAY_COST_FACTOR
