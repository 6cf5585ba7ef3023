"""The validator driver, recovery and state transfer — one copy for both fabrics.

This package is transport-, clock- and coroutine-free.  It holds:

* :class:`~repro.statesync.driver.ValidatorDriver` — the validator step
  (ingest, paced proposing, commit, epoch exit, with the WAL records
  and trace instants of each) and the whole restart / re-sync state
  machine (cold, warm and checkpoint modes, the checkpoint tally and
  adoption, the chunked deep-fetch chain, pruned-history handling,
  fetch serving).  The simulator's
  :class:`~repro.sim.node.SimValidator` and the asyncio runtime's
  :class:`~repro.runtime.node.ValidatorNode` are adaptors implementing
  its four-method :class:`~repro.statesync.driver.ValidatorPort`; they
  own only timers, I/O and (in the simulator) the CPU model.
* :class:`~repro.statesync.synchronizer.Synchronizer` — the driver's
  table of shallow (per-reference) fetches: the sender is asked at once,
  a retry timer rotates over the other peers, and a reference that fell
  behind the garbage-collection horizon is given up.
* :mod:`~repro.statesync.recovery` — the helpers the driver is built
  from: the checkpoint-response tally, WAL replay, ancestor-closure
  serving.
* :mod:`~repro.statesync.checkpoint` — **checkpoints**: the committed
  frontier (round + block digests), a running digest of the commit
  sequence and the committee view, captured by the
  :class:`CommitLedger` at deterministic points of the commit-sequence
  walk, so every honest validator captures byte-identical ones
  (Theorem 1 makes the commit sequence itself identical).  A recovering
  validator that cannot refetch the DAG back to genesis (the history is
  behind its peers' garbage-collection horizon) adopts a
  quorum-attested checkpoint instead and deep-fetches only the suffix
  above it.  The SMR executor contributes its state digest via
  :func:`digest_executor_state`.
"""

from .checkpoint import (
    DEFAULT_CHECKPOINT_LAG,
    GENESIS_STATE,
    Checkpoint,
    CommitLedger,
    best_attested,
    chain_digest,
    digest_executor_state,
)
from .driver import RECOVER_MODES, ValidatorDriver, ValidatorPort
from .recovery import (
    SYNC_MAX_BLOCKS,
    CheckpointVotes,
    WalReplay,
    ancestor_closure,
    replay_wal,
)

__all__ = [
    "DEFAULT_CHECKPOINT_LAG",
    "GENESIS_STATE",
    "RECOVER_MODES",
    "SYNC_MAX_BLOCKS",
    "Checkpoint",
    "CheckpointVotes",
    "CommitLedger",
    "ValidatorDriver",
    "ValidatorPort",
    "WalReplay",
    "ancestor_closure",
    "best_attested",
    "chain_digest",
    "digest_executor_state",
    "replay_wal",
]
