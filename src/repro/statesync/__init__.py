"""State synchronization: checkpoints and state transfer.

Validators periodically capture a **checkpoint** of their committed
state — the committed frontier (round + block digests), a running
digest of the commit sequence, and the committee view — at
deterministic points of the commit-sequence walk, so every honest
validator captures byte-identical checkpoints (Theorem 1 makes the
commit sequence itself identical).  A recovering validator that cannot
refetch the DAG back to genesis (the needed history is behind its
peers' garbage-collection horizon) adopts a quorum-attested checkpoint
instead and deep-fetches only the suffix above it.

This package is transport-, clock- and coroutine-free, and holds the
**one** validator driver both fabrics run:
:class:`~repro.statesync.driver.ValidatorDriver` is the validator step
(ingest, paced proposing, commit, epoch exit) and the whole restart /
re-sync state machine (cold, warm and checkpoint modes, the checkpoint
tally and adoption, the chunked deep-fetch chain, pruned-history
handling, fetch serving).
The simulator (:class:`repro.sim.node.SimValidator`, ``ckpt_req``/
``ckpt_resp``/``fetch_req``/``sync_resp`` events) and the asyncio
runtime (:class:`repro.runtime.node.ValidatorNode`, the equivalent wire
messages) are adaptors implementing its
:class:`~repro.statesync.driver.ValidatorPort`.  The helpers the driver
is built from — the response tally, WAL replay, ancestor-closure
serving — live in :mod:`repro.statesync.recovery`, and the SMR executor
contributes its state digest via :func:`digest_executor_state`.
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
