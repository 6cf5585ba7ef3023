"""Applies the committed sequence to a state machine.

One :class:`ReplicatedStateMachine` per validator consumes the
:class:`~repro.core.committer.CommitObservation` stream produced by
``try_commit`` and applies every transaction, in linearization order, to
its deterministic state machine.  Because commit sequences are prefix-
consistent across honest validators, state roots at equal applied
indexes are equal — the invariant the SMR tests assert.
"""

from __future__ import annotations

from ..core.committer import CommitObservation
from ..crypto.hashing import Digest
from ..statesync import digest_executor_state
from .state_machine import StateMachine


class ReplicatedStateMachine:
    """Executes committed transactions against a state machine."""

    def __init__(self, machine: StateMachine) -> None:
        self.machine = machine
        #: Number of transactions applied so far (the "applied index").
        self.applied_index = 0
        #: (applied index, state root) checkpoints, one per observation
        #: batch — replicas cross-check these.
        self.checkpoints: list[tuple[int, Digest]] = []

    def apply_observations(self, observations: list[CommitObservation]) -> int:
        """Apply every transaction in newly committed blocks.

        Returns:
            The number of transactions applied by this call.
        """
        applied = 0
        for observation in observations:
            for block in observation.linearized:
                for tx in block.transactions:
                    if not tx.payload:
                        continue  # benchmark filler transactions
                    self.machine.apply(tx.payload)
                    applied += 1
        if applied:
            self.applied_index += applied
            self.checkpoints.append((self.applied_index, self.machine.state_root()))
        return applied

    def state_root(self) -> Digest:
        """Current state root."""
        return self.machine.state_root()

    def state_summary(self) -> Digest:
        """The executor's contribution to a state-transfer checkpoint:
        a content digest of ``(applied index, state root)``
        (:func:`repro.statesync.digest_executor_state`).  Replicas with
        equal applied prefixes produce equal summaries, so ``2f + 1``
        matching summaries attest an executor state the same way
        matching commit chains attest a commit sequence."""
        return digest_executor_state(self.applied_index, self.machine.state_root())

    def common_prefix_roots(
        self, other: "ReplicatedStateMachine"
    ) -> list[tuple[int, Digest, Digest]]:
        """Checkpoints both replicas recorded at the same applied index
        — each pair of roots must match under Total Order."""
        theirs = dict(other.checkpoints)
        return [
            (index, root, theirs[index])
            for index, root in self.checkpoints
            if index in theirs
        ]
