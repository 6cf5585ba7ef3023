"""Protocol configuration for Mahi-Mahi and the baseline protocols.

The paper parameterizes Mahi-Mahi along two axes (Sections 3 and 5):

* ``wave_length`` — the number of rounds in a wave.  The paper evaluates
  5-round waves (Propose, Boost, Boost, Vote, Certify) and 4-round waves
  (one Boost round removed).  A 3-round wave is safe but not live
  (Appendix C.3 note); it is permitted here for experimentation and the
  safety test-suite exercises it.
* ``leaders_per_round`` — the number of leader slots elected per round
  by the common coin (Section 3.1; Section 5.4 explores 1-3).

The remaining knobs bound resource usage and do not affect the decision
rules.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ConfigError

#: Wave lengths the paper analyzes (liveness needs at least 4,
#: Appendix C.3).
MIN_WAVE_LENGTH = 3
MAX_WAVE_LENGTH = 16


@dataclass(frozen=True)
class ProtocolConfig:
    """Static parameters shared by every validator in a deployment.

    Attributes:
        wave_length: Rounds per wave; 4 or 5 in the paper's evaluation.
        leaders_per_round: Leader slots elected per round (>= 1).
        max_block_transactions: Cap on transactions carried per block.
        garbage_collection_depth: Rounds of history retained behind the
            last committed round before the DAG store may prune (0 keeps
            everything; useful for long simulations).
        checkpoint_interval_rounds: Capture a state-transfer checkpoint
            (:mod:`repro.statesync`) every this many finalized rounds
            (0 disables capture).  Must not exceed the GC depth when
            both are set, or a freshly captured checkpoint could already
            sit behind a peer's pruning horizon.
        reconfig_activation_lag: Rounds between a reconfiguration
            command finalizing in the commit walk and its epoch
            activating (0 disables reconfiguration entirely — the commit
            walk then never scans transactions for commands).  Any lag
            >= 1 is safe: activation always lands strictly above every
            finalized slot, so no decided slot ever changes committee.
            A few rounds of slack give in-flight proposals time to land
            before thresholds move.
    """

    wave_length: int = 5
    leaders_per_round: int = 2
    max_block_transactions: int = 10_000
    garbage_collection_depth: int = 0
    checkpoint_interval_rounds: int = 0
    reconfig_activation_lag: int = 0

    def __post_init__(self) -> None:
        if not MIN_WAVE_LENGTH <= self.wave_length <= MAX_WAVE_LENGTH:
            raise ConfigError(
                f"wave_length must be in [{MIN_WAVE_LENGTH}, {MAX_WAVE_LENGTH}], "
                f"got {self.wave_length}"
            )
        if self.leaders_per_round < 1:
            raise ConfigError(
                f"leaders_per_round must be >= 1, got {self.leaders_per_round}"
            )
        if self.max_block_transactions < 1:
            raise ConfigError("max_block_transactions must be >= 1")
        if self.garbage_collection_depth < 0:
            raise ConfigError("garbage_collection_depth must be >= 0")
        if self.checkpoint_interval_rounds < 0:
            raise ConfigError("checkpoint_interval_rounds must be >= 0")
        if self.reconfig_activation_lag < 0:
            raise ConfigError("reconfig_activation_lag must be >= 0")
        if (
            self.checkpoint_interval_rounds
            and self.garbage_collection_depth
            and self.checkpoint_interval_rounds > self.garbage_collection_depth
        ):
            raise ConfigError(
                f"checkpoint_interval_rounds ({self.checkpoint_interval_rounds}) must not "
                f"exceed garbage_collection_depth ({self.garbage_collection_depth}): a "
                "checkpoint older than the GC horizon cannot anchor a suffix fetch"
            )

    def with_leaders(self, leaders_per_round: int) -> "ProtocolConfig":
        """Return a copy with a different number of leader slots per round."""
        return replace(self, leaders_per_round=leaders_per_round)


#: The two configurations evaluated throughout Section 5.
MAHI_MAHI_5 = ProtocolConfig(wave_length=5, leaders_per_round=2)
MAHI_MAHI_4 = ProtocolConfig(wave_length=4, leaders_per_round=2)
