"""Exception hierarchy for the repro package.

All library errors derive from :class:`ReproError` so applications can
catch a single base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """A protocol or committee configuration is invalid."""


class CryptoError(ReproError):
    """A cryptographic operation failed (bad signature, bad share, ...)."""


class InvalidSignature(CryptoError):
    """A signature did not verify."""


class InvalidShare(CryptoError):
    """A threshold-coin share did not verify."""


class InsufficientShares(CryptoError):
    """Fewer than the threshold number of shares were supplied."""


class BlockValidationError(ReproError):
    """A block failed structural or cryptographic validation."""


class UnknownBlockError(ReproError):
    """A referenced block is not present in the DAG store.

    Raised by an insertion that lacks parents, it lists them as
    :attr:`missing` (empty otherwise)."""

    def __init__(self, message: str, missing: tuple = ()) -> None:
        super().__init__(message)
        self.missing = missing


class DuplicateBlockError(ReproError):
    """The exact same block (same digest) was inserted twice."""


class WalCorruptionError(ReproError):
    """The write-ahead log contains a corrupt or truncated record."""


class TransportError(ReproError):
    """A runtime transport failed to deliver or frame a message."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class StateTransferError(ReproError):
    """A recovery re-sync cannot complete (e.g. the needed history is
    behind every peer's garbage-collection horizon)."""
