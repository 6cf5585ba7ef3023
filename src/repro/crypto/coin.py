"""The global perfect coin (Section 2.1, Section 3.1).

Every block embeds a coin share for its round; once ``2f + 1`` shares
from the Certify round of a wave are available, any validator can
reconstruct the coin and derive the wave's leader slots "after the
fact", which prevents the network adversary from targeting leaders
before they are known (Section 2.3).

Two implementations share the :class:`CommonCoin` interface:

* :class:`ThresholdCoin` — the verifiable threshold PRF built on
  :mod:`repro.crypto.threshold` (real discrete-log crypto);
* :class:`FastCoin` — a deterministic hash of the round under a shared
  seed, for large simulations where coin unpredictability against the
  modeled adversary is configured explicitly instead of
  cryptographically.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from typing import NamedTuple

from ..errors import InsufficientShares, InvalidShare
from .hashing import hash_parts
from .schnorr import G, P, Q
from .threshold import SecretShare, ThresholdSetup, deal, interpolate_at_zero

#: Bytes needed to encode a scalar of the coin's group.
_SCALAR_BYTES = (Q.bit_length() + 7) // 8


class CoinShare(NamedTuple):
    """One validator's contribution to the coin of one round.

    Attributes:
        author: Index of the contributing validator.
        round: Round the share opens.
        value: Scheme-dependent share payload.
    """

    author: int
    round: int
    value: bytes

    def encode(self) -> bytes:
        return (
            self.author.to_bytes(4, "little")
            + self.round.to_bytes(8, "little")
            + len(self.value).to_bytes(4, "little")
            + self.value
        )


class CommonCoin(ABC):
    """Per-round unpredictable-then-deterministic randomness source."""

    #: Number of shares required to reconstruct (``2f + 1``).
    threshold: int

    @abstractmethod
    def share(self, author: int, round_number: int) -> CoinShare:
        """Produce ``author``'s share for ``round_number``.

        Only meaningful on the validator holding ``author``'s secret.
        """

    @abstractmethod
    def verify_share(self, share: CoinShare) -> bool:
        """Whether ``share`` is a valid contribution (paper footnote 5)."""

    @abstractmethod
    def reconstruct(
        self, round_number: int, shares: list[CoinShare], *, threshold: int | None = None
    ) -> int:
        """Combine at least :attr:`threshold` shares into the coin value.

        Args:
            round_number: The round whose coin opens.
            shares: Candidate shares (duplicates and other rounds'
                shares are ignored).
            threshold: Optional override of the share count required —
                the quorum of the round's *epoch* under committee
                reconfiguration.  :class:`FastCoin` honours it;
                :class:`ThresholdCoin` cannot (its reconstruction
                threshold is fixed by the dealing) and keeps its
                cryptographic threshold — real deployments reshare the
                secret on reconfiguration instead.

        Returns:
            A deterministic unbounded non-negative integer; callers
            reduce it modulo the committee size to elect leaders.

        Raises:
            InsufficientShares: Not enough distinct valid shares.
            InvalidShare: A share fails verification.
        """

    def leader(
        self, round_number: int, shares: list[CoinShare], committee_size: int, offset: int = 0
    ) -> int:
        """Elect the leader for ``(round_number, offset)`` (Algorithm 2 line 15)."""
        value = self.reconstruct(round_number, shares)
        return (value + offset) % committee_size


def _round_scalar(round_number: int) -> int:
    """Hash a round number to a non-zero scalar in Z_q."""
    digest = hashlib.blake2b(
        round_number.to_bytes(8, "little"), digest_size=64, person=b"coin-round"
    ).digest()
    return int.from_bytes(digest, "big") % Q or 1


class ThresholdCoin(CommonCoin):
    """Verifiable threshold PRF coin.

    Validator ``i``'s share for round ``r`` is ``f(i+1) * H(r) mod q``,
    verifiable against the Feldman commitment ``G^{f(i+1)}`` by checking
    ``G^{share} == (G^{f(i+1)})^{H(r)}``.  Reconstruction interpolates
    ``secret * H(r)`` and hashes it into the coin output.
    """

    def __init__(self, setup: ThresholdSetup, secret_share: SecretShare | None = None) -> None:
        """Create a coin instance.

        Args:
            setup: Public dealing artifacts (shared by every validator).
            secret_share: This validator's secret share; omit on nodes
                that only verify and reconstruct.
        """
        self._setup = setup
        self._secret_share = secret_share
        self.threshold = setup.threshold

    @classmethod
    def deal(cls, n: int, threshold: int, seed: int = 0) -> list["ThresholdCoin"]:
        """Deal a fresh sharing and return one coin instance per validator."""
        setup, shares = deal(n, threshold, seed=seed)
        return [cls(setup, share) for share in shares]

    def share(self, author: int, round_number: int) -> CoinShare:
        if self._secret_share is None or self._secret_share.index != author:
            raise InvalidShare(f"this coin instance holds no secret for validator {author}")
        value = (self._secret_share.value * _round_scalar(round_number)) % Q
        return CoinShare(
            author=author, round=round_number, value=value.to_bytes(_SCALAR_BYTES, "big")
        )

    def verify_share(self, share: CoinShare) -> bool:
        if len(share.value) != _SCALAR_BYTES:
            return False
        value = int.from_bytes(share.value, "big")
        if not 0 <= value < Q:
            return False
        commitment = self._setup.share_commitment(share.author)
        return pow(G, value, P) == pow(commitment, _round_scalar(share.round), P)

    def reconstruct(
        self, round_number: int, shares: list[CoinShare], *, threshold: int | None = None
    ) -> int:
        # ``threshold`` is intentionally unused: interpolation needs
        # exactly the dealt threshold of points (see the ABC docstring).
        points: list[tuple[int, int]] = []
        seen: set[int] = set()
        for share in shares:
            if share.round != round_number or share.author in seen:
                continue
            if not self.verify_share(share):
                raise InvalidShare(f"bad coin share from validator {share.author}")
            seen.add(share.author)
            points.append((share.author + 1, int.from_bytes(share.value, "big")))
            if len(points) == self.threshold:
                break
        if len(points) < self.threshold:
            raise InsufficientShares(
                f"round {round_number}: need {self.threshold} coin shares, got {len(points)}"
            )
        prf = interpolate_at_zero(points)  # = secret * H(r) mod q
        seed = hash_parts(
            [prf.to_bytes(_SCALAR_BYTES, "big"), round_number.to_bytes(8, "little")],
            person=b"coin-out",
        )
        return int.from_bytes(seed, "big")


class FastCoin(CommonCoin):
    """Hash-based coin for large simulations.

    All validators share ``seed``; the coin for round ``r`` is
    ``blake2b(seed || r)``.  Shares are MACs so malformed shares are
    still detectable, but unpredictability holds only against the
    simulated adversary (which is configured not to precompute coins).
    """

    def __init__(self, seed: bytes, n: int, threshold: int) -> None:
        self._seed = seed
        self._n = n
        self.threshold = threshold

    def share(self, author: int, round_number: int) -> CoinShare:
        value = hash_parts(
            [self._seed, author.to_bytes(4, "little"), round_number.to_bytes(8, "little")],
            person=b"fastcoin-shr",
        )
        return CoinShare(author=author, round=round_number, value=value)

    def verify_share(self, share: CoinShare) -> bool:
        return share == self.share(share.author, share.round)

    def reconstruct(
        self, round_number: int, shares: list[CoinShare], *, threshold: int | None = None
    ) -> int:
        required = self.threshold if threshold is None else threshold
        distinct = {s.author for s in shares if s.round == round_number and self.verify_share(s)}
        if len(distinct) < required:
            raise InsufficientShares(
                f"round {round_number}: need {required} coin shares, got {len(distinct)}"
            )
        seed = hash_parts(
            [self._seed, round_number.to_bytes(8, "little")], person=b"fastcoin-out"
        )
        return int.from_bytes(seed, "big")

    def peek(self, round_number: int) -> int:
        """The coin value for ``round_number`` *without* shares.

        This is the omniscient-adversary hook: a simulated attacker
        granted ``peek`` can resolve future leaders and target them
        (:class:`~repro.sim.network.LeaderDosScheduler`), deliberately
        breaking the unpredictability assumption the random network
        model relies on.  Honest protocol code must keep using
        :meth:`reconstruct`, which enforces the share quorum.
        """
        seed = hash_parts(
            [self._seed, round_number.to_bytes(8, "little")], person=b"fastcoin-out"
        )
        return int.from_bytes(seed, "big")
