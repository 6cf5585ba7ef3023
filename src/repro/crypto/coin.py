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

**A share is checked once per coin object.**  Whether a share verifies
is a pure function of the share, and every validator that opens a
round's coin checks the same shares: in the simulator all validators
share one :class:`FastCoin`, and on the runtime a validator checks each
share at ingest (:meth:`~repro.dag.validation.BlockVerifier.verify_crypto`)
and again in every :meth:`~CommonCoin.reconstruct`.  Both coins
therefore remember the shares they found valid (:class:`VerifiedShares`):
the latest :data:`SHARE_MEMO_ROUNDS` rounds of them, by author, with the
value that verified — so a share that differs from a verified one in
its value alone is checked afresh, and dropping a round costs a
recomputation, never a verdict.  A :class:`FastCoin` also remembers the
shares it computes (checking a share is comparing it with the one the
coin computes), so a simulation hashes each share once, when its block
is proposed.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from typing import Callable, NamedTuple

from ..errors import InsufficientShares, InvalidShare
from .hashing import hash_parts
from .schnorr import G, P, Q
from .threshold import SecretShare, ThresholdSetup, deal, interpolate_at_zero

#: Bytes needed to encode a scalar of the coin's group.
_SCALAR_BYTES = (Q.bit_length() + 7) // 8

#: Rounds of verified shares a coin remembers (at most one share per
#: author a round: a round's valid share is unique).  The DAG advances
#: only on a quorum of the previous round, so correct validators open a
#: round's coin within a few rounds of each other and of receiving its
#: shares; sixteen rounds cover that spread several times over, and a
#: validator further behind (one catching up after a crash) recomputes.
SHARE_MEMO_ROUNDS = 16


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


class VerifiedShares:
    """The shares a coin found valid, for its latest
    :data:`SHARE_MEMO_ROUNDS` rounds: round -> author -> share value."""

    __slots__ = ("_rounds",)

    def __init__(self) -> None:
        self._rounds: dict[int, dict[int, bytes]] = {}

    def verify(self, share: CoinShare, check: Callable[[CoinShare], bool]) -> bool:
        """Whether ``share`` is valid: remembered, or ``check(share)``."""
        verified = self._rounds.get(share.round)
        if verified is not None and verified.get(share.author) == share.value:
            return True
        if not check(share):
            return False
        self.add(share)
        return True

    def add(self, share: CoinShare) -> None:
        """Remember ``share`` as valid, dropping the oldest round when a
        new one would exceed :data:`SHARE_MEMO_ROUNDS`."""
        verified = self._rounds.get(share.round)
        if verified is None:
            verified = self._rounds[share.round] = {}
            if len(self._rounds) > SHARE_MEMO_ROUNDS:
                del self._rounds[min(self._rounds)]
        verified[share.author] = share.value

    def __len__(self) -> int:
        return sum(map(len, self._rounds.values()))


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
        self.verified = VerifiedShares()

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
        return self.verified.verify(share, self._check_share)

    def _check_share(self, share: CoinShare) -> bool:
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
        self.verified = VerifiedShares()

    def share(self, author: int, round_number: int) -> CoinShare:
        share = CoinShare(
            author=author, round=round_number, value=self._share_value(author, round_number)
        )
        # Checking a share is comparing it with this one: it is valid.
        self.verified.add(share)
        return share

    def verify_share(self, share: CoinShare) -> bool:
        return self.verified.verify(share, self._check_share)

    def _check_share(self, share: CoinShare) -> bool:
        return share.value == self._share_value(share.author, share.round)

    def _share_value(self, author: int, round_number: int) -> bytes:
        return hash_parts(
            [self._seed, author.to_bytes(4, "little"), round_number.to_bytes(8, "little")],
            person=b"fastcoin-shr",
        )

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
