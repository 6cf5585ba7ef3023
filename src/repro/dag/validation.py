"""Block validity (Section 2.3).

A block is valid if: (1) the signature — over the block's 32-byte
digest, so a received block is hashed once, for its identity and its
signature check alike — verifies and the author belongs to the
validator set; (2) all parent references point to distinct
blocks from strictly earlier rounds and include blocks from at least
``2f + 1`` distinct authors of round ``R - 1``; (3) the embedded share
of the global perfect coin verifies.

Structural checks are separated from availability: a structurally valid
block may still reference blocks we have not downloaded yet — the
synchronizer fetches those before the block enters the store.
"""

from __future__ import annotations

from ..block import Block, GENESIS_ROUND
from ..committee import Committee
from ..crypto.coin import CommonCoin
from ..crypto.signing import SignatureScheme
from ..errors import BlockValidationError


class BlockVerifier:
    """Stateless structural + cryptographic block verification."""

    def __init__(
        self,
        committee: Committee,
        signature_scheme: SignatureScheme | None = None,
        coin: CommonCoin | None = None,
    ) -> None:
        """Create a verifier.

        Args:
            committee: The validator set.
            signature_scheme: When provided, signatures are verified
                against the committee's registered public keys.  The
                simulator omits it for speed (Byzantine behaviour there
                is modeled, not forged).
            coin: When provided, embedded coin shares are verified.
        """
        self._committee = committee
        self._scheme = signature_scheme
        self._coin = coin

    def verify(self, block: Block) -> None:
        """Raise :class:`BlockValidationError` if ``block`` is invalid."""
        self.verify_structure(block)
        self.verify_crypto(block)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def verify_structure(self, block: Block) -> None:
        """Check membership, round, and parent-reference rules."""
        if not self._committee.is_member(block.author):
            raise BlockValidationError(f"author {block.author} not in committee")
        if block.round < GENESIS_ROUND:
            raise BlockValidationError(f"negative round {block.round}")

        if block.round == GENESIS_ROUND:
            if block.parents:
                raise BlockValidationError("genesis block must have no parents")
            return

        digests = set()
        previous_round_authors = set()
        for ref in block.parents:
            if ref.round >= block.round:
                raise BlockValidationError(
                    f"parent {ref!r} not from an earlier round than {block.round}"
                )
            if ref.round < GENESIS_ROUND:
                raise BlockValidationError(f"parent {ref!r} has negative round")
            if not self._committee.is_member(ref.author):
                raise BlockValidationError(f"parent author {ref.author} not in committee")
            if ref.digest in digests:
                raise BlockValidationError(f"duplicate parent reference {ref!r}")
            digests.add(ref.digest)
            if ref.round == block.round - 1:
                previous_round_authors.add(ref.author)

        quorum = self._committee.quorum_threshold
        if len(previous_round_authors) < quorum:
            raise BlockValidationError(
                f"block {block!r} references {len(previous_round_authors)} distinct "
                f"round-{block.round - 1} authors; needs {quorum}"
            )

    # ------------------------------------------------------------------
    # Cryptography
    # ------------------------------------------------------------------
    def verify_crypto(self, block: Block) -> None:
        """Check the author's signature and the coin share, if configured."""
        if self._scheme is not None:
            public_key = self._committee.authority(block.author).public_key
            if not self._scheme.verify(public_key, block.digest, block.signature):
                raise BlockValidationError(f"bad signature on {block!r}")
        if block.round == GENESIS_ROUND:
            return
        if self._coin is not None:
            share = block.coin_share
            if share is None:
                raise BlockValidationError(f"block {block!r} carries no coin share")
            if share.author != block.author or share.round != block.round:
                raise BlockValidationError(
                    f"coin share ({share.author}, {share.round}) does not match "
                    f"block ({block.author}, {block.round})"
                )
            if not self._coin.verify_share(share):
                raise BlockValidationError(f"invalid coin share on {block!r}")
