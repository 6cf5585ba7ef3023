"""Test utilities: hand-built DAGs, a scriptable common coin and a
recorder of a core's commit stream.

The decision-rule tests reconstruct the paper's scenarios (Section 3.2,
Appendix B) block by block; :class:`DagBuilder` makes that concise and
:class:`FixedCoin` pins leader election to the validators the scenario
calls for.  :func:`record_commits` keeps what a core's ``try_commit()``
hands out, since the core itself keeps none of it.
"""

from __future__ import annotations

import dataclasses
import hashlib

from repro.block import Block, BlockRef, make_genesis
from repro.committee import Committee
from repro.crypto.coin import CoinShare, CommonCoin
from repro.crypto.hashing import hash_parts
from repro.dag.store import DagStore
from repro.errors import InsufficientShares


def record_commits(core) -> list:
    """The observations ``core.try_commit()`` returns from now on, in a
    list this returns and keeps extending.

    The core keeps no commit history: each observation is handed once to
    whoever called ``try_commit()`` (a host's step).  A test that reads
    the sequence back records that stream, for a core driven directly or
    through a driver."""
    observations: list = []
    try_commit = core.try_commit

    def recording_try_commit():
        new = try_commit()
        observations.extend(new)
        return new

    core.try_commit = recording_try_commit
    return observations


def committed_blocks(observations) -> list[Block]:
    """The blocks ``observations`` linearized, in commit order."""
    return [block for observation in observations for block in observation.linearized]


def result_hash(result) -> str:
    """The pin a whole ``ExperimentResult`` (config included) is held to
    — the hash ``benchmarks/perf`` fingerprints its sim workloads with."""
    return hashlib.sha256(repr(result).encode()).hexdigest()[:16]


def masked_result_hash(result) -> str:
    """:func:`result_hash` with ``events_processed`` set to 0: what the
    simulated system did, without what the simulator spent doing it.  A
    change to how the simulator schedules its work re-pins
    :func:`result_hash` and leaves this one alone."""
    return result_hash(dataclasses.replace(result, events_processed=0))


class FixedCoin(CommonCoin):
    """A coin whose per-round values are scripted by the test.

    ``values[r]`` is the raw coin value opened by certify round ``r``;
    unlisted rounds default to 0 (electing validator ``offset % n``).
    Reconstruction still demands ``threshold`` distinct shares, so tests
    exercise the "coin not yet open" path faithfully.
    """

    def __init__(self, n: int, threshold: int, values: dict[int, int] | None = None) -> None:
        self._n = n
        self.threshold = threshold
        self.values = dict(values or {})

    def elect(self, certify_round: int, validator: int, offset: int = 0) -> None:
        """Script the coin so ``(certify_round, offset)`` elects ``validator``."""
        self.values[certify_round] = (validator - offset) % self._n

    def share(self, author: int, round_number: int) -> CoinShare:
        value = hash_parts(
            [author.to_bytes(4, "little"), round_number.to_bytes(8, "little")],
            person=b"fixed-share",
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
                f"round {round_number}: {len(distinct)} < {required}"
            )
        return self.values.get(round_number, 0)


class DagBuilder:
    """Builds DAGs by hand, block by block.

    Blocks are indexed by ``(author, round)`` — or ``(author, round,
    tag)`` for equivocations — and parents default to the first-seen
    block of every author at the previous round.
    """

    def __init__(self, committee: Committee, coin: CommonCoin) -> None:
        self.committee = committee
        self.coin = coin
        self.store = DagStore()
        self.blocks: dict[tuple, Block] = {}
        for genesis in make_genesis(committee.size):
            self.store.add(genesis)
            self.blocks[(genesis.author, 0)] = genesis

    def ref(self, author: int, round_number: int, tag: str = "") -> BlockRef:
        """Reference a previously built block."""
        return self.blocks[self._key(author, round_number, tag)].reference

    def get(self, author: int, round_number: int, tag: str = "") -> Block:
        return self.blocks[self._key(author, round_number, tag)]

    @staticmethod
    def _key(author: int, round_number: int, tag: str) -> tuple:
        return (author, round_number, tag) if tag else (author, round_number)

    def block(
        self,
        author: int,
        round_number: int,
        parents: list[tuple] | None = None,
        *,
        tag: str = "",
        transactions: tuple = (),
    ) -> Block:
        """Create and store one block.

        Args:
            author: Block author.
            round_number: Block round.
            parents: Parent specs, each ``(author, round)`` or
                ``(author, round, tag)``; defaults to every first-seen
                previous-round block (lockstep).
            tag: Distinguishes equivocating blocks of the same slot (the
                tag is folded into the block's salt so digests differ).
            transactions: Optional transaction tuple.
        """
        if parents is None:
            parent_refs = self._lockstep_parents(round_number)
        else:
            parent_refs = tuple(self.ref(*spec) for spec in parents)
        block = Block(
            author=author,
            round=round_number,
            parents=parent_refs,
            transactions=transactions,
            coin_share=self.coin.share(author, round_number),
            salt=tag.encode(),
        )
        self.store.add(block)
        self.blocks[self._key(author, round_number, tag)] = block
        return block

    def _lockstep_parents(self, round_number: int) -> tuple[BlockRef, ...]:
        previous = round_number - 1
        refs = []
        for author in sorted(self.store.authors_at_round(previous)):
            refs.append(self.store.slot_blocks(previous, author)[0].reference)
        return tuple(refs)

    def round(self, round_number: int, authors: list[int] | None = None) -> list[Block]:
        """Create a full lockstep round (all ``authors``, default all)."""
        if authors is None:
            authors = list(range(self.committee.size))
        return [self.block(author, round_number) for author in authors]

    def rounds(self, first: int, last: int, authors: list[int] | None = None) -> None:
        """Create lockstep rounds ``first..last`` inclusive."""
        for r in range(first, last + 1):
            self.round(r, authors)
