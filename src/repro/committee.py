"""Committee membership, Byzantine quorum arithmetic, and the
epoch-versioned committee schedule.

The paper assumes ``n = 3f + 1`` validators of equal weight, of which at
most ``f`` may be Byzantine (Section 2.1).  This module centralizes the
threshold arithmetic (``2f + 1`` quorums, ``f + 1`` validity sets) so no
other module hard-codes it.

Production DAG-BFT deployments additionally run *reconfiguration*:
validators join and leave, so ``n`` itself varies mid-run.  The
:class:`CommitteeSchedule` makes the validator set a first-class,
round-versioned object: every round maps to an :class:`Epoch`
``(epoch_id, Committee)``, and all threshold decisions resolve against
the committee of the round they apply to.  Epoch transitions are driven
by committed :class:`ReconfigCommand` payloads carried in blocks and
activated at a deterministic commit-walk point (see
:meth:`repro.core.committer.Committer.extend_commit_sequence`), so every
honest validator switches epochs at byte-identical positions.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ConfigError
from .transaction import Transaction

#: Type alias: validators are identified by their wire index.  Indexes
#: are stable identities — a committee may cover a non-contiguous subset
#: of them once validators have joined or left.
ValidatorId = int

#: Smallest committee a BFT deployment supports (``f >= 1`` needs
#: ``n >= 4``); a committed leave that would shrink below this is
#: deterministically ignored by the protocol and rejected up front by
#: experiment-config validation.
MIN_COMMITTEE_SIZE = 4


@dataclass(frozen=True)
class Authority:
    """A single committee member.

    Attributes:
        index: The validator's wire identity (stable across epochs; not
            necessarily its position within the committee once members
            have joined or left).
        name: Human-readable label used in logs and experiment output.
        public_key: Opaque verification key bytes registered for this
            authority (scheme-dependent; see :mod:`repro.crypto.signing`).
    """

    index: ValidatorId
    name: str
    public_key: bytes = b""


@dataclass(frozen=True)
class Committee:
    """An ordered set of validators with equal voting power.

    One epoch's validator set.  Members are ordered by index but need
    not be contiguous: after validator 2 of a 5-validator deployment
    leaves, the active committee is ``{0, 1, 3, 4}`` while wire
    identities stay stable.

    The committee exposes the two thresholds used by every decision rule:

    * :attr:`quorum_threshold` — ``2f + 1``, the size of a Byzantine
      quorum (block validity, votes, certificates, coin reconstruction);
    * :attr:`validity_threshold` — ``f + 1``, the minimum set guaranteed
      to contain one honest validator.
    """

    authorities: tuple[Authority, ...]

    def __post_init__(self) -> None:
        if len(self.authorities) < MIN_COMMITTEE_SIZE:
            raise ConfigError(
                f"a BFT committee needs n >= {MIN_COMMITTEE_SIZE} validators, "
                f"got {len(self.authorities)}"
            )
        previous = -1
        for authority in self.authorities:
            if authority.index <= previous:
                raise ConfigError(
                    f"committee indexes must be strictly increasing, got "
                    f"{authority.index} after {previous}"
                )
            previous = authority.index

    # ------------------------------------------------------------------
    # Size and thresholds
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Total number of validators ``n``."""
        return len(self.authorities)

    @cached_property
    def faults_tolerated(self) -> int:
        """Maximum number of Byzantine validators ``f = (n - 1) // 3``."""
        return (self.size - 1) // 3

    @cached_property
    def quorum_threshold(self) -> int:
        """Byzantine quorum size ``n - f``.

        Equals the paper's ``2f + 1`` when ``n = 3f + 1`` exactly; for
        other committee sizes (e.g. the paper's 50-node deployment,
        where ``n = 3f + 2``) ``n - f`` is required so two quorums still
        intersect in at least ``f + 1`` validators.
        """
        return self.size - self.faults_tolerated

    @cached_property
    def validity_threshold(self) -> int:
        """Size guaranteeing one honest member, ``f + 1``."""
        return self.faults_tolerated + 1

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    @cached_property
    def members(self) -> tuple[ValidatorId, ...]:
        """Member indexes in ascending order."""
        return tuple(a.index for a in self.authorities)

    @cached_property
    def _member_set(self) -> frozenset[ValidatorId]:
        return frozenset(self.members)

    @cached_property
    def member_mask(self) -> int:
        """The members as a bitmask (bit ``i`` for member index ``i``):
        ``(authors & member_mask).bit_count()`` counts member authors."""
        return sum(1 << index for index in self.members)

    @cached_property
    def is_contiguous(self) -> bool:
        """Whether members are exactly ``0 .. size-1`` (the static,
        no-reconfiguration case — enables count fast paths)."""
        return self.members == tuple(range(self.size))

    def authority(self, index: ValidatorId) -> Authority:
        """Return the authority with the given wire index.

        Raises:
            ConfigError: If ``index`` is not a member.
        """
        for authority in self.authorities:
            if authority.index == index:
                return authority
        raise ConfigError(f"validator index {index} is not a committee member")

    def is_member(self, index: ValidatorId) -> bool:
        """Whether ``index`` identifies a committee member."""
        return index in self._member_set

    def count_members(self, indexes: Iterable[ValidatorId]) -> int:
        """How many distinct ``indexes`` are committee members (quorum
        counting over a set of block authors)."""
        return len(self._member_set.intersection(indexes))

    def leader_for(self, value: int, offset: int = 0) -> ValidatorId:
        """Resolve a coin value (plus leader offset) to a member index.

        ``members[(value + offset) % n]`` — reduces to the paper's
        ``(value + offset) % n`` for contiguous committees.
        """
        return self.members[(value + offset) % self.size]

    def __iter__(self) -> Iterator[Authority]:
        return iter(self.authorities)

    def __len__(self) -> int:
        return self.size

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def of_size(cls, n: int, public_keys: Sequence[bytes] | None = None) -> "Committee":
        """Build a committee of ``n`` equally-weighted validators
        indexed ``0 .. n-1``.

        Args:
            n: Committee size (>= 4).
            public_keys: Optional per-validator verification keys; must
                have length ``n`` when provided.
        """
        if public_keys is not None and len(public_keys) != n:
            raise ConfigError(
                f"expected {n} public keys, got {len(public_keys)}"
            )
        authorities = tuple(
            Authority(
                index=i,
                name=f"validator-{i}",
                public_key=public_keys[i] if public_keys is not None else b"",
            )
            for i in range(n)
        )
        return cls(authorities=authorities)

    @classmethod
    def of_members(cls, indexes: Iterable[ValidatorId]) -> "Committee":
        """Build a committee over an arbitrary (sorted) member set."""
        authorities = tuple(
            Authority(index=i, name=f"validator-{i}") for i in sorted(indexes)
        )
        return cls(authorities=authorities)

    def with_joined(self, index: ValidatorId) -> "Committee":
        """A derived committee with ``index`` added.

        Raises:
            ConfigError: If ``index`` is already a member.
        """
        if self.is_member(index):
            raise ConfigError(f"validator {index} is already a committee member")
        joined = Authority(index=index, name=f"validator-{index}")
        authorities = tuple(sorted((*self.authorities, joined), key=lambda a: a.index))
        return Committee(authorities=authorities)

    def with_removed(self, index: ValidatorId) -> "Committee":
        """A derived committee with ``index`` removed.

        Raises:
            ConfigError: If ``index`` is not a member, or removal would
                shrink the committee below :data:`MIN_COMMITTEE_SIZE`.
        """
        if not self.is_member(index):
            raise ConfigError(f"validator {index} is not a committee member")
        if self.size - 1 < MIN_COMMITTEE_SIZE:
            raise ConfigError(
                f"removing validator {index} would shrink the committee below "
                f"n = {MIN_COMMITTEE_SIZE}"
            )
        return Committee(
            authorities=tuple(a for a in self.authorities if a.index != index)
        )


# ----------------------------------------------------------------------
# Reconfiguration commands (carried in blocks as transaction payloads)
# ----------------------------------------------------------------------
#: Magic prefix marking a transaction payload as a reconfiguration
#: command.  Client payloads are opaque benchmark bytes (zero-filled),
#: so the prefix cannot collide with honest traffic.
RECONFIG_MAGIC = b"\xffRECONF1"

#: Transaction ids reserved for harness-injected reconfiguration
#: commands, far above anything a client allocates.
RECONFIG_TX_BASE = 1 << 62

_RECONFIG_BODY = struct.Struct("<BI")  # kind (0 join / 1 leave), validator

#: Command kinds, by wire tag.
_RECONFIG_KINDS = ("join", "leave")


@dataclass(frozen=True)
class ReconfigCommand:
    """One committed membership change: ``join`` adds a provisioned
    validator to the active committee, ``leave`` removes a member.

    Commands ride in blocks as ordinary transactions (a payload with
    :data:`RECONFIG_MAGIC`); the commit walk applies them at a
    deterministic activation round, so every honest validator derives
    the same epoch schedule.
    """

    kind: str
    validator: ValidatorId

    def __post_init__(self) -> None:
        if self.kind not in _RECONFIG_KINDS:
            raise ConfigError(
                f"unknown reconfig kind {self.kind!r}; pick one of {_RECONFIG_KINDS}"
            )
        if self.validator < 0:
            raise ConfigError(f"reconfig validator must be >= 0, got {self.validator}")

    def encode_payload(self) -> bytes:
        """The transaction payload carrying this command."""
        return RECONFIG_MAGIC + _RECONFIG_BODY.pack(
            _RECONFIG_KINDS.index(self.kind), self.validator
        )

    def as_transaction(self, sequence: int, submitted_at: float = 0.0) -> Transaction:
        """The transaction an administrative client submits this command
        in: the harness's ``sequence``-th reserved id (:data:`RECONFIG_TX_BASE`)."""
        return Transaction(
            tx_id=RECONFIG_TX_BASE + sequence,
            submitted_at=submitted_at,
            payload=self.encode_payload(),
        )

    @classmethod
    def from_payload(cls, payload: bytes) -> "ReconfigCommand | None":
        """Parse a transaction payload; ``None`` when it is not a
        (well-formed) reconfiguration command — malformed commands are
        deterministically ignored rather than crashing the commit walk."""
        if not payload.startswith(RECONFIG_MAGIC):
            return None
        body = payload[len(RECONFIG_MAGIC):]
        if len(body) != _RECONFIG_BODY.size:
            return None
        kind_tag, validator = _RECONFIG_BODY.unpack(body)
        if kind_tag >= len(_RECONFIG_KINDS):
            return None
        return cls(kind=_RECONFIG_KINDS[kind_tag], validator=validator)


def reconfig_commands_in(blocks: Iterable) -> list[ReconfigCommand]:
    """Every well-formed reconfiguration command carried by ``blocks``'
    transactions, in linearized order (the order the commit walk — and
    hence every honest validator — applies them in)."""
    commands: list[ReconfigCommand] = []
    for block in blocks:
        for tx in block.transactions:
            payload = tx.payload
            if payload and payload.startswith(RECONFIG_MAGIC):
                command = ReconfigCommand.from_payload(payload)
                if command is not None:
                    commands.append(command)
    return commands


# ----------------------------------------------------------------------
# Epochs and the committee schedule
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Epoch:
    """One contiguous span of rounds governed by a fixed committee.

    An epoch covers rounds ``[start_round, next.start_round)``; the last
    epoch is open-ended.
    """

    epoch_id: int
    start_round: int
    committee: Committee

    def info(self) -> tuple[int, int, tuple[int, ...]]:
        """Plain-int snapshot ``(epoch_id, start_round, members)`` — the
        form checkpoints carry (see :mod:`repro.statesync`)."""
        return (self.epoch_id, self.start_round, self.committee.members)

    def __repr__(self) -> str:
        return (
            f"Epoch({self.epoch_id}, r>={self.start_round}, "
            f"n={self.committee.size})"
        )


class CommitteeSchedule:
    """The round-versioned validator set of one validator.

    Every validator owns one (mutable) schedule shared by its protocol
    core, committer, deciders and leader elector; the commit walk
    appends epochs as reconfiguration commands finalize.  Because the
    commit sequence is identical across honest validators (Theorem 1)
    and activation rounds derive from commit-walk positions, all honest
    schedules agree on every epoch they know.

    All threshold decisions resolve against the committee of the round
    they apply to (:meth:`committee_at` and the convenience wrappers);
    a wave spanning an epoch boundary is governed by the epoch of its
    *propose* round.
    """

    __slots__ = ("_epochs", "provisioned", "_listeners")

    def __init__(self, genesis: Committee, *, provisioned: int | None = None) -> None:
        """Args:
        genesis: The epoch-0 committee (active from round 0).
        provisioned: Total wire identities in the deployment (>= the
            highest member index + 1).  Genesis blocks exist for every
            provisioned validator so later joiners bootstrap the same
            round-0 quorum; defaults to covering the genesis committee.
        """
        self._epochs: list[Epoch] = [Epoch(0, 0, genesis)]
        self.provisioned = (
            provisioned if provisioned is not None else max(genesis.members) + 1
        )
        if self.provisioned < max(genesis.members) + 1:
            raise ConfigError(
                f"provisioned count {self.provisioned} does not cover committee "
                f"member {max(genesis.members)}"
            )
        self._listeners: list[Callable[[Epoch], None]] = []

    @classmethod
    def ensure(cls, committee: "Committee | CommitteeSchedule") -> "CommitteeSchedule":
        """Normalize a bare :class:`Committee` into a static schedule
        (the compatibility path for every fixed-committee call site)."""
        if isinstance(committee, CommitteeSchedule):
            return committee
        return cls(committee)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    @property
    def is_static(self) -> bool:
        """Whether the schedule still holds only the genesis epoch."""
        return len(self._epochs) == 1

    @property
    def genesis_committee(self) -> Committee:
        """The epoch-0 committee."""
        return self._epochs[0].committee

    @property
    def latest(self) -> Epoch:
        """The epoch with the highest activation round scheduled so far."""
        return self._epochs[-1]

    def epochs(self) -> tuple[Epoch, ...]:
        """All epochs in activation order."""
        return tuple(self._epochs)

    def snapshot(self) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """Plain-int epoch infos (what checkpoints embed)."""
        return tuple(epoch.info() for epoch in self._epochs)

    def epoch_at(self, round_number: int) -> Epoch:
        """The epoch governing ``round_number``."""
        epochs = self._epochs
        if len(epochs) == 1 or round_number >= epochs[-1].start_round:
            return epochs[-1]
        # Few epochs ever exist; scan from the newest backwards.
        for epoch in reversed(epochs[:-1]):
            if round_number >= epoch.start_round:
                return epoch
        return epochs[0]

    def committee_at(self, round_number: int) -> Committee:
        """The committee governing ``round_number`` (and the wave whose
        propose round it is)."""
        return self.epoch_at(round_number).committee

    def quorum_threshold(self, round_number: int) -> int:
        """``2f + 1`` of the committee governing ``round_number``."""
        return self.epoch_at(round_number).committee.quorum_threshold

    def validity_threshold(self, round_number: int) -> int:
        """``f + 1`` of the committee governing ``round_number``."""
        return self.epoch_at(round_number).committee.validity_threshold

    def size_at(self, round_number: int) -> int:
        """``n`` of the committee governing ``round_number``."""
        return self.epoch_at(round_number).committee.size

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def subscribe(self, listener: Callable[[Epoch], None]) -> None:
        """Call ``listener(epoch)`` whenever a new epoch is scheduled
        (metrics hooks; the observer records transition times)."""
        self._listeners.append(listener)

    def schedule_epoch(self, start_round: int, committee: Committee) -> Epoch:
        """Append a new epoch activating at ``start_round``.

        Activation rounds are strictly increasing — the commit walk
        bumps an activation that would collide with the latest epoch's
        (two commands finalizing at the same walk point fold into
        consecutive rounds deterministically).
        """
        last = self._epochs[-1]
        if start_round <= last.start_round:
            raise ConfigError(
                f"epoch activation round {start_round} must exceed the latest "
                f"epoch's ({last.start_round})"
            )
        epoch = Epoch(last.epoch_id + 1, start_round, committee)
        self._epochs.append(epoch)
        for listener in self._listeners:
            listener(epoch)
        return epoch

    def apply_command(
        self, command: ReconfigCommand, activation_round: int
    ) -> Epoch | None:
        """Apply one committed reconfiguration command.

        Derives the next committee from the latest epoch's and schedules
        it at ``activation_round`` (bumped past the latest epoch's start
        when commands collide).  Commands that cannot apply — joining an
        existing member, removing a non-member, or a leave that would
        shrink the committee below :data:`MIN_COMMITTEE_SIZE` — are
        **deterministically ignored** (returns ``None``): every honest
        validator sees the same committed command at the same walk point
        and skips it identically, which is safer than halting consensus
        on a bad command.
        """
        current = self.latest.committee
        try:
            if command.kind == "join":
                committee = current.with_joined(command.validator)
            else:
                committee = current.with_removed(command.validator)
        except ConfigError:
            return None
        if command.kind == "join" and command.validator >= self.provisioned:
            return None  # joining an unprovisioned identity: ignored
        start = max(activation_round, self.latest.start_round + 1)
        return self.schedule_epoch(start, committee)

    def adopt_epochs(
        self, infos: Iterable[tuple[int, int, Iterable[int]]]
    ) -> None:
        """Seed the schedule from a checkpoint's epoch snapshot.

        Only a fresh (static) schedule may adopt: a checkpoint-recovered
        validator learns the epoch history it cannot re-derive — the
        reconfiguration commands may sit below the state-transfer floor
        it will never fetch.
        """
        if not self.is_static:
            raise ConfigError("only a fresh schedule may adopt checkpoint epochs")
        adopted = [
            Epoch(int(epoch_id), int(start_round), Committee.of_members(members))
            for epoch_id, start_round, members in infos
        ]
        if not adopted:
            return
        if adopted[0].start_round != 0 or adopted[0].epoch_id != 0:
            raise ConfigError("checkpoint epoch snapshot must begin at epoch 0")
        for earlier, later in zip(adopted, adopted[1:]):
            if later.start_round <= earlier.start_round:
                raise ConfigError("checkpoint epoch snapshot is not round-ordered")
        self._epochs = adopted
        self.provisioned = max(
            self.provisioned,
            max(max(e.committee.members) for e in adopted) + 1,
        )
