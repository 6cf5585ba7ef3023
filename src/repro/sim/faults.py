"""Fault injection: crash faults, crash-*recovery*, reconfiguration,
and Byzantine equivocators.

The paper evaluates crash faults (Section 5.3, the common failure mode
in production) and proves safety under full Byzantine behaviour; the
simulator injects both so tests can check the decision rules against
live adversaries, not only hand-built DAGs.

Faults are stated one way: a :class:`FaultSchedule`, a time-ordered
list of :class:`FaultEvent` transitions that the experiment harness
replays (events at t = 0 before any validator proposes, the rest off
the event loop).  The lifecycle kinds ``crash``, ``recover``, ``join``
and ``leave`` open crash-*recovery* and reconfiguration as sweepable
workloads: a recovering validator restarts with an empty in-memory
state and must re-sync the DAG via the fetch path before it can
propose again.  The paper's own evaluation matrix — validators crashed
for the whole run, equivocators from the start — is schedule shorthand
too (``ExperimentConfig.effective_schedule``), and the ``f`` budget is
one rule over that whole schedule (:func:`concurrent_faults`).

Beyond the up/down lifecycle the schedule also carries *adversary and
network* transitions, so every scenario in the paper's threat model is
one event list away from a sweep:

* ``equivocate`` / ``desist`` — start and stop a Byzantine equivocation
  campaign (the validator produces conflicting siblings per round via
  :func:`make_equivocating_sibling` and splits them across peers).
* ``partition`` / ``heal`` — move a validator into a named network
  group; cross-group messages are dropped (``scale == 0``) or delayed
  by ``scale`` seconds until the validator heals back into the default
  group.  Partitioned validators stay *up* — they keep proposing into
  their side of the cut.
* ``straggle`` — persistently slow an honest validator by multiplying
  its CPU stage costs and proposal interval by ``scale`` (>= 1; 1
  restores full speed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..block import Block
from ..errors import ConfigError

#: Lifecycle transitions a schedule may contain.  ``crash`` silences a
#: running validator (in-memory state is lost); ``recover`` restarts it
#: from an empty state; ``join`` brings a provisioned validator online
#: for the first time and ``leave`` takes one out of service for good —
#: each a committed membership change that resizes the committee
#: (:class:`~repro.committee.CommitteeSchedule`).
FAULT_KINDS = ("crash", "recover", "join", "leave")

#: Adversary/network transitions: they change *how* a validator
#: participates without taking it down.  ``equivocate``/``desist``
#: bracket a Byzantine equivocation campaign; ``partition`` moves the
#: validator into the named ``group`` (cross-group traffic dropped when
#: ``scale == 0``, else delayed by ``scale`` seconds) and ``heal``
#: returns it to the default group; ``straggle`` multiplies the
#: validator's CPU costs and proposal interval by ``scale``.
ADVERSARY_KINDS = ("equivocate", "desist", "partition", "heal", "straggle")

#: Every kind a schedule may contain.
ALL_FAULT_KINDS = FAULT_KINDS + ADVERSARY_KINDS

#: Kinds that carry a non-default ``group`` / ``scale`` payload.
_GROUP_KINDS = ("partition",)
_SCALE_KINDS = ("partition", "straggle")


@dataclass(frozen=True)
class FaultEvent:
    """One lifecycle or adversary transition of one validator.

    Attributes:
        time: Virtual time at which the transition fires.
        validator: Committee index of the affected validator.
        kind: One of :data:`ALL_FAULT_KINDS`.
        group: Partition group name (``partition`` only; non-empty).
        scale: Kind-specific magnitude — cross-group delay in seconds
            for ``partition`` (0 drops cross traffic entirely), the
            slowdown multiplier for ``straggle`` (>= 1).
    """

    time: float
    validator: int
    kind: str
    group: str = ""
    scale: float = 0.0

    def __post_init__(self) -> None:
        # Coerce field types so FaultEvent(1, 3, "crash") and its JSON
        # round trip ({"time": 1.0, ...}) are equal — and hash to the
        # same sweep-cache key.
        object.__setattr__(self, "time", float(self.time))
        object.__setattr__(self, "validator", int(self.validator))
        object.__setattr__(self, "kind", str(self.kind))
        object.__setattr__(self, "group", str(self.group))
        object.__setattr__(self, "scale", float(self.scale))
        if self.kind not in ALL_FAULT_KINDS:
            raise ConfigError(f"unknown fault kind {self.kind!r}; pick one of {ALL_FAULT_KINDS}")
        if self.time < 0:
            raise ConfigError(f"fault event time must be >= 0, got {self.time}")
        if self.validator < 0:
            raise ConfigError(f"fault event validator must be >= 0, got {self.validator}")
        if self.group and self.kind not in _GROUP_KINDS:
            raise ConfigError(f"fault kind {self.kind!r} does not take a group ({self.group!r})")
        if self.kind == "partition" and not self.group:
            raise ConfigError("partition events need a non-empty group name")
        if self.scale and self.kind not in _SCALE_KINDS:
            raise ConfigError(f"fault kind {self.kind!r} does not take a scale ({self.scale})")
        if self.kind == "partition" and self.scale < 0:
            raise ConfigError(f"partition cross-group delay must be >= 0, got {self.scale}")
        if self.kind == "straggle" and self.scale < 1.0:
            raise ConfigError(
                f"straggle scale must be >= 1 (a CPU/latency multiplier), got {self.scale}"
            )


def normalize_events(raw: Iterable) -> tuple[FaultEvent, ...]:
    """Coerce an event list into :class:`FaultEvent` tuples.

    Accepts :class:`FaultEvent` instances, ``(time, validator, kind)``
    sequences — optionally extended with a partition group and/or a
    scale, e.g. ``(2.0, 3, "partition", "minority")`` or
    ``(1.0, 4, "straggle", 6.0)`` — and
    ``{"time": ..., "validator": ..., "kind": ...}`` mappings, which is
    what a sweep-cache round trip through JSON produces.
    """
    events = []
    for item in raw:
        if isinstance(item, FaultEvent):
            events.append(item)
        elif isinstance(item, Mapping):
            try:
                events.append(FaultEvent(**item))
            except (TypeError, ValueError) as error:
                raise ConfigError(f"cannot interpret fault event {item!r}: {error}") from None
        elif isinstance(item, Sequence) and not isinstance(item, (str, bytes)):
            try:
                time, validator, kind, *extras = item
                group, scale = "", 0.0
                if len(extras) == 2:
                    group, scale = extras
                elif len(extras) == 1:
                    if isinstance(extras[0], str):
                        group = extras[0]
                    else:
                        scale = extras[0]
                elif extras:
                    raise ValueError(f"too many fields ({len(item)})")
                events.append(
                    FaultEvent(time=time, validator=validator, kind=kind, group=group, scale=scale)
                )
            except (TypeError, ValueError) as error:
                raise ConfigError(f"cannot interpret fault event {item!r}: {error}") from None
        else:
            raise ConfigError(f"cannot interpret fault event {item!r}")
    return tuple(events)


def merge_spans(*span_lists: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of ``[start, end)`` spans: empty ones dropped, overlapping
    and touching ones merged, in time order."""
    spans = sorted(span for spans in span_lists for span in spans if span[1] > span[0])
    merged: list[tuple[float, float]] = []
    for start, end in spans:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


class FaultSchedule:
    """A validated, time-ordered fault schedule.

    Per validator the event sequence must describe a sane lifecycle:
    a validator whose first event is ``join`` starts *down*; everyone
    else starts up.  ``crash``/``leave`` require the validator to be up,
    ``recover``/``join`` require it to be down, and ``leave`` is
    terminal.  Adversary transitions must bracket sanely too:
    ``partition`` spans may not overlap and ``heal`` needs an open
    partition; ``equivocate`` campaigns may not nest and ``desist``
    needs a running campaign; all four act on a live validator.
    ``straggle`` may fire any time before ``leave`` — it is a standing
    rate property, meaningful even for a validator that has yet to join.
    """

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        self.events: tuple[FaultEvent, ...] = tuple(
            sorted(normalize_events(events), key=lambda e: (e.time, e.validator))
        )
        self._validate()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def validators(self) -> frozenset[int]:
        """Every validator the schedule touches."""
        return frozenset(e.validator for e in self.events)

    @staticmethod
    def _starts_down(events: list[FaultEvent]) -> bool:
        """Whether a validator's event list makes it start offline: its
        first *lifecycle* event is ``join`` (adversary events like a
        pre-scheduled ``straggle`` may precede it)."""
        first = next((e for e in events if e.kind in FAULT_KINDS), None)
        return first is not None and first.kind == "join"

    def initially_down(self) -> frozenset[int]:
        """Validators that start offline (their first lifecycle event is
        ``join``)."""
        return frozenset(
            validator
            for validator, events in self._per_validator().items()
            if self._starts_down(events)
        )

    def down_intervals(self, duration: float) -> dict[int, list[tuple[float, float]]]:
        """Per-validator ``[start, end)`` intervals of downtime within
        ``[0, duration]`` (open intervals close at ``duration``; a
        joiner is down from t = 0 until it joins)."""
        return self._bracket_intervals(
            duration, ("crash", "leave"), ("recover", "join"), self.initially_down()
        )

    def _bracket_intervals(
        self,
        duration: float,
        start_kinds: tuple[str, ...],
        end_kinds: tuple[str, ...],
        open_at_start: frozenset[int] = frozenset(),
    ) -> dict[int, list[tuple[float, float]]]:
        """Per-validator ``[start, end)`` spans opened by an event of
        ``start_kinds`` (or at t = 0, for ``open_at_start``) and closed
        by the next of ``end_kinds``; an unclosed span runs to
        ``duration``."""
        intervals: dict[int, list[tuple[float, float]]] = {}
        for validator, events in self._per_validator().items():
            spans: list[tuple[float, float]] = []
            since = 0.0 if validator in open_at_start else None
            for event in events:
                if event.kind in start_kinds:
                    since = event.time
                elif event.kind in end_kinds and since is not None:
                    spans.append((since, min(event.time, duration)))
                    since = None
            if since is not None and since < duration:
                spans.append((since, duration))
            if spans:
                intervals[validator] = spans
        return intervals

    def partition_intervals(self, duration: float) -> dict[int, list[tuple[float, float]]]:
        """Per-validator ``[partition, heal)`` spans within
        ``[0, duration]`` (a partition that never heals runs to
        ``duration``)."""
        return self._bracket_intervals(duration, ("partition",), ("heal",))

    def equivocation_intervals(self, duration: float) -> dict[int, list[tuple[float, float]]]:
        """Per-validator ``[equivocate, desist)`` campaign spans within
        ``[0, duration]``."""
        return self._bracket_intervals(duration, ("equivocate",), ("desist",))

    def straggler_validators(self) -> frozenset[int]:
        """Validators slowed by at least one ``straggle`` event with
        ``scale > 1`` (a trailing ``scale == 1`` event restores speed
        but the validator still straggled)."""
        return frozenset(e.validator for e in self.events if e.kind == "straggle" and e.scale > 1)

    def max_concurrent_faulty(self, horizon: float = float("inf")) -> int:
        """The most validators simultaneously *faulty* — down or running
        an equivocation campaign — at any instant.  This is the
        schedule's contribution to the ``f`` budget: an equivocator is
        Byzantine, so it spends the same budget slot a crashed validator
        does (partitioned and straggling validators are honest and spend
        none).  Overlapping down + campaign spans of one validator are
        merged so it is counted once."""
        campaign = self.equivocation_intervals(horizon)
        down = self.down_intervals(horizon)
        deltas: list[tuple[float, int]] = []
        for validator in set(campaign) | set(down):
            for start, end in merge_spans(campaign.get(validator, []), down.get(validator, [])):
                deltas.append((start, +1))
                deltas.append((end, -1))
        worst = current = 0
        # Ends sort before starts at the same instant: a validator that
        # recovers exactly when another crashes never overlaps it.
        for _, delta in sorted(deltas, key=lambda d: (d[0], d[1])):
            current += delta
            worst = max(worst, current)
        return worst

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _per_validator(self) -> dict[int, list[FaultEvent]]:
        grouped: dict[int, list[FaultEvent]] = {}
        for event in self.events:
            grouped.setdefault(event.validator, []).append(event)
        return grouped

    def _validate(self) -> None:
        for validator, events in self._per_validator().items():
            up = not self._starts_down(events)
            left = False
            partitioned: str | None = None
            equivocating = False
            first_lifecycle = next((e for e in events if e.kind in FAULT_KINDS), None)
            for event in events:
                if left:
                    raise ConfigError(
                        f"validator {validator}: event after terminal leave at t={event.time}"
                    )
                if event.kind in ("crash", "leave") and not up:
                    raise ConfigError(
                        f"validator {validator}: {event.kind} at t={event.time} while down"
                    )
                if event.kind in ("recover", "join") and up:
                    raise ConfigError(
                        f"validator {validator}: {event.kind} at t={event.time} while up"
                    )
                if event.kind == "join" and event is not first_lifecycle:
                    raise ConfigError(
                        f"validator {validator}: join at t={event.time} must be the "
                        "first lifecycle event (restarts after a crash are 'recover')"
                    )
                if event.kind == "partition":
                    if partitioned is not None:
                        raise ConfigError(
                            f"validator {validator}: partition into {event.group!r} at "
                            f"t={event.time} overlaps the open partition "
                            f"{partitioned!r} (heal it first)"
                        )
                    partitioned = event.group
                elif event.kind == "heal":
                    if partitioned is None:
                        raise ConfigError(
                            f"validator {validator}: heal at t={event.time} without an "
                            "open partition"
                        )
                    partitioned = None
                elif event.kind == "equivocate":
                    if equivocating:
                        raise ConfigError(
                            f"validator {validator}: equivocate at t={event.time} while "
                            "a campaign is already running (desist first)"
                        )
                    equivocating = True
                elif event.kind == "desist":
                    if not equivocating:
                        raise ConfigError(
                            f"validator {validator}: desist at t={event.time} without an "
                            "equivocation campaign to stop"
                        )
                    equivocating = False
                # Adversary kinds other than straggle act on a live
                # validator; straggle is a standing rate property and may
                # be scheduled for a validator that is still down (it
                # applies once the validator joins or recovers).
                if event.kind in ("partition", "heal", "equivocate", "desist") and not up:
                    raise ConfigError(
                        f"validator {validator}: {event.kind} at t={event.time} while down"
                    )
                if event.kind in FAULT_KINDS:
                    up = event.kind in ("recover", "join")
                    left = event.kind == "leave"


def concurrent_faults(events: Iterable[FaultEvent]) -> int:
    """What a fault schedule spends of the ``f`` budget: its
    :meth:`FaultSchedule.max_concurrent_faulty` with the membership
    changes left out — a not-yet-joined or departed validator is outside
    the active committee, so its downtime is no fault.  The one budget
    rule: ``ExperimentConfig`` checks its effective schedule against it
    and ``smoke_config`` clamps a shrunken schedule to it."""
    return FaultSchedule(
        e for e in events if e.kind not in ("join", "leave")
    ).max_concurrent_faulty()


def make_equivocating_sibling(block: Block, tag: bytes = b"equivocation") -> Block:
    """A conflicting block for the same slot: same parents and coin
    share, different salt, hence a different digest and signature-to-be.
    """
    return Block(
        author=block.author,
        round=block.round,
        parents=block.parents,
        transactions=block.transactions,
        coin_share=block.coin_share,
        salt=tag,
    )
