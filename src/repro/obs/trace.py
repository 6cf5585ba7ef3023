"""Typed lifecycle tracing shared by the simulator and the runtime.

A :class:`Tracer` records two event shapes:

- **instant** — a point in time (a transaction was submitted, a block
  arrived, a wave was decided);
- **span** — a half-open interval ``[start, end)`` (a message's wire
  flight, a CPU stage, a sync round-trip).

Timestamps are seconds as floats; the simulator passes virtual time
(``EventLoop.now``) and the runtime passes wall clocks, and neither
matters to the tracer — exporters scale to microseconds for the Chrome
trace-event format.

The default tracer is :data:`NULL_TRACER`, a shared no-op whose
``enabled`` flag is ``False``.  Hot paths guard every recording site
with ``if tracer.enabled:`` so the disabled cost is a single attribute
load — ``tests/obs/test_trace.py`` pins it as a count: an untraced run
of either fabric never calls a :class:`NullTracer` method.
"""

from __future__ import annotations

from typing import NamedTuple

# Lifecycle stage names: the typed vocabulary every instrumentation
# point draws from, and what the CI trace validation greps for.  A
# transaction flows submitted → included → (its block) proposed →
# received → certified (certified protocols only) → wave decided →
# committed → executed.
TX_SUBMITTED = "tx_submitted"
TX_INCLUDED = "tx_included"
BLOCK_PROPOSED = "block_proposed"
BLOCK_RECEIVED = "block_received"
BLOCK_CERTIFIED = "block_certified"
WAVE_DECIDED = "wave_decided"
TX_COMMITTED = "tx_committed"
TX_EXECUTED = "tx_executed"

LIFECYCLE_STAGES = (
    TX_SUBMITTED,
    TX_INCLUDED,
    BLOCK_PROPOSED,
    BLOCK_RECEIVED,
    BLOCK_CERTIFIED,
    WAVE_DECIDED,
    TX_COMMITTED,
    TX_EXECUTED,
)

#: Certification only exists where blocks carry explicit certificates
#: (Tusk); uncertified DAGs decide waves without that stage.
UNCERTIFIED_STAGES = tuple(s for s in LIFECYCLE_STAGES if s != BLOCK_CERTIFIED)

#: The recovery driver's transitions, recorded on the ``sync`` track
#: (:class:`repro.statesync.driver.ValidatorDriver` is their one emitter).
SYNC_TRANSITIONS = ("recovery_started", "checkpoint_adopted", "sync_requested", "sync_finished")

# Subsystem names become one Chrome-trace thread (tid) per validator
# process (pid): where inside the validator the event happened.
SUBSYSTEMS = ("client", "ingress", "consensus", "network", "commit", "sync")


class TraceEvent(NamedTuple):
    """One recorded event.  ``dur`` is ``None`` for instants."""

    validator: int
    subsystem: str
    name: str
    ts: float
    dur: float | None
    args: dict | None


class Tracer:
    """An enabled tracer: appends :class:`TraceEvent` rows in memory.

    Recording is append-only and unbounded by design — tracing is an
    opt-in debugging mode for smoke-size runs, not a production
    always-on path (that's the :class:`~repro.obs.metrics
    .MetricsRegistry`'s job).
    """

    __slots__ = ("enabled", "events")

    def __init__(self) -> None:
        self.enabled = True
        self.events: list[TraceEvent] = []

    def instant(
        self,
        validator: int,
        subsystem: str,
        name: str,
        ts: float,
        args: dict | None = None,
    ) -> None:
        self.events.append(TraceEvent(validator, subsystem, name, ts, None, args))

    def span(
        self,
        validator: int,
        subsystem: str,
        name: str,
        start: float,
        end: float,
        args: dict | None = None,
    ) -> None:
        if end < start:
            end = start
        self.events.append(
            TraceEvent(validator, subsystem, name, start, end - start, args)
        )

    def stages_seen(self) -> set[str]:
        """Lifecycle stage names with at least one recorded event."""
        lifecycle = set(LIFECYCLE_STAGES)
        return {event.name for event in self.events if event.name in lifecycle}

    def __len__(self) -> int:
        return len(self.events)


class NullTracer:
    """The disabled tracer: every method is a no-op.

    Instrumentation sites guard with ``if tracer.enabled:`` so these
    methods are never reached on the hot path; they exist so unguarded
    cold-path calls stay safe.
    """

    __slots__ = ()

    enabled = False
    events: tuple = ()

    def instant(self, validator, subsystem, name, ts, args=None) -> None:
        pass

    def span(self, validator, subsystem, name, start, end, args=None) -> None:
        pass

    def stages_seen(self) -> set[str]:
        return set()

    def __len__(self) -> int:
        return 0


#: The shared default: pass this wherever no tracing was requested.
NULL_TRACER = NullTracer()


# ----------------------------------------------------------------------
# Lifecycle emitters shared by both fabrics.  The simulator passes
# virtual time, the runtime wall-clock time; callers guard with
# ``if tracer.enabled:`` like every other recording site.
# ----------------------------------------------------------------------
def trace_proposal(tracer, validator: int, ts: float, block) -> None:
    """An own block was proposed, including its transactions."""
    txs = len(block.transactions)
    tracer.instant(
        validator, "consensus", BLOCK_PROPOSED, ts, {"round": block.round, "txs": txs}
    )
    if txs:
        tracer.instant(
            validator, "consensus", TX_INCLUDED, ts, {"round": block.round, "count": txs}
        )


def trace_commits(tracer, validator: int, ts: float, observations) -> None:
    """Per decided slot: a wave-decision instant, plus commit and
    execute instants for the transactions it linearized (both fabrics
    apply the linearized prefix immediately, so committed and executed
    coincide)."""
    for observation in observations:
        status = observation.status
        tracer.instant(
            validator,
            "commit",
            WAVE_DECIDED,
            ts,
            {
                "round": status.slot.round,
                "leader": status.slot.authority,
                "decision": status.decision.name.lower(),
                "blocks": len(observation.linearized),
            },
        )
        txs = sum(len(block.transactions) for block in observation.linearized)
        if txs:
            args = {"round": status.slot.round, "count": txs}
            tracer.instant(validator, "commit", TX_COMMITTED, ts, args)
            tracer.instant(validator, "commit", TX_EXECUTED, ts, args)
