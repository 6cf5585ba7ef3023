"""Tests for the lifecycle tracer: event recording, the no-op default,
and the stage vocabulary both fabrics instrument against."""

from repro.obs.trace import (
    LIFECYCLE_STAGES,
    NULL_TRACER,
    SUBSYSTEMS,
    UNCERTIFIED_STAGES,
    NullTracer,
    TraceEvent,
    Tracer,
)


class TestTracer:
    def test_instant_recorded(self):
        tracer = Tracer()
        tracer.instant(1, "client", "tx_submitted", 0.5, {"tx": 7})
        assert len(tracer) == 1
        event = tracer.events[0]
        assert event == TraceEvent(1, "client", "tx_submitted", 0.5, None, {"tx": 7})
        assert not event.is_span

    def test_span_recorded_with_duration(self):
        tracer = Tracer()
        tracer.span(0, "network", "net_flight", 1.0, 1.25)
        event = tracer.events[0]
        assert event.is_span
        assert event.ts == 1.0
        assert event.dur == 0.25

    def test_span_clamps_negative_duration(self):
        # Clock skew between span endpoints must not produce a
        # negative-width bar in the viewer.
        tracer = Tracer()
        tracer.span(0, "network", "net_flight", 2.0, 1.5)
        assert tracer.events[0].dur == 0.0

    def test_stages_seen(self):
        tracer = Tracer()
        tracer.instant(0, "client", "tx_submitted", 0.0)
        tracer.instant(0, "consensus", "block_proposed", 0.1)
        tracer.instant(0, "consensus", "block_proposed", 0.2)
        assert tracer.stages_seen() == {"tx_submitted", "block_proposed"}

    def test_enabled_by_default(self):
        assert Tracer().enabled is True


class TestNullTracer:
    def test_disabled_and_empty(self):
        assert NullTracer.enabled is False
        assert NULL_TRACER.enabled is False
        assert len(NULL_TRACER.events) == 0

    def test_methods_record_nothing(self):
        tracer = NullTracer()
        tracer.instant(0, "client", "tx_submitted", 0.0)
        tracer.span(0, "network", "net_flight", 0.0, 1.0, {"bytes": 4})
        assert len(tracer.events) == 0
        assert tracer.stages_seen() == set()

    def test_untraced_runs_never_reach_the_tracer(self, monkeypatch):
        """Tracing off costs one attribute check per site: every
        recording site both fabrics pass on the way to a commit sits
        behind ``if tracer.enabled:``, so a disabled tracer's methods are
        never called.  Tusk with one crash-recovery passes all eight
        lifecycle stages and the ``sync`` transitions in the simulator;
        the in-memory cluster passes the runtime's."""
        import asyncio

        from repro.runtime.cluster import LocalCluster
        from repro.sim.runner import Experiment, ExperimentConfig
        from repro.transaction import Transaction

        def unguarded(self, *args, **kwargs):
            raise AssertionError("a disabled tracer was asked to record")

        monkeypatch.setattr(NullTracer, "instant", unguarded)
        monkeypatch.setattr(NullTracer, "span", unguarded)

        result = Experiment(
            ExperimentConfig(
                protocol="tusk", num_validators=4, num_recovering=1, load_tps=200.0,
                duration=6.0, warmup=1.0, seed=11,
            )
        ).run()
        assert result.blocks_committed > 0 and result.recoveries == 1

        async def first_commit():
            async with LocalCluster(n=4) as cluster:
                cluster.submit(Transaction.dummy(1))
                await cluster.wait_for_transaction(1)

        asyncio.run(asyncio.wait_for(first_commit(), timeout=60))


class TestStageVocabulary:
    def test_lifecycle_order(self):
        assert LIFECYCLE_STAGES[0] == "tx_submitted"
        assert LIFECYCLE_STAGES[-1] == "tx_executed"
        assert len(LIFECYCLE_STAGES) == 8

    def test_uncertified_protocols_skip_certification(self):
        assert set(UNCERTIFIED_STAGES) == set(LIFECYCLE_STAGES) - {"block_certified"}

    def test_subsystems_are_distinct(self):
        assert len(set(SUBSYSTEMS)) == len(SUBSYSTEMS)
