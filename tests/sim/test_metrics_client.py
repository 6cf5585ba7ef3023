"""Tests for metrics collection and the open-loop clients' router."""

import math
import random
from dataclasses import astuple
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.client import ArrivalRouter
from repro.sim.events import EventLoop
from repro.sim.metrics import ExperimentMetrics
from repro.transaction import Transaction, TransactionSlice


class TestMetrics:
    def test_latency_recorded_per_transaction(self):
        metrics = ExperimentMetrics()
        metrics.record_submission(1, 0.0)
        metrics.record_commit([Transaction(1)], 0.8)
        summary = metrics.latency_summary()
        assert summary.avg == pytest.approx(0.8)
        assert summary.count == 1

    def test_warmup_excluded(self):
        metrics = ExperimentMetrics(warmup=5.0)
        metrics.record_submission(1, 1.0)  # during warmup
        metrics.record_submission(2, 6.0)
        metrics.record_commit([Transaction(1)], 2.0)
        metrics.record_commit([Transaction(2)], 6.5)
        summary = metrics.latency_summary()
        assert summary.count == 1
        assert summary.avg == pytest.approx(0.5)

    def test_duplicate_commits_counted_once(self):
        metrics = ExperimentMetrics()
        metrics.record_submission(1, 0.0)
        metrics.record_commit([Transaction(1)], 0.5)
        metrics.record_commit([Transaction(1)], 0.9)
        assert len(metrics._latencies) == 1
        assert metrics.duplicate_commits == 1

    def test_weighted_latency_and_throughput(self):
        metrics = ExperimentMetrics()
        metrics.record_submission(1, 0.0, weight=10.0)
        metrics.record_submission(2, 0.0, weight=30.0)
        metrics.record_commit([Transaction(1)], 1.0)
        metrics.record_commit([Transaction(2)], 2.0)
        summary = metrics.latency_summary()
        assert summary.avg == pytest.approx((1.0 * 10 + 2.0 * 30) / 40)
        assert metrics.throughput(duration=10.0) == pytest.approx(4.0)

    def test_percentiles(self):
        metrics = ExperimentMetrics()
        for i in range(100):
            metrics.record_submission(i, 0.0)
            metrics.record_commit([Transaction(i)], (i + 1) / 100)
        summary = metrics.latency_summary()
        assert summary.p50 == pytest.approx(0.50, abs=0.02)
        assert summary.p90 == pytest.approx(0.90, abs=0.02)
        assert summary.p99 == pytest.approx(0.99, abs=0.02)
        assert summary.max == pytest.approx(1.0)

    def test_empty_summary_is_nan(self):
        summary = ExperimentMetrics().latency_summary()
        assert math.isnan(summary.avg)
        assert summary.count == 0

    def test_pending_counts_uncommitted(self):
        metrics = ExperimentMetrics()
        metrics.record_submission(1, 0.0)
        metrics.record_submission(2, 0.0)
        metrics.record_commit([Transaction(1)], 1.0)
        assert metrics.pending == 1


def scanned_percentile(ordered, total_weight, q):
    """The weighted percentile as one scan of ``(latency, weight)``
    pairs, ascending: the oracle of the one-pass kernel."""
    threshold = q * total_weight
    cumulative = 0.0
    for latency, weight in ordered:
        cumulative += weight
        if cumulative >= threshold:
            return latency
    return ordered[-1][0]


class TestWeightedPercentile:
    """Edge cases of the weighted-percentile kernel behind
    :meth:`ExperimentMetrics.latency_summary`."""

    @staticmethod
    def kernel(ordered, total, q):
        return ExperimentMetrics._weighted_percentiles(ordered, total, (q,))[0]

    @classmethod
    def pct(cls, ordered, q):
        return cls.kernel(ordered, sum(w for _, w in ordered), q)

    def test_single_sample_is_every_percentile(self):
        sample = [(0.7, 3.0)]
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert self.pct(sample, q) == 0.7

    def test_equal_weights_match_rank_statistics(self):
        ordered = [(float(i), 1.0) for i in range(1, 11)]
        assert self.pct(ordered, 0.50) == 5.0
        assert self.pct(ordered, 0.90) == 9.0
        assert self.pct(ordered, 1.0) == 10.0

    def test_skewed_weights_shift_the_median(self):
        # One heavy slow batch outweighs many light fast ones: the
        # weighted p50 lands on the heavy sample, the unweighted
        # rank-median would not.
        ordered = [(0.1, 1.0), (0.2, 1.0), (0.3, 1.0), (5.0, 10.0)]
        assert self.pct(ordered, 0.50) == 5.0
        # With the weights flipped, the fast mass dominates instead.
        flipped = [(0.1, 10.0), (0.2, 1.0), (0.3, 1.0), (5.0, 1.0)]
        assert self.pct(flipped, 0.50) == 0.1

    def test_percentiles_monotonic_under_random_weights(self):
        import random

        rng = random.Random(5)
        metrics = ExperimentMetrics()
        for i in range(200):
            metrics.record_submission(i, 0.0, weight=rng.uniform(0.1, 20.0))
            metrics.record_commit([Transaction(i)], rng.expovariate(1.0) + 0.01)
        s = metrics.latency_summary()
        assert s.p50 <= s.p90 <= s.p99 <= s.max

    def test_quantile_past_total_weight_clamps_to_max(self):
        # Floating-point weight accumulation can leave the cumulative
        # sum epsilon short of q * total; the kernel must still answer.
        ordered = [(1.0, 0.1), (2.0, 0.2)]
        assert self.kernel(ordered, 0.3 + 1e-9, 1.0) == 2.0

    def test_a_threshold_on_a_running_weight_picks_the_sample_that_reached_it(self):
        # 0.5 x 4 = 2 is the running weight after the second sample, and
        # 0.25 x 4 = 1 after the first (exact in binary): the sample that
        # reaches the threshold answers, not the one after it.
        ordered = [(1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (4.0, 1.0)]
        assert self.pct(ordered, 0.5) == 2.0 == scanned_percentile(ordered, 4.0, 0.5)
        assert self.pct(ordered, 0.25) == 1.0 == scanned_percentile(ordered, 4.0, 0.25)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.5, 1.0, 1.25, 2.0, 3.0]),  # few values: many ties
                st.sampled_from([0.1, 0.25, 0.5, 1.0, 2.0, 3.0]),  # 0.1: inexact sums
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_one_pass_equals_the_scan_it_replaced(self, samples):
        """Against the per-percentile scan :meth:`ExperimentMetrics.
        latency_summary` ran before (one left fold per percentile), on
        tied latencies, on weights whose running sums land exactly on a
        threshold or, with 0.1, just off it, and on several thresholds
        met by one sample."""
        ordered = sorted(samples)
        total = sum(w for _, w in ordered)
        quantiles = (0.0, 0.25, 0.5, 0.9, 0.99, 1.0)
        assert ExperimentMetrics._weighted_percentiles(ordered, total, quantiles) == [
            scanned_percentile(ordered, total, q) for q in quantiles
        ]
        metrics = ExperimentMetrics()
        for i, (latency, weight) in enumerate(samples):
            metrics.record_submission(i, 0.0, weight=weight)
            metrics.record_commit([Transaction(i)], latency)
        summary = metrics.latency_summary()
        assert (summary.p50, summary.p90, summary.p99) == tuple(
            scanned_percentile(ordered, total, q) for q in (0.50, 0.90, 0.99)
        )


def scanned_summary(latencies, weights):
    """The summary as the weighted scan computes it, whatever the
    weights: the oracle of the one-weight path."""
    ordered = sorted(zip(latencies, weights))
    total = sum(w for _, w in ordered)
    avg = sum(latency * w for latency, w in ordered) / total
    p50, p90, p99 = (scanned_percentile(ordered, total, q) for q in (0.50, 0.90, 0.99))
    return (total, avg, p50, p90, p99, ordered[-1][0])


class TestOneWeightSummary:
    @settings(max_examples=300, deadline=None)
    @given(
        latencies=st.lists(
            st.one_of(
                st.sampled_from([0.1, 0.25, 0.3, 1.0, 2.5]),  # few values: many ties
                st.floats(min_value=0.0, max_value=50.0),
            ),
            min_size=1,
            max_size=60,
        ),
        weight=st.sampled_from([1.0, 0.1, 3.0, 25.0, 1e-3, 7.7]),  # 0.1: inexact sums
    )
    def test_one_weight_summary_is_the_weighted_scan_bit_for_bit(self, latencies, weight):
        metrics = ExperimentMetrics(weight=weight)
        section = TransactionSlice(list(range(1, len(latencies) + 1)), [0.0] * len(latencies))
        metrics.record_commit(section, 0.0)  # latencies of 0.0 ...
        metrics._latencies[:] = latencies  # ... replaced by the drawn ones
        summary = metrics.latency_summary()
        expected = scanned_summary(latencies, [weight] * len(latencies))
        assert repr(astuple(summary)) == repr(expected)

    def test_a_second_weight_takes_the_weighted_scan(self):
        """One object submitted with another weight than the routed
        arrivals' sends the summary down the scan of ``(latency,
        weight)`` pairs; one weight never does."""
        uniform, mixed = ExperimentMetrics(weight=2.0), ExperimentMetrics(weight=2.0)
        for metrics in (uniform, mixed):
            metrics.record_commit(TransactionSlice([1, 2, 3], [0.0, 0.1, 0.2]), 1.0)
        mixed.record_submission(4, 0.0, weight=5.0)
        mixed.record_commit([Transaction(4)], 0.5)
        scan = ExperimentMetrics._weighted_percentiles
        with mock.patch.object(
            ExperimentMetrics, "_weighted_percentiles", side_effect=scan
        ) as scanned:
            assert uniform.latency_summary().count == 6.0
            assert not scanned.called
            summary = mixed.latency_summary()
            assert scanned.call_count == 1
        assert repr(astuple(summary)) == repr(
            scanned_summary(mixed._latencies, [2.0, 2.0, 2.0, 5.0])
        )


class Validator:
    """A validator as the router sees it: a liveness flag and an ingress
    that keeps ``(tx id, time, size)`` of each arrival, and what the
    loop's clock read when it came."""

    def __init__(self, loop: EventLoop) -> None:
        self.down = False
        self.ingress = self
        self.arrivals = []
        self.clock = []
        self._loop = loop

    def extend(self, ids, times, sizes=None) -> None:
        for tx_id, now, size in zip(ids, times, sizes or [None] * len(ids)):
            self.arrivals.append((tx_id, now, size))
            self.clock.append(self._loop.now)


def router(rate, *, count=1, until=1.0, **kwargs):
    """``(metrics, validators)`` after running a router over ``count``
    validators (a client in each, unless ``validators`` says otherwise)
    until ``until``."""
    loop = EventLoop()
    nodes = [Validator(loop) for _ in range(count)]
    metrics = ExperimentMetrics()
    kwargs.setdefault("validators", list(range(count)))
    ArrivalRouter(loop, nodes, rate, metrics=metrics, **kwargs).start()
    loop.run_until(until)
    return metrics, nodes


def arrivals(nodes):
    return sorted(arrival for node in nodes for arrival in node.arrivals)


class TestArrivalRouter:
    def test_average_rate(self):
        metrics, nodes = router(100.0, seed=1, until=10.0)
        assert metrics.submitted == len(nodes[0].arrivals)
        assert 800 <= metrics.submitted <= 1200  # ~1000 +- Poisson noise

    def test_stop_at(self):
        _, nodes = router(100.0, stop_at=2.0, seed=1, until=10.0)
        assert nodes[0].arrivals and all(now < 2.0 for _, now, _ in nodes[0].arrivals)

    def test_zero_rate_never_submits(self):
        metrics, nodes = router(0.0, until=5.0)
        assert metrics.submitted == 0 and nodes[0].arrivals == []

    def test_the_metrics_count_every_submission(self):
        metrics, nodes = router(50.0, count=3, until=2.0)
        assert metrics.submitted == len(arrivals(nodes)) > 0
        assert metrics.pending == metrics.submitted

    def test_ids_are_numbered_from_one_in_arrival_order_across_clients(self):
        """Each experiment numbers its own transactions: a second router
        starts at 1 again."""
        for _ in range(2):
            _, nodes = router(50.0, count=3, until=2.0)
            routed = sorted(arrivals(nodes), key=lambda arrival: arrival[1])
            assert [tx_id for tx_id, _, _ in routed] == list(range(1, len(routed) + 1))

    def test_routing_never_moves_the_clock_and_every_row_carries_its_own_instant(self):
        """The rows are the times a gap-by-gap ``expovariate`` loop adds
        up, while the loop's clock reads the settle point's instant."""
        loop = EventLoop()
        nodes = [Validator(loop) for _ in range(2)]
        ArrivalRouter(loop, nodes, 200.0, validators=[0, 1], metrics=ExperimentMetrics()).start()
        loop.schedule_at(0.5, loop.settle)
        loop.run_until(1.0)
        for validator, node in enumerate(nodes):
            rng = random.Random(repr(("client", (0, validator))))
            when, expected = 0.0, []
            while len(expected) < len(node.arrivals):
                when += rng.expovariate(1.0 / (1.0 / 200.0))
                expected.append(when)
            assert [now for _, now, _ in node.arrivals] == expected and when < 1.0
            # Settled at 0.5 and at the end of the run, before run_until
            # moved the clock to its deadline.
            assert set(node.clock) == {0.5} and expected[0] < 0.5 < expected[-1]
        assert loop.now == 1.0

    def test_a_reader_sees_a_tied_arrival_only_after_the_batch_was_drawn(self):
        """A constructed exact tie: two heap events at the instant of the
        first arrival, one scheduled before the batch was drawn and one
        after.  A reader in the first does not see the arrival, a reader
        in the second does, as if it were a heap entry of its own."""
        loop = EventLoop()
        node = Validator(loop)
        first = random.Random(repr(("client", (3, 0)))).expovariate(1.0 / (1.0 / 10.0))
        seen = []

        def read(name):
            loop.settle()
            seen.append((name, [now for _, now, _ in node.arrivals]))

        metrics = ExperimentMetrics()
        clients = ArrivalRouter(loop, [node], 10.0, validators=[0], metrics=metrics, seed=3)
        loop.schedule_at(first, read, "before")
        clients.start()
        loop.schedule_at(first, read, "after")
        loop.run_until(first)
        assert seen == [("before", []), ("after", [first])]

    def test_tied_arrivals_of_two_clients_go_in_the_order_their_batches_were_drawn(self):
        """Two clients drawing one stream tie at every arrival, over
        several batches: each tie goes to the batch drawn first."""
        loop = EventLoop()
        nodes = [Validator(loop) for _ in range(2)]
        clients = ArrivalRouter(loop, nodes, 600.0, validators=[0, 1], metrics=ExperimentMetrics())
        clients._clients[0].rng = random.Random(repr(("client", (0, 1))))
        clients.start()
        loop.run_until(1.0)
        times = [now for _, now, _ in nodes[1].arrivals]
        assert len(times) > 256 and [now for _, now, _ in nodes[0].arrivals] == times
        assert [tx_id for tx_id, _, _ in nodes[0].arrivals] == list(range(1, 2 * len(times), 2))

    def test_structured_seeds_do_not_collide(self):
        """Regression: client ``v`` of an experiment seeded ``s`` draws
        from ``(s, v)``.  The old arithmetic derivation s * 1000 + v
        collides for e.g. (1, 1500) and (2, 500); the structured form
        must not."""

        def times(seed, validator):
            _, nodes = router(100.0, count=1501, validators=[validator], seed=seed)
            return [now for _, now, _ in nodes[validator].arrivals]

        assert 1 * 1000 + 1500 == 2 * 1000 + 500  # the old collision
        assert times(1, 1500) != times(2, 500)
        # And identical structured seeds still replay identically.
        assert times(1, 1500) == times(1, 1500)

    def test_tx_size_mix_samples_hints(self):
        _, nodes = router(500.0, seed=3, tx_size_mix=((128, 0.8), (4096, 0.2)), until=2.0)
        sizes = [size for _, _, size in nodes[0].arrivals]
        assert set(sizes) == {128, 4096}
        assert 0.6 < sizes.count(128) / len(sizes) < 0.95  # ~80%

    def test_uniform_clients_leave_hint_unset(self):
        _, nodes = router(100.0, seed=3)
        assert nodes[0].arrivals and all(size is None for _, _, size in nodes[0].arrivals)

    def test_a_down_validators_clients_go_to_the_next_live_one(self):
        """Client 1 walks past down validators 1 and 2 to 3; with every
        validator down its transactions are lost, and still counted."""
        loop = EventLoop()
        nodes = [Validator(loop) for _ in range(4)]
        metrics = ExperimentMetrics()
        clients = ArrivalRouter(loop, nodes, 100.0, validators=[1], metrics=metrics)
        nodes[1].down = nodes[2].down = True
        clients.start()
        loop.run_until(1.0)
        assert nodes[3].arrivals and not any(node.arrivals for node in nodes[:3])
        for node in nodes:
            node.down = True
        loop.run_until(2.0)
        assert metrics.submitted > len(nodes[3].arrivals)


class TestRecoveryMetrics:
    def test_recovery_summary(self):
        metrics = ExperimentMetrics()
        assert metrics.recovery_summary() == (0, None, None)
        metrics.record_recovery(3, recovered_at=4.0, resumed_at=4.5)
        metrics.record_recovery(4, recovered_at=4.0, resumed_at=5.5)
        count, avg, worst = metrics.recovery_summary()
        assert count == 2
        assert avg == pytest.approx(1.0)
        assert worst == pytest.approx(1.5)

    def test_availability_helper(self):
        from repro.sim.metrics import availability

        assert availability(0.0, 10, 30.0) == 1.0
        assert availability(30.0, 10, 30.0) == pytest.approx(0.9)
        assert availability(1e9, 10, 30.0) == 0.0  # clamped
        assert availability(5.0, 10, 0.0) == 1.0  # degenerate duration
