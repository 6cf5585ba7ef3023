"""Tests for metrics collection and the open-loop clients' router."""

import math
import random

import pytest

from repro.sim.client import ArrivalRouter
from repro.sim.events import EventLoop
from repro.sim.metrics import ExperimentMetrics
from repro.transaction import Transaction


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
        assert metrics.committed_unique == 1
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


class TestWeightedPercentile:
    """Edge cases of the weighted-percentile kernel behind
    :meth:`ExperimentMetrics.latency_summary`."""

    @staticmethod
    def pct(ordered, q):
        total = sum(w for _, w in ordered)
        return ExperimentMetrics._weighted_percentile(ordered, total, q)

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
        assert ExperimentMetrics._weighted_percentile(ordered, 0.3 + 1e-9, 1.0) == 2.0


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

    def arrive(self, tx_id, now, size=None) -> None:
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

    def test_each_arrival_is_routed_at_its_own_instant(self):
        _, nodes = router(200.0, count=2, until=1.0)
        for node in nodes:
            assert node.clock == [now for _, now, _ in node.arrivals]

    def test_an_arrival_tied_with_heap_events_sorts_by_when_its_batch_was_drawn(self):
        """A constructed exact tie: two heap events at the instant of the
        first arrival, one scheduled before the batch was drawn and one
        after.  The arrival routes between them, as its own heap entry
        would have run."""
        loop = EventLoop()
        node = Validator(loop)
        first = random.Random(repr(("client", (3, 0)))).expovariate(1.0 / (1.0 / 10.0))
        order = []
        node.arrive = lambda tx_id, now, size=None: order.append(("arrival", now))
        metrics = ExperimentMetrics()
        clients = ArrivalRouter(loop, [node], 10.0, validators=[0], metrics=metrics, seed=3)
        loop.schedule_at(first, lambda: order.append(("before", loop.now)))
        clients.start()
        loop.schedule_at(first, lambda: order.append(("after", loop.now)))
        loop.run_until(first)
        assert order == [("before", first), ("arrival", first), ("after", first)]

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
