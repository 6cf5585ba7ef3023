"""Tests for metrics collection and the open-loop client."""

import math

import pytest

from repro.sim.client import OpenLoopClient, reset_tx_ids
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


class TestOpenLoopClient:
    def test_average_rate(self):
        reset_tx_ids()
        loop = EventLoop()
        received = []
        client = OpenLoopClient(loop, received.append, rate=100.0, seed=1)
        client.start()
        loop.run_until(10.0)
        assert client.submitted == len(received)
        assert 800 <= client.submitted <= 1200  # ~1000 +- Poisson noise

    def test_stop_at(self):
        reset_tx_ids()
        loop = EventLoop()
        received = []
        client = OpenLoopClient(loop, received.append, rate=100.0, stop_at=2.0, seed=1)
        client.start()
        loop.run_until(10.0)
        assert all(tx.submitted_at <= 2.0 for tx in received)

    def test_zero_rate_never_submits(self):
        loop = EventLoop()
        client = OpenLoopClient(loop, lambda tx: None, rate=0.0)
        client.start()
        loop.run_until(5.0)
        assert client.submitted == 0

    def test_submission_hook_sees_weight(self):
        reset_tx_ids()
        loop = EventLoop()
        seen = []
        client = OpenLoopClient(
            loop,
            lambda tx: None,
            rate=10.0,
            weight=50.0,
            on_submission=lambda tx_id, t, w: seen.append((tx_id, w)),
            seed=2,
        )
        client.start()
        loop.run_until(1.0)
        assert seen and all(w == 50.0 for _, w in seen)

    def test_tx_ids_unique_across_clients(self):
        reset_tx_ids()
        loop = EventLoop()
        received = []
        for seed in range(3):
            OpenLoopClient(loop, received.append, rate=50.0, seed=seed).start()
        loop.run_until(2.0)
        ids = [tx.tx_id for tx in received]
        assert len(ids) == len(set(ids))

    def test_structured_seeds_do_not_collide(self):
        """Regression: the harness derives client seeds as
        (master_seed, authority) tuples.  The old arithmetic derivation
        seed * 1000 + authority collides for e.g. (1, 1500) and
        (2, 500); the structured form must not."""

        def arrivals(seed):
            reset_tx_ids()
            loop = EventLoop()
            received = []
            OpenLoopClient(loop, received.append, rate=100.0, seed=seed).start()
            loop.run_until(1.0)
            return [tx.submitted_at for tx in received]

        assert 1 * 1000 + 1500 == 2 * 1000 + 500  # the old collision
        assert arrivals((1, 1500)) != arrivals((2, 500))
        # And identical structured seeds still replay identically.
        assert arrivals((1, 1500)) == arrivals((1, 1500))

    def test_tx_size_mix_samples_hints(self):
        reset_tx_ids()
        loop = EventLoop()
        received = []
        client = OpenLoopClient(
            loop,
            received.append,
            rate=500.0,
            seed=3,
            tx_size_mix=((128, 0.8), (4096, 0.2)),
        )
        client.start()
        loop.run_until(2.0)
        sizes = {tx.size_hint for tx in received}
        assert sizes == {128, 4096}
        small = sum(1 for tx in received if tx.size_hint == 128)
        assert 0.6 < small / len(received) < 0.95  # ~80%

    def test_uniform_clients_leave_hint_unset(self):
        reset_tx_ids()
        loop = EventLoop()
        received = []
        OpenLoopClient(loop, received.append, rate=100.0, seed=3).start()
        loop.run_until(1.0)
        assert received and all(tx.size_hint is None for tx in received)


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
