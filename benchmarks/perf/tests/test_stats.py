"""The percentile helper reports only what the sample supports."""

import pytest

from mmperf.stats import percentile, quartile_spread


def test_large_sample_gives_the_nearest_rank():
    samples = list(range(1, 2001))
    assert percentile(samples, 50) == 1000
    assert percentile(samples, 95) == 1900  # 100 samples beyond it
    assert percentile(samples, 99) == 1980


def test_rank_is_lowered_until_ten_samples_lie_beyond_it():
    samples = list(range(1, 101))
    assert percentile(samples, 95) == 90  # rank 95 would leave only five
    assert percentile(samples, 99) == 90
    assert percentile(samples, 50) == 50


def test_never_below_the_median():
    assert percentile(list(range(1, 16)), 95) == 8
    assert percentile([3.0], 95) == 3.0


def test_order_does_not_matter_and_empty_is_an_error():
    assert percentile([5, 1, 4, 2, 3], 50) == 3
    with pytest.raises(ValueError):
        percentile([], 50)


def test_quartile_spread_is_the_interquartile_range_over_the_median():
    import statistics

    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, mid, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == (q3 - q1) / mid
