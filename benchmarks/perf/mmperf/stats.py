"""Order statistics for the benchmark's reports."""

from __future__ import annotations

import math
import statistics

#: A percentile is only reported from a rank that leaves this many
#: samples beyond it (choosing-metrics guide, section 1).
MIN_BEYOND = 10


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``).

    When fewer than ``MIN_BEYOND`` samples lie beyond that rank the
    sample cannot support the percentile: the rank is lowered until
    they do, but never below the median's.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    n = len(ordered)
    rank = math.ceil(q / 100.0 * n)
    supported = max(math.ceil(0.5 * n), n - MIN_BEYOND)
    return ordered[max(1, min(rank, supported)) - 1]


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the steadiness figure the benchmark's bounds are set
    against (needs at least two values)."""
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid if mid else 0.0
