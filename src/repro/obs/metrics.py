"""A dependency-free metrics registry: counters, gauges, histograms.

The shape follows the Prometheus client model (names, label sets, one
time series per label combination) without any wire format — consumers
call :meth:`MetricsRegistry.snapshot` and ship the plain dict wherever
they like: the ``process_cluster`` status JSON, ``ExperimentResult``
fields, or a test assertion.

Label values are passed as keyword arguments and keyed by their sorted
``(key, value)`` tuple, so ``c.inc(mode="warm")`` and the snapshot's
``{"mode=warm": 1}`` entry always agree regardless of call-site order.
"""

from __future__ import annotations

import math


def _label_key(labels: dict) -> str:
    if not labels:
        return ""
    return ",".join(f"{k}={labels[k]}" for k in sorted(labels))


class Counter:
    """A monotonically increasing value, optionally per label set."""

    __slots__ = ("name", "help", "_values")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._values: dict[str, float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        return self._values.get(_label_key(labels), 0.0)

    @property
    def total(self) -> float:
        return sum(self._values.values())

    def snapshot(self):
        # An untouched counter is 0, not an empty label table.
        if not self._values or set(self._values) == {""}:
            return self._values.get("", 0.0)
        return dict(self._values)


class Gauge:
    """A value that goes up and down (queue depth, current round)."""

    __slots__ = ("name", "help", "_values")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._values: dict[str, float] = {}

    def set(self, value: float, **labels) -> None:
        self._values[_label_key(labels)] = value

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def snapshot(self):
        if not self._values or set(self._values) == {""}:
            return self._values.get("", 0.0)
        return dict(self._values)


class _HistogramSeries:
    __slots__ = ("count", "sum", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf


class Histogram:
    """A running summary of observations — count, sum, min and max (hence
    the mean) — optionally per label set.  It keeps no buckets: nothing
    in the repo reads a distribution from the registry (percentiles come
    from the samples ``ExperimentMetrics`` holds).

    :meth:`observe_many` records a whole sequence in one call and leaves
    exactly the state :meth:`observe` would, value by value in order.  It
    therefore adds one value at a time: ``sum()`` compensates its float
    additions on Python >= 3.12, so the sum (and every mean derived from
    it) would differ in the last bits between interpreter versions and
    from the per-value path."""

    __slots__ = ("name", "help", "_series")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._series: dict[str, _HistogramSeries] = {}

    def observe(self, value: float, **labels) -> None:
        self.observe_many((value,), **labels)

    def observe_many(self, values, **labels) -> None:
        """Record every value of the sequence ``values``, in order (an
        empty one creates no series, like no call at all)."""
        if not values:
            return
        key = _label_key(labels) if labels else ""
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries()
        total, low, high = series.sum, series.min, series.max
        for value in values:
            total += value
            if value < low:
                low = value
            if value > high:
                high = value
        series.count += len(values)
        series.sum, series.min, series.max = total, low, high

    def count(self, **labels) -> int:
        series = self._series.get(_label_key(labels))
        return series.count if series else 0

    def mean(self, **labels) -> float:
        series = self._series.get(_label_key(labels))
        if not series or not series.count:
            return math.nan
        return series.sum / series.count

    def _series_snapshot(self, series: _HistogramSeries) -> dict:
        return {
            "count": series.count,
            "sum": series.sum,
            "min": series.min if series.count else None,
            "max": series.max if series.count else None,
            "mean": series.sum / series.count if series.count else None,
        }

    def snapshot(self):
        if not self._series or set(self._series) == {""}:
            series = self._series.get("") or _HistogramSeries()
            return self._series_snapshot(series)
        return {key: self._series_snapshot(s) for key, s in self._series.items()}


class MetricsRegistry:
    """A named collection of metrics with idempotent registration.

    ``registry.counter("x")`` returns the same :class:`Counter` on
    every call, so instrumentation sites don't need to coordinate
    creation order.  Re-registering a name as a different kind is a
    bug and raises.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, kind, name: str, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {kind.__name__}"
                )
            return existing
        metric = self._metrics[name] = kind(name, **kwargs)
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help=help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get(Histogram, name, help=help)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def snapshot(self) -> dict:
        """A JSON-serializable ``{name: value-or-series}`` dict."""
        return {name: self._metrics[name].snapshot() for name in sorted(self._metrics)}
