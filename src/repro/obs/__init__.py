"""Unified observability layer shared by both execution fabrics.

The simulator runs on virtual time and the asyncio runtime on wall
clocks, but both answer the same question — *where did a transaction's
latency go?* — through the same three pieces:

- :mod:`repro.obs.trace`: a :class:`Tracer` recording typed span and
  instant events over the transaction/block lifecycle (submitted →
  included → proposed/received/certified → wave decided → committed →
  executed).  The default is a shared no-op tracer whose only cost on
  the hot path is one attribute check (``tracer.enabled``), pinned by
  ``tests/obs/test_trace.py`` (an untraced run never reaches it).
- :mod:`repro.obs.export`: JSONL span logs and the Chrome trace-event
  format (one pid per validator, one tid per subsystem) loadable in
  Perfetto or speedscope, written under ``results/trace/``.
- :mod:`repro.obs.metrics`: a dependency-free
  :class:`MetricsRegistry` (counters, gauges, histograms with labels)
  that the runtime flushes into its status JSON and the simulator uses
  for the per-stage latency breakdown.
"""

from repro.obs.export import write_chrome_trace, write_jsonl
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import (
    LIFECYCLE_STAGES,
    NULL_TRACER,
    SUBSYSTEMS,
    NullTracer,
    TraceEvent,
    Tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LIFECYCLE_STAGES",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "SUBSYSTEMS",
    "TraceEvent",
    "Tracer",
    "write_chrome_trace",
    "write_jsonl",
]
