"""Re-export of :class:`repro.statesync.synchronizer.Synchronizer`, the
one shallow-fetch table of both fabrics; kept because
``benchmarks/perf/mmperf/layers.py`` patches ``Synchronizer.tick`` and
``Synchronizer.note_missing`` through this module name."""

from ..statesync.synchronizer import Synchronizer

__all__ = ["Synchronizer"]
