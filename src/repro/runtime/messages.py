"""Re-export of :mod:`repro.messages`, where the wire vocabulary and its
codec live; kept because ``benchmarks/perf/mmperf/layers.py`` resolves
``encode_message`` / ``decode_message`` through this module name."""

from ..messages import decode_message, encode_message

__all__ = ["decode_message", "encode_message"]
