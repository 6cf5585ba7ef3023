"""Figure 7 (Appendix D): leader-slot sweep for wave length 5.

Identical methodology to Figure 5 but with Mahi-Mahi-5: 1, 2 and 3
leader slots per round, 10 validators, zero and three crash faults.
The sweeps are declared as data (``SWEEPS``) via the shared builder in
``bench_fig5_leaders_w4``.
"""

from __future__ import annotations

from .bench_fig5_leaders_w4 import leader_sweep_spec

WAVE_PROTOCOL = "mahi-mahi-5"

SWEEPS = (
    leader_sweep_spec("7", WAVE_PROTOCOL, 0),
    leader_sweep_spec("7", WAVE_PROTOCOL, 3),
)
