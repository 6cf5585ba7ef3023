"""The declared sweep set, pinned as one digest.

Every declared sweep's points — full scale and smoke — are content
addressed by ``config_hash``; this test folds all of them, in sweep
order, into one digest.  A change that must leave every sweep point
where it is (a refactor, a perf change) passes it unchanged; a change
that adds, drops or alters a point fails it, re-pins the digest and
says why in its change notes.
"""

from __future__ import annotations

import hashlib

from benchmarks.run_all import discover_sweeps
from repro.sim.sweep import config_hash

#: sha256 (first 16 hex digits) of one ``"<sweep name> <config hash>"``
#: line per point, full sweeps first, then their smoke versions.
SWEEP_SET_DIGEST = "16e2f007cd4a411f"


def sweep_set_digest() -> str:
    sweeps = discover_sweeps()
    lines = [
        f"{sweep.name} {config_hash(config)}"
        for sweep in sweeps + [sweep.smoke() for sweep in sweeps]
        for config in sweep.configs
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def test_sweep_set_pinned():
    assert sweep_set_digest() == SWEEP_SET_DIGEST
