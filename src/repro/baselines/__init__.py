"""Baseline protocols evaluated against Mahi-Mahi (Section 5).

Both run on :class:`repro.core.Committer`'s commit sequencer (cursor
walk, linearization, commit chain, checkpoints, epoch activation) and
are built like it, from ``(store, schedule, coin, config)``:

* :mod:`repro.baselines.cordial_miners` — Cordial Miners [28]: the same
  uncertified DAG and decision rules, but non-overlapping 5-round waves
  with a single leader and no direct skip rule.  The paper notes Cordial
  Miners had no public implementation; like the paper, this repo
  provides one.
* :mod:`repro.baselines.tusk` — Tusk [18]: a certified DAG (three
  message delays per round, enforced by the simulator's explicit
  header/ack/certificate exchange), 2-round waves, and its own decision
  rule (``f + 1`` support, DAG-Rider-style recursion).
"""

from .cordial_miners import make_cordial_miners_committer
from .tusk import TuskCommitter

__all__ = ["make_cordial_miners_committer", "TuskCommitter"]
