"""Cordial Miners [28] commit rule on the shared uncertified DAG.

Cordial Miners is the protocol closest to Mahi-Mahi (Section 6): both
forgo certification and interpret votes/certificates implicitly in the
DAG.  The differences, reflected here exactly:

* **non-overlapping waves**: one wave every ``wave_length`` rounds
  instead of one per round, so at most one leader block commits per
  wave;
* **single leader slot** per wave;
* **no direct skip rule**: a faulty leader's slot stays undecided until
  a later committed leader anchors it, which is what costs Cordial
  Miners roughly two extra rounds under crash faults (Section 5.3).

Everything else (the DAG, votes, certificates, the anchor rule, and
the whole commit sequencer: linearization, checkpoints, epoch
activation) is :class:`~repro.core.Committer`'s, mirroring how the paper
built both systems on the same components (Section 4) — so this module
adds three constructor arguments and no code path.
"""

from __future__ import annotations

from ..committee import Committee, CommitteeSchedule
from ..config import ProtocolConfig
from ..core.committer import Committer
from ..crypto.coin import CommonCoin
from ..dag.store import DagStore


def make_cordial_miners_committer(
    store: DagStore,
    committee: "Committee | CommitteeSchedule",
    coin: CommonCoin,
    config: ProtocolConfig,
) -> Committer:
    """Build a Cordial-Miners committer over ``store``: one wave every
    ``config.wave_length`` rounds (the paper describes the 5-round
    variant — "at most one leader block every five rounds"), a single
    leader slot whatever ``config.leaders_per_round`` says, no direct
    skip.  Same four arguments as every other committer."""
    return Committer(
        store,
        committee,
        coin,
        config.with_leaders(1),
        wave_stride=config.wave_length,
        direct_skip_enabled=False,
    )
