"""The simulator's cost table: every price a simulated run charges.

The paper's claims are latencies and a throughput knee measured on its
Section 5.1 testbed: 10 Gbps links and 512-byte transactions.  The
simulator reproduces them by pricing three kinds of work, all here:

* **CPU time** in two single-threaded stages per validator (Section 5.2
  discusses both).  *Ingress*: a client transaction is signature-checked
  before it enters the mempool (about one ed25519 verification each),
  which caps per-validator intake and produces the throughput knee of
  Figure 3.  *Consensus*: every received block costs a base amount plus
  a per-transaction amount (hashing, deduplication, storage), and more
  on a certified DAG (Tusk), whose validators verify the
  ``2f + 1``-signature certificate of every vertex (Section 2.2).  A
  warm restart's WAL replay is local work, charged to the consensus
  stage.
* **Wire bytes**: a message is priced by what its fields carry.
* **Bandwidth**: each hop occupies the sender's uplink for its bytes.

Every constant carries one provenance tag (:data:`PROVENANCE`):
``paper`` (the Section 5.1 testbed), ``fitted`` (chosen to match a
measured curve), ``budget`` (a simulator ceiling or quantum, not a fact
about the testbed) or ``unsourced`` (neither the history nor the change
log says where it came from).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from ..block import Block
from ..statesync.recovery import WalReplay
from ..transaction import DEFAULT_TX_SIZE

#: Simulated transactions per second, at most.  Above it one simulated
#: transaction stands for ``load_tps / MAX_SIM_TX_RATE`` real ones
#: (:attr:`~repro.sim.runner.ExperimentConfig.batch_weight`).
MAX_SIM_TX_RATE = 2_000.0

#: Real transactions one block may carry (divided by the batch weight
#: for the simulated transactions a proposal takes).
MAX_BLOCK_TRANSACTIONS = 100_000


@dataclass(frozen=True, slots=True)
class CostModel:
    """The prices of one simulated run, shared by its network and every
    validator.

    The first four fields are what the run's config decides (the
    experiment fills them in); the rest is the table.  Its constants
    are fields where a test varies them, class constants otherwise.
    The defaults price one 512-byte real transaction per simulated one
    and charge no CPU time (pure message-delay arithmetic).
    """

    #: Real transactions one simulated transaction stands for (scales
    #: per-transaction CPU time and bytes).
    tx_weight: float = 1.0
    #: Mean real transaction size in bytes.
    mean_tx_size: float = float(DEFAULT_TX_SIZE)
    #: Price a block's bytes per transaction (each may carry a
    #: ``size_hint``) instead of at the mean size.
    mixed_sizes: bool = False
    #: Charge CPU time at all.
    model_cpu: bool = False

    # CPU seconds.
    #: Ingress stage, per real transaction.
    tx_ingress_cost: float = 80e-6
    #: Consensus stage, per received block.
    block_base_cost: float = 0.3e-3
    #: Consensus stage, per real transaction in a received block.
    tx_consensus_cost: float = 2.5e-6
    #: What a certified DAG multiplies the per-transaction cost by.
    certified_multiplier: ClassVar[float] = 2.0
    #: Share of it paid when a Tusk header arrives (buffered and acked
    #: only; verification happens on the certificate).
    header_cost_factor: ClassVar[float] = 0.2
    #: Consensus stage, per message that carries no block: an ack, a
    #: fetch or checkpoint request, a checkpoint response (digests, not
    #: blocks).
    control_message_cost: ClassVar[float] = 20e-6
    #: Share of the consensus cost a replayed WAL block costs: replay
    #: skips signature verification (blocks were verified before they
    #: were logged) but still hashes and re-indexes every block.
    wal_replay_factor: ClassVar[float] = 0.25

    # Wire bytes.
    #: A parent reference (author + round + digest).
    ref_size: ClassVar[int] = 44
    #: A block's fixed header (author, round, signature, coin share).
    block_header_size: ClassVar[int] = 150
    #: A signature: a Tusk ack, each signer of a certificate.
    signature_size: ClassVar[int] = 64
    #: A request's count (a deep fetch's floor and token ride in it).
    count_size: ClassVar[int] = 4
    #: A message with no field (a bare tag: the checkpoint request).
    bare_message_size: ClassVar[int] = 16
    #: Per-hop framing (TCP/IP headers) on top of the message.
    message_overhead: ClassVar[int] = 128

    # The network.
    #: Each validator's uplink in bytes per second: 10 Gbps.
    bandwidth: float = 10e9 / 8
    #: Delivery quantum in seconds: messages arriving on one link within
    #: one tick are delivered together at the tick boundary, one event a
    #: link a tick (like interrupt coalescing; 0 delivers at the exact
    #: arrival).  Half a millisecond is 1-2 % of the WAN latencies.
    delivery_tick: float = 0.0005
    #: Least spacing of two arrivals on one link (per-link FIFO).
    fifo_gap: ClassVar[float] = 1e-9

    def ingress_price(self, slow: float = 1.0) -> float | None:
        """Ingress-stage seconds per simulated transaction at ``slow``
        times the full-speed cost; ``None`` without a CPU model (there
        is no stage)."""
        return self.tx_ingress_cost * self.tx_weight * slow if self.model_cpu else None

    def stage_price(self, block: Block, header: bool, certified: bool) -> float:
        """Full-speed consensus-stage seconds of receiving ``block`` (as
        a Tusk ``header``: the share paid before it is certified).

        Memoized on the block, like its wire size: every validator of a
        run prices a block alike, and each receives it.  Both prices
        share one attribute: a block's ``__dict__`` grows to a larger
        table past fifteen keys."""
        prices = block.__dict__.get("_sim_stage_prices")
        if prices is None:
            multiplier = self.certified_multiplier if certified else 1.0
            per_tx = self.tx_consensus_cost * self.tx_weight
            count = len(block.transactions)
            prices = (
                self.block_base_cost + per_tx * multiplier * count,
                self.block_base_cost + per_tx * (multiplier * self.header_cost_factor) * count,
            )
            object.__setattr__(block, "_sim_stage_prices", prices)
        return prices[header]

    def replay_price(self, replay: WalReplay) -> float:
        """Full-speed consensus-stage seconds of a warm restart's WAL
        replay (0 without a CPU model)."""
        if not self.model_cpu or not replay.blocks:
            return 0.0
        per_tx = self.tx_consensus_cost * self.tx_weight
        full = self.block_base_cost * replay.blocks + per_tx * replay.transactions
        return full * self.wal_replay_factor

    def wire_size(self, message) -> int:
        """Wire bytes of any message: the sum of what its fields carry
        (a bare tag's, if it has none).  The fields are read by name off
        ``__match_args__``, which dataclasses and named tuples both
        define."""
        names = type(message).__match_args__
        size = 0 if names else self.bare_message_size
        for name in names:
            value = getattr(message, name)
            if name == "block":
                size += self.block_wire_size(value)
            elif name == "blocks":
                size += sum(map(self.block_wire_size, value))
            elif name == "refs":
                size += self.ref_size * len(value) + self.count_size
            elif name == "pruned":
                size += self.ref_size * len(value)
            elif name == "checkpoints":
                size += sum(c.wire_size for c in value) + self.bare_message_size
            elif name == "digest":
                size += self.signature_size
            elif name == "signatures":
                size += self.signature_size * value
        return size

    def block_wire_size(self, block: Block) -> int:
        """The block's wire bytes, memoized on the block: asked for once
        a recipient on broadcast and once a fetch served, it never
        changes (blocks are immutable and shared by every validator)."""
        size = block.__dict__.get("_sim_wire_size")
        if size is None:
            tx_wire_size = self.tx_weight * self.mean_tx_size
            if self.mixed_sizes:
                tx_bytes = sum(
                    self.tx_weight * tx.size_hint if tx.size_hint is not None else tx_wire_size
                    for tx in block.transactions
                )
            else:
                tx_bytes = tx_wire_size * len(block.transactions)
            size = int(self.block_header_size + self.ref_size * len(block.parents) + tx_bytes)
            object.__setattr__(block, "_sim_wire_size", size)
        return size

    def hop(self, size: int) -> tuple[int, float]:
        """A hop of a ``size``-byte message: its bytes on the wire,
        framing included, and the seconds they occupy the uplink."""
        wire_size = size + self.message_overhead
        return wire_size, wire_size / self.bandwidth


#: Every constant's provenance tag by name: the two module budgets and
#: each constant of the table.
PROVENANCE = {
    "MAX_SIM_TX_RATE": "budget",
    "MAX_BLOCK_TRANSACTIONS": "budget",
    "tx_ingress_cost": "unsourced",
    "block_base_cost": "unsourced",
    "tx_consensus_cost": "unsourced",
    "certified_multiplier": "unsourced",
    "header_cost_factor": "unsourced",
    "control_message_cost": "unsourced",
    "wal_replay_factor": "unsourced",
    "ref_size": "unsourced",
    "block_header_size": "unsourced",
    "signature_size": "unsourced",
    "count_size": "unsourced",
    "bare_message_size": "unsourced",
    "message_overhead": "unsourced",
    "bandwidth": "paper",
    "delivery_tick": "budget",
    "fifo_gap": "budget",
}
