"""Local cluster orchestration for the runtime.

Builds a full deployment — committee schedule, keys, coin, transports,
nodes — in one call, over either the in-memory hub or real TCP sockets
on localhost.  Used by the examples and the runtime integration tests.

Beyond steady-state clusters the harness drives the recovery
scenarios: :meth:`LocalCluster.restart` replaces a stopped validator
with a fresh incarnation in any of the three recovery modes (cold,
warm, checkpoint).  The runtime's live resize is
:meth:`~repro.runtime.process_cluster.ProcessCluster.submit_reconfig`.

Every incarnation the cluster built, restarted ones included, is held
to Theorem 1 by :meth:`LocalCluster.assert_consistent_prefixes` (the
shared :class:`~repro.statesync.checkpoint.TotalOrder` checker), which
also runs when an ``async with`` block exits cleanly.
"""

from __future__ import annotations

import asyncio
from pathlib import Path

from ..committee import Committee, CommitteeSchedule
from ..config import ProtocolConfig
from ..crypto.coin import CommonCoin, FastCoin, ThresholdCoin
from ..crypto.signing import NullSignatureScheme, SignatureScheme, generate_keys
from ..dag.validation import BlockVerifier
from ..statesync.checkpoint import TotalOrder
from ..transaction import Transaction
from .node import ValidatorNode
from .transport import MemoryHub, MemoryTransport, TcpTransport, Transport


class Deployment:
    """What every validator of one localhost deployment derives
    identically from ``(n, provisioned, seed)`` — signing keys, the
    genesis committee, the common coin — and the one way a
    :class:`ValidatorNode` is built from them (here and, one process
    each, in :mod:`repro.runtime.process_cluster`)."""

    def __init__(
        self,
        n: int,
        provisioned: int,
        seed: int,
        *,
        signature_scheme: SignatureScheme | None = None,
        threshold_coin: bool = False,
    ) -> None:
        if provisioned < n:
            raise ValueError(f"provisioned ({provisioned}) must cover n ({n})")
        self.n = n
        self.provisioned = provisioned
        self._scheme = signature_scheme or NullSignatureScheme()
        self._keys = generate_keys(self._scheme, provisioned, seed=b"cluster-%d" % seed)
        self.committee = Committee.of_size(
            n, public_keys=[k.public_key for k in self._keys[:n]]
        )
        quorum = self.committee.quorum_threshold
        if threshold_coin:
            self._coins: list[CommonCoin] = ThresholdCoin.deal(provisioned, quorum, seed=seed)
        else:
            shared = FastCoin(seed=b"cluster-coin-%d" % seed, n=provisioned, threshold=quorum)
            self._coins = [shared] * provisioned

    def node(
        self, authority: int, config: ProtocolConfig, transport: Transport, **options
    ) -> ValidatorNode:
        """One incarnation of validator ``authority`` (``options`` are
        :class:`ValidatorNode`'s keyword arguments)."""
        coin = self._coins[authority]
        # The static verifier covers exactly the genesis committee; a
        # reconfigurable deployment (extra provisioned identities) skips
        # per-block verification, like the simulator does — membership
        # there is epoch-dependent and enforced by the core.
        verifier = (
            BlockVerifier(self.committee, self._scheme, coin)
            if self.provisioned == self.n
            else None
        )
        private = self._keys[authority].private_key
        scheme = self._scheme
        return ValidatorNode(
            authority,
            CommitteeSchedule(self.committee, provisioned=self.provisioned),
            config,
            coin,
            transport,
            verifier=verifier,
            sign=lambda data: scheme.sign(private, data),
            **options,
        )


class LocalCluster:
    """A committee of validators running in this process."""

    def __init__(
        self,
        n: int = 4,
        *,
        config: ProtocolConfig | None = None,
        transport: str = "memory",
        base_port: int = 29100,
        signature_scheme: SignatureScheme | None = None,
        threshold_coin: bool = False,
        wal_dir: str | Path | None = None,
        min_block_interval: float = 0.0,
        seed: int = 0,
        provisioned: int | None = None,
        recover_mode: str = "warm",
    ) -> None:
        """Args:
        n: Genesis committee size.
        config: Protocol parameters (defaults to Mahi-Mahi-5, 2 leaders).
        transport: ``"memory"`` or ``"tcp"`` (localhost sockets).
        base_port: First TCP port (validator ``i`` uses ``base_port+i``).
        signature_scheme: Enables real signing + verification; defaults
            to :class:`NullSignatureScheme` (MAC-based, fast).
        threshold_coin: Use the verifiable threshold coin instead of the
            hash-based one (slower, real crypto).
        wal_dir: Directory for per-validator write-ahead logs (no
            persistence when omitted).
        min_block_interval: Proposal pacing in seconds.
        seed: Key/coin derivation seed.
        provisioned: Total wire identities (>= ``n``).  Identities
            ``n .. provisioned-1`` start outside the committee and may
            be joined live by a committed join command
            (:class:`~repro.committee.ReconfigCommand`).
        recover_mode: Default restart path for every node (see
            :data:`~repro.statesync.RECOVER_MODES`).
        """
        self.config = config or ProtocolConfig(wave_length=5, leaders_per_round=2)
        self.n = n
        self.provisioned = provisioned if provisioned is not None else n
        self._deployment = Deployment(
            n,
            self.provisioned,
            seed,
            signature_scheme=signature_scheme,
            threshold_coin=threshold_coin,
        )
        self.committee = self._deployment.committee
        self._hub = MemoryHub() if transport == "memory" else None
        self._addresses = {
            v: ("127.0.0.1", base_port + v) for v in range(self.provisioned)
        }
        self._wal_dir = Path(wal_dir) if wal_dir is not None else None
        self._recover_mode = recover_mode
        self._interval = min_block_interval
        #: The incarnations :meth:`restart` replaced, still checked.
        self._replaced: list[ValidatorNode] = []
        self.nodes: list[ValidatorNode] = [
            self._make_node(i, recover_mode) for i in range(self.provisioned)
        ]

    def _make_node(self, i: int, recover_mode: str) -> ValidatorNode:
        """Build one validator incarnation (also the restart path)."""
        node_transport: Transport
        if self._hub is not None:
            node_transport = MemoryTransport(i, self._hub)
        else:
            node_transport = TcpTransport(i, self._addresses)
        return self._deployment.node(
            i,
            self.config,
            node_transport,
            wal_path=(
                self._wal_dir / f"validator-{i}.wal"
                if self._wal_dir is not None
                else None
            ),
            min_block_interval=self._interval,
            recover_mode=recover_mode,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, validators: list[int] | None = None) -> None:
        """Start the genesis committee (or the given validators)."""
        if validators is None:
            validators = list(range(self.n))
        await asyncio.gather(*(self.nodes[i].start() for i in validators))

    async def stop(self) -> None:
        # Stopping a never-started node is a harmless no-op, so sweep
        # everything (callers may have started nodes directly).
        await asyncio.gather(*(node.stop() for node in self.nodes))

    async def restart(self, validator: int, *, recover_mode: str | None = None) -> ValidatorNode:
        """Replace a (stopped or crashed) validator with a fresh
        incarnation, recover it in the given mode and start it."""
        mode = recover_mode if recover_mode is not None else self._recover_mode
        node = self._make_node(validator, mode)
        self._replaced.append(self.nodes[validator])
        self.nodes[validator] = node
        node.recover()
        await node.start()
        return node

    async def __aenter__(self) -> "LocalCluster":
        await self.start()
        return self

    async def __aexit__(self, exc_type: type | None, *exc: object) -> None:
        await self.stop()
        if exc_type is None:
            self.assert_consistent_prefixes()

    def assert_consistent_prefixes(self) -> int:
        """Theorem 1 across every incarnation this cluster built:
        committed blocks agree at each global index (an incarnation's
        ``committed_blocks`` end at its ledger's ``sequence_length``,
        fed in the order they start), cover every index from 0, replay
        to each adopted checkpoint's chain, and checkpoints and epoch
        schedules agree.  Returns the number of indexes covered; raises
        ``AssertionError`` on the first divergence."""
        order = TotalOrder()

        def start(node: ValidatorNode) -> int:
            return node.core.committer.ledger.sequence_length - len(node.committed_blocks)

        for node in sorted([*self.nodes, *self._replaced], key=start):
            source = f"validator {node.authority}"
            order.commit(start(node), [block.digest for block in node.committed_blocks], source)
            order.ledger(node.core.committer.ledger, source)
        return order.check()

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def submit(self, tx: Transaction, validator: int = 0) -> None:
        """Submit a transaction to one validator's mempool."""
        self.nodes[validator].submit_transaction(tx)

    async def wait_for_commits(
        self, count: int, *, validator: int = 0, timeout: float = 30.0
    ) -> list:
        """Wait until ``validator`` has committed at least ``count``
        blocks; returns its committed block sequence."""
        node = self.nodes[validator]
        await _poll(lambda: len(node.committed_blocks) >= count, timeout)
        return list(node.committed_blocks)

    async def wait_for_transaction(
        self, tx_id: int, *, validator: int = 0, timeout: float = 30.0
    ) -> float:
        """Wait until ``tx_id`` commits at ``validator``; returns the
        asyncio-clock time of the 10 ms poll that first saw it committed
        (at most one poll interval after the commit).  Each poll scans
        only the blocks committed since the previous one."""
        node, scanned = self.nodes[validator], 0

        def committed() -> bool:
            nonlocal scanned
            fresh, scanned = node.committed_blocks[scanned:], len(node.committed_blocks)
            return any(tx.tx_id == tx_id for block in fresh for tx in block.transactions)

        await _poll(committed, timeout)
        return asyncio.get_running_loop().time()


async def _poll(condition, timeout: float) -> None:
    """Test ``condition`` every 10 ms until it holds; ``asyncio.TimeoutError``
    after ``timeout`` seconds."""

    async def wait() -> None:
        while not condition():
            await asyncio.sleep(0.01)

    await asyncio.wait_for(wait(), timeout)
