"""Asyncio networked runtime.

The paper's validator (Section 4) is a networked, multi-core Rust
process using tokio, raw TCP, and a write-ahead log for crash recovery.
This package is its Python/asyncio counterpart:

* :mod:`repro.runtime.transport` — TCP and in-memory transports;
* :mod:`repro.runtime.wal` — write-ahead log + recovery;
* :mod:`repro.runtime.node` — the validator process;
* :mod:`repro.runtime.cluster` — in-process cluster orchestration;
* :mod:`repro.runtime.process_cluster` — multi-process localhost
  clusters (one OS process per validator, real sockets and fsyncs).

It runs real multi-validator clusters in one process (memory transport)
or across processes/machines (TCP transport); the simulator remains the
tool for latency benchmarks, since an asyncio prototype's timing is not
representative of the paper's Rust implementation.  What validators say
to each other — the messages and their length-prefixed wire format — is
:mod:`repro.messages`, shared with the simulator.
"""

from .transport import MemoryHub, MemoryTransport, TcpTransport, Transport
from .wal import WalRecord, WriteAheadLog
from ..statesync import RECOVER_MODES
from .node import ValidatorNode
from .cluster import LocalCluster

__all__ = [
    "Transport",
    "MemoryHub",
    "MemoryTransport",
    "TcpTransport",
    "WalRecord",
    "WriteAheadLog",
    "RECOVER_MODES",
    "ValidatorNode",
    "LocalCluster",
]
