"""Asyncio networked runtime.

The paper's validator (Section 4) is a networked, multi-core Rust
process using tokio, raw TCP, and a write-ahead log for crash recovery.
This package is its Python/asyncio counterpart:

* :mod:`repro.runtime.messages` — length-prefixed wire format;
* :mod:`repro.runtime.transport` — TCP and in-memory transports;
* :mod:`repro.runtime.wal` — write-ahead log + recovery;
* :mod:`repro.runtime.synchronizer` — missing-ancestor fetching;
* :mod:`repro.runtime.node` — the validator process;
* :mod:`repro.runtime.cluster` — in-process cluster orchestration;
* :mod:`repro.runtime.process_cluster` — multi-process localhost
  clusters (one OS process per validator, real sockets and fsyncs).

It runs real multi-validator clusters in one process (memory transport)
or across processes/machines (TCP transport); the simulator remains the
tool for latency benchmarks, since an asyncio prototype's timing is not
representative of the paper's Rust implementation.
"""

from .messages import (
    BlockMessage,
    CheckpointRequest,
    CheckpointResponse,
    FetchRequest,
    FetchResponse,
    SyncRequest,
    SyncResponse,
    TransactionMessage,
    decode_message,
    encode_message,
)
from .transport import MemoryHub, MemoryTransport, TcpTransport, Transport
from .wal import WalRecord, WriteAheadLog
from .synchronizer import Synchronizer
from ..statesync import RECOVER_MODES
from .node import ValidatorNode
from .cluster import LocalCluster

__all__ = [
    "BlockMessage",
    "FetchRequest",
    "FetchResponse",
    "CheckpointRequest",
    "CheckpointResponse",
    "SyncRequest",
    "SyncResponse",
    "TransactionMessage",
    "encode_message",
    "decode_message",
    "Transport",
    "MemoryHub",
    "MemoryTransport",
    "TcpTransport",
    "WalRecord",
    "WriteAheadLog",
    "Synchronizer",
    "RECOVER_MODES",
    "ValidatorNode",
    "LocalCluster",
]
