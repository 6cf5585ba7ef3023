"""Which public functions form each layer, and the metrics they yield.

Layers are named after the modules of ``src/repro``.  ``TARGETS`` is
the whole instrumentation: the traced run wraps exactly these and
unwraps them afterwards.  ``count`` targets are tiny hot functions —
timing them would cost more than they do, so they only get a call
count.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from operator import attrgetter

from .spans import SpanRecorder
from .stats import percentile
from .workloads import Unit

#: ``(layer or count key, module, attribute path, kind)``.
TARGETS = (
    ("core.decider", "repro.core.decider", "Decider.try_direct_decide", "span"),
    ("core.decider", "repro.core.decider", "Decider.try_indirect_decide", "span"),
    ("core.decider.coin_value", "repro.core.decider", "LeaderElector.coin_value", "count"),
    ("core.committer", "repro.core.committer", "Committer.try_decide", "span"),
    ("core.committer", "repro.core.committer", "Committer.extend_commit_sequence", "span"),
    ("dag.traversal", "repro.dag.traversal", "DagTraversal.is_cert", "span"),
    ("dag.traversal", "repro.dag.traversal", "DagTraversal.linearize", "span"),
    ("dag.traversal.is_vote", "repro.dag.traversal", "DagTraversal.is_vote", "count"),
    ("dag.store", "repro.dag.store", "DagStore.add", "span"),
    ("dag.store", "repro.dag.store", "DagStore.prune_below", "span"),
    ("dag.validation", "repro.dag.validation", "BlockVerifier.verify", "span"),
    ("core.protocol", "repro.core.protocol", "MahiMahiCore.add_block", "span"),
    ("core.protocol", "repro.core.protocol", "MahiMahiCore.maybe_propose", "span"),
    ("core.protocol", "repro.core.protocol", "MahiMahiCore.try_commit", "span"),
    ("baselines.tusk", "repro.baselines.tusk", "TuskCommitter.try_decide", "span"),
    ("baselines.tusk", "repro.baselines.tusk", "TuskCommitter.extend_commit_sequence", "span"),
    ("statesync.checkpoint", "repro.statesync.checkpoint", "CommitLedger.extend", "span"),
    ("statesync.checkpoint", "repro.statesync.checkpoint", "CommitLedger.maybe_capture", "span"),
    ("statesync.checkpoint", "repro.statesync.checkpoint", "CommitLedger.adopt", "span"),
    ("sim.events", "repro.sim.events", "EventLoop.run_until", "span"),
    ("sim.network", "repro.sim.network", "SimNetwork.send", "span"),
    ("sim.network", "repro.sim.network", "SimNetwork.broadcast", "span"),
    ("sim.node", "repro.sim.node", "SimValidator.on_batch", "span"),
    ("sim.node", "repro.sim.node", "SimValidator.on_message", "span"),
    ("sim.node", "repro.sim.node", "SimValidator.submit", "span"),
    ("sim.metrics", "repro.sim.metrics", "ExperimentMetrics.record_submission", "span"),
    ("sim.metrics", "repro.sim.metrics", "ExperimentMetrics.record_inclusion", "span"),
    ("sim.metrics", "repro.sim.metrics", "ExperimentMetrics.record_block_times", "span"),
    ("sim.metrics", "repro.sim.metrics", "ExperimentMetrics.record_commit", "span"),
    ("obs.metrics", "repro.obs.metrics", "Counter.inc", "count"),
    ("obs.metrics", "repro.obs.metrics", "Histogram.observe", "count"),
    ("transaction", "repro.transaction", "encode_transactions", "span"),
    ("transaction", "repro.transaction", "decode_transactions", "span"),
    ("transaction.encode", "repro.transaction", "Transaction.encode", "count"),
    ("transaction.decode", "repro.transaction", "Transaction.decode", "count"),
    ("block", "repro.block", "Block.encode", "span"),
    ("block", "repro.block", "Block.decode", "span"),
    ("crypto.hashing", "repro.crypto.hashing", "hash_bytes", "span"),
    ("crypto.hashing", "repro.crypto.hashing", "hash_parts", "span"),
    ("crypto.signing", "repro.crypto.signing", "NullSignatureScheme.sign", "span"),
    ("crypto.signing", "repro.crypto.signing", "NullSignatureScheme.verify", "span"),
    ("crypto.coin", "repro.crypto.coin", "FastCoin.share", "span"),
    ("crypto.coin", "repro.crypto.coin", "FastCoin.reconstruct", "span"),
    ("runtime.messages", "repro.runtime.messages", "encode_message", "span"),
    ("runtime.messages", "repro.runtime.messages", "decode_message", "span"),
    ("runtime.transport", "repro.runtime.transport", "TcpTransport.send", "span"),
    ("runtime.transport", "repro.runtime.transport", "TcpTransport.broadcast", "span"),
    # The delivery callback a node registers: inbound dispatch.
    ("runtime.transport", "repro.runtime.transport", "Transport.on_message", "handler"),
    ("runtime.wal", "repro.runtime.wal", "WriteAheadLog.append", "span"),
    ("runtime.wal.fsync", "os", "fsync", "span"),
    ("runtime.synchronizer", "repro.runtime.synchronizer", "Synchronizer.tick", "span"),
    ("runtime.synchronizer", "repro.runtime.synchronizer", "Synchronizer.note_missing", "span"),
)

#: Slot classifications that came back decided (the useful outcomes of
#: ``core.decider`` calls).
DECIDED = "core.decider.decided"

#: Timed layers, in table order (``runtime.wal.fsync`` reports as
#: ``runtime.wal.fsync_s``, not as a layer of its own).
LAYERS = tuple(
    dict.fromkeys(
        key for key, _, _, kind in TARGETS if kind != "count" and key != "runtime.wal.fsync"
    )
)
COUNT_KEYS = tuple(dict.fromkeys(key for key, _, _, kind in TARGETS if kind == "count"))

#: Metrics taken from work counts rather than spans, with their units.
DERIVED = (
    ("runtime.wal.fsync_s", "s"),
    ("core.committer.decided_per_classified", "ratio"),
    ("dag.traversal.cert_checks_per_block", "ratio"),
    ("transaction.encodes_per_tx", "ratio"),
    ("block.encodes_per_block", "ratio"),
    ("runtime.wal.fsyncs_per_block", "ratio"),
    ("runtime.wal.bytes_per_tx", "B/tx"),
    ("runtime.wal.fsync_probe_ms", "ms"),
    ("runtime.transport.frames_per_round", "ratio"),
    ("runtime.transport.bytes_per_tx", "B/tx"),
    ("runtime.synchronizer.fetches_per_block", "ratio"),
    ("runtime.rounds_per_s", "1/s"),
    ("runtime.committed_tx_per_s", "1/s"),
    ("runtime.cpu_util", "ratio"),
    ("runtime.commit_latency_p99_ms", "ms"),
    ("sim.events.events_per_s", "1/s"),
    ("sim.events.events_per_virtual_s", "1/s"),
    ("sim.network.messages_per_block", "ratio"),
    ("sim.network.bytes_per_tx", "B/tx"),
    ("sim.metrics.uncommitted_share", "ratio"),
    ("harness.generator_late_p99_ms", "ms"),
    ("harness.span_overhead_ns", "ns"),
    ("harness.unattributed_share", "ratio"),
    ("harness.trace_overhead_x", "x"),
    ("harness.calib_s", "s"),
)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("commit_latency_p50_ms", "ms"),
    ("commit_latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    tuple((f"{layer}.{suffix}", unit) for layer in LAYERS for suffix, unit in
          (("calls", "count"), ("self_s", "s")))
    + tuple((f"{key}.calls", "count") for key in COUNT_KEYS)
    + DERIVED
)


def install(recorder: SpanRecorder) -> None:
    """Wrap every target (undone by ``recorder.unpatch()``)."""
    for key, module_name, path, kind in TARGETS:
        owner_name, _, attr = path.rpartition(".")
        name = attr if owner_name else path

        def wrap(fn, key=key, kind=kind, name=name):
            if kind == "count":
                return recorder.count(fn, key)
            if kind == "handler":

                def on_message(self, handler):
                    return fn(self, recorder.span(handler, key, "handler"))

                return on_message
            tally = (DECIDED, attrgetter("is_decided")) if key == "core.decider" else None
            return recorder.span(fn, key, name, tally)

        module = importlib.import_module(module_name)
        if owner_name:
            recorder.patch_attribute(getattr(module, owner_name), attr, wrap)
        elif module_name.startswith("repro."):
            recorder.patch_function(module_name, path, wrap)
        else:  # a library function the program calls through its module (os.fsync)
            recorder.patch_attribute(module, path, wrap)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    recorder: SpanRecorder,
    traced: list[Unit],
    reference: Unit,
    calib_s: float,
    fsync_probe_ms: float,
) -> dict[str, float]:
    """Every per-layer metric, per unit of work.

    Counts and self times come from the ``traced`` units (divided by
    how many there were); rates that tracing would distort come from
    the untraced ``reference`` unit of the same run.  A metric whose
    layer the workload never enters reads 0.
    """
    units = len(traced)
    calls = recorder.calls
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = recorder.layer_calls(layer) / units
        out[f"{layer}.self_s"] = recorder.self_seconds(layer) / units
    for key in COUNT_KEYS:
        out[f"{key}.calls"] = calls.get(key, 0) / units
    out["runtime.wal.fsync_s"] = recorder.self_seconds("runtime.wal.fsync") / units

    fn_calls = recorder.function_calls
    total: dict[str, float] = defaultdict(float)
    for unit in traced:
        for fact, value in unit.facts.items():
            total[fact] += value
    out["core.committer.decided_per_classified"] = _ratio(
        calls.get(DECIDED, 0), recorder.layer_calls("core.decider")
    )
    out["dag.traversal.cert_checks_per_block"] = _ratio(
        fn_calls.get("dag.traversal:is_cert", 0), fn_calls.get("dag.store:add", 0)
    )
    out["transaction.encodes_per_tx"] = _ratio(calls.get("transaction.encode", 0), total["tx"])
    out["block.encodes_per_block"] = _ratio(fn_calls.get("block:encode", 0), total["blocks"])
    out["runtime.wal.fsyncs_per_block"] = _ratio(
        fn_calls.get("runtime.wal.fsync:fsync", 0), total["blocks"]
    )
    out["runtime.wal.bytes_per_tx"] = _ratio(total["wal_bytes"], total["tx"])
    out["runtime.wal.fsync_probe_ms"] = fsync_probe_ms
    out["runtime.transport.frames_per_round"] = _ratio(total["frames"], total["rounds"])
    out["runtime.transport.bytes_per_tx"] = _ratio(total["net_bytes"], total["tx"])
    out["runtime.synchronizer.fetches_per_block"] = _ratio(total["fetches"], total["blocks"])

    # Facts a fabric does not report read 0, and so do their metrics.
    facts: dict[str, float] = defaultdict(float, reference.facts)
    busy_s = facts["window_s"] or reference.wall_s
    committed = reference.attempted - reference.failed if facts["rounds"] else 0
    out["runtime.rounds_per_s"] = _ratio(facts["rounds"], facts["elapsed_s"])
    out["runtime.committed_tx_per_s"] = _ratio(committed, busy_s)
    out["runtime.cpu_util"] = _ratio(reference.cpu_s, busy_s) if facts["rounds"] else 0.0
    out["runtime.commit_latency_p99_ms"] = (
        percentile(reference.latencies_ms, 99) if reference.latencies_ms else 0.0
    )
    out["sim.events.events_per_s"] = _ratio(facts["events"], reference.wall_s)
    out["sim.events.events_per_virtual_s"] = _ratio(facts["events"], facts["virtual_s"])
    out["sim.network.messages_per_block"] = _ratio(facts["messages"], facts["blocks"])
    out["sim.network.bytes_per_tx"] = _ratio(facts["sim_bytes"], facts["real_tx"])
    out["sim.metrics.uncommitted_share"] = facts["uncommitted"]
    out["harness.generator_late_p99_ms"] = facts["late_ms"]
    out["harness.span_overhead_ns"] = float(recorder.inner_ns + recorder.outer_ns)
    traced_cpu = sum(unit.cpu_s for unit in traced) / units
    # Everything inside a span is processor time on the one busy thread
    # except the fsync wait, so busy time is CPU seconds plus that wait.
    busy = traced_cpu + out["runtime.wal.fsync_s"]
    out["harness.unattributed_share"] = 1.0 - _ratio(recorder.top_ns / 1e9 / units, busy)
    out["harness.trace_overhead_x"] = _ratio(traced_cpu, reference.cpu_s)
    out["harness.calib_s"] = calib_s
    return out
