#!/usr/bin/env python3
"""The artifact checks ``.github/workflows/ci.yml`` runs, one subcommand
each, so the logic is importable and covered by tier-1
(``tests/tools/test_ci_checks.py``) instead of living in YAML heredocs.

Every check reads files a previous workflow step wrote (or, for
``one-vocabulary``, source files), returns the list of violations
(empty = pass) and, from the command line, prints them and exits 1.

Usage::

    python tools/ci_checks.py cluster-metrics [results/cluster/cluster_metrics.json]
    python tools/ci_checks.py cluster-traces [results/trace/cluster]
    python tools/ci_checks.py fleet-identity [results-serial] [results]
    python tools/ci_checks.py points-match   A B [--ignore FIELD ...]
    python tools/ci_checks.py sim-trace      [results/trace/sim-tusk.trace.json]
    python tools/ci_checks.py data-plane     [results/rt-drain.traced.out]
    python tools/ci_checks.py commit-walk    [results/sim-mahi-n50.traced.out]
    python tools/ci_checks.py fan-out        [results/sim-mahi-n50.traced.out]
    python tools/ci_checks.py tusk-poll      [results/sim-tusk-n10.traced.out]
    python tools/ci_checks.py tx-path        [results/sim-tusk-n10.traced.out]
    python tools/ci_checks.py one-vocabulary [HOST.py ...]
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def cluster_metrics(path: str = "results/cluster/cluster_metrics.json") -> list[str]:
    """``bench_cluster.py``'s metrics carry every scenario's claims
    (recovery in each requested mode, an adopted checkpoint base, a
    completed resize)."""
    from benchmarks.curve_checks import check_cluster_metrics

    return check_cluster_metrics(json.loads(Path(path).read_text()))


def _trace_stage_gaps(paths: list[Path], stages: tuple[str, ...]) -> list[str]:
    names: set[str] = set()
    for path in paths:
        names |= {row.get("name") for row in json.loads(path.read_text())["traceEvents"]}
    missing = [stage for stage in stages if stage not in names]
    return [f"lifecycle stages missing from traces: {missing}"] if missing else []


def cluster_traces(directory: str = "results/trace/cluster") -> list[str]:
    """Across the committee's Perfetto traces every lifecycle stage
    appears (minus certification: the cluster runs uncertified)."""
    from repro.obs.trace import UNCERTIFIED_STAGES

    traces = sorted(Path(directory).glob("*.trace.json"))
    if not traces:
        return ["no cluster trace files written"]
    return _trace_stage_gaps(traces, UNCERTIFIED_STAGES)


def sim_trace(path: str = "results/trace/sim-tusk.trace.json") -> list[str]:
    """The traced sim point runs Tusk, so all eight stages —
    ``block_certified`` included — must appear."""
    from repro.obs.trace import LIFECYCLE_STAGES

    return _trace_stage_gaps([Path(path)], LIFECYCLE_STAGES)


def _points(root: str, ignored: tuple[str, ...] = ()) -> dict:
    """``{file name: content}`` of the point files under ``root``: the
    bytes, or — with fields of ``result`` to ignore — the parsed point
    without them.  Wall clocks live in ``.wall.json`` sidecars and are
    never compared."""
    found = {}
    for path in Path(root, "points").glob("*.json"):
        if path.name.endswith(".wall.json"):
            continue
        found[path.name] = path.read_bytes()
        if ignored:
            point = found[path.name] = json.loads(found[path.name])
            for field in ignored:
                point["result"].pop(field, None)
    return found


def points_match(ours: str, theirs: str, *options: str) -> list[str]:
    """The two ``results/`` trees hold the same point files and every
    point is equal: byte for byte, or, after ``--ignore FIELD ...``, in
    everything but those fields of its ``result`` (a change that moves
    ``events_processed`` alone passes with that field ignored and fails
    without)."""
    if options and (options[0] != "--ignore" or len(options) < 2):
        return ["usage: points-match A B [--ignore FIELD ...]"]
    a, b = _points(ours, options[1:]), _points(theirs, options[1:])
    if not a:
        return [f"no points under {ours}"]
    violations = []
    if a.keys() != b.keys():
        violations.append(f"point sets differ: {sorted(a.keys() ^ b.keys())}")
    differing = [name for name in a if name in b and a[name] != b[name]]
    if differing:
        violations.append(f"point files differ: {differing}")
    return violations


def fleet_identity(serial: str = "results-serial", fleet: str = "results") -> list[str]:
    """The 2-worker fleet's point cache is byte-identical to the serial
    one (wall clocks live in ``.wall.json`` sidecars so this holds), and
    both workers completed points — parallelism as a count, exact on any
    runner, where a speedup is a time that a one-core runner cannot
    show."""
    if not _points(serial):
        return ["serial run produced no points"]
    violations = points_match(serial, fleet)
    summary = json.loads(Path(fleet, "summary.json").read_text())["fleet"]
    if summary["workers"] != 2:
        violations.append(f"fleet ran {summary['workers']} workers, not 2")
    if summary["worker_failures"]:
        violations.append(f"fleet workers failed: {summary['worker_failures']}")
    completed = {worker: n for worker, n in summary["completed_by"].items() if n >= 1}
    if len(completed) != 2:
        violations.append(f"points were completed by {completed}, not by 2 workers")
    return violations


def _traced_run_violations(path: str, count_checks) -> list[str]:
    """Violations of a traced ``benchmarks/perf/run.py --workload W
    --trace 1`` run, read from its captured standard output (the last
    line is the result object): nothing failed, the outputs were
    correct, and whatever ``count_checks(value)`` — handed a per-layer
    metric reader that yields ``None`` for a metric the run never
    reported — asks of the workload's counts."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines:
        return ["the traced run printed nothing"]
    result = json.loads(lines[-1])
    checks = {
        f"{result['failed']} of {result['attempted']} transactions failed": result["failed"] == 0,
        "outputs failed the benchmark's correctness check": result["correct"] is True,
        **count_checks(lambda name: result["metrics"].get(name, {}).get("value")),
    }
    return [message for message, ok in checks.items() if not ok]


def data_plane(path: str = "results/rt-drain.traced.out") -> list[str]:
    """The traced ``rt-drain`` run drained every transaction correctly
    and never used the single-record codec: a section is encoded,
    checked and read in bulk, so ``Transaction.encode`` and
    ``Transaction.decode`` are each called 0 times (24,000 and 96,000
    under seed 7 while a section was a walk of interleaved records) —
    counts, so they repeat on any runner."""

    def counts(value) -> dict[str, bool]:
        encodes, decodes = value("transaction.encode.calls"), value("transaction.decode.calls")
        return {
            f"transaction.encode.calls is {encodes}, not 0": encodes == 0,
            f"transaction.decode.calls is {decodes}, not 0": decodes == 0,
        }

    return _traced_run_violations(path, counts)


def _calls_at_most(value, layer: str, bound: str = "dag.store") -> dict[str, bool]:
    """``layer`` was entered at most once per call of ``bound`` (by
    default: per store call)."""
    calls, limit = value(f"{layer}.calls"), value(f"{bound}.calls")
    return {
        f"{layer}.calls is {calls}, above {bound}.calls ({limit})": (
            calls is not None and limit is not None and calls <= limit
        )
    }


def commit_walk(path: str = "results/sim-mahi-n50.traced.out") -> list[str]:
    """The traced ``sim-mahi-n50`` run committed correctly, every
    decision rule it ran came back decided, and the commit walk was
    entered at most once per store call (a poll per insert plus the
    sweeps that found something: 25,350 against 27,550 under seed 7;
    50,100 when every poll swept) — counts, exact on any runner."""

    def counts(value) -> dict[str, bool]:
        decided = value("core.committer.decided_per_classified")
        return {
            f"core.committer.decided_per_classified is {decided}, not 1.0": decided == 1.0,
            **_calls_at_most(value, "core.committer"),
        }

    return _traced_run_violations(path, counts)


def fan_out(path: str = "results/sim-mahi-n50.traced.out") -> list[str]:
    """The traced ``sim-mahi-n50`` run entered the network once per
    broadcast, not once per hop: ``sim.network.calls`` is at most a tenth
    of ``dag.store.calls`` (550 against 27,550 under seed 7; 27,500 while
    every broadcast sent to its 49 peers one ``send`` at a time)."""

    def counts(value) -> dict[str, bool]:
        calls, store = value("sim.network.calls"), value("dag.store.calls")
        return {
            f"sim.network.calls is {calls}, above a tenth of dag.store.calls ({store})": (
                calls is not None and store is not None and calls <= store / 10
            )
        }

    return _traced_run_violations(path, counts)


def tusk_poll(path: str = "results/sim-tusk-n10.traced.out") -> list[str]:
    """The traced ``sim-tusk-n10`` run committed correctly and Tusk's
    own walk (its ``extend_commit_sequence`` plus the sweeps that found
    something) was entered at most once per store call: 6,557 against
    6,781 under seed 7; 12,026 when every poll swept."""
    return _traced_run_violations(
        path, lambda value: _calls_at_most(value, "baselines.tusk")
    )


def tx_path(path: str = "results/sim-tusk-n10.traced.out") -> list[str]:
    """A traced ``sim-*`` run kept its books per block, not per simulated
    transaction: the metrics recorder was entered no more often than the
    DAG store (submissions are counted, not recorded; inclusion, arrival
    and commit once per section), and so were the stage histograms.
    Under seed 7, ``sim-tusk-n10`` reads ``sim.metrics.calls`` 1,868
    against ``dag.store.calls`` 6,781 (41,959 while every submission was
    recorded, 151,654 while every fact was) and ``obs.metrics.calls`` 0
    (129,240 with four ``observe`` calls per committed transaction);
    ``sim-mahi-n10-faulty``, whose arrivals also retarget around a down
    validator, reads 1,610 against 4,693 (the store calls count the
    insertions it refused for a missing parent; 33,678 while every
    submission was recorded)."""

    def counts(value) -> dict[str, bool]:
        return {
            **_calls_at_most(value, "sim.metrics"),
            **_calls_at_most(value, "obs.metrics"),
        }

    return _traced_run_violations(path, counts)


#: The string kinds the simulator used to dispatch on, and the messages
#: only the driver (:meth:`ValidatorDriver.on_message`, its synchronizer)
#: may build or read: of the seven, a host names ``BlockMessage`` alone.
RETIRED_KINDS = frozenset(
    {"ack", "cert", "fetch_req", "fetch_resp", "sync_resp", "ckpt_req", "ckpt_resp"}
)
DRIVER_ONLY = frozenset(
    {
        "FetchRequest",
        "FetchResponse",
        "SyncRequest",
        "SyncResponse",
        "CheckpointRequest",
        "CheckpointResponse",
    }
)
HOSTS = ("src/repro/sim/node.py", "src/repro/runtime/node.py")


def _referenced_name(node: ast.AST) -> str | None:
    """The identifier a syntax-tree node refers to, if it is a
    reference: a bare name, an attribute, an imported name."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    return None


def one_vocabulary(*paths: str) -> list[str]:
    """The two validator hosts carry messages and never read them: no
    retired string kind is a literal in them, and no message the driver
    alone builds and reads is referenced (read off the syntax tree;
    nothing of ``repro`` is imported)."""
    violations = []
    for path in paths or [str(ROOT / host) for host in HOSTS]:
        found = []
        for node in ast.walk(ast.parse(Path(path).read_text(), filename=path)):
            if isinstance(node, ast.Constant) and node.value in RETIRED_KINDS:
                found.append((node.lineno, f"the retired message kind {node.value!r}"))
            elif (name := _referenced_name(node)) in DRIVER_ONLY:
                found.append((node.lineno, f"{name}, which only the driver builds or reads"))
        violations += [f"{path}:{line}: {what}" for line, what in sorted(found)]
    return violations


CHECKS = {
    "cluster-metrics": cluster_metrics,
    "cluster-traces": cluster_traces,
    "fleet-identity": fleet_identity,
    "points-match": points_match,
    "sim-trace": sim_trace,
    "data-plane": data_plane,
    "commit-walk": commit_walk,
    "fan-out": fan_out,
    "tusk-poll": tusk_poll,
    "tx-path": tx_path,
    "one-vocabulary": one_vocabulary,
}


def main(argv: list[str]) -> int:
    if not argv or argv[0] not in CHECKS:
        print(f"usage: ci_checks.py {{{'|'.join(CHECKS)}}} [paths...]", file=sys.stderr)
        return 2
    violations = CHECKS[argv[0]](*argv[1:])
    for violation in violations:
        print(f"{argv[0]}: {violation}", file=sys.stderr)
    if not violations:
        print(f"{argv[0]}: ok")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
