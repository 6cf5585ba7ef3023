#!/usr/bin/env python3
"""The artifact checks ``.github/workflows/ci.yml`` runs, one subcommand
each, so the logic is importable and covered by tier-1
(``tests/tools/test_ci_checks.py``) instead of living in YAML heredocs.

Every check reads files a previous workflow step wrote (or, for
``one-vocabulary``, ``one-restart-path``, ``one-cost-table`` and
``reachable``, source files; for ``bench-trajectory``, the checked-in
``BENCH_*.json`` files), returns the list of violations
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
    python tools/ci_checks.py hash-once      [results/sim-mahi-n50.traced.out]
    python tools/ci_checks.py tusk-poll      [results/sim-tusk-n10.traced.out]
    python tools/ci_checks.py tx-path        [results/sim-tusk-n10.traced.out]
    python tools/ci_checks.py one-vocabulary [HOST.py ...]
    python tools/ci_checks.py one-restart-path [HOST.py ...]
    python tools/ci_checks.py one-cost-table [MODULE.py ...]
    python tools/ci_checks.py reachable      [REPO_ROOT]
    python tools/ci_checks.py bench-trajectory [REPO_ROOT]
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
    """The traced ``rt-drain`` run drained every transaction correctly,
    never used the single-record codec, and never joined a block on its
    own: a section is encoded, checked and read in bulk, so
    ``Transaction.encode`` and ``Transaction.decode`` are each called 0
    times (24,000 and 96,000 under seed 7 while a section was a walk of
    interleaved records), and a frame or WAL record takes a block's
    parts as they lie, so ``block.encodes_per_block`` reads 0 (4.86
    while every WAL append and broadcast called ``Block.encode``) —
    counts, so they repeat on any runner."""

    def counts(value) -> dict[str, bool]:
        encodes, decodes = value("transaction.encode.calls"), value("transaction.decode.calls")
        joins = value("block.encodes_per_block")
        return {
            f"transaction.encode.calls is {encodes}, not 0": encodes == 0,
            f"transaction.decode.calls is {decodes}, not 0": decodes == 0,
            f"block.encodes_per_block is {joins}, not 0": joins == 0,
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


_PARTS = {10: "a tenth", 100: "a hundredth"}


def _calls_at_most_a_part(value, layer: str, parts: int = 10) -> dict[str, bool]:
    """``layer`` was entered at most once per ``parts`` store calls
    (inclusive)."""
    calls, store = value(f"{layer}.calls"), value("dag.store.calls")
    return {
        f"{layer}.calls is {calls}, above {_PARTS[parts]} of dag.store.calls ({store})": (
            calls is not None and store is not None and calls <= store / parts
        )
    }


def fan_out(path: str = "results/sim-mahi-n50.traced.out") -> list[str]:
    """The traced ``sim-mahi-n50`` run entered the network once per
    broadcast, not once per hop: ``sim.network.calls`` is at most a tenth
    of ``dag.store.calls`` (550 against 27,550 under seed 7; 27,500 while
    every broadcast sent to its 49 peers one ``send`` at a time)."""
    return _traced_run_violations(path, lambda value: _calls_at_most_a_part(value, "sim.network"))


def hash_once(path: str = "results/sim-mahi-n50.traced.out") -> list[str]:
    """The traced ``sim-mahi-n50`` run hashed a block's facts once, not
    once per validator: ``crypto.hashing.calls`` is at most a tenth of
    ``dag.store.calls`` (1,752 against 27,550 under seed 7 — a digest per
    block, a share per proposal, a coin output per opening; 11,952 while
    every validator re-hashed every coin share it reconstructed from)."""
    return _traced_run_violations(
        path, lambda value: _calls_at_most_a_part(value, "crypto.hashing")
    )


def linearize_once(path: str = "results/sim-mahi-n50.traced.out") -> list[str]:
    """The traced ``sim-mahi-n50`` run linearized each committed leader
    once, not once per validator: ``dag.traversal.calls`` is at most a
    hundredth of ``dag.store.calls`` (12 against 27,550 under seed 7 —
    one per committed leader; 600 while each of the 50 validators
    linearized every leader itself)."""
    return _traced_run_violations(
        path, lambda value: _calls_at_most_a_part(value, "dag.traversal", parts=100)
    )


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
    validator, reads 1,680 against 5,219 (the store calls count the
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
#: may build or read: of the ten, a host names ``BlockMessage`` and
#: ``Header`` alone, its own block's two announcements.
RETIRED_KINDS = frozenset(
    {"ack", "cert", "fetch_req", "fetch_resp", "sync_resp", "ckpt_req", "ckpt_resp"}
)
DRIVER_ONLY = frozenset(
    {
        "Ack",
        "Certificate",
        "FetchRequest",
        "FetchResponse",
        "SyncRequest",
        "SyncResponse",
        "CheckpointRequest",
        "CheckpointResponse",
    }
)
#: The driver's step loop: it steps itself (after an accepted block, a
#: finished re-sync, its own pacing timer) and hands its results out as
#: port calls, so a host names neither the step nor what it returned.
DRIVER_LOOP = frozenset({"step", "pacing_timer_fired", "Step", "IDLE_STEP"})
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
    alone builds and reads is referenced; nor do they run the step loop
    (no :data:`DRIVER_LOOP` name is referenced).  Read off the syntax
    tree; nothing of ``repro`` is imported."""
    violations = []
    for path in paths or [str(ROOT / host) for host in HOSTS]:
        found = []
        for node in ast.walk(ast.parse(Path(path).read_text(), filename=path)):
            if isinstance(node, ast.Constant) and node.value in RETIRED_KINDS:
                found.append((node.lineno, f"the retired message kind {node.value!r}"))
            elif (name := _referenced_name(node)) in DRIVER_ONLY:
                found.append((node.lineno, f"{name}, which only the driver builds or reads"))
            elif name in DRIVER_LOOP:
                found.append((node.lineno, f"{name}: the driver runs its own step loop"))
        violations += [f"{path}:{line}: {what}" for line, what in sorted(found)]
    return violations


#: What only the driver's restart sequence (``ValidatorDriver.recover``)
#: and its step do: replay the log, enter a restart's re-sync, append to
#: the log.
RESTART_ONLY = frozenset({"replay_wal", "begin_sync", "append_block"})


def _restart_step(call: ast.Call) -> str | None:
    """What ``call`` does that only the driver may, if anything: call a
    :data:`RESTART_ONLY` name, or ``append`` to something named a WAL."""
    name = _referenced_name(call.func)
    if name in RESTART_ONLY:
        return name
    if (
        name == "append"
        and isinstance(call.func, ast.Attribute)
        and "wal" in (_referenced_name(call.func.value) or "").lower()
    ):
        return "a WriteAheadLog append"
    return None


def one_restart_path(*paths: str) -> list[str]:
    """The two validator hosts restart through the driver alone: neither
    replays the log, enters re-sync or appends to the log itself — a
    second restart sequence is what let a cold runtime restart sign a
    round its previous incarnation had signed (read off the syntax
    tree)."""
    violations = []
    for path in paths or [str(ROOT / host) for host in HOSTS]:
        found = [
            (node.lineno, what)
            for node in ast.walk(ast.parse(Path(path).read_text(), filename=path))
            if isinstance(node, ast.Call) and (what := _restart_step(node))
        ]
        violations += [
            f"{path}:{line}: calls {what} (the restart sequence is ValidatorDriver.recover)"
            for line, what in sorted(found)
        ]
    return violations


#: The simulator modules that charge prices; the prices themselves are
#: ``sim/costs.py``'s.
PRICED = ("src/repro/sim/node.py", "src/repro/sim/network.py")


def _price_literals(tree: ast.AST):
    """``(line, value)`` of every literal in ``tree`` that reads as a
    price: a float other than ``0.0`` and ``1.0`` (CPU seconds, a
    bandwidth, a time quantum), and an int other than ``0`` and ``1``
    added, subtracted or multiplied (wire bytes; ``// 2`` halves, it
    prices nothing)."""
    arithmetic = (ast.Add, ast.Sub, ast.Mult)
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) is float:
            if node.value not in (0.0, 1.0):
                yield node.lineno, node.value
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, arithmetic):
            operands = (node.left, node.right) if isinstance(node, ast.BinOp) else (node.value,)
            for operand in operands:
                if (
                    isinstance(operand, ast.Constant)
                    and type(operand.value) is int
                    and operand.value not in (0, 1)
                ):
                    yield operand.lineno, operand.value


def one_cost_table(*paths: str) -> list[str]:
    """The simulated validator and network take every price from the
    cost table: no price literal (:func:`_price_literals`) is in them
    (read off the syntax tree)."""
    violations = []
    for path in paths or [str(ROOT / module) for module in PRICED]:
        found = _price_literals(ast.parse(Path(path).read_text(), filename=path))
        violations += [
            f"{path}:{line}: the literal {value!r} (prices live in sim/costs.py)"
            for line, value in sorted(found)
        ]
    return violations


#: Where the experiments live: every non-test file under these is a
#: place a reference can come from.
REACHING = ("src", "benchmarks", "examples", "tools")

#: Definitions under ``src/repro`` kept with no non-test reference, by
#: name or by module (relative to ``src/repro``), each with its reason.
UNREACHED_BY_DESIGN = {
    "combine_shares": "the Shamir reconstruction tests compare the coin against it, "
    "and ROADMAP item 9's reshare oracle needs it",
    "voted_block": "Algorithm 3's VotedBlock as the paper names it",
    "slot_statuses": "the full-sweep side of the incremental-walk oracle",
    "run_to_completion": "the driver that tests run event loops with",
    "wait_for_commits": "the driver that tests run clusters with",
    "analysis/commit_probability.py": "the closed forms of Appendix C's lemmas, "
    "with the tests as the experiment",
    "analysis/latency_model.py": "ROADMAP item 2(a) wires it into REPORT.md",
    "crypto/schnorr.py": "the one real signature scheme, on which runtime tests run a cluster",
}


def _is_test_file(path: Path) -> bool:
    return path.name == "conftest.py" or path.name.startswith("test_")


def _references(path: Path, tree: ast.AST) -> set[str]:
    """Every identifier ``tree`` refers to: bare names, attributes,
    imported names and each component of a string constant that reads
    as a dotted path (a patch target, a ``getattr`` axis).  A package
    ``__init__.py``'s imports and its ``__all__`` are re-exports and do
    not count."""
    reexports: set[int] = set()
    if path.name == "__init__.py":
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.Assign)
                and any(getattr(target, "id", None) == "__all__" for target in node.targets)
            ):
                reexports |= {id(child) for child in ast.walk(node)}
    found = set()
    for node in ast.walk(tree):
        if id(node) in reexports:
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                found.update(parts)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif (name := _referenced_name(node)) is not None:
            found.add(name)
    return found


def reachable(root: str = str(ROOT)) -> list[str]:
    """Every function, method and class under ``src/repro`` is referenced
    from some non-test file under :data:`REACHING` (read off the syntax
    tree; a name counts wherever it appears, so this over-approximates
    reachability), unless :data:`UNREACHED_BY_DESIGN` keeps it for a
    stated reason; and every exemption still exempts something.  Dunder
    methods are the language's to call.  This file is no reference: its
    exemptions would exempt themselves."""
    base, repro = Path(root), Path(root, "src", "repro")
    referenced: set[str] = set()
    defined = []
    for top in REACHING:
        for path in sorted((base / top).rglob("*.py")):
            if _is_test_file(path) or path.resolve() == Path(__file__).resolve():
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            referenced |= _references(path, tree)
            if path.is_relative_to(repro):
                defined += [
                    (path, node)
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                ]
    violations, exempted = [], set()
    for path, node in sorted(defined, key=lambda entry: (entry[0], entry[1].lineno)):
        name, module = node.name, path.relative_to(repro).as_posix()
        if name in referenced or (name.startswith("__") and name.endswith("__")):
            continue
        if module in UNREACHED_BY_DESIGN or name in UNREACHED_BY_DESIGN:
            exempted |= {module, name}
            continue
        violations.append(
            f"{path.relative_to(base)}:{node.lineno}: {name} is referenced from no "
            "non-test file (delete it, or keep it in UNREACHED_BY_DESIGN with a reason)"
        )
    violations += [
        f"UNREACHED_BY_DESIGN exempts {entry}, which is no unreferenced definition"
        for entry in sorted(UNREACHED_BY_DESIGN.keys() - exempted)
    ]
    return violations


def bench_trajectory(root: str = str(ROOT)) -> list[str]:
    """The newest ``BENCH_<pr>.json`` (by PR number) holds a paired run of
    every ``BENCHMARK.json`` workload, with a verdict for every end-to-end
    metric, and none reads ``regression`` unless the file's top-level
    ``named_regressions`` names it (``"<workload>/<seed>/<metric>"`` ->
    why).  Every run of a simulator (``sim-*``) workload carries both
    sides' exact ``counts`` (``tools/perf_pairs.py --bench`` records
    them).  Only the paired verdicts and counts inside that one file are
    judged — parent and change ran alternately on one host in one
    session — never medians across files, which drift about 15 % between
    sessions."""
    numbered = {
        int(path.stem[len("BENCH_") :]): path
        for path in Path(root).glob("BENCH_*.json")
        if path.stem[len("BENCH_") :].isdigit()
    }
    if not numbered:
        return [f"no BENCH_<pr>.json under {root}"]
    path = numbered[max(numbered)]
    bench = json.loads(path.read_text())
    spec = json.loads(Path(root, "BENCHMARK.json").read_text())
    named = bench.get("named_regressions", {})
    runs = bench.get("workloads", {})
    violations = [
        f"{path.name}: no paired run of workload {workload['name']}"
        for workload in spec["workloads"]
        if not runs.get(workload["name"])
    ]
    for workload, seeds in sorted(runs.items()):
        for seed, entry in sorted(seeds.items()):
            if workload.startswith("sim-") and not entry.get("counts"):
                violations.append(f"{path.name}: {workload}/{seed} has no counts")
            for metric in (m["name"] for m in spec["end_to_end"]):
                key = f"{workload}/{seed}/{metric}"
                verdict = entry.get("metrics", {}).get(metric, {}).get("verdict")
                if verdict is None:
                    violations.append(f"{path.name}: {key} has no verdict")
                elif verdict == "regression" and key not in named:
                    violations.append(
                        f"{path.name}: {key} reads regression and named_regressions "
                        "does not name it"
                    )
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
    "hash-once": hash_once,
    "linearize-once": linearize_once,
    "tusk-poll": tusk_poll,
    "tx-path": tx_path,
    "one-vocabulary": one_vocabulary,
    "one-restart-path": one_restart_path,
    "one-cost-table": one_cost_table,
    "reachable": reachable,
    "bench-trajectory": bench_trajectory,
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
