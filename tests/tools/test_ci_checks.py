"""``tools/ci_checks.py``: each workflow check passes on a small good
artifact and names the problem on a small bad one."""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

import ci_checks  # noqa: E402
from repro.obs.trace import LIFECYCLE_STAGES, UNCERTIFIED_STAGES  # noqa: E402


def write(path: Path, payload) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return path


def trace(stages) -> dict:
    return {"traceEvents": [{"name": stage, "ph": "i"} for stage in stages]}


CLUSTER_METRICS = {
    "steady": {"committed_tx": 900, "commit_indices": 40, "latency_p50_s": 0.2},
    "recovery": {
        mode: {"mode_used": mode, "recovery_s": 0.5, "adopted_base_round": 12}
        for mode in ("cold", "warm", "checkpoint")
    },
    "resize": {"epochs": [[0, 0], [1, 30], [2, 60]], "leaver_left": True,
               "joiner_mode": "checkpoint"},
}


def test_cluster_metrics(tmp_path):
    assert ci_checks.cluster_metrics(write(tmp_path / "ok.json", CLUSTER_METRICS)) == []
    bad = copy.deepcopy(CLUSTER_METRICS)
    bad["recovery"]["checkpoint"]["adopted_base_round"] = None
    bad["resize"]["leaver_left"] = False
    violations = ci_checks.cluster_metrics(write(tmp_path / "bad.json", bad))
    assert len(violations) == 2


def test_cluster_traces(tmp_path):
    assert ci_checks.cluster_traces(tmp_path) == ["no cluster trace files written"]
    # Coverage is across the committee: no single file needs every stage.
    write(tmp_path / "v0.trace.json", trace(UNCERTIFIED_STAGES[:3]))
    write(tmp_path / "v1.trace.json", trace(UNCERTIFIED_STAGES[3:-1]))
    (violation,) = ci_checks.cluster_traces(tmp_path)
    assert UNCERTIFIED_STAGES[-1] in violation
    write(tmp_path / "v2.trace.json", trace(UNCERTIFIED_STAGES[-1:]))
    assert ci_checks.cluster_traces(tmp_path) == []


def test_sim_trace(tmp_path):
    assert ci_checks.sim_trace(write(tmp_path / "ok.json", trace(LIFECYCLE_STAGES))) == []
    (violation,) = ci_checks.sim_trace(write(tmp_path / "bad.json", trace(UNCERTIFIED_STAGES)))
    assert "block_certified" in violation


def test_fleet_identity(tmp_path):
    serial, fleet = tmp_path / "serial", tmp_path / "fleet"
    assert ci_checks.fleet_identity(serial, fleet) == ["serial run produced no points"]
    for root in (serial, fleet):
        write(root / "points" / "a.json", '{"x": 1}')
        write(root / "points" / "b.json", '{"x": 2}')
        # Wall clocks differ by design and are not compared.
        write(root / "points" / "a.wall.json", json.dumps({"wall": root.name}))
    summary = {"workers": 2, "worker_failures": [], "completed_by": {"local-0": 1, "local-1": 1}}
    write(fleet / "summary.json", {"fleet": summary})
    assert ci_checks.fleet_identity(serial, fleet) == []
    # One worker drained the whole queue: correct results, no parallelism.
    write(fleet / "summary.json", {"fleet": {**summary, "completed_by": {"local-0": 2}}})
    (violation,) = ci_checks.fleet_identity(serial, fleet)
    assert violation == "points were completed by {'local-0': 2}, not by 2 workers"
    write(fleet / "points" / "b.json", '{"x": 3}')
    write(fleet / "points" / "c.json", "{}")
    write(fleet / "summary.json", {"fleet": {**summary, "worker_failures": ["w1"]}})
    violations = ci_checks.fleet_identity(serial, fleet)
    assert len(violations) == 3
    assert "c.json" in violations[0] and "b.json" in violations[1] and "w1" in violations[2]


def test_points_match(tmp_path):
    def point(events: int, committed: int = 40) -> dict:
        result = {"blocks_committed": committed, "events_processed": events}
        return {"config": {"seed": 1}, "config_hash": "a", "result": result, "schema": 7}

    ours, theirs = tmp_path / "parent", tmp_path / "change"
    assert ci_checks.points_match(ours, theirs) == [f"no points under {ours}"]
    for root, events in ((ours, 116_162), (theirs, 76_076)):
        write(root / "points" / "a.json", point(events))
        write(root / "points" / "b.json", point(500))
        write(root / "points" / "a.wall.json", {"wall": root.name})
    # Fewer events and nothing else: equal once that field is set aside.
    (violation,) = ci_checks.points_match(ours, theirs)
    assert violation == "point files differ: ['a.json']"
    assert ci_checks.points_match(ours, theirs, "--ignore", "events_processed") == []
    assert ci_checks.main(["points-match", str(ours), str(theirs), "--ignore",
                           "events_processed"]) == 0
    write(theirs / "points" / "b.json", point(500, committed=39))
    write(theirs / "points" / "c.json", point(1))
    violations = ci_checks.points_match(ours, theirs, "--ignore", "events_processed")
    assert len(violations) == 2
    assert "c.json" in violations[0] and violations[1] == "point files differ: ['b.json']"
    # Setting the differing field aside too leaves only the extra file.
    assert len(ci_checks.points_match(
        ours, theirs, "--ignore", "events_processed", "blocks_committed")) == 1
    for malformed in (("events_processed",), ("--ignore",)):
        (violation,) = ci_checks.points_match(ours, theirs, *malformed)
        assert violation.startswith("usage:")


def data_plane_output(encodes=0.0, decodes=0.0, failed=0, correct=True, joins=0.0) -> str:
    metrics = {
        "transaction.encode.calls": {"value": encodes, "unit": "count"},
        "transaction.decode.calls": {"value": decodes, "unit": "count"},
        "block.encodes_per_block": {"value": joins, "unit": "ratio"},
    }
    result = {"correct": correct, "attempted": 48_000, "failed": failed, "metrics": metrics}
    return '# info {"workload": "rt-drain"}\n' + json.dumps(result) + "\n"


def test_data_plane(tmp_path):
    output = data_plane_output

    assert ci_checks.data_plane(write(tmp_path / "ok.out", output())) == []
    # A section walked one record at a time: one encode per transaction
    # proposed, one decode per transaction the harness read back.
    walked = ci_checks.data_plane(
        write(tmp_path / "walked.out", output(encodes=24_000.0, decodes=96_000.0))
    )
    assert len(walked) == 2 and "24000.0" in walked[0] and "96000.0" in walked[1]
    violations = ci_checks.data_plane(
        write(tmp_path / "bad.out", output(failed=500, correct=False))
    )
    assert len(violations) == 2 and "500 of 48000" in violations[0]
    # A run that died before reporting metrics is a violation, not a KeyError.
    dead = json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}})
    assert len(ci_checks.data_plane(write(tmp_path / "dead.out", dead))) == 4
    assert ci_checks.data_plane(write(tmp_path / "empty.out", "")) == [
        "the traced run printed nothing"
    ]


def test_data_plane_refuses_a_block_joined_on_its_own(tmp_path):
    """A frame or WAL record that re-joins a block (``Block.encode``)
    instead of taking its parts fails the check."""
    parts = write(tmp_path / "parts.out", data_plane_output(joins=0.0))
    assert ci_checks.data_plane(parts) == []
    # 340 WAL appends plus 88 broadcasts, each a Block.encode, over 88 blocks.
    rejoined = write(tmp_path / "rejoined.out", data_plane_output(joins=4.86))
    (violation,) = ci_checks.data_plane(rejoined)
    assert violation == "block.encodes_per_block is 4.86, not 0"


def test_commit_walk(tmp_path):
    def output(walks=25_350.0, decided=1.0, failed=0) -> str:
        metrics = {
            "core.committer.calls": {"value": walks, "unit": "count"},
            "dag.store.calls": {"value": 27_550.0, "unit": "count"},
            "core.committer.decided_per_classified": {"value": decided, "unit": "ratio"},
        }
        result = {"correct": True, "attempted": 12_000, "failed": failed, "metrics": metrics}
        return '# info {"workload": "sim-mahi-n50"}\n' + json.dumps(result) + "\n"

    assert ci_checks.commit_walk(write(tmp_path / "ok.out", output())) == []
    # One sweep per insert, as before the poll: two walk entries per store call.
    (violation,) = ci_checks.commit_walk(write(tmp_path / "swept.out", output(walks=50_100.0)))
    assert "50100.0" in violation and "27550.0" in violation
    violations = ci_checks.commit_walk(
        write(tmp_path / "bad.out", output(decided=0.0016, failed=3))
    )
    assert len(violations) == 2 and "3 of 12000" in violations[0] and "0.0016" in violations[1]
    dead = json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}})
    assert len(ci_checks.commit_walk(write(tmp_path / "dead.out", dead))) == 3
    assert ci_checks.commit_walk(write(tmp_path / "empty.out", "")) == [
        "the traced run printed nothing"
    ]


def test_fan_out(tmp_path):
    def output(network=550.0, store=27_550.0, failed=0) -> str:
        metrics = {
            "sim.network.calls": {"value": network, "unit": "count"},
            "dag.store.calls": {"value": store, "unit": "count"},
        }
        result = {"correct": True, "attempted": 12_000, "failed": failed, "metrics": metrics}
        return '# info {"workload": "sim-mahi-n50"}\n' + json.dumps(result) + "\n"

    assert ci_checks.fan_out(write(tmp_path / "ok.out", output())) == []
    # Exactly a tenth still passes: the bound is inclusive.
    assert ci_checks.fan_out(write(tmp_path / "edge.out", output(network=2_755.0))) == []
    # One send per hop, as every broadcast was before it fanned out.
    (violation,) = ci_checks.fan_out(write(tmp_path / "per-hop.out", output(network=27_500.0)))
    assert violation == "sim.network.calls is 27500.0, above a tenth of dag.store.calls (27550.0)"
    (violation,) = ci_checks.fan_out(write(tmp_path / "bad.out", output(failed=2)))
    assert "2 of 12000" in violation
    dead = json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}})
    assert len(ci_checks.fan_out(write(tmp_path / "dead.out", dead))) == 2


def test_hash_once(tmp_path):
    def output(hashing=1_752.0, store=27_550.0, failed=0) -> str:
        metrics = {
            "crypto.hashing.calls": {"value": hashing, "unit": "count"},
            "dag.store.calls": {"value": store, "unit": "count"},
        }
        result = {"correct": True, "attempted": 12_000, "failed": failed, "metrics": metrics}
        return '# info {"workload": "sim-mahi-n50"}\n' + json.dumps(result) + "\n"

    assert ci_checks.hash_once(write(tmp_path / "ok.out", output())) == []
    assert ci_checks.hash_once(write(tmp_path / "about.out", output(hashing=1_700.0))) == []
    # Exactly a tenth still passes: the bound is inclusive.
    assert ci_checks.hash_once(write(tmp_path / "edge.out", output(hashing=2_755.0))) == []
    # Every validator re-hashing every coin share it reconstructs from.
    (violation,) = ci_checks.hash_once(write(tmp_path / "rehash.out", output(hashing=11_952.0)))
    assert violation == (
        "crypto.hashing.calls is 11952.0, above a tenth of dag.store.calls (27550.0)"
    )
    (violation,) = ci_checks.hash_once(write(tmp_path / "bad.out", output(failed=2)))
    assert "2 of 12000" in violation
    dead = json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}})
    assert len(ci_checks.hash_once(write(tmp_path / "dead.out", dead))) == 2


def test_linearize_once(tmp_path):
    def output(traversal=12.0, store=27_550.0, failed=0) -> str:
        metrics = {
            "dag.traversal.calls": {"value": traversal, "unit": "count"},
            "dag.store.calls": {"value": store, "unit": "count"},
        }
        result = {"correct": True, "attempted": 12_000, "failed": failed, "metrics": metrics}
        return '# info {"workload": "sim-mahi-n50"}\n' + json.dumps(result) + "\n"

    assert ci_checks.linearize_once(write(tmp_path / "ok.out", output())) == []
    # Exactly a hundredth still passes: the bound is inclusive.
    assert ci_checks.linearize_once(write(tmp_path / "edge.out", output(traversal=275.5))) == []
    # Every one of the 50 validators linearizing every committed leader.
    (violation,) = ci_checks.linearize_once(write(tmp_path / "each.out", output(traversal=600.0)))
    assert violation == (
        "dag.traversal.calls is 600.0, above a hundredth of dag.store.calls (27550.0)"
    )
    (violation,) = ci_checks.linearize_once(write(tmp_path / "bad.out", output(failed=2)))
    assert "2 of 12000" in violation
    dead = json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}})
    assert len(ci_checks.linearize_once(write(tmp_path / "dead.out", dead))) == 2


def test_tusk_poll(tmp_path):
    def output(walks=6_557.0, correct=True) -> str:
        metrics = {
            "baselines.tusk.calls": {"value": walks, "unit": "count"},
            "dag.store.calls": {"value": 6_781.0, "unit": "count"},
        }
        result = {"correct": correct, "attempted": 25_000, "failed": 0, "metrics": metrics}
        return '# info {"workload": "sim-tusk-n10"}\n' + json.dumps(result) + "\n"

    assert ci_checks.tusk_poll(write(tmp_path / "ok.out", output())) == []
    # A poll that always answers "sweep": try_decide once per extension.
    (violation,) = ci_checks.tusk_poll(write(tmp_path / "swept.out", output(walks=12_026.0)))
    assert "baselines.tusk.calls is 12026.0" in violation and "6781.0" in violation
    assert len(ci_checks.tusk_poll(write(tmp_path / "bad.out", output(correct=False)))) == 1
    dead = json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}})
    assert len(ci_checks.tusk_poll(write(tmp_path / "dead.out", dead))) == 2


def test_tx_path(tmp_path):
    def output(recorder=1_868.0, observes=0.0, failed=0, store=6_781.0) -> str:
        metrics = {
            "sim.metrics.calls": {"value": recorder, "unit": "count"},
            "obs.metrics.calls": {"value": observes, "unit": "count"},
            "dag.store.calls": {"value": store, "unit": "count"},
        }
        result = {"correct": True, "attempted": 40_000, "failed": failed, "metrics": metrics}
        return '# info {"workload": "sim-tusk-n10"}\n' + json.dumps(result) + "\n"

    assert ci_checks.tx_path(write(tmp_path / "ok.out", output())) == []
    faulty = output(recorder=1_610.0, store=4_693.0)
    assert ci_checks.tx_path(write(tmp_path / "faulty.out", faulty)) == []
    # Every submission recorded, the books per block otherwise (both
    # workloads under seed 7 before arrivals were routed).
    for recorder, store in ((41_959.0, 6_781.0), (33_678.0, 4_686.0)):
        submitted = output(recorder=recorder, store=store)
        (violation,) = ci_checks.tx_path(write(tmp_path / "per-submission.out", submitted))
        assert f"sim.metrics.calls is {recorder}, above dag.store.calls ({store})" in violation
    # Inclusion, arrival and commit recorded once per transaction too,
    # with four histogram observations per committed transaction.
    violations = ci_checks.tx_path(
        write(tmp_path / "per-tx.out", output(recorder=151_654.0, observes=129_240.0))
    )
    assert len(violations) == 2
    assert "sim.metrics.calls is 151654.0, above dag.store.calls (6781.0)" in violations[0]
    assert "obs.metrics.calls is 129240.0, above dag.store.calls (6781.0)" in violations[1]
    (violation,) = ci_checks.tx_path(write(tmp_path / "bad.out", output(failed=7)))
    assert "7 of 40000" in violation
    dead = json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}})
    assert len(ci_checks.tx_path(write(tmp_path / "dead.out", dead))) == 3


def test_one_vocabulary(tmp_path):
    assert ci_checks.one_vocabulary() == []  # the two hosts as checked in
    clean = write(
        tmp_path / "clean.py",
        "from ..messages import BlockMessage, TransactionMessage\n"
        "def on_message(self, message, peer):\n"
        "    if isinstance(message, TransactionMessage):\n"
        "        return self.submit(message.transactions)\n"
        "    self.driver.on_message(message, peer)\n",
    )
    assert ci_checks.one_vocabulary(str(clean)) == []
    # A host that grows its own ladder back, in both old spellings.
    ladder = write(
        tmp_path / "ladder.py",
        "from ..messages import SyncResponse\n"
        "from .. import messages\n"
        "def handle(self, message):\n"
        "    if message.kind == \"fetch_req\":\n"
        "        self.network.send(message.src, \"fetch_resp\", self.held(message.payload))\n"
        "    elif isinstance(message, SyncResponse):\n"
        "        self.driver.on_sync_response(message)\n"
        "    elif type(message) is messages.CheckpointRequest:\n"
        "        pass\n"
        "def request_missing(self, peer, refs):\n"
        "    self.send(peer, messages.FetchRequest(refs))\n",
    )
    violations = ci_checks.one_vocabulary(str(clean), str(ladder))
    assert [v.partition(": ")[0].rpartition(":")[2] for v in violations] == [
        "1", "4", "5", "6", "8", "11",
    ]
    assert "FetchRequest, which only the driver builds or reads" in violations[5]
    assert "retired message kind 'fetch_req'" in violations[1]
    assert "SyncResponse, which only the driver builds or reads" in violations[3]
    assert all(str(ladder) in v for v in violations)


def test_one_vocabulary_leaves_the_certified_round_to_the_driver(tmp_path):
    # A host announces its own block as a header; the acks and the
    # certificate are the driver's.
    announces = write(
        tmp_path / "announces.py",
        "from ..messages import BlockMessage, Header\n"
        "def dispatch_own(self, block):\n"
        "    self.send(None, Header(block) if self.driver.certified else BlockMessage(block))\n",
    )
    assert ci_checks.one_vocabulary(str(announces)) == []
    tallies = write(
        tmp_path / "tallies.py",
        "from ..messages import Ack\n"
        "def on_header(self, message, peer):\n"
        "    self.send(peer, Ack(message.block.digest))\n",
    )
    violations = ci_checks.one_vocabulary(str(tallies))
    assert [v.partition(": ")[0].rpartition(":")[2] for v in violations] == ["1", "3"]
    assert all("Ack, which only the driver builds or reads" in v for v in violations)


def test_one_vocabulary_leaves_the_step_loop_to_the_driver(tmp_path):
    # The hosts as checked in start the driver and act on its port calls.
    assert ci_checks.one_vocabulary() == []
    steps = write(
        tmp_path / "steps.py",
        "def ingest(self, block, peer, now):\n"
        "    self._driver.ingest(block, peer)\n"
        "    self._driver.step(now)\n",
    )
    (violation,) = ci_checks.one_vocabulary(str(steps))
    assert f"{steps}:3: step: the driver runs its own step loop" == violation
    idles = write(
        tmp_path / "idles.py",
        "from ..statesync import IDLE_STEP\n"
        "def act(self, result):\n"
        "    if result is IDLE_STEP:\n"
        "        return\n"
        "    self._driver.pacing_timer_fired()\n",
    )
    violations = ci_checks.one_vocabulary(str(idles))
    assert [v.partition(": ")[0].rpartition(":")[2] for v in violations] == ["1", "3", "5"]
    assert "IDLE_STEP: the driver runs its own step loop" in violations[0]
    assert "pacing_timer_fired: the driver runs its own step loop" in violations[2]


def test_one_restart_path(tmp_path):
    assert ci_checks.one_restart_path() == []  # the two hosts as checked in
    clean = write(
        tmp_path / "clean.py",
        "def recover(self):\n"
        "    replay = self._driver.recover(self.core)\n"
        "    self._pending.append(replay)\n"
        "    self.outbox.append((None, self.walk))\n",
    )
    assert ci_checks.one_restart_path(str(clean)) == []
    # A host that grows a second restart sequence back.
    second = write(
        tmp_path / "second.py",
        "from ..statesync.recovery import replay_wal\n"
        "def _recover(self):\n"
        "    replay = self._driver.replay_wal()\n"
        "    replay_wal(self.core, self.wal_path)\n"
        "    self._driver.begin_sync(time.monotonic(), replayed=replay.blocks)\n"
        "    self._driver.wal.append(1, b'')\n"
        "    self.wal.append_block(block)\n",
    )
    violations = ci_checks.one_restart_path(str(clean), str(second))
    assert [v.partition(": ")[0].rpartition(":")[2] for v in violations] == [
        "3", "4", "5", "6", "7",
    ]
    assert "calls begin_sync" in violations[2]
    assert "calls a WriteAheadLog append" in violations[3]
    assert "calls append_block" in violations[4]
    assert all(str(second) in v for v in violations)


def test_one_restart_path_judges_a_bare_name_call(tmp_path):
    """A host that binds a method to a local and calls the bare name is
    judged, not crashed on; a WAL append beside it is still flagged."""
    bare = write(
        tmp_path / "bare.py",
        "def extend(self, rows, blocks):\n"
        "    append = rows.append\n"
        "    for block in blocks:\n"
        "        append(block)\n",
    )
    assert ci_checks.one_restart_path(str(bare)) == []
    logged = write(
        tmp_path / "logged.py",
        "def extend(self, rows, block):\n"
        "    append = rows.append\n"
        "    append(block)\n"
        "    self._wal.append(1, block)\n",
    )
    [violation] = ci_checks.one_restart_path(str(logged))
    assert violation.startswith(f"{logged}:4: calls a WriteAheadLog append")


def test_one_cost_table(tmp_path):
    assert ci_checks.one_cost_table() == []  # node and network as checked in
    clean = write(
        tmp_path / "clean.py",
        "def on_batch(self, messages):\n"
        "    cost = 0.0\n"
        "    for message in messages:\n"
        "        cost += self._costs.stage_price(message.body.block, False, False)\n"
        "        self.received += 1\n"
        "    half = len(messages) // 2\n"
        "    return cost * self._slow if self._slow != 1.0 else -1.0 * cost\n",
    )
    assert ci_checks.one_cost_table(str(clean)) == []
    # A price written where it is charged, as the wire and CPU models were.
    priced = write(
        tmp_path / "priced.py",
        "BANDWIDTH = 10e9 / 8\n"
        "def batch_cost(self, messages):\n"
        "    cost = 0.0\n"
        "    for message in messages:\n"
        "        cost += 20e-6 if message.body is None else 0.3e-3\n"
        "    return cost + 0 + 1\n"
        "def wire_size(self, refs, size):\n"
        "    size += 128\n"
        "    return 44 * len(refs) + 4 + size\n",
    )
    violations = ci_checks.one_cost_table(str(clean), str(priced))
    lines = [v.partition(": ")[0].rpartition(":")[2] for v in violations]
    assert lines == ["1", "5", "5", "8", "9", "9"]
    assert "the literal 2e-05" in violations[1]
    assert [v.rpartition("the literal ")[2].split()[0] for v in violations[3:]] == [
        "128",
        "4",
        "44",
    ]
    assert all(str(priced) in v for v in violations)


def test_reachable(tmp_path, monkeypatch):
    assert ci_checks.reachable() == []  # src/ as checked in
    write(tmp_path / "src" / "repro" / "__init__.py",
          "from .mod import Thing, exported\n__all__ = ['Thing', 'exported', 'helper']\n")
    write(
        tmp_path / "src" / "repro" / "mod.py",
        "class Thing:\n"
        "    def __init__(self):\n"
        "        self.used()\n"
        "    def used(self):\n"
        "        return helper()\n"
        "    def only_tested(self):\n"
        "        pass\n"
        "def helper():\n"
        "    pass\n"
        "def patched():\n"
        "    pass\n"
        "def exported():\n"
        "    pass\n",
    )
    write(tmp_path / "benchmarks" / "run.py",
          "from repro import Thing\nThing()\nTARGET = 'repro.mod.patched'\n")
    # Tests reach everything; none of it counts.
    write(tmp_path / "benchmarks" / "test_run.py", "Thing().only_tested()\nexported()\n")
    write(tmp_path / "tests" / "test_mod.py", "Thing().only_tested()\nexported()\n")
    monkeypatch.setattr(ci_checks, "UNREACHED_BY_DESIGN", {})
    violations = ci_checks.reachable(str(tmp_path))
    assert [v.split(": ")[1].split()[0] for v in violations] == ["only_tested", "exported"]
    assert violations[0].startswith(str(Path("src", "repro", "mod.py:6")))
    # An exemption keeps a definition only while nothing else reaches it.
    monkeypatch.setattr(
        ci_checks, "UNREACHED_BY_DESIGN", {"only_tested": "why", "mod.py": "why", "used": "why"}
    )
    (stale,) = ci_checks.reachable(str(tmp_path))
    assert stale == "UNREACHED_BY_DESIGN exempts used, which is no unreferenced definition"


def planted_tree(tmp_path, monkeypatch, where, source):
    """A tree whose one definition, ``repro.mod.planted``, is named only
    by ``source`` at ``where``; no exemptions."""
    write(tmp_path / "src" / "repro" / "__init__.py", "")
    write(tmp_path / "src" / "repro" / "mod.py", "def planted():\n    pass\n")
    write(tmp_path / where, source)
    monkeypatch.setattr(ci_checks, "UNREACHED_BY_DESIGN", {})
    return ci_checks.reachable(str(tmp_path))


@pytest.mark.parametrize(
    "where, source",
    [
        ("benchmarks/run.py", "from repro.mod import planted\n"),
        ("benchmarks/run.py", "import repro.mod\nrepro.mod.planted()\n"),
        ("examples/demo.py", "planted()\n"),
        ("tools/patch.py", "TARGET = 'repro.mod.planted'\n"),
        ("benchmarks/figures.py", "AXIS = 'planted'\n"),
        ("src/repro/other.py", "from .mod import planted\n"),
    ],
    ids=["import", "attribute", "name", "patch-target", "getattr-axis", "src-module"],
)
def test_reachable_counts_a_reference(tmp_path, monkeypatch, where, source):
    assert planted_tree(tmp_path, monkeypatch, where, source) == []


@pytest.mark.parametrize(
    "where, source",
    [
        ("tests/test_mod.py", "from repro.mod import planted\nplanted()\n"),
        ("benchmarks/test_run.py", "planted()\n"),
        ("benchmarks/conftest.py", "planted()\n"),
        ("src/repro/sub/__init__.py", "from ..mod import planted\n"),
        ("src/repro/sub/__init__.py", "__all__ = ['planted']\n"),
        ("docs/snippet.py", "planted()\n"),
        ("benchmarks/run.py", "# planted()\nNOTE = 'call planted() first'\n"),
    ],
    ids=["tests", "test-module", "conftest", "re-export", "all", "outside", "prose"],
)
def test_reachable_ignores_what_is_no_reference(tmp_path, monkeypatch, where, source):
    (violation,) = planted_tree(tmp_path, monkeypatch, where, source)
    assert violation.startswith(str(Path("src", "repro", "mod.py:1")))
    assert "planted is referenced from no non-test file" in violation


def test_reachable_leaves_dunder_methods_to_the_language(tmp_path, monkeypatch):
    source = "class Planted:\n    def __repr__(self):\n        return ''\n"
    write(tmp_path / "src" / "repro" / "mod.py", source)
    write(tmp_path / "benchmarks" / "run.py", "from repro.mod import Planted\n")
    monkeypatch.setattr(ci_checks, "UNREACHED_BY_DESIGN", {})
    assert ci_checks.reachable(str(tmp_path)) == []


@pytest.mark.parametrize("name", ci_checks.CHECKS)
def test_every_subcommand_is_what_the_workflow_calls(name):
    workflow = Path(__file__).resolve().parents[2] / ".github" / "workflows" / "ci.yml"
    assert f"python tools/ci_checks.py {name}" in workflow.read_text()
    assert "python - <<" not in workflow.read_text()


def test_main_exit_codes(tmp_path, capsys):
    ok = write(tmp_path / "ok.json", CLUSTER_METRICS)
    assert ci_checks.main(["cluster-metrics", str(ok)]) == 0
    bad = write(tmp_path / "bad.json", {**CLUSTER_METRICS, "steady": None})
    assert ci_checks.main(["cluster-metrics", str(bad)]) == 1
    assert "no steady-load scenario" in capsys.readouterr().err
    assert ci_checks.main(["no-such-check"]) == 2


def bench_entry(**verdicts):
    return {"7": {"metrics": {name: {"verdict": v} for name, v in verdicts.items()}}}


def test_bench_trajectory(tmp_path):
    assert ci_checks.bench_trajectory() == []  # the newest file as checked in
    spec = {
        "workloads": [{"name": "sim"}, {"name": "rt"}],
        "end_to_end": [{"name": "wall_s"}, {"name": "peak_rss_mb"}],
    }
    write(tmp_path / "BENCHMARK.json", spec)
    assert ci_checks.bench_trajectory(str(tmp_path)) == [f"no BENCH_<pr>.json under {tmp_path}"]
    clean = {
        "sim": bench_entry(wall_s="gain", peak_rss_mb="unchanged"),
        "rt": bench_entry(wall_s="unresolved", peak_rss_mb="unchanged"),
    }
    # BENCH_10 is newer than BENCH_9 (by number, not by name), and the
    # regression in the older file is not judged.
    older = {**clean, "sim": bench_entry(wall_s="regression")}
    write(tmp_path / "BENCH_9.json", {"workloads": older})
    write(tmp_path / "BENCH_10.json", {"workloads": clean})
    write(tmp_path / "BENCH_notes.json", {})
    assert ci_checks.bench_trajectory(str(tmp_path)) == []
    regressed = {"sim": bench_entry(wall_s="regression", peak_rss_mb="unchanged")}
    write(tmp_path / "BENCH_11.json", {"workloads": regressed})
    assert ci_checks.bench_trajectory(str(tmp_path)) == [
        "BENCH_11.json: no paired run of workload rt",
        "BENCH_11.json: sim/7/wall_s reads regression and named_regressions does not name it",
    ]
    named = {"sim/7/wall_s": "a GC pause the change adds on purpose"}
    write(
        tmp_path / "BENCH_12.json",
        {"workloads": {**clean, **regressed}, "named_regressions": named},
    )
    assert ci_checks.bench_trajectory(str(tmp_path)) == []
    write(tmp_path / "BENCH_13.json", {"workloads": {**clean, "rt": bench_entry(wall_s="gain")}})
    assert ci_checks.bench_trajectory(str(tmp_path)) == [
        "BENCH_13.json: rt/7/peak_rss_mb has no verdict"
    ]
    assert ci_checks.main(["bench-trajectory", str(tmp_path)]) == 1


def test_bench_trajectory_wants_counts_for_every_simulator_run(tmp_path):
    """A ``sim-*`` run of the newest file without both sides' counts
    fails; an older file without them is exempt."""
    spec = {"workloads": [{"name": "sim-a"}, {"name": "rt"}], "end_to_end": [{"name": "wall_s"}]}
    write(tmp_path / "BENCHMARK.json", spec)
    counts = {"parent": {"calls_per_unit": 10}, "change": {"calls_per_unit": 9}}
    counted = {**bench_entry(wall_s="unchanged")["7"], "counts": counts}
    uncounted = {
        "sim-a": {"7": counted, "11": bench_entry(wall_s="gain")["7"]},
        "rt": bench_entry(wall_s="unchanged"),
    }
    write(tmp_path / "BENCH_1.json", {"workloads": uncounted})
    assert ci_checks.bench_trajectory(str(tmp_path)) == ["BENCH_1.json: sim-a/11 has no counts"]
    clean = {**uncounted, "sim-a": {"7": counted, "11": counted}}
    write(tmp_path / "BENCH_2.json", {"workloads": clean})
    assert ci_checks.bench_trajectory(str(tmp_path)) == []
