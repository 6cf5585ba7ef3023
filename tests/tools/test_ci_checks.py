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


def test_data_plane(tmp_path):
    def output(encodes=0.0, decodes=0.0, failed=0, correct=True) -> str:
        metrics = {
            "transaction.encode.calls": {"value": encodes, "unit": "count"},
            "transaction.decode.calls": {"value": decodes, "unit": "count"},
        }
        result = {"correct": correct, "attempted": 48_000, "failed": failed, "metrics": metrics}
        return '# info {"workload": "rt-drain"}\n' + json.dumps(result) + "\n"

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
    assert len(ci_checks.data_plane(write(tmp_path / "dead.out", dead))) == 3
    assert ci_checks.data_plane(write(tmp_path / "empty.out", "")) == [
        "the traced run printed nothing"
    ]


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
