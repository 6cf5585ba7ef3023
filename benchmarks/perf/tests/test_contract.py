"""``BENCHMARK.json`` and the command agree, name for name."""

import json
import math
import os
import re

import pytest
import run as perf_run
from mmperf.layers import END_TO_END, PER_LAYER
from mmperf.workloads import WORKLOADS

SPEC = json.loads((perf_run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_the_file_has_exactly_the_contract_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert SPEC["command"][-1].startswith(SPEC["paths"][0] + "/")
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert all(set(w) == {"name", "why"} for w in SPEC["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128


def test_names_units_and_bounds_are_within_the_contract_limits():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [entry["name"] for entry in SPEC["workloads"] + metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(metric["unit"]) for metric in metrics)
    assert all(metric["better"] in ("lower", "higher") for metric in metrics)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    bounds = {metric["name"]: metric["bound"] for metric in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_the_file_names_what_the_harness_emits_and_nothing_else():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_each_workload_runs_at_a_twentieth_size_and_emits_exactly_the_named_metrics(
    name, monkeypatch
):
    monkeypatch.setattr(perf_run, "SETUP_PROBES", 1)
    for trace, table in ((False, END_TO_END), (True, PER_LAYER)):
        result, info = perf_run.run_workload(name, 3, 10.0, trace, scale=0.05)
        assert result["correct"], info
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert list(result["metrics"]) == [metric for metric, _ in table]
        for metric, unit in table:
            assert result["metrics"][metric]["unit"] == unit
            assert math.isfinite(result["metrics"][metric]["value"]), metric
        if not trace:
            assert all(row["value"] > 0 for row in result["metrics"].values())
        elif name.startswith("rt-"):
            assert result["metrics"]["runtime.wal.fsyncs_per_block"]["value"] > 0
    # WAL directories are removed even though the run created them.
    assert not perf_run.SCRATCH.exists() or not any(perf_run.SCRATCH.iterdir())


def test_untraced_runtime_units_never_wait_for_the_disk(monkeypatch):
    def fsync(fd):
        raise AssertionError("an end-to-end unit called os.fsync")

    monkeypatch.setattr(os, "fsync", fsync)
    try:
        unit = perf_run.run_unit(WORKLOADS["rt-drain"], 3, 0.05, wal_sync=False)
    finally:
        perf_run.SCRATCH.rmdir()
    assert unit.failed == 0 and unit.facts["wal_bytes"] > 0
