"""The driver's fleet surface: ``--fleet-plan`` (dry sizing view) and a
real ``--fleet local:2`` smoke run through ``run_all.main``."""

from __future__ import annotations

import json

import pytest

from benchmarks import run_all
from repro.fleet.coordinator import pending_items
from repro.fleet.worker import run_item
from repro.sim.sweep import FigureSpec, ResultsStore, SweepSpec, config_hash, run_sweep

from tests.fleet.helpers import tiny_config


class TestFleetPlan:
    def test_plan_prints_shards_without_running(self, tmp_path, capsys):
        assert run_all.main([
            "--smoke", "--only", "ordering", "--results", str(tmp_path),
            "--list", "--fleet-plan", "--fleet", "local:3",
        ]) == 0
        out = capsys.readouterr().out
        assert "fleet plan: local backend, 3 workers" in out
        assert "local-0-0" in out and "local-0-2" in out
        # A dry plan must not execute anything.
        assert not (tmp_path / "points").exists()

    def test_fleet_plan_requires_list(self, tmp_path):
        with pytest.raises(SystemExit):
            run_all.main([
                "--smoke", "--results", str(tmp_path), "--fleet-plan",
            ])


class TestCreditFleet:
    def test_a_shared_point_counts_once_for_the_first_sweep_that_declares_it(self, tmp_path):
        """The fleet computes a point two sweeps share once; like a serial
        run, the first sweep counts it executed and the second cached."""
        shared, own = tiny_config(seed=1), tiny_config(seed=2)
        sweeps = [
            SweepSpec(name=name, figure=FigureSpec(figure="test", title="t"), configs=configs)
            for name, configs in (("first", (shared,)), ("second", (shared, own)))
        ]
        store = ResultsStore(tmp_path)
        items = pending_items(sweeps, store)
        for item in items:
            run_item(item, store)
        counts = {}
        for sweep in sweeps:
            outcome = run_sweep(sweep, store)
            run_all.credit_fleet(outcome, items, store)
            written = json.loads((tmp_path / f"{sweep.name}.json").read_text())
            counts[sweep.name] = (outcome.executed, outcome.cached, written["executed"])
            computed = [r for r in outcome.results if config_hash(r.config) in
                        {i.config_hash for i in items if i.sweep == sweep.name}]
            assert outcome.executed_events == sum(r.events_processed for r in computed)
            assert outcome.executed_wall_seconds == sum(
                store.wall_seconds(config_hash(r.config)) for r in computed
            )
        assert counts == {"first": (1, 0, 1), "second": (1, 1, 1)}


@pytest.mark.slow
class TestFleetRun:
    def test_smoke_fleet_run_records_provenance(self, tmp_path):
        assert run_all.main([
            "--smoke", "--only", "ordering", "--results", str(tmp_path),
            "--fleet", "local:2",
        ]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        fleet = summary["fleet"]
        assert fleet["backend"] == "local"
        assert fleet["workers"] == 2
        assert fleet["worker_failures"] == []
        assert sum(fleet["completed_by"].values()) == fleet["points"]
        # Phase 2 walked the fleet-filled cache; the totals count what
        # the fleet computed in this run as executed.
        totals = summary["totals"]
        assert totals["executed"] == fleet["points"]
        assert totals["cached"] == totals["points"] - fleet["points"]
