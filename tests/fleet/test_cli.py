"""The driver's fleet surface: ``--fleet-plan`` (dry sizing view) and a
real ``--fleet local:2`` smoke run through ``run_all.main``."""

from __future__ import annotations

import json

import pytest

from benchmarks import run_all


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
        # Phase 2 (summaries) ran entirely from the fleet-filled cache.
        assert summary["totals"]["executed"] == 0
        assert summary["totals"]["cached"] == summary["totals"]["points"]
