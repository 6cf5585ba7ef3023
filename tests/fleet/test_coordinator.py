"""The fleet coordinator end to end: sharding, merging, verification,
and the acceptance property — a local 2-worker fleet produces a point
cache byte-identical to a serial run."""

from __future__ import annotations

import json

import pytest

from repro.fleet import FleetError, FleetSpec, plan_shards, run_fleet
from repro.fleet.coordinator import pending_items, verify_merge
from repro.fleet.manifest import Manifest
from repro.fleet.worker import run_item
from repro.sim.sweep import (
    FigureSpec,
    ResultsStore,
    SweepSpec,
    config_from_dict,
)

from tests.fleet.helpers import tiny_config, tiny_items
from tests.fleet.test_backends import FakeSshRunner, ssh_spec


class TestPlanShards:
    def test_round_robin(self):
        plan = plan_shards(tiny_items(5), FleetSpec.local(2))
        assert dict(plan) == {"local-0-0": 3, "local-0-1": 2}

    def test_idle_workers_still_listed(self):
        plan = plan_shards(tiny_items(1), FleetSpec.local(3))
        assert sorted(count for _, count in plan) == [0, 0, 1]


class TestPendingItems:
    def _sweeps(self, configs):
        return [
            SweepSpec(
                name="tiny",
                figure=FigureSpec(figure="test", title="t"),
                configs=tuple(configs),
            )
        ]

    def test_cache_hits_excluded_and_duplicates_collapsed(self, tmp_path):
        store = ResultsStore(tmp_path)
        cached, fresh = tiny_config(seed=1), tiny_config(seed=2)
        run_item(tiny_items(1)[0], store)  # unrelated point
        item = pending_items(self._sweeps([cached]), store)[0]
        run_item(item, store)  # now `cached` is a hit
        items = pending_items(self._sweeps([cached, fresh, fresh]), store)
        assert [config_from_dict(i.config).seed for i in items] == [2]


class TestVerifyMerge:
    def test_missing_point_is_fatal(self, tmp_path):
        manifest = Manifest.create(tmp_path / "fleet", tiny_items(1))
        store = ResultsStore(tmp_path / "results")
        store.points_dir.mkdir(parents=True)
        with pytest.raises(FleetError, match="missing or invalid points"):
            verify_merge(manifest, store)

    def test_wrong_config_hash_is_fatal(self, tmp_path):
        """A worker running different code (schema skew) cannot slip a
        mismatched point past the merge."""
        items = tiny_items(1)
        manifest = Manifest.create(tmp_path / "fleet", items)
        store = ResultsStore(tmp_path / "results")
        run_item(items[0], store)
        path = store.points_dir / f"{items[0].config_hash}.json"
        data = json.loads(path.read_text())
        data["config"]["seed"] = 999  # recomputed hash no longer matches
        path.write_text(json.dumps(data))
        with pytest.raises(FleetError, match=items[0].config_hash):
            verify_merge(manifest, store)

    def test_undecodable_result_is_fatal(self, tmp_path):
        """Right schema, right hash, a ``result`` this code cannot read:
        the merge does not count it."""
        items = tiny_items(2)
        manifest = Manifest.create(tmp_path / "fleet", items)
        store = ResultsStore(tmp_path / "results")
        for item in items:
            run_item(item, store)
        path = store.points_dir / f"{items[1].config_hash}.json"
        data = json.loads(path.read_text())
        del data["result"]["throughput_tps"]
        path.write_text(json.dumps(data))
        with pytest.raises(FleetError, match=items[1].config_hash):
            verify_merge(manifest, store)

    def test_clean_merge_counts_points(self, tmp_path):
        items = tiny_items(2)
        manifest = Manifest.create(tmp_path / "fleet", items)
        store = ResultsStore(tmp_path / "results")
        for item in items:
            run_item(item, store)
        assert verify_merge(manifest, store) == 2


class TestRunFleetLocal:
    def test_two_worker_fleet_matches_serial_byte_for_byte(self, tmp_path):
        """The acceptance property: same points, same bytes."""
        items = tiny_items(4)
        serial = ResultsStore(tmp_path / "serial")
        for item in items:
            run_item(item, serial)

        fleet = ResultsStore(tmp_path / "fleet")
        report = run_fleet(
            items, fleet, FleetSpec.local(2), fleet_root=tmp_path / "run"
        )
        assert report.points == 4
        assert report.worker_failures == []
        assert sum(report.completed_by.values()) == 4

        names = sorted(p.name for p in serial.points_dir.glob("*.json")
                       if not p.name.endswith(".wall.json"))
        assert len(names) == 4
        for name in names:
            assert (serial.points_dir / name).read_bytes() == (
                fleet.points_dir / name
            ).read_bytes()

    def test_workers_spawn_when_the_coordinator_has_threads(self, tmp_path, monkeypatch):
        """A fork copies only the calling thread, and a lock another
        thread holds stays held in the child: with a second thread
        alive, local workers are spawned, and land the same point."""
        import multiprocessing
        import threading

        from repro.fleet import backends

        methods = []
        get_context = multiprocessing.get_context
        monkeypatch.setattr(
            backends.multiprocessing, "get_context",
            lambda method: methods.append(method) or get_context(method),
        )
        items = tiny_items(1)
        serial = ResultsStore(tmp_path / "serial")
        run_item(items[0], serial)
        fleet = ResultsStore(tmp_path / "fleet")
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            report = run_fleet(items, fleet, FleetSpec.local(1), fleet_root=tmp_path / "run")
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert methods == ["spawn"]
        assert report.worker_failures == []
        name = f"{items[0].config_hash}.json"
        assert (fleet.points_dir / name).read_bytes() == (serial.points_dir / name).read_bytes()

    def test_cache_hits_short_circuit(self, tmp_path):
        items = tiny_items(2)
        store = ResultsStore(tmp_path / "results")
        for item in items:
            run_item(item, store)
        before = {
            p.name: p.read_bytes() for p in store.points_dir.glob("*.json")
        }
        report = run_fleet(
            items, store, FleetSpec.local(1), fleet_root=tmp_path / "run"
        )
        assert report.points == 2
        after = {p.name: p.read_bytes() for p in store.points_dir.glob("*.json")}
        assert {n: b for n, b in after.items() if not n.endswith(".wall.json")} == {
            n: b for n, b in before.items() if not n.endswith(".wall.json")
        }


class TestRunFleetSsh:
    def test_dead_worker_point_redispatched_next_round(self, tmp_path):
        """Per-point retry on worker death, through the whole coordinator."""
        items = tiny_items(2)
        store = ResultsStore(tmp_path / "results")
        remote = tmp_path / "remote"
        spec = ssh_spec(remote, workers=1)
        runner = FakeSshRunner(remote, fail_worker_rounds=1)
        report = run_fleet(
            items, store, spec, fleet_root=tmp_path / "run", run_command=runner
        )
        assert report.rounds == 2
        assert report.redispatched >= 2
        assert report.worker_failures == ["node1-0-0"]
        assert sum(report.completed_by.values()) == 2

    def test_always_dying_worker_exhausts_attempts(self, tmp_path):
        items = tiny_items(1)
        store = ResultsStore(tmp_path / "results")
        remote = tmp_path / "remote"
        spec = ssh_spec(remote, workers=1)
        runner = FakeSshRunner(remote, fail_worker_rounds=99)
        with pytest.raises(FleetError, match="failed 3 attempts"):
            run_fleet(
                items, store, spec, fleet_root=tmp_path / "run", run_command=runner
            )
