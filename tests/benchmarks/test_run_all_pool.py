"""``run_all.py``'s process pool: which points it sends, that a pool
fills the store with the bytes a serial run writes, how its workers
start, how its points are credited, and what a dead worker costs."""

from __future__ import annotations

import json
import os
import re
import threading

import pytest

from benchmarks import run_all
from repro.errors import SimulationError
from repro.sim import sweep
from repro.sim.sweep import ResultsStore, config_hash, run_sweep
from tests.sim.test_sweep import tiny_config, tiny_spec
from tools import ci_checks


def point_files(store: ResultsStore) -> dict[str, bytes]:
    return {
        path.name: path.read_bytes()
        for path in store.points_dir.glob("*.json")
        if not path.name.endswith(".wall.json")
    }


class TestPendingPoints:
    def test_cache_hits_excluded_and_duplicates_collapsed(self, tmp_path):
        store = ResultsStore(tmp_path)
        cached, fresh = tiny_config(seed=1), tiny_config(seed=2)
        sweep.store_point(cached, str(tmp_path))
        pending = run_all.pending_points(
            [tiny_spec([cached, fresh], name="a"), tiny_spec([fresh], name="b")], store
        )
        assert pending == {config_hash(fresh): ("a", fresh)}

    def test_an_empty_store_pends_every_point_in_declaration_order(self, tmp_path):
        configs = [tiny_config(seed=seed) for seed in (3, 1, 2)]
        pending = run_all.pending_points([tiny_spec(configs)], ResultsStore(tmp_path))
        assert list(pending) == [config_hash(config) for config in configs]
        assert [config for _name, config in pending.values()] == configs

    def test_a_filled_store_pends_nothing(self, tmp_path):
        configs = [tiny_config(seed=seed) for seed in (1, 2)]
        store = ResultsStore(tmp_path)
        run_sweep(tiny_spec(configs), store)
        assert run_all.pending_points([tiny_spec(configs)], store) == {}

    def test_a_point_repeated_within_one_sweep_pends_once(self, tmp_path):
        config = tiny_config()
        pending = run_all.pending_points([tiny_spec([config, config])], ResultsStore(tmp_path))
        assert pending == {config_hash(config): ("test-sweep", config)}

    def test_a_torn_point_file_pends_again(self, tmp_path):
        config = tiny_config()
        store = ResultsStore(tmp_path)
        sweep.store_point(config, str(tmp_path))
        path = store.point_path(config)
        path.write_bytes(path.read_bytes()[:40])
        assert list(run_all.pending_points([tiny_spec([config])], store)) == [config_hash(config)]


class TestRunPool:
    def test_two_workers_match_serial_byte_for_byte(self, tmp_path):
        """The acceptance property: same points, same bytes."""
        configs = [tiny_config(seed=100 + i) for i in range(4)]
        serial = ResultsStore(tmp_path / "serial")
        run_sweep(tiny_spec(configs), serial)
        pooled = ResultsStore(tmp_path / "pooled")
        pending = run_all.pending_points([tiny_spec(configs)], pooled)
        report, landed = run_all.run_pool(pending, pooled, 2, progress=lambda line: None)
        assert landed == set(pending)
        assert (report["workers"], report["points"], report["worker_failures"]) == (2, 4, [])
        assert sum(report["completed_by"].values()) == 4
        assert len(point_files(serial)) == 4
        assert point_files(pooled) == point_files(serial)

    def test_workers_spawn_when_the_driver_has_threads(self, tmp_path, monkeypatch):
        """A fork copies only the calling thread, and a lock another
        thread holds stays held in the child: with a second thread
        alive, pool workers are spawned, and land the same point."""
        import multiprocessing

        methods = []
        get_context = multiprocessing.get_context
        monkeypatch.setattr(
            multiprocessing, "get_context",
            lambda method: methods.append(method) or get_context(method),
        )
        config = tiny_config()
        serial = ResultsStore(tmp_path / "serial")
        run_sweep(tiny_spec([config]), serial)
        pooled = ResultsStore(tmp_path / "pooled")
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            pending = run_all.pending_points([tiny_spec([config])], pooled)
            report, _ = run_all.run_pool(pending, pooled, 1, progress=lambda line: None)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert methods == ["spawn"]
        assert report["worker_failures"] == []
        assert point_files(pooled) == point_files(serial)

    @pytest.mark.parametrize(("threads", "method"), [(1, "fork"), (2, "spawn")])
    def test_workers_fork_only_from_a_single_threaded_driver(self, monkeypatch, threads, method):
        import multiprocessing

        monkeypatch.setattr(threading, "active_count", lambda: threads)
        if "fork" not in multiprocessing.get_all_start_methods():
            method = "spawn"
        assert run_all._pool_context().get_start_method() == method

    def test_more_workers_than_points(self, tmp_path):
        config = tiny_config(seed=11)
        store = ResultsStore(tmp_path)
        pending = run_all.pending_points([tiny_spec([config])], store)
        report, landed = run_all.run_pool(pending, store, 3, progress=lambda line: None)
        assert landed == {config_hash(config)}
        assert (report["workers"], report["points"], report["worker_failures"]) == (3, 1, [])
        assert store.get(config) is not None

    def test_progress_names_the_points_the_workers_and_the_merge(self, tmp_path):
        lines = []
        store = ResultsStore(tmp_path)
        configs = [tiny_config(seed=20 + i) for i in range(2)]
        pending = run_all.pending_points([tiny_spec(configs)], store)
        run_all.run_pool(pending, store, 2, progress=lines.append)
        assert lines[0] == "[fleet] 2 pending points -> 2 workers"
        assert lines[1].startswith("[fleet] merged 2 points in ")
        assert len(lines) == 2

    def test_points_are_credited_to_worker_processes_not_the_driver(self, tmp_path):
        store = ResultsStore(tmp_path)
        configs = [tiny_config(seed=25 + i) for i in range(3)]
        pending = run_all.pending_points([tiny_spec(configs)], store)
        report, _ = run_all.run_pool(pending, store, 2, progress=lambda line: None)
        assert sum(report["completed_by"].values()) == 3
        assert all(re.fullmatch(r"worker-\d+", label) for label in report["completed_by"])
        assert f"worker-{os.getpid()}" not in report["completed_by"]

    def test_a_dying_worker_is_reported_and_its_point_not_landed(self, tmp_path, monkeypatch):
        """The pool breaks when a worker dies; what landed before is in
        the store and reported landed, the dead worker's point is not."""
        survivors = [tiny_config(seed=32), tiny_config(seed=33)]
        victim = tiny_config(seed=31)
        parent, run_point = os.getpid(), sweep.run_point

        def dying(config):
            if os.getpid() != parent and config_hash(config) == config_hash(victim):
                os._exit(1)
            return run_point(config)

        monkeypatch.setattr(sweep, "run_point", dying)
        store = ResultsStore(tmp_path)
        pending = run_all.pending_points([tiny_spec([*survivors, victim])], store)
        report, landed = run_all.run_pool(pending, store, 1, progress=lambda line: None)
        assert landed == {config_hash(config) for config in survivors}
        assert store.get(victim) is None
        assert report["worker_failures"] == ["a worker died; 1 points left to the sweep pass"]

    def test_cache_hits_short_circuit(self, tmp_path, monkeypatch):
        """A second run over a filled store starts no pool and runs
        nothing, and leaves every point file as it was."""
        argv = ["--smoke", "--only", "ordering", "--results", str(tmp_path), "--fleet", "local:1"]
        assert run_all.main(argv) == 0
        before = point_files(ResultsStore(tmp_path))

        def refuse(config):
            raise AssertionError(f"a cached point ran: {config_hash(config)}")

        monkeypatch.setattr(sweep, "run_point", refuse)
        assert run_all.main(argv) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["fleet"] is None
        assert summary["totals"]["executed"] == 0
        assert point_files(ResultsStore(tmp_path)) == before

    def test_a_raising_point_fails_the_run(self, tmp_path, monkeypatch):
        """Results are deterministic, so a point that raises is not
        retried: its exception comes out of the pool."""

        def diverging(config):
            raise SimulationError(f"forged divergence at seed {config.seed}")

        monkeypatch.setattr(sweep, "run_point", diverging)
        store = ResultsStore(tmp_path)
        pending = run_all.pending_points([tiny_spec([tiny_config(seed=5)])], store)
        with pytest.raises(SimulationError, match="at seed 5"):
            run_all.run_pool(pending, store, 1, progress=lambda line: None)
        assert point_files(store) == {}


class TestCreditPool:
    def test_a_shared_point_counts_once_for_the_first_sweep_that_declares_it(self, tmp_path):
        """The pool computes a point two sweeps share once; like a serial
        run, the first sweep counts it executed and the second cached."""
        shared, own = tiny_config(seed=1), tiny_config(seed=2)
        sweeps = [tiny_spec((shared,), name="first"), tiny_spec((shared, own), name="second")]
        store = ResultsStore(tmp_path)
        pending = run_all.pending_points(sweeps, store)
        for _name, config in pending.values():
            sweep.store_point(config, str(tmp_path))
        counts = {}
        for spec in sweeps:
            outcome = run_sweep(spec, store)
            run_all.credit_pool(outcome, pending, set(pending), store)
            written = json.loads((tmp_path / f"{spec.name}.json").read_text())
            counts[spec.name] = (outcome.executed, outcome.cached, written["executed"])
            computed = [
                r for r in outcome.results if pending[config_hash(r.config)][0] == spec.name
            ]
            assert outcome.executed_events == sum(r.events_processed for r in computed)
            assert outcome.executed_wall_seconds == sum(
                store.wall_seconds(config_hash(r.config)) for r in computed
            )
        assert counts == {"first": (1, 0, 1), "second": (1, 1, 1)}

    def test_a_point_the_pool_did_not_land_is_counted_by_the_sweep_pass(self, tmp_path):
        """A dead worker's point is executed by the sweep pass, which
        counts it; crediting it again would count it twice."""
        config = tiny_config()
        store = ResultsStore(tmp_path)
        pending = run_all.pending_points([tiny_spec([config])], store)
        outcome = run_sweep(tiny_spec([config]), store)
        run_all.credit_pool(outcome, pending, set(), store)
        assert (outcome.executed, outcome.cached) == (1, 0)

    @pytest.mark.parametrize("damage", ["missing", "foreign", "undecodable"])
    def test_a_landed_point_the_sweep_pass_cannot_read_is_recomputed_and_counted_once(
        self, tmp_path, damage
    ):
        """A point the pool landed but whose file is gone, holds another
        point, or does not decode by the time the sweep pass reads it is
        a miss: the sweep pass recomputes it to the serial bytes and
        counts it, and the pool's credit does not count it again."""
        configs = [tiny_config(seed=40 + i) for i in range(3)]
        serial = ResultsStore(tmp_path / "serial")
        run_sweep(tiny_spec(configs), serial)
        store = ResultsStore(tmp_path / "pooled")
        pending = run_all.pending_points([tiny_spec(configs)], store)
        for _name, config in pending.values():
            sweep.store_point(config, str(store.root))
        path = store.point_path(configs[1])
        if damage == "missing":
            path.unlink()
        elif damage == "foreign":
            path.write_bytes(store.point_path(configs[0]).read_bytes())
        else:
            data = json.loads(path.read_text())
            data["result"] = "not a result"
            path.write_text(json.dumps(data))
        assert store.get(configs[1]) is None
        outcome = run_sweep(tiny_spec(configs), store)
        run_all.credit_pool(outcome, pending, set(pending), store)
        assert (outcome.executed, outcome.cached) == (3, 0)
        assert outcome.executed_events == sum(r.events_processed for r in outcome.results)
        written = json.loads((store.root / "test-sweep.json").read_text())
        assert (written["executed"], written["cached"]) == (3, 0)
        assert point_files(store) == point_files(serial)


class TestFleetFlag:
    @pytest.mark.parametrize("spec", [
        "bogus", "local:0", "local:", "cluster.toml",
        "local:00", "local:-1", "local:two", "local:2:3", "LOCAL:2", "ssh:host-a", "fleet.json",
    ])
    def test_anything_but_local_n_is_a_usage_error(self, tmp_path, capsys, spec):
        with pytest.raises(SystemExit) as exit_info:
            run_all.main(["--smoke", "--results", str(tmp_path), "--fleet", spec])
        assert exit_info.value.code == 2
        assert f"--fleet {spec!r}" in capsys.readouterr().err
        assert not (tmp_path / "points").exists()

    def test_local_alone_means_one_worker_per_core(self):
        assert run_all._fleet_workers("local") == (os.cpu_count() or 1)
        assert run_all._fleet_workers("local:3") == 3

    @pytest.mark.parametrize(
        ("spec", "workers"), [("local:1", 1), ("local:2", 2), ("local:64", 64)]
    )
    def test_local_n_is_n_workers(self, spec, workers):
        assert run_all._fleet_workers(spec) == workers

    @pytest.mark.parametrize(("cores", "workers"), [(5, 5), (None, 1)])
    def test_local_alone_follows_the_core_count(self, monkeypatch, cores, workers):
        """One worker per core, and one when the core count is unknown."""
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        assert run_all._fleet_workers("local") == workers

    def test_an_existing_spec_file_is_refused(self, tmp_path, capsys):
        """Spec files went with the ssh backend: a path is a usage error
        even when it names a well-formed spec of the old format."""
        spec = tmp_path / "fleet.json"
        spec.write_text(json.dumps({"backend": "local", "hosts": [{"host": "here", "workers": 2}]}))
        results = tmp_path / "results"
        with pytest.raises(SystemExit) as exit_info:
            run_all.main(["--smoke", "--results", str(results), "--fleet", str(spec)])
        assert exit_info.value.code == 2
        assert f"--fleet {str(spec)!r}" in capsys.readouterr().err
        assert not results.exists()

    def test_fleet_plan_is_not_an_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_all.main(["--smoke", "--results", str(tmp_path), "--list", "--fleet-plan"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --fleet-plan" in capsys.readouterr().err

    def test_list_prints_the_plan_without_running(self, tmp_path, capsys):
        assert run_all.main([
            "--smoke", "--only", "ordering", "--results", str(tmp_path), "--list",
        ]) == 0
        out = capsys.readouterr().out
        assert "ordering" in out and "(cache: " in out
        assert not (tmp_path / "points").exists()


@pytest.mark.slow
class TestPoolRun:
    def test_smoke_pool_run_records_provenance(self, tmp_path):
        assert run_all.main([
            "--smoke", "--only", "ordering", "--results", str(tmp_path), "--fleet", "local:2",
        ]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        fleet = summary["fleet"]
        assert set(fleet) == {
            "workers", "points", "wall_seconds", "worker_failures", "completed_by"
        }
        assert fleet["workers"] == 2
        assert fleet["worker_failures"] == []
        assert sum(fleet["completed_by"].values()) == fleet["points"]
        # Phase 2 walked the pool-filled cache; the totals count what
        # the pool computed in this run as executed.
        totals = summary["totals"]
        assert totals["executed"] == fleet["points"]
        assert totals["cached"] == totals["points"] - fleet["points"]
        assert not (tmp_path / "fleet").exists()

    def test_force_sends_every_point_through_the_pool_again(self, tmp_path):
        """``--force`` drops the cached points, so the pool computes all
        of them again, to the same bytes, and the totals count them once."""
        argv = ["--smoke", "--only", "ordering", "--results", str(tmp_path), "--fleet", "local:2"]
        assert run_all.main(argv) == 0
        before = point_files(ResultsStore(tmp_path))
        assert run_all.main([*argv, "--force"]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["fleet"]["points"] == len(before)
        assert summary["fleet"]["worker_failures"] == []
        totals = summary["totals"]
        assert totals["executed"] == len(before)
        assert totals["executed"] + totals["cached"] == totals["points"]
        assert point_files(ResultsStore(tmp_path)) == before

    @pytest.mark.parametrize("dies", ["before storing", "after storing"])
    def test_a_killed_worker_leaves_its_points_to_the_sweep_pass(self, tmp_path, monkeypatch, dies):
        """A pool worker that dies mid-point breaks the pool; the sweep
        pass recomputes whatever did not land, the run passes, every
        point file is the one a 1-worker run writes, and every point is
        counted executed exactly once, also the one a worker stored just
        before it died."""
        argv = ["--smoke", "--only", "ordering", "--fleet"]
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        assert run_all.main([*argv, "local:1", "--results", str(serial)]) == 0
        names = sorted(point_files(ResultsStore(serial)))
        victim = names[len(names) // 2].removesuffix(".json")
        parent, run_point, put = os.getpid(), sweep.run_point, ResultsStore.put

        def dying(config):
            if os.getpid() != parent and config_hash(config) == victim:
                os._exit(1)
            return run_point(config)

        def put_then_die(store, config, result, **kwargs):
            path = put(store, config, result, **kwargs)
            if os.getpid() != parent and config_hash(config) == victim:
                os._exit(1)
            return path

        if dies == "before storing":
            monkeypatch.setattr(sweep, "run_point", dying)
        else:
            monkeypatch.setattr(ResultsStore, "put", put_then_die)
        assert run_all.main([*argv, "local:2", "--results", str(pooled)]) == 0
        assert ci_checks.points_match(str(serial), str(pooled)) == []
        summary = json.loads((pooled / "summary.json").read_text())
        assert summary["fleet"]["worker_failures"]
        assert sum(summary["fleet"]["completed_by"].values()) < len(names)
        totals = summary["totals"]
        assert totals["executed"] == len(names)
        assert totals["executed"] + totals["cached"] == totals["points"]
