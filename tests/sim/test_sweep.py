"""Tests for the sweep engine and its results cache."""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import time

import pytest

from repro.errors import ConfigError
from repro.sim.runner import ExperimentConfig
from repro.sim.sweep import (
    FigureSpec,
    ResultsStore,
    SweepSpec,
    config_from_dict,
    config_hash,
    config_to_dict,
    result_from_dict,
    result_to_dict,
    run_sweep,
    smoke_config,
)


def tiny_config(**overrides) -> ExperimentConfig:
    """A deployment that finishes in well under a second."""
    defaults = dict(
        protocol="mahi-mahi-5",
        num_validators=4,
        load_tps=200.0,
        duration=1.5,
        warmup=0.5,
        uniform_delay=0.05,
        model_cpu=False,
        seed=7,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def tiny_spec(configs, name="test-sweep") -> SweepSpec:
    return SweepSpec(
        name=name,
        figure=FigureSpec(figure="test", title="engine test"),
        configs=tuple(configs),
    )


class TestConfigHash:
    def test_equal_configs_equal_hashes(self):
        assert config_hash(tiny_config()) == config_hash(tiny_config())

    def test_any_field_change_changes_hash(self):
        base = config_hash(tiny_config())
        assert config_hash(tiny_config(seed=8)) != base
        assert config_hash(tiny_config(load_tps=201.0)) != base
        assert config_hash(tiny_config(protocol="tusk")) != base

    def test_golden_hash_pinned(self):
        """The serialization is part of the cache contract: if this
        changes, bump SCHEMA_VERSION in sweep.py (old caches must read
        as misses, not as silently wrong hits)."""
        # v8: 34 -> 27 fields
        assert config_hash(ExperimentConfig()) == "06b2673770d9a181"

    def test_stable_across_interpreter_instances(self):
        """No PYTHONHASHSEED leakage: a fresh interpreter with a random
        hash seed derives the same hash."""
        script = (
            "from repro.sim.sweep import config_hash;"
            "from repro.sim.runner import ExperimentConfig;"
            "print(config_hash(ExperimentConfig()))"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": "random"},
            check=True,
        )
        assert out.stdout.strip() == config_hash(ExperimentConfig())

    def test_config_roundtrip(self):
        config = tiny_config(num_crashed=1, direct_skip=False)
        assert config_from_dict(config_to_dict(config)) == config

    def test_unknown_key_is_a_config_error(self):
        """A point cached under an older schema names fields the config
        no longer has: a typed error naming them, not a bare TypeError."""
        stale = dict(config_to_dict(tiny_config()), tx_size=512, max_block_transactions=10)
        with pytest.raises(ConfigError, match=r"\['max_block_transactions', 'tx_size'\]"):
            config_from_dict(stale)


class TestSmokeTransform:
    def test_shrinks_and_keeps_shape(self):
        big = ExperimentConfig(
            protocol="tusk", num_validators=50, load_tps=200_000, num_crashed=16
        )
        small = smoke_config(big)
        assert small.protocol == "tusk"
        assert small.num_validators <= 10
        assert small.duration <= 2.0
        assert small.load_tps <= 2_000
        # Fault pattern survives, clamped to the smaller committee's f.
        assert small.num_crashed == (small.num_validators - 1) // 3

    def test_result_is_valid_config(self):
        # __post_init__ re-validates; this must not raise.
        smoke_config(ExperimentConfig(num_validators=10, num_crashed=3, num_equivocators=0))

    def test_smoke_spec_deduplicates_collapsed_points(self):
        spec = tiny_spec(
            ExperimentConfig(protocol="mahi-mahi-5", load_tps=load, duration=20.0)
            for load in (20_000, 60_000, 100_000)
        )
        smoked = spec.smoke()
        assert smoked.name == "test-sweep-smoke"
        assert len(smoked.configs) == 1  # loads collapse onto one point


class TestFaultScheduleSerialization:
    def test_config_with_schedule_round_trips(self):
        from repro.sim.faults import FaultEvent

        config = tiny_config(
            num_validators=10,
            fault_schedule=(
                FaultEvent(0.4, 3, "crash"),
                FaultEvent(0.8, 3, "recover"),
            ),
            tx_size_mix=((128, 0.5), (512, 0.5)),
        )
        restored = config_from_dict(json.loads(json.dumps(config_to_dict(config))))
        assert restored == config
        assert config_hash(restored) == config_hash(config)
        assert isinstance(restored.fault_schedule[0], FaultEvent)

    def test_smoke_rescales_schedule_times(self):
        from repro.sim.faults import FaultEvent

        config = tiny_config(
            num_validators=10,
            duration=20.0,
            fault_schedule=(
                FaultEvent(5.0, 3, "crash"),
                FaultEvent(10.0, 3, "recover"),
            ),
        )
        small = smoke_config(config)
        # Events keep their position as a fraction of the duration.
        assert [e.time / small.duration for e in small.fault_schedule] == [
            pytest.approx(5.0 / 20.0),
            pytest.approx(10.0 / 20.0),
        ]
        assert [e.kind for e in small.fault_schedule] == ["crash", "recover"]

    def test_smoke_clamps_recovering_to_fault_budget(self):
        config = tiny_config(num_validators=50, duration=20.0, num_recovering=10)
        small = smoke_config(config)
        assert small.num_validators == 10
        assert small.num_recovering == 3  # f for a 10-committee

    def test_event_dicts_and_tuples_hash_identically(self):
        """Regression: the Mapping and sequence normalization branches
        must coerce types identically, or equal configs get different
        sweep-cache keys (spurious misses)."""
        from_dicts = tiny_config(
            num_validators=10,
            fault_schedule=[{"time": 1, "validator": 3, "kind": "crash"}],
        )
        from_tuples = tiny_config(num_validators=10, fault_schedule=[(1, 3, "crash")])
        assert from_dicts == from_tuples
        assert config_hash(from_dicts) == config_hash(from_tuples)

    def test_smoke_clamps_schedule_concurrency_to_fault_budget(self):
        """Regression: a schedule valid at full scale (n=50, f=16) must
        shrink to the smoke committee's budget instead of making
        smoke_config raise."""
        from repro.sim.faults import FaultEvent, FaultSchedule

        config = tiny_config(
            num_validators=50,
            duration=20.0,
            fault_schedule=tuple(
                FaultEvent(t, v, kind)
                for v in (1, 2, 3, 4, 5)
                for t, kind in ((5.0, "crash"), (10.0, "recover"))
            ),
        )
        small = smoke_config(config)  # must not raise
        assert small.num_validators == 10
        remaining = FaultSchedule(small.fault_schedule)
        assert remaining.max_concurrent_faulty() <= 3  # f for 10 validators
        # Lowest-indexed scheduled validators survive the clamp.
        assert remaining.validators() == frozenset({1, 2, 3})

    def test_smoke_drops_schedule_validators_outside_committee(self):
        from repro.sim.faults import FaultEvent

        config = tiny_config(
            num_validators=50,
            duration=20.0,
            fault_schedule=(
                FaultEvent(5.0, 30, "crash"),
                FaultEvent(10.0, 30, "recover"),
                FaultEvent(5.0, 3, "crash"),
            ),
        )
        small = smoke_config(config)
        assert {e.validator for e in small.fault_schedule} == {3}

    def test_recovery_result_round_trips(self, tmp_path):
        from repro.sim.sweep import run_point

        config = tiny_config(num_validators=10, num_recovering=1, duration=2.0)
        result = run_point(config)
        assert result.recoveries == 1
        restored = result_from_dict(config, json.loads(json.dumps(result_to_dict(result))))
        assert restored.recoveries == result.recoveries
        assert restored.recovery_time_s == result.recovery_time_s
        assert restored.availability == result.availability


class TestResultsStore:
    def test_miss_then_hit(self, tmp_path):
        store = ResultsStore(tmp_path)
        spec = tiny_spec([tiny_config()])
        assert store.get(spec.configs[0]) is None
        first = run_sweep(spec, store)
        assert (first.cached, first.executed) == (0, 1)
        second = run_sweep(spec, store)
        assert (second.cached, second.executed) == (1, 0)
        assert second.results[0] == first.results[0]

    def test_resume_recomputes_only_missing_points(self, tmp_path):
        store = ResultsStore(tmp_path)
        spec = tiny_spec([tiny_config(seed=1), tiny_config(seed=2), tiny_config(seed=3)])
        run_sweep(spec, store)
        store.point_path(spec.configs[1]).unlink()
        resumed = run_sweep(spec, store)
        assert (resumed.cached, resumed.executed) == (2, 1)

    def test_corrupt_point_reads_as_miss(self, tmp_path):
        store = ResultsStore(tmp_path)
        config = tiny_config()
        run_sweep(tiny_spec([config]), store)
        store.point_path(config).write_text("{truncated")
        assert store.get(config) is None

    def test_stale_schema_reads_as_miss(self, tmp_path):
        store = ResultsStore(tmp_path)
        config = tiny_config()
        run_sweep(tiny_spec([config]), store)
        path = store.point_path(config)
        data = json.loads(path.read_text())
        data["schema"] = -1
        path.write_text(json.dumps(data))
        assert store.get(config) is None

    def test_result_roundtrip_preserves_nan_latency(self, tmp_path):
        store = ResultsStore(tmp_path)
        # Too short to commit anything after warmup -> NaN latency.
        config = tiny_config(duration=0.4, warmup=0.3)
        [result] = run_sweep(tiny_spec([config]), store).results
        restored = store.get(config)
        assert restored is not None
        assert dataclasses.asdict(restored.config) == dataclasses.asdict(result.config)

    def test_summary_written_per_sweep(self, tmp_path):
        store = ResultsStore(tmp_path)
        spec = tiny_spec([tiny_config()], name="my-sweep")
        run_sweep(spec, store)
        summary = json.loads((tmp_path / "my-sweep.json").read_text())
        assert summary["sweep"] == "my-sweep"
        assert len(summary["points"]) == 1
        assert summary["points"][0]["config_hash"] == config_hash(spec.configs[0])


class TestStoreHardening:
    """Satellite of the fleet PR: many writers, torn reads, the wall
    sidecar — everything concurrent fleet merges lean on."""

    def test_torn_write_reads_as_miss(self, tmp_path):
        store = ResultsStore(tmp_path)
        config = tiny_config()
        run_sweep(tiny_spec([config]), store)
        payload = store.point_path(config).read_bytes()
        store.point_path(config).write_bytes(payload[: len(payload) // 2])
        assert store.get(config) is None

    def test_non_dict_payload_reads_as_miss(self, tmp_path):
        store = ResultsStore(tmp_path)
        config = tiny_config()
        store.points_dir.mkdir(parents=True, exist_ok=True)
        store.point_path(config).write_text("[1, 2, 3]")
        assert store.get(config) is None

    def test_invalid_utf8_reads_as_miss(self, tmp_path):
        store = ResultsStore(tmp_path)
        config = tiny_config()
        store.points_dir.mkdir(parents=True, exist_ok=True)
        store.point_path(config).write_bytes(b'{"schema": \xff\xfe}')
        assert store.get(config) is None

    def test_undecodable_result_reads_as_miss(self, tmp_path):
        """Schema and hash right, ``result`` unreadable: not a point."""
        store = ResultsStore(tmp_path)
        config = tiny_config()
        run_sweep(tiny_spec([config]), store)
        path = store.point_path(config)
        data = json.loads(path.read_text())
        del data["result"]["latency"]
        path.write_text(json.dumps(data))
        assert store.get(config) is None
        assert store.load(config_hash(config)) is None

    def test_foreign_config_under_a_right_name_reads_as_miss(self, tmp_path):
        """The hash is recomputed from the stored config, not read off
        the file's ``config_hash`` field."""
        store = ResultsStore(tmp_path)
        config = tiny_config()
        run_sweep(tiny_spec([config]), store)
        path = store.point_path(config)
        data = json.loads(path.read_text())
        data["config"]["seed"] += 1
        path.write_text(json.dumps(data))
        assert store.get(config) is None

    def test_concurrent_writers_never_tear_a_point(self, tmp_path):
        """Many threads hammering put() on the same config while readers
        poll get(): every read is all-or-nothing and the final file is
        canonical (atomic tmp+rename, per-writer tmp names)."""
        import threading

        store = ResultsStore(tmp_path)
        config = tiny_config()
        [result] = run_sweep(tiny_spec([config]), ResultsStore(tmp_path / "seed")).results
        failures: list[str] = []
        stop = threading.Event()

        def writer() -> None:
            for _ in range(25):
                store.put(config, result, wall_seconds=0.5)

        def reader() -> None:
            while not stop.is_set():
                restored = store.get(config)
                if restored is not None and result_to_dict(restored) != result_to_dict(result):
                    failures.append("reader saw a torn or foreign point")

        readers = [threading.Thread(target=reader) for _ in range(2)]
        writers = [threading.Thread(target=writer) for _ in range(6)]
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join()
        stop.set()
        for thread in readers:
            thread.join()
        assert failures == []
        restored = store.get(config)
        assert restored is not None
        assert result_to_dict(restored) == result_to_dict(result)
        # No stray tmp files survive the stampede.
        assert list(store.points_dir.glob("*.tmp")) == []

    def test_wall_seconds_lives_in_a_sidecar(self, tmp_path):
        """The point payload is deterministic (byte-comparable across
        workers); the writer's wall clock goes to ``<hash>.wall.json``."""
        store = ResultsStore(tmp_path)
        config = tiny_config()
        [result] = run_sweep(tiny_spec([config]), ResultsStore(tmp_path / "seed")).results
        store.put(config, result, wall_seconds=1.25)
        payload = json.loads(store.point_path(config).read_text())
        assert "wall_seconds" not in payload
        assert store.wall_seconds(config_hash(config)) == 1.25


class TestSerialExecution:
    def test_results_keep_config_order(self, tmp_path):
        configs = [tiny_config(seed=s) for s in (5, 1, 9)]
        outcome = run_sweep(tiny_spec(configs), ResultsStore(tmp_path))
        assert [r.config.seed for r in outcome.results] == [5, 1, 9]

    def test_misses_run_in_this_process(self, tmp_path, monkeypatch):
        """No fan-out: every miss runs here, one after another, in
        config order (parallel runs go through the fleet)."""
        import os

        from repro.sim import sweep

        ran = []
        run_point = sweep.run_point
        monkeypatch.setattr(
            sweep, "run_point",
            lambda config, **kw: ran.append((os.getpid(), config.seed)) or run_point(config, **kw),
        )
        configs = [tiny_config(seed=s) for s in (5, 1, 9)]
        outcome = run_sweep(tiny_spec(configs), ResultsStore(tmp_path))
        assert ran == [(os.getpid(), 5), (os.getpid(), 1), (os.getpid(), 9)]
        assert (outcome.executed, outcome.executed_events) == (
            3, sum(r.events_processed for r in outcome.results)
        )

    def test_result_dict_roundtrip(self, tmp_path):
        outcome = run_sweep(tiny_spec([tiny_config()]), ResultsStore(tmp_path))
        result = outcome.results[0]
        data = json.loads(json.dumps(result_to_dict(result)))
        assert result_to_dict(result_from_dict(result.config, data)) == result_to_dict(result)


class TestSmokeBudget:
    def test_smoke_point_finishes_fast(self, tmp_path):
        """One smoke-size full-stack point (CPU model, geo latency) must
        finish in single-digit seconds — the whole ~30-point smoke gate
        budget is ~120 s."""
        config = smoke_config(
            ExperimentConfig(protocol="mahi-mahi-5", num_validators=10, load_tps=20_000, seed=3)
        )
        started = time.perf_counter()
        outcome = run_sweep(tiny_spec([config]), ResultsStore(tmp_path))
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0
        assert outcome.results[0].blocks_committed > 0


@pytest.mark.slow
class TestDriver:
    def test_run_all_smoke_cli(self, tmp_path):
        """`run_all.py --smoke` end-to-end on a subset: the fleet computes
        the points, the run-level summary counts them as executed, and
        the second invocation resumes from cache."""
        from benchmarks import run_all

        argv = ["--smoke", "--only", "ordering", "--results", str(tmp_path), "--fleet", "local:1"]
        assert run_all.main(argv) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["mode"] == "smoke"
        computed = [
            p for p in (tmp_path / "points").glob("*.json") if not p.name.endswith(".wall.json")
        ]
        totals = summary["totals"]
        assert totals["executed"] == summary["fleet"]["points"] == len(computed) > 0
        assert totals["executed"] + totals["cached"] == totals["points"]
        assert totals["executed_sim_events"] > 0
        assert totals["sim_events_per_second"] is not None
        assert totals["wall_seconds"] >= summary["fleet"]["wall_seconds"]
        assert run_all.main(argv) == 0
        resumed = json.loads((tmp_path / "summary.json").read_text())
        assert resumed["totals"]["executed"] == 0
        assert resumed["totals"]["cached"] == resumed["totals"]["points"]
