"""Deviation-trend units: ratio computation over a synthetic results
directory, the drift gate, and the append-only trend log."""

from __future__ import annotations

import json

from benchmarks.deviation_trend import (
    append_trend_row,
    compute_ratios,
    drift,
    gate_ratios,
    load_baseline,
    main,
    read_trend,
    run_mode,
)
from benchmarks.paper_data import FIG3_10_NODES, LEADER_SWEEP_IMPROVEMENT
from repro.sim.metrics import LatencySummary
from repro.sim.runner import ExperimentConfig, ExperimentResult
from repro.sim.sweep import SCHEMA_VERSION, ResultsStore, config_hash


def fig3_config() -> ExperimentConfig:
    return ExperimentConfig(
        protocol="mahi-mahi-4",
        num_validators=10,
        load_tps=20_000.0,
        duration=5.0,
        warmup=1.0,
    )


def write_results(tmp_path, *, latency_avg: float = 1.8, mode: str = "smoke"):
    """A minimal results dir: one Figure 3 point (with its cached point
    file) and one Figure 5 leader sweep (summary-only)."""
    config = fig3_config()
    h = config_hash(config)
    result = ExperimentResult(
        config=config,
        latency=LatencySummary(count=1, avg=latency_avg, p50=latency_avg, p90=latency_avg,
                               p99=latency_avg, max=latency_avg),
        throughput_tps=100.0,
        rounds_reached=0,
        blocks_committed=0,
        direct_commits=0,
        indirect_commits=0,
        direct_skips=0,
        indirect_skips=0,
        messages_sent=0,
        bytes_sent=0,
        pending_transactions=0,
    )
    ResultsStore(tmp_path).put(config, result, wall_seconds=0.0)
    (tmp_path / "fig3-test.json").write_text(
        json.dumps(
            {
                "sweep": "fig3-test",
                "schema": SCHEMA_VERSION,
                "figure": {"figure": "3", "title": "t"},
                "points": [{"config_hash": h, "series": "mahi-mahi-4", "x": 20000.0, "y": latency_avg}],
            }
        )
    )
    (tmp_path / "fig5-test.json").write_text(
        json.dumps(
            {
                "sweep": "fig5-test",
                "schema": SCHEMA_VERSION,
                "figure": {"figure": "5", "title": "t", "x_axis": "leaders_per_round",
                           "series_key": "num_crashed"},
                "points": [
                    {"config_hash": "aaaa", "series": 0, "x": 1, "y": 1.00},
                    {"config_hash": "bbbb", "series": 0, "x": 3, "y": 0.97},
                ],
            }
        )
    )
    (tmp_path / "summary.json").write_text(json.dumps({"mode": mode}))
    return h


class TestComputeRatios:
    def test_latency_and_leader_gain_ratios(self, tmp_path):
        write_results(tmp_path, latency_avg=1.8)
        ratios = compute_ratios(tmp_path)
        paper = FIG3_10_NODES["mahi-mahi-4"]["latency_s"]
        assert ratios["fig3:mahi-mahi-4:n10:load20000"] == 1.8 / paper
        gain_ratio = ratios["fig5:fig5-test:crashed0"]
        assert gain_ratio == (1.00 - 0.97) * 1000.0 / LEADER_SWEEP_IMPROVEMENT["ideal_ms"]

    def test_mode_read_from_summary(self, tmp_path):
        write_results(tmp_path, mode="full")
        assert run_mode(tmp_path) == "full"
        assert run_mode(tmp_path / "nowhere") == "unknown"


class TestGate:
    def test_within_tolerance_passes(self):
        violations, max_drift = gate_ratios({"m": 1.1}, {"m": 1.0}, tolerance=0.25)
        assert violations == []
        assert abs(max_drift - 0.1) < 1e-9

    def test_drift_beyond_tolerance_fails(self):
        violations, _ = gate_ratios({"m": 1.6}, {"m": 1.0}, tolerance=0.25)
        assert len(violations) == 1 and "drifted" in violations[0]

    def test_missing_metric_is_coverage_loss(self):
        violations, _ = gate_ratios({}, {"m": 1.0}, tolerance=0.25)
        assert len(violations) == 1 and "no longer measured" in violations[0]

    def test_new_metrics_pass_freely(self):
        violations, _ = gate_ratios({"m": 1.0, "new": 99.0}, {"m": 1.0})
        assert violations == []

    def test_near_zero_baseline_compares_absolutely(self):
        # A leader gain of ~0 must not explode the relative comparison.
        assert drift(0.02, 0.01) == (0.02 - 0.01) / 0.1


class TestTrendLog:
    def test_append_and_idempotent_rerun(self, tmp_path):
        trend = tmp_path / "trend.jsonl"
        row = {"rev": "abc", "mode": "smoke", "ratios": {"m": 1.0}}
        assert append_trend_row(trend, row) is True
        assert append_trend_row(trend, dict(row)) is False  # same measurement
        assert append_trend_row(trend, {**row, "rev": "def"}) is True
        assert [r["rev"] for r in read_trend(trend)] == ["abc", "def"]

    def test_interleaved_modes_stay_idempotent(self, tmp_path):
        """A full append between two identical smoke appends must not
        defeat the dedup (full and smoke runs alternate in practice)."""
        trend = tmp_path / "trend.jsonl"
        smoke = {"rev": "abc", "mode": "smoke", "ratios": {"m": 1.0}}
        full = {"rev": "abc", "mode": "full", "ratios": {"m": 1.1}}
        assert append_trend_row(trend, smoke) is True
        assert append_trend_row(trend, full) is True
        assert append_trend_row(trend, dict(smoke)) is False
        assert append_trend_row(trend, dict(full)) is False
        assert len(read_trend(trend)) == 2

    def test_malformed_lines_skipped(self, tmp_path):
        trend = tmp_path / "trend.jsonl"
        trend.write_text('{"rev": "a"}\nnot json\n[1]\n{"rev": "b"}\n')
        assert [r["rev"] for r in read_trend(trend)] == ["a", "b"]

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path) == {"schema": 1, "modes": {}}


class TestCli:
    def test_update_baseline_then_gate_green_then_drift_red(self, tmp_path):
        results = tmp_path / "results"
        reference = tmp_path / "reference"
        write_results(results, latency_avg=1.8)
        assert main([
            "--results", str(results), "--reference", str(reference),
            "--update-baseline",
        ]) == 0
        baseline = json.loads((reference / "deviation_baseline.json").read_text())
        assert "smoke" in baseline["modes"]
        # Unchanged results: gate green, trend row not duplicated.
        assert main(["--results", str(results), "--reference", str(reference)]) == 0
        rows = read_trend(results / "deviation_trend.jsonl")
        assert len(rows) == 1 and rows[0]["gate_passed"]
        # Fidelity regression (2x the measured latency): gate red.
        write_results(results, latency_avg=3.6)
        assert main(["--results", str(results), "--reference", str(reference)]) == 1
        rows = read_trend(results / "deviation_trend.jsonl")
        assert len(rows) == 2 and not rows[-1]["gate_passed"]
        # --no-gate records the red row but exits green.
        assert main([
            "--results", str(results), "--reference", str(reference), "--no-gate",
        ]) == 0

    def test_empty_results_dir_is_an_error(self, tmp_path):
        assert main(["--results", str(tmp_path), "--no-append"]) == 1
