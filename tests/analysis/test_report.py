"""Report generation over checked-in smoke-result fixtures.

``tests/analysis/fixtures/results/`` holds real sweep summaries and
their content-addressed point files, captured from a ``repro-bench
--smoke`` run — so these tests exercise the exact JSON shapes the sweep
engine writes, without running the simulator.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.analysis.report import (
    ReportError,
    figure_file_name,
    figure_spec_from_dict,
    generate_report,
    group_by_figure,
    load_sweeps,
)

FIXTURES = Path(__file__).parent / "fixtures" / "results"


@pytest.fixture()
def results_dir(tmp_path):
    """A disposable copy of the fixture results directory (generation
    writes figures/ and REPORT.md next to the summaries)."""
    target = tmp_path / "results"
    shutil.copytree(FIXTURES, target)
    return target


class TestLoading:
    def test_loads_every_fixture_sweep(self, results_dir):
        sweeps = load_sweeps(results_dir)
        names = {sweep.name for sweep in sweeps}
        assert "fig3-ideal-10-smoke" in names
        assert "recovery-crash-restart-smoke" in names
        assert len(sweeps) == 5

    def test_points_join_their_cache_files(self, results_dir):
        sweeps = load_sweeps(results_dir)
        for sweep in sweeps:
            for point in sweep.points:
                assert point.config is not None  # fixture cache is complete
                assert point.result is not None
                assert point.config.protocol == str(point.series) or (
                    sweep.spec.series_key != "protocol"
                )

    def test_missing_point_files_read_as_detail_loss_not_failure(self, results_dir):
        shutil.rmtree(results_dir / "points")
        sweeps = load_sweeps(results_dir)
        assert sweeps and all(
            point.config is None for sweep in sweeps for point in sweep.points
        )

    def test_point_of_another_schema_reads_as_evicted(self, results_dir):
        """A point cached under another schema may name config fields
        that no longer exist: like ``ResultsStore.get``, the loader
        drops it, and the report renders without it."""
        from benchmarks.render import paper_deviation_rows

        [point, *_] = next(
            s for s in load_sweeps(results_dir) if s.name == "fig3-ideal-10-smoke"
        ).points
        path = results_dir / "points" / f"{point.config_hash}.json"
        data = json.loads(path.read_text())
        data["schema"] -= 1
        path.write_text(json.dumps(data))
        [stale, *_] = next(
            s for s in load_sweeps(results_dir) if s.name == "fig3-ideal-10-smoke"
        ).points
        assert stale.config is None and stale.result is None
        generate_report(results_dir, paper_rows=paper_deviation_rows, git_rev="x")

    def test_corrupt_summary_is_skipped(self, results_dir):
        (results_dir / "broken.json").write_text("{not json")
        names = {sweep.name for sweep in load_sweeps(results_dir)}
        assert "broken" not in str(names)
        assert len(names) == 5

    def test_wrong_shaped_summary_is_skipped(self, results_dir):
        # Valid JSON, invalid content: a bad scale name (FigureSpec
        # rejects it) and a non-numeric count must not kill the report.
        (results_dir / "bad-scale.json").write_text(
            json.dumps(
                {
                    "sweep": "bad-scale",
                    "figure": {"figure": "9", "title": "t", "x_scale": "Log"},
                    "points": [],
                }
            )
        )
        (results_dir / "bad-count.json").write_text(
            json.dumps(
                {
                    "sweep": "bad-count",
                    "figure": {"figure": "9", "title": "t"},
                    "cached": "many",
                }
            )
        )
        names = {sweep.name for sweep in load_sweeps(results_dir)}
        assert names == {
            "fig3-ideal-10-smoke",
            "fig5-leaders-mahi-mahi-4-ideal-smoke",
            "fig5-leaders-mahi-mahi-4-3-faults-smoke",
            "recovery-crash-restart-smoke",
            "ablation-direct-skip-smoke",
        }

    def test_old_schema_figure_dict_still_parses(self):
        # Summaries written before FigureSpec carried axis metadata.
        spec = figure_spec_from_dict(
            {
                "figure": "3",
                "title": "old",
                "x_axis": "load_tps",
                "y_axis": "latency_avg_s",
                "series_key": "protocol",
                "unknown_future_field": 42,
            }
        )
        assert spec.figure == "3"
        assert spec.x_label == ""  # default, renderer derives a label

    def test_group_ordering_numeric_first(self, results_dir):
        groups = group_by_figure(load_sweeps(results_dir))
        keys = list(groups)
        assert keys[0] == "3" and keys[1] == "5"
        assert set(keys[2:]) == {"ablation", "recovery"}


class TestGeneration:
    def test_one_svg_per_figure_and_report(self, results_dir):
        outputs = generate_report(results_dir, git_rev="deadbeef")
        groups = group_by_figure(load_sweeps(results_dir))
        assert set(outputs["figures"]) == set(groups)
        for figure_id, path in outputs["figures"].items():
            assert path.name == figure_file_name(figure_id)
            assert path.exists() and path.read_text().startswith("<svg")
        assert outputs["report"] == results_dir / "REPORT.md"

    def test_report_sections_and_provenance(self, results_dir):
        generate_report(results_dir, git_rev="deadbeef")
        report = (results_dir / "REPORT.md").read_text()
        assert report.startswith("# ")
        assert "| git revision | deadbeef |" in report
        assert "| run mode | smoke |" in report
        assert "## Figure 3" in report
        assert "## Figure 5" in report
        assert "## Crash-recovery" in report
        assert "![Figure 3](figures/figure-3.svg)" in report
        assert "fig3-ideal-10-smoke" in report

    def test_provenance_reads_the_pool_record(self, results_dir):
        summary = json.loads((results_dir / "summary.json").read_text())
        summary["fleet"] = {
            "workers": 2, "points": 56, "wall_seconds": 1.9,
            "worker_failures": [], "completed_by": {"worker-1": 30, "worker-2": 26},
        }
        (results_dir / "summary.json").write_text(json.dumps(summary))
        generate_report(results_dir, git_rev="x")
        report = (results_dir / "REPORT.md").read_text()
        assert "| fleet | 2 workers, 56 points, 1.9s wall |" in report

    def test_recovery_table_reports_metrics(self, results_dir):
        generate_report(results_dir, git_rev="x")
        report = (results_dir / "REPORT.md").read_text()
        assert "Recovery and availability" in report
        assert "recovery-crash-restart-smoke" in report
        # The tusk fixture point recovered: its availability is < 1.
        assert "| tusk |" in report

    def test_paper_rows_callback_feeds_deviation_tables(self, results_dir):
        from benchmarks.render import paper_deviation_rows

        generate_report(results_dir, paper_rows=paper_deviation_rows, git_rev="x")
        report = (results_dir / "REPORT.md").read_text()
        assert "Paper vs measured (latency at offered load)" in report
        assert "x paper" in report  # the deviation ratio column
        assert "Paper vs measured (leader-slot improvement)" in report

    def test_deviation_rows_deduplicate_collapsed_points(self, results_dir):
        from benchmarks.render import paper_deviation_rows

        generate_report(results_dir, paper_rows=paper_deviation_rows, git_rev="x")
        report = (results_dir / "REPORT.md").read_text()
        tusk_rows = [
            line
            for line in report.splitlines()
            if line.startswith("| tusk, n=10 @")
        ]
        assert len(tusk_rows) == 1

    def test_every_gated_ratio_is_the_ratio_its_report_row_shows(self, results_dir):
        """The drift gate and REPORT.md's deviation tables read one join:
        each ratio the gate tracks is the one printed in its row."""
        from benchmarks.deviation_trend import compute_ratios
        from benchmarks.render import paper_deviation_rows, paper_joins

        generate_report(results_dir, paper_rows=paper_deviation_rows, git_rev="x")
        shown = {}
        for line in (results_dir / "REPORT.md").read_text().splitlines():
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if len(cells) == 4:
                shown[cells[0]] = cells[3]
        labels = {
            join.key: join.label
            for figure_id, group in group_by_figure(load_sweeps(results_dir)).items()
            for join in paper_joins(figure_id, group)
        }
        ratios = compute_ratios(results_dir)
        assert len(ratios) >= 5 and ratios.keys() == labels.keys()
        for key, ratio in ratios.items():
            deviation = shown[labels[key]]
            if ratio > 0:
                assert float(deviation.removesuffix("x paper")) == pytest.approx(ratio, abs=0.005)
            else:
                assert deviation == "no gain measured"

    def test_relative_figure_links_resolve(self, results_dir):
        import sys

        generate_report(results_dir, git_rev="x")
        tools = Path(__file__).resolve().parents[2] / "tools"
        sys.path.insert(0, str(tools))
        try:
            from check_doc_links import check_file

            assert check_file(results_dir / "REPORT.md", results_dir) == []
        finally:
            sys.path.remove(str(tools))

    def test_empty_results_dir_raises(self, tmp_path):
        with pytest.raises(ReportError):
            generate_report(tmp_path)

    def test_regeneration_is_deterministic(self, results_dir):
        generate_report(results_dir, git_rev="x")
        first = {
            path.name: path.read_text()
            for path in (results_dir / "figures").iterdir()
        }
        first_report = (results_dir / "REPORT.md").read_text()
        generate_report(results_dir, git_rev="x")
        second = {
            path.name: path.read_text()
            for path in (results_dir / "figures").iterdir()
        }
        assert first == second
        assert first_report == (results_dir / "REPORT.md").read_text()


class TestRenderCli:
    def test_cli_renders_and_reports_paths(self, results_dir, capsys):
        from benchmarks.render import main

        assert main(["--results", str(results_dir)]) == 0
        out = capsys.readouterr().out
        assert "report" in out and "REPORT.md" in out

    def test_cli_fails_cleanly_on_empty_dir(self, tmp_path, capsys):
        from benchmarks.render import main

        assert main(["--results", str(tmp_path)]) == 1
        assert "repro-bench" in capsys.readouterr().err

    def test_summary_json_is_not_a_sweep(self, results_dir):
        data = json.loads((results_dir / "summary.json").read_text())
        assert "sweeps" in data  # the roll-up shape, skipped by the loader
        names = {sweep.name for sweep in load_sweeps(results_dir)}
        assert "summary" not in names
