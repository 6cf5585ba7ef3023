"""The verdict ``tools/perf_pairs.py`` prints for a metric is the
choosing-metrics section-8 rule: a gain needs both nine wins in ten and
medians further apart than the parent's own quartile distance."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

from perf_pairs import (  # noqa: E402
    count_wins,
    failures,
    merge_bench,
    COUNTS,
    quartiles,
    sim_counts,
    summarize,
    verdict,
)

PARENT = [2.71, 3.01, 2.91, 2.88, 2.95, 2.80, 3.05, 2.90, 2.85, 2.99]


def test_clear_win_is_a_gain():
    change = [1.11, 1.14, 1.12, 1.13, 1.20, 1.15, 1.11, 1.12, 1.18, 1.13]
    assert count_wins(PARENT, change) == (10, 0)
    assert verdict(PARENT, change, bound=0.25) == "gain"


def test_nine_wins_suffice_eight_do_not():
    change = [value - 0.5 for value in PARENT]
    change[0] = PARENT[0] + 0.1
    assert verdict(PARENT, change, bound=0.25) == "gain"
    change[1] = PARENT[1] + 0.1
    assert count_wins(PARENT, change) == (8, 0)
    assert verdict(PARENT, change, bound=0.25) == "unchanged"


def test_ties_count_for_neither_side():
    change = [value - 0.5 for value in PARENT]
    change[0], change[1] = PARENT[0], PARENT[1]
    assert count_wins(PARENT, change) == (8, 2)
    assert verdict(PARENT, change, bound=0.25) != "gain"


def test_wins_inside_the_parents_own_spread_are_not_a_gain():
    q1, _, q3 = quartiles(PARENT)
    change = [value - 0.5 * (q3 - q1) for value in PARENT]
    assert count_wins(PARENT, change) == (10, 0)
    assert verdict(PARENT, change, bound=0.25) == "unchanged"


def test_worse_by_more_than_the_bound_is_a_regression():
    assert verdict(PARENT, [value * 1.3 for value in PARENT], bound=0.25) == "regression"
    assert verdict(PARENT, [value * 1.2 for value in PARENT], bound=0.25) == "unchanged"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [1.0, 2.0, 3.0, 4.0, 1.5, 2.5, 3.5, 0.8, 2.2, 3.1]
    assert verdict(noisy, list(reversed(noisy)), bound=0.1) == "unresolved"


def test_higher_is_better_flips_the_comparison():
    change = [value + 1.0 for value in PARENT]
    assert verdict(PARENT, change, bound=0.25, better="higher") == "gain"
    assert verdict(PARENT, change, bound=0.25) == "regression"


def test_unpaired_runs_are_rejected():
    with pytest.raises(ValueError):
        verdict(PARENT, PARENT[:-1], bound=0.25)


def fake_runs(wall: list[float], rss: float, failed: int = 0) -> list[dict]:
    return [
        {
            "metrics": {"wall_s": {"value": w}, "peak_rss_mb": {"value": rss}},
            "failed": failed,
            "attempted": 100,
            "correct": True,
        }
        for w in wall
    ]


SPEC = {
    "end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
    ]
}


def test_summarize_gives_each_metric_its_quartiles_wins_and_verdict():
    change = [value - 0.5 for value in PARENT]
    runs = {"parent": fake_runs(PARENT, 90.0), "change": fake_runs(change, 90.0, failed=1)}
    rows = summarize(SPEC, runs)
    q1, median, q3 = quartiles(PARENT)
    assert rows["wall_s"]["parent"] == {"median": median, "q1": q1, "q3": q3}
    assert rows["wall_s"]["wins"] == 10 and rows["wall_s"]["verdict"] == "gain"
    assert rows["wall_s"]["delta"] == pytest.approx(-0.5 / median)
    assert rows["peak_rss_mb"]["ties"] == 10 and rows["peak_rss_mb"]["verdict"] == "unchanged"
    assert failures(runs) == {
        "parent": {"failed": 0, "attempted": 1000, "incorrect": 0},
        "change": {"failed": 10, "attempted": 1000, "incorrect": 0},
    }


def test_merge_bench_keeps_the_other_workloads_and_seeds(tmp_path):
    path = tmp_path / "BENCH_1.json"
    merge_bench(path, "rt-drain", 7, {"pairs": 10}, {"parent": 100, "change": 90})
    merge_bench(path, "rt-drain", 11, {"pairs": 8}, {"parent": 100, "change": 90})
    merge_bench(path, "sim-tusk-n10", 7, {"pairs": 10}, {"parent": 100, "change": 92})
    merge_bench(path, "rt-drain", 7, {"pairs": 9}, {"parent": 100, "change": 92})
    assert json.loads(path.read_text()) == {
        "workloads": {
            "rt-drain": {"7": {"pairs": 9}, "11": {"pairs": 8}},
            "sim-tusk-n10": {"7": {"pairs": 10}},
        },
        "src_lines": {"parent": 100, "change": 92, "delta": -8},
    }


def test_sim_counts_gives_both_sides_exact_counts():
    """One ``sample_profile --parent`` unit per side (both trees are
    this one here): the same run reads the same counts on both."""
    config = {"num_validators": 4, "load_tps": 100, "duration": 0.3, "warmup": 0.1}
    tree = str(Path(__file__).resolve().parents[2])
    counts = sim_counts(tree, ["--config", json.dumps(config), "--seed", "3"])
    assert set(counts) == {"parent", "change"}
    for side in counts.values():
        assert set(side) == set(COUNTS)
        assert side["calls_per_unit"] > 1_000 and len(side["gc_collections_per_unit"]) == 3
        assert side["traced_peak_bytes_per_unit"] >= side["traced_held_bytes_per_unit"] > 0
    assert counts["parent"]["calls_per_unit"] == counts["change"]["calls_per_unit"]
