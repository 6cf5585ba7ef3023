"""The verdict ``tools/perf_pairs.py`` prints for a metric is the
choosing-metrics section-8 rule: a gain needs both nine wins in ten and
medians further apart than the parent's own quartile distance."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

from perf_pairs import count_wins, quartiles, verdict  # noqa: E402

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
