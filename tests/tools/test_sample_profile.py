"""``tools/sample_profile.py`` charges each sample to the innermost
bucket root on its stack, and runs end to end on a small config."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.core.committer import Committer
from repro.dag.store import DagStore
from repro.sim.events import EventLoop
from repro.sim.network import SimNetwork
from repro.sim.node import SimValidator
from repro.sim.runner import ExperimentConfig
from repro.statesync.checkpoint import Checkpoint, CommitLedger, chain_digest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

from sample_profile import (  # noqa: E402
    BUCKETS,
    OTHER,
    Profile,
    main,
    profile_config,
    workload_fields,
)


def code(function):
    return function.__code__


def test_a_sample_goes_to_its_innermost_root_and_counts_for_every_root_above():
    drain = code(EventLoop._drain)
    receive = code(SimValidator._handle_batch_queued)
    commit = code(BUCKETS["commit walk"][0])
    profile = Profile(
        stacks=[
            (code(DagStore.add), receive, code(SimNetwork._flush_link), drain),
            (code(Committer.extend_commit_sequence), commit, receive, drain),
            (drain,),
            (code(DagStore.add),),
        ]
    )
    shares = profile.bucket_shares()
    assert shares["per-hop receive"] == (25.0, 50.0)
    assert shares["commit walk"] == (25.0, 25.0)
    assert shares["event loop"] == (25.0, 75.0)
    assert shares[OTHER] == (25.0, 25.0)
    assert sum(own for own, _ in shares.values()) == pytest.approx(100.0)
    [top, *_] = profile.function_shares(3)
    assert top == ("store:DagStore.add", 50.0, 50.0)


def test_the_books_are_a_bucket_of_their_own():
    """A commit's books inside the commit walk, and the end-of-run
    summary, go to ``metrics``, not to the walk or to "other"."""
    commit = code(BUCKETS["commit walk"][0])
    record, result = (code(function) for function in BUCKETS["metrics"][::3])
    profile = Profile(stacks=[(record, commit, code(EventLoop._drain)), (result,)])
    shares = profile.bucket_shares()
    assert shares["metrics"] == (100.0, 100.0)
    assert shares["commit walk"] == (0.0, 50.0) and shares[OTHER] == (0.0, 0.0)


def test_the_checkpoint_ledger_is_a_bucket_of_its_own():
    """A ledger step inside the commit walk, a checkpoint built on read
    and its encoding for a response go to ``checkpoints``, not to the
    walk or to "other"."""
    commit = code(BUCKETS["commit walk"][0])
    extend, build, encode = (
        code(function) for function in (CommitLedger.extend, CommitLedger._build, Checkpoint.encode)
    )
    assert {extend, build, encode} <= set(map(code, BUCKETS["checkpoints"]))
    profile = Profile(
        stacks=[
            (code(chain_digest), extend, commit, code(EventLoop._drain)),
            (build, code(SimValidator._handle_batch_queued)),
            (encode,),
            (commit,),
        ]
    )
    shares = profile.bucket_shares()
    assert shares["checkpoints"] == (75.0, 75.0)
    assert shares["commit walk"] == (25.0, 50.0) and shares[OTHER] == (0.0, 0.0)


def test_the_benchmark_workloads_are_found_by_name():
    assert workload_fields("sim-mahi-n50")["num_validators"] == 50
    with pytest.raises(SystemExit):
        workload_fields("no-such-workload")


def test_a_small_run_end_to_end(capsys, tmp_path):
    config = {"num_validators": 4, "load_tps": 200, "duration": 0.6, "warmup": 0.1}
    profile = profile_config(ExperimentConfig(seed=3, **config), units=2)
    assert profile.units == 2 and profile.calls > 10_000 and profile.wall_s > 0
    shares = profile.bucket_shares()
    assert set(shares) == {*BUCKETS, OTHER}
    if profile.stacks:
        assert sum(own for own, _ in shares.values()) == pytest.approx(100.0)
    path = tmp_path / "profile.json"
    assert main(["--config", json.dumps(config), "--units", "2", "--json", str(path)]) == 0
    printed = capsys.readouterr().out
    assert "per-hop receive" in printed and "calls per unit" in printed
    assert "metrics" in printed
    figures = json.loads(path.read_text())
    assert figures["units"] == 2 and figures["seed"] == 7 and figures["calls_per_unit"] > 10_000
    assert len(figures["gc_collections_per_unit"]) == 3
    assert set(figures["buckets"]) == {*BUCKETS, OTHER}
    assert len(figures["unit_buckets"]) == 2
    assert all(set(unit) == {*BUCKETS, OTHER} for unit in figures["unit_buckets"])
