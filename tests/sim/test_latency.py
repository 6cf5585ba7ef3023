"""Tests for the WAN latency models."""

import math
import random

import pytest

from repro.sim.latency import (
    LatencyMatrixModel,
    PAPER_REGIONS,
    UniformLatencyModel,
    WAN_PRESETS,
    _JITTER_BLOCK,
    _ONE_WAY,
    wan_matrix_model,
)


class TestPaperPreset:
    def test_round_robin_regions(self):
        regions = [PAPER_REGIONS[i] for i in wan_matrix_model("paper-5", 10)._assignment]
        assert regions[0] == "us-east-2"
        assert regions[4] == "eu-south-1"
        assert regions[5] == "us-east-2"

    def test_five_paper_regions(self):
        assert len(PAPER_REGIONS) == 5
        assert set(PAPER_REGIONS) == {
            "us-east-2",
            "us-west-2",
            "af-south-1",
            "ap-east-1",
            "eu-south-1",
        }

    def test_symmetric_delays(self):
        model = wan_matrix_model("paper-5", 10)
        for src in range(10):
            for dst in range(10):
                assert model.base_delay(src, dst) == model.base_delay(dst, src)

    def test_intra_region_much_faster(self):
        model = wan_matrix_model("paper-5", 10)
        # Validators 0 and 5 share us-east-2.
        assert model.base_delay(0, 5) < 0.001
        assert model.base_delay(0, 2) > 0.05

    def test_all_pairs_defined(self):
        model = wan_matrix_model("paper-5", 50)
        for src in range(50):
            for dst in range(50):
                assert model.base_delay(src, dst) >= 0

    def test_jitter_is_small_and_positive(self):
        model = wan_matrix_model("paper-5", 10)
        rng = random.Random(1)
        base = model.base_delay(0, 2)
        samples = [model.sample(0, 2, rng) for _ in range(200)]
        assert all(s > 0 for s in samples)
        assert all(abs(s - base) / base < 0.5 for s in samples)

    def test_far_pair_is_cape_town_hong_kong(self):
        model = wan_matrix_model("paper-5", 10)
        regions = [PAPER_REGIONS[i] for i in model._assignment]
        delays = {
            (regions[a], regions[b]): model.base_delay(a, b)
            for a in range(5)
            for b in range(5)
            if a != b
        }
        worst = max(delays, key=delays.get)
        assert set(worst) == {"af-south-1", "ap-east-1"}


class TestUniformModel:
    def test_constant_delay(self):
        model = UniformLatencyModel(0.1)
        rng = random.Random(0)
        assert model.sample(0, 1, rng) == 0.1
        assert model.sample(3, 2, rng) == 0.1

    def test_self_delay_is_intra_region(self):
        model = UniformLatencyModel(0.1)
        assert model.base_delay(2, 2) < 0.001

    def test_optional_jitter(self):
        model = UniformLatencyModel(0.1, jitter_sigma=0.1)
        rng = random.Random(0)
        samples = {model.sample(0, 1, rng) for _ in range(10)}
        assert len(samples) > 1


class TestMakeSampler:
    def test_fast_path_matches_base_delay_when_no_jitter(self):
        model = UniformLatencyModel(0.1)
        sampler = model.make_sampler(random.Random(0))
        assert sampler(0, 1) == 0.1
        assert sampler(2, 2) == model.base_delay(2, 2)

    def test_jittered_sampler_stays_near_base(self):
        model = UniformLatencyModel(0.1, jitter_sigma=0.05)
        sampler = model.make_sampler(random.Random(0))
        samples = [sampler(0, 1) for _ in range(2000)]
        assert len(set(samples)) > 1
        assert all(abs(s - 0.1) / 0.1 < 0.5 for s in samples)

    def test_deterministic_for_fixed_seed(self):
        model = wan_matrix_model("paper-5", 10)
        a = model.make_sampler(random.Random(7))
        b = model.make_sampler(random.Random(7))
        assert [a(0, 1) for _ in range(100)] == [b(0, 1) for _ in range(100)]

    def test_every_pair_reads_its_base_delay_times_the_next_jitter_draw(self):
        """Bit for bit, over every pair of a 50-validator WAN in a
        scrambled order and across jitter refills: the memo of base
        delays (kept per source) changes no value."""
        model = wan_matrix_model("paper-5", 50)
        assert model.jitter_sigma > 0.0
        order = [(src, dst) for src in range(50) for dst in range(50) if src != dst]
        random.Random(3).shuffle(order)
        order += order[:100]  # memo hits
        sampler = model.make_sampler(random.Random(7))
        draws, jitter = random.Random(7), []
        for index, (src, dst) in enumerate(order):
            if index % _JITTER_BLOCK == 0:
                jitter = [
                    math.exp(draws.gauss(0.0, model.jitter_sigma)) for _ in range(_JITTER_BLOCK)
                ]
            expected = model.base_delay(src, dst) * jitter[index % _JITTER_BLOCK]
            assert sampler(src, dst) == expected
        flat = UniformLatencyModel(0.1).make_sampler(random.Random(0))
        assert [flat(src, dst) for src, dst in order[:200]] == [0.1] * 200

    def test_subclass_sample_override_is_honored(self):
        class ConstantModel(UniformLatencyModel):
            def sample(self, src, dst, rng):
                return 42.0

        sampler = ConstantModel(0.1, jitter_sigma=0.05).make_sampler(random.Random(0))
        assert sampler(0, 1) == 42.0


class TestLatencyMatrixModel:
    REGIONS = ("a", "b")
    MATRIX = ((0.001, 0.050), (0.050, 0.001))

    def test_round_robin_default_assignment(self):
        model = LatencyMatrixModel(self.REGIONS, self.MATRIX, num_validators=4)
        assert model._assignment == (0, 1, 0, 1)
        assert model.base_delay(0, 2) == 0.001
        assert model.base_delay(0, 1) == 0.050

    def test_rejects_non_square_matrix(self):
        with pytest.raises(ValueError):
            LatencyMatrixModel(self.REGIONS, ((0.001, 0.05),), num_validators=2)

    def test_rejects_asymmetric_matrix(self):
        with pytest.raises(ValueError):
            LatencyMatrixModel(
                self.REGIONS, ((0.001, 0.050), (0.060, 0.001)), num_validators=2
            )

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            LatencyMatrixModel(
                self.REGIONS, ((0.001, -0.1), (-0.1, 0.001)), num_validators=2
            )


class TestWanPresets:
    def test_paper_preset_is_the_one_way_table(self):
        """``paper-5`` is built from the paper's pairwise one-way
        delays: every cross-region pair reads the table's value."""
        model = wan_matrix_model("paper-5", 10)
        regions = [PAPER_REGIONS[i] for i in model._assignment]
        for src in range(10):
            for dst in range(10):
                pair = frozenset({regions[src], regions[dst]})
                if len(pair) == 2:
                    assert model.base_delay(src, dst) == _ONE_WAY[pair]

    def test_all_presets_are_valid_matrices(self):
        for name in WAN_PRESETS:
            model = wan_matrix_model(name, 12)
            for src in range(12):
                for dst in range(12):
                    assert model.base_delay(src, dst) == model.base_delay(dst, src)
                    assert model.base_delay(src, dst) >= 0

    def test_metro_is_uniformly_faster_than_wan(self):
        metro = wan_matrix_model("metro-3", 6)
        wan = wan_matrix_model("global-10", 6)
        worst_metro = max(
            metro.base_delay(a, b) for a in range(6) for b in range(6) if a != b
        )
        best_wan_cross = min(
            wan.base_delay(a, b)
            for a in range(6)
            for b in range(6)
            if a != b and wan._assignment[a] != wan._assignment[b]
        )
        assert worst_metro < best_wan_cross

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown WAN matrix"):
            wan_matrix_model("mars-2", 4)
