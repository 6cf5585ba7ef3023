"""Tests for :mod:`repro.config`."""

import pytest

from repro.config import MAHI_MAHI_4, MAHI_MAHI_5, ProtocolConfig
from repro.errors import ConfigError


class TestProtocolConfig:
    def test_defaults_match_paper_evaluation(self):
        config = ProtocolConfig()
        assert config.wave_length == 5
        assert config.leaders_per_round == 2

    def test_paper_presets(self):
        assert MAHI_MAHI_5.wave_length == 5
        assert MAHI_MAHI_4.wave_length == 4
        assert MAHI_MAHI_5.leaders_per_round == 2

    @pytest.mark.parametrize("wave_length", [3, 4, 5, 8, 16])
    def test_valid_wave_lengths(self, wave_length):
        assert ProtocolConfig(wave_length=wave_length).wave_length == wave_length

    @pytest.mark.parametrize("wave_length", [0, 1, 2, 17, -5])
    def test_invalid_wave_lengths_rejected(self, wave_length):
        with pytest.raises(ConfigError):
            ProtocolConfig(wave_length=wave_length)

    def test_zero_leaders_rejected(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(leaders_per_round=0)

    def test_negative_gc_depth_rejected(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(garbage_collection_depth=-1)

    def test_zero_block_transactions_rejected(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(max_block_transactions=0)

    def test_with_leaders_returns_modified_copy(self):
        base = ProtocolConfig(wave_length=4)
        assert base.with_leaders(3).leaders_per_round == 3
        assert base.leaders_per_round == 2

    def test_config_is_hashable_and_frozen(self):
        config = ProtocolConfig()
        with pytest.raises(AttributeError):
            config.wave_length = 4  # type: ignore[misc]
        assert hash(config) == hash(ProtocolConfig())
