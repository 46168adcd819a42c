"""Unit tests for PJoin configuration validation."""

import pytest

from repro.core.config import PJoinConfig, eager_config, lazy_config
from repro.errors import ConfigError


class TestDefaults:
    def test_default_is_eager_with_propagation_off(self):
        config = PJoinConfig()
        assert config.purge_threshold == 1
        assert config.eager_purge
        assert config.propagation_mode == "off"

    def test_eager_and_lazy_helpers(self):
        assert eager_config().purge_threshold == 1
        assert lazy_config(100).purge_threshold == 100
        assert not lazy_config(100).eager_purge


class TestValidation:
    def test_purge_threshold_must_be_positive(self):
        with pytest.raises(ConfigError):
            PJoinConfig(purge_threshold=0)

    def test_index_building_values(self):
        PJoinConfig(index_building="eager")
        PJoinConfig(index_building="lazy")
        with pytest.raises(ConfigError):
            PJoinConfig(index_building="sometimes")

    def test_propagation_mode_values(self):
        for mode in ("off", "push_count", "push_time", "push_pairs", "pull"):
            PJoinConfig(propagation_mode=mode)
        with pytest.raises(ConfigError):
            PJoinConfig(propagation_mode="never")

    def test_propagation_thresholds(self):
        with pytest.raises(ConfigError):
            PJoinConfig(propagate_count_threshold=0)
        with pytest.raises(ConfigError):
            PJoinConfig(propagate_time_threshold_ms=0)
        with pytest.raises(ConfigError):
            PJoinConfig(propagate_pairs_threshold=0)

    def test_memory_threshold(self):
        PJoinConfig(memory_threshold=None)
        PJoinConfig(memory_threshold=100)
        with pytest.raises(ConfigError):
            PJoinConfig(memory_threshold=1)

    def test_disk_join_idle(self):
        with pytest.raises(ConfigError):
            PJoinConfig(disk_join_idle_ms=0)

    def test_n_partitions(self):
        with pytest.raises(ConfigError):
            PJoinConfig(n_partitions=0)

    def test_fault_policy_values(self):
        for policy in ("strict", "quarantine", "repair", "trust"):
            assert PJoinConfig(fault_policy=policy).fault_policy == policy
        with pytest.raises(ConfigError):
            PJoinConfig(fault_policy="maybe")

    def test_fault_policy_legacy_spellings_rejected(self):
        for legacy in ("raise", "count", "off"):
            with pytest.raises(ConfigError):
                PJoinConfig(fault_policy=legacy)


class TestOverrides:
    def test_with_overrides_returns_new_config(self):
        base = PJoinConfig()
        other = base.with_overrides(purge_threshold=50)
        assert other.purge_threshold == 50
        assert base.purge_threshold == 1

    def test_with_overrides_validates(self):
        with pytest.raises(ConfigError):
            PJoinConfig().with_overrides(purge_threshold=-1)
