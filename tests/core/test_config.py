"""NvWaConfig validation and variant tests."""

from dataclasses import replace

import pytest

from repro.core.config import (
    PAPER_CONFIG,
    PAPER_EU_CONFIG,
    PAPER_TOTAL_PES,
    NvWaConfig,
)


class TestPaperDesignPoint:
    def test_published_numbers(self):
        config = PAPER_CONFIG
        assert config.num_seeding_units == 128
        assert config.num_extension_units == 70
        assert config.total_pes == PAPER_TOTAL_PES == 2880
        assert dict(config.eu_config) == PAPER_EU_CONFIG
        assert config.frequency_hz == 1e9
        assert config.hits_buffer_depth == 1024
        assert config.switch_threshold == 0.75
        assert config.idle_trigger_fraction == 0.15

    def test_eu_classes_sorted(self):
        assert PAPER_CONFIG.eu_classes == (16, 32, 64, 128)


class TestValidation:
    def test_rejects_zero_sus(self):
        with pytest.raises(ValueError):
            NvWaConfig(num_seeding_units=0)

    def test_rejects_empty_eu_config(self):
        with pytest.raises(ValueError):
            NvWaConfig(eu_config=())

    def test_rejects_invalid_eu_class(self):
        with pytest.raises(ValueError):
            NvWaConfig(eu_config=((0, 4),))
        with pytest.raises(ValueError):
            NvWaConfig(eu_config=((16, 0),))

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ValueError):
            NvWaConfig(switch_threshold=0.0)
        with pytest.raises(ValueError):
            NvWaConfig(switch_threshold=1.5)
        with pytest.raises(ValueError):
            NvWaConfig(idle_trigger_fraction=-0.1)

    def test_rejects_bad_buffer_params(self):
        with pytest.raises(ValueError):
            NvWaConfig(hits_buffer_depth=0)
        with pytest.raises(ValueError):
            NvWaConfig(allocation_batch_size=0)

    def test_rejects_unsorted_eu_classes(self):
        """Units are numbered in eu_config order, and FIFO dispatch relies
        on the lowest unit id being the smallest idle class."""
        with pytest.raises(ValueError, match="ascending"):
            NvWaConfig(eu_config=((32, 2), (16, 4)))
        with pytest.raises(ValueError, match="ascending"):
            NvWaConfig(eu_config=((16, 2), (16, 4)))

    def test_rejects_unknown_policies(self):
        with pytest.raises(ValueError):
            NvWaConfig(allocator_policy="best-effort")
        with pytest.raises(ValueError):
            NvWaConfig(eu_datapath="tpu")


class TestVariants:
    def test_uniform_variant_preserves_pe_budget(self):
        uniform = PAPER_CONFIG.uniform_variant()
        assert len(uniform.eu_classes) == 1
        assert uniform.total_pes <= PAPER_CONFIG.total_pes
        assert uniform.total_pes >= PAPER_CONFIG.total_pes - 64
        assert uniform.eu_config == ((64, 45),)

    def test_uniform_variant_uses_median_class(self):
        uniform = PAPER_CONFIG.uniform_variant()
        assert uniform.eu_classes[0] == 64  # median of (16,32,64,128)

    def test_baseline_variant_disables_everything(self):
        base = PAPER_CONFIG.baseline_variant()
        assert not base.use_ocra
        assert base.allocator_policy == "fifo"
        assert len(base.eu_classes) == 1

    def test_frozen(self):
        with pytest.raises(AttributeError):
            PAPER_CONFIG.num_seeding_units = 5  # type: ignore

    def test_replace_roundtrip(self):
        modified = replace(PAPER_CONFIG, hits_buffer_depth=2048)
        assert modified.hits_buffer_depth == 2048
        assert modified.eu_config == PAPER_CONFIG.eu_config
