"""Configuration dataclass tests: Table I defaults, presets, scaling."""

from dataclasses import fields

import pytest

from repro.config.gpm import CacheConfig, GPMConfig, TLBConfig
from repro.config.hdpat import HDPATConfig, PeerCachingScheme
from repro.config.iommu import IOMMUConfig
from repro.config.noc import NoCConfig
from repro.config.presets import (
    gpm_preset,
    gpm_preset_names,
    mcm_4gpm_config,
    wafer_7x12_config,
    wafer_7x7_config,
)
from repro.config.scaling import capacity_scaled
from repro.config.system import SystemConfig
from repro.errors import ConfigurationError
from repro.mem.address import PAGE_SIZE_16K
from repro.units import GB, MB


class TestTableIDefaults:
    def test_gpm_matches_table_i(self):
        gpm = GPMConfig()
        assert gpm.num_cus == 32
        assert gpm.l1_vector_tlb == TLBConfig(1, 32, 4, 4)
        assert gpm.l2_tlb == TLBConfig(64, 32, 32, 32)
        assert gpm.gmmu_cache.num_sets == 64 and gpm.gmmu_cache.num_ways == 16
        assert gpm.gmmu_walkers == 8
        assert gpm.walk_latency == 500
        assert gpm.l2_cache.size_bytes == 4 * MB
        assert gpm.hbm_capacity == 8 * GB

    def test_iommu_matches_table_i(self):
        iommu = IOMMUConfig()
        assert iommu.num_walkers == 16
        assert iommu.walk_latency == 500
        assert iommu.redirection_entries == 1024

    def test_noc_matches_table_i(self):
        noc = NoCConfig()
        assert noc.link_latency == 32
        assert noc.link_bandwidth == 768e9

    def test_wafer_7x7(self):
        config = wafer_7x7_config()
        assert config.num_gpms == 48

    def test_wafer_7x12(self):
        assert wafer_7x12_config().num_gpms == 83

    def test_mcm(self):
        assert mcm_4gpm_config().num_gpms == 4


class TestPresets:
    def test_five_gpu_presets(self):
        assert gpm_preset_names() == ["h100", "h200", "mi100", "mi200", "mi300"]

    def test_h100_has_larger_l2_than_mi100(self):
        assert gpm_preset("h100").l2_cache.size_bytes > gpm_preset("mi100").l2_cache.size_bytes

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            gpm_preset("rtx4090")

    def test_preset_case_insensitive(self):
        assert gpm_preset("MI100").name == "mi100"


class TestHDPATConfig:
    def test_baseline_everything_off(self):
        config = HDPATConfig.baseline()
        assert not config.peer_caching_enabled
        assert not config.use_redirection
        assert config.prefetch_degree == 1
        assert config.prefetch_extra == 0

    def test_full_everything_on(self):
        config = HDPATConfig.full()
        assert config.peer_caching is PeerCachingScheme.CLUSTER_ROTATION
        assert config.use_redirection
        assert config.prefetch_degree == 4
        assert config.pw_queue_revisit

    def test_ablation_names(self):
        for name in ("route", "concentric", "distributed",
                     "cluster_rotation", "redirection", "prefetch", "hdpat"):
            HDPATConfig.ablation(name)
        with pytest.raises(ConfigurationError):
            HDPATConfig.ablation("bogus")

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            HDPATConfig(prefetch_degree=0)
        with pytest.raises(ConfigurationError):
            HDPATConfig(push_threshold=0)
        with pytest.raises(ConfigurationError):
            HDPATConfig(num_layers=-1)


class TestSystemConfig:
    def test_with_helpers_return_new_configs(self):
        config = wafer_7x7_config()
        assert config.with_page_size(PAGE_SIZE_16K).page_size == PAGE_SIZE_16K
        assert config.page_size != PAGE_SIZE_16K or True
        assert config.with_mesh(7, 12).num_gpms == 83
        assert config.with_hdpat(HDPATConfig.full()).hdpat.use_redirection

    def test_describe_mentions_key_facts(self):
        text = wafer_7x7_config(hdpat=HDPATConfig.full()).describe()
        assert "7x7" in text and "48 GPMs" in text and "redir" in text

    def test_invalid_mesh_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(mesh_width=1, mesh_height=1)

    def test_idealized_iommu(self):
        iommu = IOMMUConfig().idealized(walk_latency=1)
        assert iommu.walk_latency == 1
        assert iommu.num_walkers == 16
        wide = IOMMUConfig().idealized(num_walkers=4096)
        assert wide.num_walkers == 4096
        assert wide.pw_queue_capacity >= 4096

    def test_idealized_iommu_keeps_every_other_field(self):
        base = IOMMUConfig(
            num_walkers=8, walk_latency=300, pw_queue_capacity=32,
            redirection_entries=77, iommu_tlb=TLBConfig(4, 4, 4, 4),
        )
        for ideal, changed in (
            (base.idealized(walk_latency=1), {"walk_latency"}),
            (base.idealized(num_walkers=64),
             {"num_walkers", "pw_queue_capacity"}),
        ):
            for field in fields(IOMMUConfig):
                if field.name not in changed:
                    assert getattr(ideal, field.name) == getattr(
                        base, field.name
                    ), field.name


class TestCacheConfig:
    def test_sets_derived_from_geometry(self):
        cache = CacheConfig(4 * MB, 16, 64, 20)
        assert cache.num_sets == 4 * MB // (16 * 64)
        assert cache.num_lines == 4 * MB // 64

    def test_indivisible_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(1000, 16, 64, 20)


class TestCapacityScaling:
    def test_scale_one_is_identity(self):
        config = wafer_7x7_config()
        assert capacity_scaled(config, 1.0) is config

    def test_capacity_structures_shrink(self):
        config = capacity_scaled(wafer_7x7_config(), 0.25)
        full = wafer_7x7_config()
        assert config.gpm.l2_tlb.num_sets == full.gpm.l2_tlb.num_sets // 4
        assert config.gpm.gmmu_cache.num_sets == full.gpm.gmmu_cache.num_sets // 4
        assert config.iommu.redirection_entries == 256
        assert config.gpm.l2_cache.size_bytes < full.gpm.l2_cache.size_bytes

    def test_throughput_structures_untouched(self):
        config = capacity_scaled(wafer_7x7_config(), 0.25)
        assert config.iommu.num_walkers == 16
        assert config.gpm.gmmu_walkers == 8
        assert config.gpm.l1_vector_tlb.num_ways == 32

    def test_floors_prevent_degenerate_structures(self):
        config = capacity_scaled(wafer_7x7_config(), 0.01)
        assert config.gpm.l2_tlb.num_sets >= 4
        assert config.iommu.redirection_entries >= 64

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            capacity_scaled(wafer_7x7_config(), 0)
