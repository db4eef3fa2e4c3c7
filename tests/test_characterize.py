"""Tests pinning every benchmark to its declared pattern class via the
offline characterizer."""

import pytest

from repro.mem.address import AddressSpace
from repro.mem.allocator import PageAllocator
from repro.workloads.characterize import TraceProfile, _gini, characterize
from repro.workloads.registry import BENCHMARK_NAMES, get_workload


def _profile(name, scale=0.08, num_gpms=48):
    allocator = PageAllocator(AddressSpace(), num_gpms)
    trace = get_workload(name).generate(
        num_gpms=num_gpms, allocator=allocator, scale=scale, seed=9
    )
    return characterize(trace, allocator)


class TestGini:
    def test_uniform_is_zero(self):
        assert _gini([5, 5, 5, 5]) == pytest.approx(0.0, abs=1e-9)

    def test_concentrated_is_high(self):
        assert _gini([0, 0, 0, 100]) > 0.7

    def test_empty(self):
        assert _gini([]) == 0.0


class TestProfiles:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_profile_is_well_formed(self, name):
        profile = _profile(name, scale=0.05)
        assert profile.total_accesses > 0
        assert 0.0 <= profile.local_ownership_fraction <= 1.0
        assert 0.0 <= profile.locality_fraction <= 1.0
        assert 0.0 <= profile.single_touch_fraction <= 1.0
        assert -0.01 <= profile.page_touch_gini <= 1.0
        assert profile.mean_touches_per_page >= 1.0

    def test_pr_is_hub_heavy(self):
        profile = _profile("pr")
        assert profile.shared_page_gini > 0.45
        assert profile.pattern_class == "scatter-gather (hub-heavy)"

    def test_relu_is_streaming(self):
        profile = _profile("relu")
        assert profile.single_touch_fraction > 0.9
        assert profile.locality_fraction > 0.5
        assert profile.pattern_class == "streaming (adjacent)"

    def test_fir_is_streaming(self):
        assert _profile("fir").pattern_class == "streaming (adjacent)"

    def test_bt_is_partitioned(self):
        profile = _profile("bt")
        assert profile.local_ownership_fraction > 0.6
        assert profile.pattern_class == "partitioned"

    def test_spmv_is_mixed(self):
        assert _profile("spmv").pattern_class == "random/mixed"

    def test_mt_shared_writes_not_hub_concentrated(self):
        profile = _profile("mt")
        assert profile.shared_page_gini < 0.45

    def test_fir_locality_beats_spmv(self):
        assert (
            _profile("fir").locality_fraction
            > _profile("spmv").locality_fraction
        )

    def test_mean_touches_ordering_matches_fig6(self):
        # PR re-touches pages far more than RELU (Fig. 6's extremes).
        assert (
            _profile("pr").mean_touches_per_page
            > 3 * _profile("relu").mean_touches_per_page
        )

    @pytest.mark.parametrize("name", ["spmv", "relu"])
    def test_unique_pages_counts_distinct_vpns(self, name):
        allocator = PageAllocator(AddressSpace(), 48)
        trace = get_workload(name).generate(
            num_gpms=48, allocator=allocator, scale=0.05, seed=9
        )
        profile = characterize(trace, allocator)
        space = allocator.address_space
        vpns = {space.vpn_of(vaddr) for stream in trace.per_gpm for vaddr in stream}
        assert profile.unique_pages == len(vpns)
        assert profile.mean_touches_per_page * profile.unique_pages == (
            pytest.approx(profile.total_accesses)
        )
