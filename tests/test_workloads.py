"""Workload generator tests: Table II identity, determinism, and the
per-benchmark access-pattern properties the paper characterises."""

import pytest

from repro.mem.address import AddressSpace
from repro.mem.allocator import PageAllocator
from repro.stats.locality import SpatialLocalityAnalyzer, fraction_within
from repro.stats.reuse import TranslationCountAnalyzer
from repro.units import MB
from repro.workloads.registry import (
    BENCHMARK_NAMES,
    all_workloads,
    get_workload,
    workload_table,
)
from repro.errors import WorkloadError

NUM_GPMS = 48


def _generate(name, scale=0.05, seed=7, num_gpms=NUM_GPMS):
    allocator = PageAllocator(AddressSpace(), num_gpms)
    trace = get_workload(name).generate(
        num_gpms=num_gpms, allocator=allocator, scale=scale, seed=seed
    )
    return trace, allocator


class TestRegistry:
    def test_fourteen_benchmarks(self):
        assert len(BENCHMARK_NAMES) == 14
        assert len(all_workloads()) == 14

    def test_unknown_name_rejected(self):
        with pytest.raises(WorkloadError):
            get_workload("nope")

    def test_lookup_case_insensitive(self):
        assert get_workload("SPMV").name == "spmv"

    def test_table_ii_parameters(self):
        rows = {row["abbr"]: row for row in workload_table()}
        assert rows["AES"]["workgroups"] == 4_096
        assert rows["AES"]["memory_fp_mb"] == 8
        assert rows["MT"]["memory_fp_mb"] == 2_048
        assert rows["RELU"]["workgroups"] == 1_310_720
        assert rows["SPMV"]["memory_fp_mb"] == 120


class TestGenerationContract:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_one_stream_per_gpm(self, name):
        trace, _ = _generate(name)
        assert trace.num_gpms == NUM_GPMS
        assert all(len(stream) > 0 for stream in trace.per_gpm)

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_addresses_within_allocations(self, name):
        trace, allocator = _generate(name)
        space = allocator.address_space
        lo = min(a.base_vpn for a in allocator.allocations)
        hi = max(a.end_vpn for a in allocator.allocations)
        for stream in trace.per_gpm:
            for vaddr in stream:
                assert lo <= space.vpn_of(vaddr) < hi

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_deterministic_for_seed(self, name):
        first, _ = _generate(name, seed=3)
        second, _ = _generate(name, seed=3)
        assert first.per_gpm == second.per_gpm

    def test_different_seeds_differ_for_random_workloads(self):
        first, _ = _generate("pr", seed=1)
        second, _ = _generate("pr", seed=2)
        assert first.per_gpm != second.per_gpm

    def test_scale_shrinks_accesses_and_footprint(self):
        big, big_alloc = _generate("fft", scale=0.2)
        small, small_alloc = _generate("fft", scale=0.05)
        assert small.total_accesses < big.total_accesses
        assert small_alloc.total_pages < big_alloc.total_pages

    def test_invalid_scale_rejected(self):
        allocator = PageAllocator(AddressSpace(), 4)
        with pytest.raises(WorkloadError):
            get_workload("aes").generate(4, allocator, scale=0.0)
        with pytest.raises(WorkloadError):
            get_workload("aes").generate(4, allocator, scale=1.5)

    def test_small_gpm_count(self):
        trace, _ = _generate("spmv", num_gpms=4)
        assert trace.num_gpms == 4


def _merged_vpn_stream(trace, allocator):
    space = allocator.address_space
    return [space.vpn_of(v) for v in trace.merged_stream()]


class TestPatternProperties:
    """Each benchmark must exhibit the paper's characterised behaviour."""

    def test_relu_pages_touched_in_one_window(self):
        """Fig. 6 (single-touch streaming): every page's accesses cluster
        in one short window of the stream — no later revisits."""
        trace, allocator = _generate("relu", scale=0.1)
        space = allocator.address_space
        for stream in trace.per_gpm[:8]:
            first_seen, last_seen = {}, {}
            for index, vaddr in enumerate(stream):
                vpn = space.vpn_of(vaddr)
                first_seen.setdefault(vpn, index)
                last_seen[vpn] = index
            spans = sorted(last_seen[v] - first_seen[v] for v in first_seen)
            p90 = spans[int(0.9 * (len(spans) - 1))]
            assert p90 < len(stream) * 0.3

    def test_fir_has_strong_sequential_locality(self):
        """Fig. 8: FIR's next-page distance is overwhelmingly small (the
        interleaved tap reads break a small fraction of pairs)."""
        trace, allocator = _generate("fir", scale=0.1)
        space = allocator.address_space
        analyzer = SpatialLocalityAnalyzer()
        stream = trace.per_gpm[0]
        for vaddr in stream:
            analyzer.record(space.vpn_of(vaddr))
        assert fraction_within(analyzer.summary(), 2) > 0.5

    def test_mt_writes_have_no_page_locality(self):
        """MT's column writes stride to a new page nearly every access."""
        trace, allocator = _generate("mt", scale=0.1)
        space = allocator.address_space
        stream = trace.per_gpm[0]
        transitions = 0
        pairs = 0
        for a, b in zip(stream, stream[1:]):
            pairs += 1
            if space.vpn_of(a) != space.vpn_of(b):
                transitions += 1
        assert transitions / pairs > 0.5

    def test_pr_gather_is_skewed(self):
        """PR's rank reads follow a heavy-tailed (hub-dominated) law:
        its hottest pages are far hotter than a uniform spread."""
        trace, allocator = _generate("pr", scale=0.1)
        space = allocator.address_space
        counts = {}
        for stream in trace.per_gpm:
            for vaddr in stream:
                vpn = space.vpn_of(vaddr)
                counts[vpn] = counts.get(vpn, 0) + 1
        ranked = sorted(counts.values(), reverse=True)
        uniform = sum(ranked) / len(ranked)
        assert ranked[0] > 10 * uniform
        top_decile = ranked[: max(1, len(ranked) // 10)]
        assert sum(top_decile) / sum(ranked) > 0.3

    def test_bt_is_mostly_partition_local(self):
        """§V-C: BT's locality lets the local GMMU serve most requests."""
        trace, allocator = _generate("bt", scale=0.1)
        space = allocator.address_space
        local = 0
        total = 0
        for gpm, stream in enumerate(trace.per_gpm):
            for vaddr in stream:
                total += 1
                if allocator.owner_of(space.vpn_of(vaddr)) == gpm:
                    local += 1
        assert local / total > 0.5

    def test_pivot_pages_shared_across_gpms(self):
        """FWS pivot rows: many pages are read by multiple GPMs (each GPM
        starts at its own column offset, so sharing is staggered rather
        than lockstep)."""
        trace, allocator = _generate("fws", scale=0.1)
        space = allocator.address_space
        touched_by = {}
        for gpm, stream in enumerate(trace.per_gpm):
            for vaddr in stream:
                touched_by.setdefault(space.vpn_of(vaddr), set()).add(gpm)
        shared = [v for v, gpms in touched_by.items() if len(gpms) >= 4]
        assert len(shared) >= 1

    def test_aes_issue_shape_is_compute_bound(self):
        trace, _ = _generate("aes")
        assert trace.interval > 1

    def test_metadata_recorded(self):
        trace, _ = _generate("mm", scale=0.1)
        assert trace.metadata["workgroups"] == 16_384
        assert trace.metadata["scale"] == 0.1
        assert trace.metadata["footprint_bytes"] <= 256 * MB
