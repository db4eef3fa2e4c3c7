"""Tests for the cuckoo filter, including hypothesis property tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CapacityError
from repro.filters.cuckoo import _CHUNK_LANES, CuckooFilter
from repro.filters.fingerprint import fingerprint_of, mix64


class TestFingerprint:
    def test_mix64_deterministic(self):
        assert mix64(12345) == mix64(12345)

    def test_mix64_spreads_bits(self):
        outputs = {mix64(i) & 0xFF for i in range(256)}
        assert len(outputs) > 128  # well distributed in the low byte

    def test_fingerprint_nonzero(self):
        for item in range(10_000):
            assert fingerprint_of(item, 8) != 0

    def test_fingerprint_width(self):
        for item in range(1000):
            assert fingerprint_of(item, 12) < (1 << 12)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            fingerprint_of(1, 0)
        with pytest.raises(ValueError):
            fingerprint_of(1, 40)


class TestCuckooFilterBasics:
    def test_insert_then_contains(self):
        filt = CuckooFilter(capacity=128)
        assert filt.insert(42)
        assert 42 in filt

    def test_absent_item_mostly_not_contained(self):
        filt = CuckooFilter(capacity=1024, fingerprint_bits=16)
        for item in range(100):
            filt.insert(item)
        false_positives = sum(
            1 for probe in range(10_000, 11_000) if filt.contains(probe)
        )
        assert false_positives < 10  # ~0.1% expected at 16-bit fingerprints

    def test_delete_removes(self):
        filt = CuckooFilter(capacity=128)
        filt.insert(7)
        assert filt.delete(7)
        assert len(filt) == 0

    def test_delete_absent_returns_false(self):
        filt = CuckooFilter(capacity=128)
        assert not filt.delete(99)

    def test_size_tracks_inserts_and_deletes(self):
        filt = CuckooFilter(capacity=128)
        for item in range(10):
            filt.insert(item)
        filt.delete(0)
        assert len(filt) == 9

    def test_kickout_insertion_under_load(self):
        filt = CuckooFilter(capacity=64, slots_per_bucket=4)
        inserted = sum(1 for item in range(60) if filt.insert(item))
        assert inserted == 60
        for item in range(60):
            assert item in filt

    def test_insert_failure_when_overfull(self):
        filt = CuckooFilter(capacity=8, slots_per_bucket=2, max_kicks=16)
        failures = 0
        for item in range(200):
            if not filt.insert(item):
                failures += 1
        assert failures > 0
        assert filt.insert_failures == failures

    def test_insert_or_raise(self):
        filt = CuckooFilter(capacity=8, slots_per_bucket=2, max_kicks=4)
        with pytest.raises(CapacityError):
            for item in range(500):
                filt.insert_or_raise(item)

    def test_load_factor(self):
        filt = CuckooFilter(capacity=128, slots_per_bucket=4)
        for item in range(64):
            filt.insert(item)
        assert 0 < filt.load_factor <= 1.0

    def test_expected_fp_rate_positive(self):
        filt = CuckooFilter(capacity=128)
        filt.insert(1)
        assert 0 < filt.expected_false_positive_rate() < 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            CuckooFilter(capacity=0)


class TestCuckooFilterProperties:
    @given(st.sets(st.integers(min_value=0, max_value=2**40), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_no_false_negatives(self, items):
        filt = CuckooFilter(capacity=1024)
        inserted = [item for item in items if filt.insert(item)]
        for item in inserted:
            assert filt.contains(item)

    @given(st.sets(st.integers(min_value=0, max_value=2**40), max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_delete_after_insert_always_succeeds(self, items):
        filt = CuckooFilter(capacity=1024)
        inserted = [item for item in items if filt.insert(item)]
        for item in inserted:
            assert filt.delete(item)
        assert len(filt) == 0

    @given(
        st.lists(st.integers(min_value=0, max_value=2**32), max_size=100),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_size_never_negative_and_bounded(self, items, slots):
        filt = CuckooFilter(capacity=64, slots_per_bucket=slots)
        for item in items:
            filt.insert(item)
        assert 0 <= len(filt) <= filt.num_buckets * slots

    @given(st.integers(min_value=0, max_value=2**40))
    @settings(max_examples=100, deadline=None)
    def test_alt_index_is_involution(self, item):
        """Partial-key cuckooing: alt(alt(i)) == i, so relocation works."""
        filt = CuckooFilter(capacity=256)
        fingerprint = fingerprint_of(item, filt.fingerprint_bits)
        index1 = mix64(item) & (filt.num_buckets - 1)
        index2 = filt._alt_index(index1, fingerprint)
        assert filt._alt_index(index2, fingerprint) == index1

    @given(
        st.lists(st.integers(min_value=0, max_value=2**64), max_size=50),
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=20),
                st.integers(min_value=1, max_value=32),
            ),
            min_size=2, max_size=2,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_hash_parts_match_the_helpers(self, items, geometries):
        """The packed-lane splitmix64 routine is bit-identical to
        fingerprint_of / mix64 / _alt_index under each of two geometries,
        and fills each geometry's memo with that geometry's hashes."""
        for capacity, bits in geometries:
            filt = CuckooFilter(capacity=capacity, fingerprint_bits=bits)
            expected = []
            for item in items:
                fingerprint = fingerprint_of(item, bits)
                index1 = mix64(item) & (filt.num_buckets - 1)
                expected.append((fingerprint, index1, filt._alt_index(index1, fingerprint)))
            assert filt._hash_parts(items) == expected
            assert [filt._memo[item] for item in items] == expected

    @pytest.mark.parametrize("bits", [1, 12, 32])
    @pytest.mark.parametrize("size", [
        0, 1, _CHUNK_LANES - 1, _CHUNK_LANES, _CHUNK_LANES + 1,
        3 * _CHUNK_LANES + 7,
    ])
    def test_hash_parts_across_chunk_boundaries(self, size, bits):
        """Batches that end short of, on and past a chunk boundary hash
        every lane as the scalar helpers do, items of 2**64 and above
        included (reduced mod 2**64, as splitmix64 is).  Width 1 remaps
        about half of the fingerprints from 0 to 1."""
        # Steps of the golden ratio mod 2**65 put about half of the items
        # at or above 2**64, in every lane position.
        items = [(k * 0x9E3779B97F4A7C15 + 12345) % 2**65 for k in range(size)]
        items[:3] = [0, 2**64 - 1, 2**64][:size]
        filt = CuckooFilter(capacity=4096, fingerprint_bits=bits)
        expected = []
        for item in items:
            fingerprint = fingerprint_of(item, bits)
            index1 = mix64(item) & (filt.num_buckets - 1)
            expected.append((fingerprint, index1, filt._alt_index(index1, fingerprint)))
        assert filt._hash_parts(items) == expected
        assert [filt._memo[item] for item in items] == expected


class TestHashMemo:
    def test_filters_of_one_geometry_share_a_memo(self):
        first = CuckooFilter(capacity=64, fingerprint_bits=12, seed=1)
        second = CuckooFilter(capacity=64, fingerprint_bits=12, seed=2,
                              slots_per_bucket=4, max_kicks=8)
        assert first._memo is second._memo
        first.insert(12345)
        # The second filter finds the hash without computing it, but not
        # the item itself: the memo holds hashes, not membership.
        assert 12345 in second._memo
        assert not second.contains(12345)

    @pytest.mark.parametrize("other", [
        {"capacity": 128, "fingerprint_bits": 12},  # more buckets
        {"capacity": 64, "fingerprint_bits": 16},   # wider fingerprints
    ])
    def test_filters_of_different_geometry_do_not(self, other):
        filt = CuckooFilter(capacity=64, fingerprint_bits=12)
        assert filt._memo is not CuckooFilter(**other)._memo

    def test_bucket_depth_is_not_part_of_the_key(self):
        """No hash reads slots_per_bucket, so filters with deeper buckets
        but the same bucket count and fingerprint width share a memo."""
        four = CuckooFilter(capacity=64, slots_per_bucket=4)
        eight = CuckooFilter(capacity=128, slots_per_bucket=8)
        assert four.num_buckets == eight.num_buckets
        assert four._memo is eight._memo


def _filter_state(filt, items):
    """Everything a filter holds, with the shared memo's entries for the
    filter's own ``items``."""
    return (
        list(filt._buckets.items()),
        filt.size,
        filt.insert_failures,
        [filt._memo[item] for item in items],
        filt._rng.getstate(),
    )


class TestInsertMany:
    @given(
        st.lists(st.integers(min_value=0, max_value=2**40), max_size=24),
        st.lists(st.integers(min_value=0, max_value=300), max_size=80),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=4, max_value=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_sequential_inserts(self, prior, items, capacity, slots, kicks, bits):
        """Same buckets (and their order), size, refusals, memoised hashes
        and kick-out RNG state as one insert() per item.  Small capacities and
        kick budgets drive the kick-out and refusal paths; a history of
        inserts, probes and deletes makes the starting state non-empty."""
        filters = [
            CuckooFilter(capacity, fingerprint_bits=bits, slots_per_bucket=slots,
                         max_kicks=kicks, seed=3)
            for _ in range(2)
        ]
        for filt in filters:
            for item in prior:
                filt.insert(item)
                filt.contains(item + 1)
            for item in prior[::3]:
                filt.delete(item)
        bulk, sequential = filters
        refused = bulk.insert_many(items)
        assert refused == sum(1 for item in items if not sequential.insert(item))
        own = prior + [item + 1 for item in prior] + items
        assert _filter_state(bulk, own) == _filter_state(sequential, own)
