"""Cuckoo filter (Fan et al., CoNEXT'14).

A space-efficient approximate-membership structure with deletion support:
items are stored as small fingerprints in one of two candidate buckets
(partial-key cuckoo hashing), and insertion relocates fingerprints on
collision like cuckoo hashing does.  Guarantees: no false negatives for
inserted-and-not-deleted items; false positives bounded by the fingerprint
width; deletion is exact for inserted items.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import CapacityError
from repro.filters.fingerprint import mix64

_DEFAULT_MAX_KICKS = 500

# splitmix64 constants, duplicated from repro.filters.fingerprint so
# ``_hash_parts`` can inline the mixes (bit-identical results —
# tests/test_filters_cuckoo.py cross-checks against the helper functions).
_MASK64 = (1 << 64) - 1
_FP_SEED = 0xC2B2AE3D27D4EB4F
_IDX_SEED = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

#: One hash memo per filter geometry, shared by every filter in the
#: process: ``(fingerprint_bits, num_buckets) -> {item: (fingerprint,
#: index1, index2)}``.  The three values depend only on the item and the
#: geometry, never on filter contents, so sharing them is
#: behaviour-neutral.  A wafer's GPM filters all have one geometry, and
#: every workload allocates from VPN 1, so a page hashed by its owner's
#: install is never hashed again by a peer's probe or by a later run in
#: the same process (each job of a sweep worker after the first).
_HASH_MEMOS: Dict[Tuple[int, int], Dict[int, Tuple[int, int, int]]] = {}


class CuckooFilter:
    """A cuckoo filter over non-negative integer items (VPNs).

    Parameters
    ----------
    capacity:
        Target number of items; bucket count is the next power of two of
        ``capacity / slots_per_bucket`` so index arithmetic is a mask.
    fingerprint_bits:
        Width of stored fingerprints (false-positive rate roughly
        ``2 * slots_per_bucket / 2**fingerprint_bits``).
    slots_per_bucket:
        Bucket associativity (4 is the standard design point).
    """

    __slots__ = (
        "num_buckets",
        "fingerprint_bits",
        "slots_per_bucket",
        "max_kicks",
        "_buckets",
        "_rng",
        "_index_mask",
        "_fp_mask",
        "_memo",
        "size",
        "insert_failures",
    )

    def __init__(
        self,
        capacity: int,
        fingerprint_bits: int = 12,
        slots_per_bucket: int = 4,
        max_kicks: int = _DEFAULT_MAX_KICKS,
        seed: int = 7,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if slots_per_bucket <= 0:
            raise ValueError(f"slots_per_bucket must be positive, got {slots_per_bucket}")
        buckets_needed = max(1, -(-capacity // slots_per_bucket))
        self.num_buckets = 1 << (buckets_needed - 1).bit_length()
        self.fingerprint_bits = fingerprint_bits
        self.slots_per_bucket = slots_per_bucket
        self.max_kicks = max_kicks
        # Buckets materialise lazily: a wafer instantiates one filter per
        # GPM and most buckets stay empty at benchmark scales, so the
        # eager list-of-lists was a measurable slice of system setup.
        self._buckets: Dict[int, List[int]] = {}
        self._rng = random.Random(seed)
        self._index_mask = self.num_buckets - 1
        self._fp_mask = (1 << fingerprint_bits) - 1
        #: This geometry's entry in :data:`_HASH_MEMOS`.
        self._memo = _HASH_MEMOS.setdefault(
            (fingerprint_bits, self.num_buckets), {}
        )
        self.size = 0
        self.insert_failures = 0

    # ------------------------------------------------------------------
    # Hashing
    # ------------------------------------------------------------------
    def _alt_index(self, index: int, fingerprint: int) -> int:
        return (index ^ mix64(fingerprint)) & (self.num_buckets - 1)

    def _hash_parts(self, items: Iterable[int]) -> List[Tuple[int, int, int]]:
        """(fingerprint, index1, index2) of each item, recorded in the memo.

        The one splitmix64 routine of the filter: every probe, insert and
        delete that misses the memo hashes here.  The three mixes are
        inlined and bit-identical to :func:`fingerprint_of` (fingerprint),
        :func:`mix64` (index1) and :meth:`_alt_index` (index2); taking a
        batch lets :meth:`insert_many` hash a whole install in one call.
        """
        fp_mask = self._fp_mask
        index_mask = self._index_mask
        memo = self._memo
        parts = []
        for item in items:
            z = (item + _FP_SEED) & _MASK64
            z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
            z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
            fingerprint = ((z ^ (z >> 31)) & fp_mask) or 1
            z = (item + _IDX_SEED) & _MASK64
            z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
            z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
            index1 = (z ^ (z >> 31)) & index_mask
            z = (fingerprint + _IDX_SEED) & _MASK64
            z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
            z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
            index2 = (index1 ^ z ^ (z >> 31)) & index_mask
            part = memo[item] = (fingerprint, index1, index2)
            parts.append(part)
        return parts

    def _bucket(self, index: int) -> List[int]:
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = self._buckets[index] = []
        return bucket

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def insert(self, item: int) -> bool:
        """Insert ``item``; returns False if the filter is too full.

        Duplicate insertions store duplicate fingerprints (the filter
        supports multiplicity up to ``2 * slots_per_bucket``); callers in
        this package guard with ``contains`` to keep one copy per item.
        """
        fingerprint, index1, index2 = (
            self._memo.get(item) or self._hash_parts((item,))[0]
        )
        for index in (index1, index2):
            bucket = self._bucket(index)
            if len(bucket) < self.slots_per_bucket:
                bucket.append(fingerprint)
                self.size += 1
                return True
        # Kick-out relocation.
        index = self._rng.choice((index1, index2))
        for _ in range(self.max_kicks):
            bucket = self._buckets[index]
            victim_slot = self._rng.randrange(len(bucket))
            fingerprint, bucket[victim_slot] = bucket[victim_slot], fingerprint
            index = self._alt_index(index, fingerprint)
            bucket = self._bucket(index)
            if len(bucket) < self.slots_per_bucket:
                bucket.append(fingerprint)
                self.size += 1
                return True
        self.insert_failures += 1
        return False

    def insert_many(self, items: Sequence[int]) -> int:
        """Insert ``items`` in order; returns how many the filter refused.

        Leaves the filter exactly as one :meth:`insert` per item would
        (buckets, size, hash memo and kick-out RNG alike), but hashes only
        the items the memo lacks, in one call, and places a fingerprint
        that finds room in either candidate bucket without a call per
        item.  Only an item whose two buckets are both full takes
        :meth:`insert`'s kick-out loop.
        """
        memo = self._memo
        missing = [item for item in items if item not in memo]
        if missing:
            self._hash_parts(missing)
        buckets = self._buckets
        slots = self.slots_per_bucket
        placed = refused = 0
        for item in items:
            fingerprint, index1, index2 = memo[item]
            bucket = buckets.get(index1)
            if bucket is None:
                buckets[index1] = [fingerprint]
            elif len(bucket) < slots:
                bucket.append(fingerprint)
            else:
                bucket = buckets.get(index2)
                if bucket is None:
                    buckets[index2] = [fingerprint]
                elif len(bucket) < slots:
                    bucket.append(fingerprint)
                else:
                    # insert() counts its own success or failure.
                    if not self.insert(item):
                        refused += 1
                    continue
            placed += 1
        self.size += placed
        return refused

    def contains(self, item: int) -> bool:
        """Approximate membership: no false negatives, rare false positives.

        The hottest probe in the translation path (one call per L2 TLB
        miss): a memoised item costs one dict lookup before the bucket
        scans.
        """
        fingerprint, index1, index2 = (
            self._memo.get(item) or self._hash_parts((item,))[0]
        )
        buckets = self._buckets
        bucket = buckets.get(index1)
        if bucket is not None and fingerprint in bucket:
            return True
        bucket = buckets.get(index2)
        return bucket is not None and fingerprint in bucket

    def delete(self, item: int) -> bool:
        """Remove one copy of ``item``; returns False if absent."""
        fingerprint, index1, index2 = (
            self._memo.get(item) or self._hash_parts((item,))[0]
        )
        for index in (index1, index2):
            bucket = self._buckets.get(index)
            if bucket is not None and fingerprint in bucket:
                bucket.remove(fingerprint)
                self.size -= 1
                return True
        return False

    def insert_or_raise(self, item: int) -> None:
        if not self.insert(item):
            raise CapacityError(
                f"cuckoo filter full (size={self.size}, "
                f"buckets={self.num_buckets}x{self.slots_per_bucket})"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def load_factor(self) -> float:
        return self.size / (self.num_buckets * self.slots_per_bucket)

    def expected_false_positive_rate(self) -> float:
        """The analytic bound ~ 2b / 2^f at full occupancy, scaled by load."""
        bound = 2 * self.slots_per_bucket / (1 << self.fingerprint_bits)
        return bound * max(self.load_factor, 1e-9)

    def __contains__(self, item: int) -> bool:
        return self.contains(item)

    def __len__(self) -> int:
        return self.size
