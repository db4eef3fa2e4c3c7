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
import struct
from typing import Dict, List, Sequence, Tuple

from repro.errors import CapacityError
from repro.filters.fingerprint import mix64

_DEFAULT_MAX_KICKS = 500

# splitmix64 constants, duplicated from repro.filters.fingerprint so
# ``_hash_parts`` can run the mixes on packed lanes (bit-identical results
# — tests/test_filters_cuckoo.py cross-checks against the helper functions).
_MASK64 = (1 << 64) - 1
_FP_SEED = 0xC2B2AE3D27D4EB4F
_IDX_SEED = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

# Packed lanes: ``_hash_parts`` hashes up to ``_CHUNK_LANES`` items as one
# Python int, item k in bits [128k, 128k + 64) with zeros above.  The 64
# bits of padding take a lane's carry out of ``+`` and the high half of its
# 64 x 64-bit product, and masking each lane back to 64 bits before a
# multiply keeps what ``>>`` pulls down from the next lane out of it.
# Chunking bounds each temporary, and each whole-chunk constant below, at
# 4 KiB: 1,024-lane chunks raised the peak RSS of an fft run by 0.06 MiB.
_CHUNK_LANES = 256
_LANE_BITS = 128
#: 1 in the lowest bit of each of ``_CHUNK_LANES`` lanes.
_LANE_ONES = int.from_bytes((b"\x01" + bytes(15)) * _CHUNK_LANES, "little")
# Per-lane constants of a whole chunk.
_LANE_LOW = _LANE_ONES * _MASK64
_LANE_FP_SEED = _LANE_ONES * _FP_SEED
_LANE_IDX_SEED = _LANE_ONES * _IDX_SEED


def _lane_layout(lanes: int) -> struct.Struct:
    """Bytes of ``lanes`` packed lanes: per lane a little-endian 64-bit
    value and 8 bytes of padding, so the layout is the same on every host."""
    return struct.Struct("<" + "Q8x" * lanes)


_CHUNK_LAYOUT = _lane_layout(_CHUNK_LANES)


def _mix(z: int, low: int) -> int:
    """splitmix64's finalizer on every lane of ``z``, as :func:`mix64`
    after its seed add; ``low`` masks each lane to its low 64 bits.

    The result's low 64 bits per lane are the mix; the caller's mask
    drops what the last ``>>`` leaves in the padding.
    """
    z &= low
    z = ((z ^ (z >> 30)) & low) * _MIX_A & low
    z = ((z ^ (z >> 27)) & low) * _MIX_B & low
    return z ^ (z >> 31)


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

    def _hash_parts(self, items: Sequence[int]) -> List[Tuple[int, int, int]]:
        """(fingerprint, index1, index2) of each item, recorded in the memo.

        The one splitmix64 routine of the filter: every probe, insert and
        delete that misses the memo hashes here.  Results are bit-identical
        to :func:`fingerprint_of` (fingerprint), :func:`mix64` (index1) and
        :meth:`_alt_index` (index2).  The items are hashed
        :data:`_CHUNK_LANES` at a time, one 128-bit lane of one packed int
        each, so each step of a mix is one whole-int operation per chunk
        rather than one per item.
        """
        fp_mask = self._fp_mask
        index_mask = self._index_mask
        parts: List[Tuple[int, int, int]] = []
        for start in range(0, len(items), _CHUNK_LANES):
            chunk = items[start:start + _CHUNK_LANES]
            lanes = len(chunk)
            layout = _CHUNK_LAYOUT if lanes == _CHUNK_LANES else _lane_layout(lanes)
            # The whole-chunk constants, cut down to this chunk's lanes.
            span = (1 << (_LANE_BITS * lanes)) - 1
            ones = _LANE_ONES & span
            low = _LANE_LOW & span
            idx_seed = _LANE_IDX_SEED & span
            packed = int.from_bytes(
                layout.pack(*[item & _MASK64 for item in chunk]), "little"
            )
            fingerprint = _mix(packed + (_LANE_FP_SEED & span), low) & ones * fp_mask
            # Adding 2**64 - 1 carries into a lane's bit 64 unless the lane
            # is 0: a zero fingerprint becomes 1, as in fingerprint_of.
            fingerprint |= ((fingerprint + low) >> 64 & ones) ^ ones
            lane_index_mask = ones * index_mask
            index1 = _mix(packed + idx_seed, low) & lane_index_mask
            index2 = (index1 ^ _mix(fingerprint + idx_seed, low)) & lane_index_mask
            size = layout.size
            parts += zip(
                layout.unpack(fingerprint.to_bytes(size, "little")),
                layout.unpack(index1.to_bytes(size, "little")),
                layout.unpack(index2.to_bytes(size, "little")),
            )
        self._memo.update(zip(items, parts))
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
        # A first install misses the memo on every item, so the batch's
        # parts line up with ``items``; otherwise the memo has them all.
        parts = self._hash_parts(missing) if missing else []
        if len(parts) < len(items):
            parts = [memo[item] for item in items]
        buckets = self._buckets
        slots = self.slots_per_bucket
        placed = refused = 0
        for item, (fingerprint, index1, index2) in zip(items, parts):
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
