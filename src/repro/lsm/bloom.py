"""Bloom filter for SSTable point lookups.

A negative answer lets :meth:`LsmDb.get` skip reading a table entirely —
the standard LSM optimization for read amplification.

Both base hashes come from one 16-byte BLAKE2b digest per key: hashing
is a single C call whatever the key length, where a byte-at-a-time
Python hash (FNV, as partition routing uses) costs a loop per key byte
on every table build and every probe.

A filter lives only in memory. An SSTable builds its own with
:meth:`BloomFilter.from_keys` on its first probe, so a table that is
merged away before anyone reads it never pays for one, and no filter
is ever written to a file: the bits depend on nothing but the keys.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from hashlib import blake2b

_MASK_64 = 0xFFFFFFFFFFFFFFFF

#: Copying an unkeyed hasher skips the constructor's keyword parsing,
#: a third of the cost of hashing a short key.
_new_hasher = blake2b(digest_size=16).copy


class BloomFilter:
    """Fixed-size bloom filter with double hashing.

    Uses the Kirsch–Mitzenmacher trick: ``h_i = h1 + i * h2`` gives k
    independent-enough probes from two base hashes.
    """

    def __init__(self, num_bits: int, num_hashes: int) -> None:
        if num_bits <= 0 or num_hashes <= 0:
            raise ValueError("num_bits and num_hashes must be positive")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._bits = bytearray((num_bits + 7) // 8)

    @classmethod
    def for_capacity(cls, expected_items: int, false_positive_rate: float = 0.01) -> "BloomFilter":
        """Size a filter for ``expected_items`` at a target FP rate."""
        expected_items = max(expected_items, 1)
        if not 0 < false_positive_rate < 1:
            raise ValueError("false_positive_rate must be in (0, 1)")
        ln2 = math.log(2.0)
        num_bits = max(8, int(-expected_items * math.log(false_positive_rate) / (ln2 * ln2)))
        num_hashes = max(1, int(round(num_bits / expected_items * ln2)))
        return cls(num_bits, num_hashes)

    @classmethod
    def from_keys(cls, keys: Sequence[bytes], false_positive_rate: float = 0.01) -> "BloomFilter":
        """A filter sized for ``keys`` and holding them — the bits of an
        :meth:`add` per key, without an interpreted step per probe.

        With one flag *byte* per bit, a strided slice assignment sets a
        key's whole probe walk at once. A walk runs up to ``num_hashes``
        times round the filter, so the flags are laid out that many
        times over, folded back by big-integer ORs and packed eight to
        the byte by shifts.
        """
        bloom = cls.for_capacity(len(keys), false_positive_rate)
        num_bits, num_hashes = bloom.num_bits, bloom.num_hashes
        flags = bytearray(num_bits * num_hashes)
        walk = b"\x01" * num_hashes
        from_bytes = int.from_bytes
        for key in keys:
            # first probe and stride as in _walk
            hasher = _new_hasher()
            hasher.update(key)
            digest = from_bytes(hasher.digest(), "little")
            bit = (digest & _MASK_64) % num_bits
            stride = ((digest >> 64) | 1) % num_bits
            if stride:
                flags[bit : bit + num_hashes * stride : stride] = walk
            else:
                flags[bit] = 1
        folded = 0
        for lap in range(0, len(flags), num_bits):
            folded |= from_bytes(flags[lap : lap + num_bits], "little")
        # Flag i is bit 8*i; move flags 8j+1 .. 8j+7 down beside flag 8j.
        folded |= folded >> 7
        folded |= folded >> 14
        folded |= folded >> 28
        bloom._bits = bytearray(folded.to_bytes(8 * len(bloom._bits), "little")[::8])
        return bloom

    def _walk(self, key: bytes) -> tuple[int, int]:
        """First probe and stride: ``h_i = h1 + i * h2 (mod num_bits)``."""
        hasher = _new_hasher()
        hasher.update(key)
        digest = int.from_bytes(hasher.digest(), "little")
        num_bits = self.num_bits
        return (digest & _MASK_64) % num_bits, ((digest >> 64) | 1) % num_bits

    def add(self, key: bytes) -> None:
        """Insert a key."""
        bits, num_bits = self._bits, self.num_bits
        bit, stride = self._walk(key)
        for _ in range(self.num_hashes):
            bits[bit >> 3] |= 1 << (bit & 7)
            bit += stride
            if bit >= num_bits:
                bit -= num_bits

    def might_contain(self, key: bytes) -> bool:
        """False means definitely absent; True means probably present."""
        bits, num_bits = self._bits, self.num_bits
        bit, stride = self._walk(key)
        for _ in range(self.num_hashes):
            if not bits[bit >> 3] & (1 << (bit & 7)):
                return False
            bit += stride
            if bit >= num_bits:
                bit -= num_bits
        return True
