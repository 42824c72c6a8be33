"""Bloom filter for SSTable point lookups.

A negative answer lets :meth:`LsmDb.get` skip reading a table entirely —
the standard LSM optimization for read amplification.

Both base hashes come from one 16-byte BLAKE2b digest per key: hashing
is a single C call whatever the key length, where a byte-at-a-time
Python hash (FNV, as partition routing uses) costs a loop per key byte
on every table build and every probe.

The serialized form is tagged with the hash scheme. Tables persist
inside durable checkpoints, and a filter built with another hash (the
untagged FNV filters of older tables) would answer "definitely absent"
for keys the table holds; :meth:`BloomFilter.from_bytes` loads such a
filter saturated instead, so every lookup falls through to the table.
"""

from __future__ import annotations

import math
from hashlib import blake2b

from repro.common import serde

_MASK_64 = 0xFFFFFFFFFFFFFFFF

#: Serialized filters open with a zero byte — never the first byte of
#: an untagged filter, whose leading varint is ``num_bits >= 1`` — and
#: the id of the hash scheme their bits were set with.
_TAG = 0
_HASH_BLAKE2B_16 = 1


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

    def _walk(self, key: bytes) -> tuple[int, int]:
        """First probe and stride: ``h_i = h1 + i * h2 (mod num_bits)``."""
        digest = int.from_bytes(blake2b(key, digest_size=16).digest(), "little")
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

    def to_bytes(self) -> bytes:
        """Serialize for embedding in an SSTable."""
        buf = bytearray((_TAG, _HASH_BLAKE2B_16))
        serde.write_varint(buf, self.num_bits)
        serde.write_varint(buf, self.num_hashes)
        serde.write_bytes(buf, bytes(self._bits))
        return bytes(buf)

    @classmethod
    def from_bytes(cls, data: bytes | memoryview, offset: int = 0) -> tuple["BloomFilter", int]:
        """Inverse of :meth:`to_bytes`.

        A filter whose bits were set with a different hash (untagged, or
        an unknown scheme id) comes back with every bit set: it can no
        longer rule a key out, but it never hides one either.
        """
        same_hash = False
        if data[offset] == _TAG:
            same_hash = data[offset + 1] == _HASH_BLAKE2B_16
            offset += 2
        num_bits, offset = serde.read_varint(data, offset)
        num_hashes, offset = serde.read_varint(data, offset)
        raw, offset = serde.read_bytes(data, offset)
        bloom = cls(num_bits, num_hashes)
        bloom._bits = bytearray(raw) if same_hash else bytearray(b"\xff" * len(raw))
        return bloom, offset
