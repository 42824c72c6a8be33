"""Stable hashing for partition routing.

Python's builtin ``hash()`` is randomized per process, which would make
partition assignment non-reproducible across runs. We use FNV-1a, the
same family of cheap multiplicative hashes used by Kafka's murmur2
partitioner — stable, fast enough for one short routing key per event,
and good enough dispersion. (The LSM's bloom filters hash every key of
every table and use a C-level digest instead: :mod:`repro.lsm.bloom`.)
"""

from __future__ import annotations

_FNV_OFFSET_64 = 0xCBF29CE484222325
_FNV_PRIME_64 = 0x100000001B3
_MASK_64 = 0xFFFFFFFFFFFFFFFF


def fnv1a_64(data: bytes, seed: int = 0) -> int:
    """64-bit FNV-1a hash of ``data`` with an optional ``seed``."""
    value = (_FNV_OFFSET_64 ^ seed) & _MASK_64
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME_64) & _MASK_64
    return value


def stable_hash(key: object, seed: int = 0) -> int:
    """Hash an arbitrary routing key (str/bytes/int/float/None) stably."""
    if key is None:
        data = b"\x00"
    elif isinstance(key, bytes):
        data = key
    elif isinstance(key, str):
        data = key.encode("utf-8")
    elif isinstance(key, bool):
        data = b"\x01" if key else b"\x02"
    elif isinstance(key, int):
        data = key.to_bytes(16, "little", signed=True)
    elif isinstance(key, float):
        data = repr(key).encode("ascii")
    else:
        raise TypeError(f"unhashable routing key type: {type(key).__name__}")
    return fnv1a_64(data, seed)


def partition_for(key: object, num_partitions: int) -> int:
    """Map a routing key to a partition, mirroring Kafka's keyed routing.

    Messages with the same key always land in the same partition — the
    guarantee Railgun uses to keep each entity's events inside a single
    task processor (paper §4).
    """
    if num_partitions <= 0:
        raise ValueError(f"num_partitions must be positive: {num_partitions}")
    return stable_hash(key) % num_partitions
