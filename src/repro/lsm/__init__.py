"""Embedded LSM-tree key-value store — the RocksDB stand-in (paper §4.1.3).

Railgun keeps aggregation states in an embedded store "built on top of
LSM-trees"; this package implements that substrate from scratch:

- :class:`~repro.lsm.memtable.MemTable` — skip-list in-memory buffer;
- :class:`~repro.lsm.sstable.SSTable` — immutable sorted files with a
  sparse index; a table builds its bloom filter in memory on its first
  point lookup, never on write, and no filter is stored in a file;
- :class:`~repro.lsm.db.LsmDb` — column families, size-tiered compaction,
  cheap checkpoints (flush + a snapshot of the table list over
  immutable files), the property the engine's recovery path relies on
  (§4.1.3: "this makes checkpoints very efficient"). A checkpoint is
  also the store's only way back: it keeps no log of its own.
"""

from repro.lsm.bloom import BloomFilter
from repro.lsm.db import Checkpoint, LsmConfig, LsmDb
from repro.lsm.memtable import TOMBSTONE, MemTable
from repro.lsm.sstable import SSTable

__all__ = [
    "BloomFilter",
    "MemTable",
    "TOMBSTONE",
    "SSTable",
    "LsmDb",
    "LsmConfig",
    "Checkpoint",
]
