"""Embedded LSM-tree key-value store — the RocksDB stand-in (paper §4.1.3).

Railgun keeps aggregation states in an embedded store "built on top of
LSM-trees"; this package implements that substrate from scratch:

- :class:`~repro.lsm.memtable.MemTable` — skip-list in-memory buffer;
- :class:`~repro.lsm.wal.WriteAheadLog` — per-record CRC, replay on open;
- :class:`~repro.lsm.sstable.SSTable` — immutable sorted files with a
  sparse index and bloom filter;
- :class:`~repro.lsm.db.LsmDb` — column families, size-tiered compaction,
  cheap checkpoints (flush + manifest snapshot over immutable files),
  the property the engine's recovery path relies on (§4.1.3: "this
  makes checkpoints very efficient").
"""

from repro.lsm.bloom import BloomFilter
from repro.lsm.db import Checkpoint, LsmConfig, LsmDb
from repro.lsm.memtable import TOMBSTONE, MemTable
from repro.lsm.sstable import SSTable
from repro.lsm.wal import WriteAheadLog

__all__ = [
    "BloomFilter",
    "MemTable",
    "TOMBSTONE",
    "SSTable",
    "WriteAheadLog",
    "LsmDb",
    "LsmConfig",
    "Checkpoint",
]
