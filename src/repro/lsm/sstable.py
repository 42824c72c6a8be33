"""Immutable sorted-string tables.

An SSTable is written once from a sorted stream of entries and never
mutated — the property that makes LSM checkpoints cheap (§4.1.3) and
lets the engine's recovery transfer files wholesale.

File layout::

    data region  : N x [ u8 kind | bytes key | [bytes value] ]
    index region : sparse index, every `INDEX_INTERVAL`-th key -> offset
    bloom region : empty (tables written before filters were built on
                   demand hold a serialized filter here; it is skipped)
    footer       : varint data_end | varint index_off | varint bloom_off |
                   varint count | min_key | max_key | u32 crc(footer body)
    trailer      : u32 footer_length (fixed width, read from file end)

A record is a pure function of its ``(key, value)``, so a table this
process wrote keeps the keys and encoded records
:meth:`SSTable.write_records` joined into its data region
(:meth:`SSTable.records`; a table opened from storage parses them once,
on its first merge). Compaction splices those records into the merged
table without decoding a value, and the file is the one
:meth:`SSTable.write` would write from the decoded entries.

A table's bloom filter is built in memory on its first probe
(:meth:`SSTable.might_contain`, which :meth:`SSTable.get` calls), from
the keys it holds (an opened table reads them from its data region).
Writing a table builds none: most tables are merged away by compaction
before any point lookup reaches them, and the state store looks up only
keys that may have left its resident set.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import accumulate, islice
from typing import TYPE_CHECKING

from repro.common import serde
from repro.common.errors import StorageError
from repro.common.storage import StorageBackend
from repro.lsm.bloom import BloomFilter
from repro.lsm.memtable import TOMBSTONE

if TYPE_CHECKING:
    from repro.lsm.db import LsmStats

#: a record's first byte: what follows its key
KIND_PUT = 0
KIND_DELETE = 1

#: keys between two sparse-index entries
INDEX_INTERVAL = 16
#: false-positive rate each table's bloom filter is sized for
BLOOM_FP_RATE = 0.01

#: a table's keys and, at the same positions, their encoded records
Records = tuple[list[bytes], list[bytes]]


class SSTable:
    """Reader handle over one immutable table file."""

    def __init__(
        self,
        storage: StorageBackend,
        name: str,
        *,
        index: list[tuple[bytes, int]],
        count: int,
        min_key: bytes,
        max_key: bytes,
        data_end: int,
        stats: "LsmStats | None" = None,
        records: Records | None = None,
    ) -> None:
        self._storage = storage
        self.name = name
        self._index = index
        #: built by the first probe that passes the key-range check
        self._bloom: BloomFilter | None = None
        self._stats = stats
        self.count = count
        self.min_key = min_key
        self.max_key = max_key
        self._data_end = data_end
        #: keys and encoded records of the data region (see :meth:`records`)
        self._records = records

    # -- writing ---------------------------------------------------------

    @classmethod
    def write(
        cls,
        storage: StorageBackend,
        name: str,
        entries: Iterable[tuple[bytes, object]],
        stats: "LsmStats | None" = None,
    ) -> "SSTable":
        """Write sorted ``(key, value_or_TOMBSTONE)`` entries to a new file.

        Entries must be strictly increasing by key; violations raise
        :class:`StorageError` (they would corrupt binary search). No
        bloom filter is built here; ``stats.bloom_builds`` counts the
        ones the table's probes build later.
        """
        materialized = list(entries)
        keys = [key for key, _ in materialized]
        for prev_key, key in zip(keys, islice(keys, 1, None)):
            if key <= prev_key:
                raise StorageError(
                    f"sstable entries out of order: {key!r} after {prev_key!r}"
                )
        varint = serde.varint_bytes
        records = [
            b"%c%b%b" % (KIND_DELETE, varint(len(key)), key)
            if value is TOMBSTONE
            else b"%c%b%b%b%b"
            % (KIND_PUT, varint(len(key)), key, varint(len(value)), value)  # type: ignore[arg-type]
            for key, value in materialized
        ]
        return cls.write_records(storage, name, (keys, records), stats)

    @classmethod
    def write_records(
        cls,
        storage: StorageBackend,
        name: str,
        held: Records,
        stats: "LsmStats | None" = None,
    ) -> "SSTable":
        """Write already-encoded records (strictly increasing ``keys``,
        ``records[i]`` the record of ``keys[i]``) to a new file; the
        table holds them for its filter and its merge."""
        keys, records = held
        data = b"".join(records)
        offsets = list(accumulate(map(len, records), initial=0))
        index = [
            (keys[position], offsets[position])
            for position in range(0, len(keys), INDEX_INTERVAL)
        ]
        min_key = keys[0] if keys else b""
        max_key = keys[-1] if keys else b""

        index_blob = bytearray()
        serde.write_varint(index_blob, len(index))
        for key, offset in index:
            serde.write_bytes(index_blob, key)
            serde.write_varint(index_blob, offset)

        footer = bytearray()
        serde.write_varint(footer, len(data))
        serde.write_varint(footer, len(data))  # index offset == data end
        serde.write_varint(footer, len(data) + len(index_blob))  # empty bloom region
        serde.write_varint(footer, len(keys))
        serde.write_bytes(footer, min_key)
        serde.write_bytes(footer, max_key)
        serde.write_u32(footer, serde.crc32_of(bytes(footer)))

        blob = bytearray()
        blob.extend(data)
        blob.extend(index_blob)
        blob.extend(footer)
        trailer = bytearray()
        serde.write_u32(trailer, len(footer))
        blob.extend(trailer)

        storage.create(name)
        storage.append(name, bytes(blob))
        storage.seal(name)
        return cls(
            storage,
            name,
            index=index,
            count=len(keys),
            min_key=min_key,
            max_key=max_key,
            data_end=len(data),
            stats=stats,
            records=held,
        )

    # -- opening ---------------------------------------------------------

    @classmethod
    def open(
        cls, storage: StorageBackend, name: str, stats: "LsmStats | None" = None
    ) -> "SSTable":
        """Open an existing table, reading its index and footer (a
        stored bloom region is skipped: the first probe builds one)."""
        size = storage.size(name)
        if size < 4:
            raise StorageError(f"sstable too small: {name}")
        trailer = storage.read(name, size - 4, 4)
        footer_len, _ = serde.read_u32(trailer, 0)
        footer_off = size - 4 - footer_len
        if footer_off < 0:
            raise StorageError(f"corrupt sstable trailer: {name}")
        footer = storage.read(name, footer_off, footer_len)
        body = footer[:-4]
        crc, _ = serde.read_u32(footer, footer_len - 4)
        if serde.crc32_of(body) != crc:
            raise StorageError(f"corrupt sstable footer: {name}")
        offset = 0
        data_end, offset = serde.read_varint(footer, offset)
        index_off, offset = serde.read_varint(footer, offset)
        bloom_off, offset = serde.read_varint(footer, offset)
        count, offset = serde.read_varint(footer, offset)
        min_key, offset = serde.read_bytes(footer, offset)
        max_key, offset = serde.read_bytes(footer, offset)

        index_blob = storage.read(name, index_off, bloom_off - index_off)
        index: list[tuple[bytes, int]] = []
        ioff = 0
        n, ioff = serde.read_varint(index_blob, ioff)
        for _ in range(n):
            key, ioff = serde.read_bytes(index_blob, ioff)
            rec_off, ioff = serde.read_varint(index_blob, ioff)
            index.append((key, rec_off))
        return cls(
            storage,
            name,
            index=index,
            count=count,
            min_key=min_key,
            max_key=max_key,
            data_end=data_end,
            stats=stats,
        )

    # -- reading ---------------------------------------------------------

    def might_contain(self, key: bytes) -> bool:
        """Key-range + bloom pre-check (False is authoritative); the
        first call past the range check builds the table's filter."""
        if self.count == 0:
            return False
        if key < self.min_key or key > self.max_key:
            return False
        if self._bloom is None:
            keys = (
                self._records[0]
                if self._records is not None
                else [entry_key for entry_key, _ in self.entries()]
            )
            self._bloom = BloomFilter.from_keys(keys, BLOOM_FP_RATE)
            if self._stats is not None:
                self._stats.bloom_builds += 1
        return self._bloom.might_contain(key)

    def _seek_slot(self, key: bytes) -> int:
        """Index slot of the largest sparse-index key that is <= ``key``."""
        lo, hi = 0, len(self._index) - 1
        best = 0
        while lo <= hi:
            mid = (lo + hi) // 2
            if self._index[mid][0] <= key:
                best = mid
                lo = mid + 1
            else:
                hi = mid - 1
        return best

    def _seek_offset(self, key: bytes) -> int:
        """Largest sparse-index offset whose key is <= ``key``."""
        if not self._index:
            return 0
        return self._index[self._seek_slot(key)][1]

    def get(self, key: bytes) -> object | None:
        """Value bytes, TOMBSTONE, or None when absent from this table."""
        if not self.might_contain(key):
            return None
        # A point lookup only needs the records between two consecutive
        # sparse-index entries (the key, if present, cannot be elsewhere).
        slot = self._seek_slot(key)
        start = self._index[slot][1] if self._index else 0
        end = self._index[slot + 1][1] if slot + 1 < len(self._index) else self._data_end
        data = self._storage.read(self.name, start, end - start)
        offset = 0
        while offset < len(data):
            kind = data[offset]
            offset += 1
            entry_key, offset = serde.read_bytes(data, offset)
            if kind == KIND_PUT:
                value, offset = serde.read_bytes(data, offset)
            else:
                value = TOMBSTONE  # type: ignore[assignment]
            if entry_key == key:
                return value
            if entry_key > key:
                return None
        return None

    def entries(self, start: bytes | None = None, end: bytes | None = None) -> Iterator[tuple[bytes, object]]:
        """All entries with ``start <= key < end`` in key order."""
        data = self._read_data()
        offset = self._seek_offset(start) if start is not None else 0
        data_end = len(data)
        read_varint = serde.read_varint
        while offset < data_end:
            # kind | varint length | key | [varint length | value], the
            # one-byte lengths read in place
            kind = data[offset]
            length = data[offset + 1]
            if length < 128:
                offset += 2
            else:
                length, offset = read_varint(data, offset + 1)
            key = data[offset : offset + length]
            offset += length
            if kind == KIND_PUT:
                length = data[offset]
                if length < 128:
                    offset += 1
                else:
                    length, offset = read_varint(data, offset)
                value = data[offset : offset + length]
                offset += length
            else:
                value = TOMBSTONE  # type: ignore[assignment]
            if start is not None and key < start:
                continue
            if end is not None and key >= end:
                return
            yield key, value

    def records(self) -> Records:
        """The table's keys and encoded records, in key order — what a
        merge splices into its output without decoding a value. A table
        this process wrote holds them from :meth:`write_records`; an
        opened one parses its data region here, once."""
        if self._records is None:
            data = self._read_data()
            keys: list[bytes] = []
            records: list[bytes] = []
            offset, data_end = 0, len(data)
            read_varint = serde.read_varint
            while offset < data_end:
                start = offset
                length, offset = read_varint(data, offset + 1)
                keys.append(data[offset : offset + length])
                offset += length
                if data[start] == KIND_PUT:
                    length, offset = read_varint(data, offset)
                    offset += length
                records.append(data[start:offset])
            self._records = (keys, records)
        return self._records

    def _read_data(self) -> bytes:
        return self._storage.read(self.name, 0, self._data_end)

    def __repr__(self) -> str:
        return f"SSTable({self.name}, count={self.count})"
