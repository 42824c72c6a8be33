"""The embedded LSM database: column families, compaction, checkpoints.

This is the surface :mod:`repro.state` programs against, shaped after the
slice of RocksDB the paper uses (§4.1.3):

- point ``get``/``put``/``delete`` per column family;
- ``prefix_scan`` (the ``countDistinct`` aggregator keeps per-value
  counts in an auxiliary column family and scans them by prefix);
- ``ingest_sorted``: a sorted run written straight to an L0 table (how
  the state store writes its resident set back at a checkpoint);
- cheap **checkpoints**: flush memtables, snapshot the manifest — all
  table files are immutable, so a checkpoint is just a list of names;
- **delta transfer**: given a previous checkpoint, only the files the
  receiver is missing need to be copied (the engine's stale-task
  recovery, §4.2).

Compaction is whole-level: L0 collects flushed memtables (overlapping,
newest first); when L0 grows past a threshold it is merged with L1 into
a fresh sorted run, and levels cascade when they exceed their size
budget. Tombstones are dropped only when the output is the bottom-most
populated level.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.common import serde
from repro.common.errors import StorageError
from repro.common.storage import MemoryStorage, StorageBackend
from repro.lsm.memtable import TOMBSTONE, MemTable
from repro.lsm.sstable import SSTable
from repro.lsm.wal import WriteAheadLog

_MANIFEST = "MANIFEST"
_WAL = "WAL"


@dataclass
class LsmConfig:
    """Tuning knobs for the store."""

    memtable_flush_bytes: int = 256 * 1024
    l0_compaction_threshold: int = 4
    level_size_multiplier: int = 8
    base_level_bytes: int = 2 * 1024 * 1024
    index_interval: int = 16
    bloom_fp_rate: float = 0.01
    wal_enabled: bool = True


@dataclass
class Checkpoint:
    """An immutable snapshot: per-CF, per-level lists of table files."""

    sequence: int
    files: dict[str, list[list[str]]] = field(default_factory=dict)

    def all_files(self) -> set[str]:
        """Every table file referenced by the snapshot."""
        return {
            name
            for levels in self.files.values()
            for level in levels
            for name in level
        }

    def to_bytes(self) -> bytes:
        """Serialize (for the checkpoint topic and recovery transfer)."""
        buf = bytearray()
        serde.write_varint(buf, self.sequence)
        serde.write_varint(buf, len(self.files))
        for cf_name in sorted(self.files):
            serde.write_str(buf, cf_name)
            levels = self.files[cf_name]
            serde.write_varint(buf, len(levels))
            for level in levels:
                serde.write_varint(buf, len(level))
                for name in level:
                    serde.write_str(buf, name)
        return bytes(buf)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Checkpoint":
        """Inverse of :meth:`to_bytes`."""
        offset = 0
        sequence, offset = serde.read_varint(data, offset)
        cf_count, offset = serde.read_varint(data, offset)
        files: dict[str, list[list[str]]] = {}
        for _ in range(cf_count):
            cf_name, offset = serde.read_str(data, offset)
            level_count, offset = serde.read_varint(data, offset)
            levels: list[list[str]] = []
            for _ in range(level_count):
                entry_count, offset = serde.read_varint(data, offset)
                names = []
                for _ in range(entry_count):
                    name, offset = serde.read_str(data, offset)
                    names.append(name)
                levels.append(names)
            files[cf_name] = levels
        return cls(sequence=sequence, files=files)


class _ColumnFamily:
    """One keyspace: a memtable plus leveled immutable tables."""

    def __init__(self, name: str, cf_id: int) -> None:
        self.name = name
        self.cf_id = cf_id
        self.memtable = MemTable(seed=cf_id)
        # levels[0] is L0 (newest table first, may overlap);
        # levels[i>0] are sorted runs (tables ordered by key, disjoint).
        self.levels: list[list[SSTable]] = [[]]


@dataclass
class LsmStats:
    """Operation counters (read by the latency cost models and tests)."""

    puts: int = 0
    gets: int = 0
    deletes: int = 0
    memtable_hits: int = 0
    sstable_reads: int = 0
    bloom_skips: int = 0
    flushes: int = 0
    compactions: int = 0
    checkpoint_count: int = 0


class LsmDb:
    """An embedded multi-column-family LSM store."""

    def __init__(self, storage: StorageBackend | None = None, config: LsmConfig | None = None) -> None:
        self._live_checkpoints: list[Checkpoint] = []
        self.storage = storage if storage is not None else MemoryStorage()
        self.config = config if config is not None else LsmConfig()
        self.stats = LsmStats()
        self._cfs: dict[str, _ColumnFamily] = {}
        self._cf_by_id: dict[int, _ColumnFamily] = {}
        self._next_file = 0
        self._sequence = 0
        self._wal: WriteAheadLog | None = None
        if self.storage.exists(_MANIFEST):
            self._recover()
        else:
            self.create_column_family("default")
            self._write_manifest()
        if self.config.wal_enabled and self._wal is None:
            self._wal = WriteAheadLog(self.storage, _WAL)

    # -- column families ---------------------------------------------------

    def create_column_family(self, name: str) -> None:
        """Create a keyspace; no-op if it already exists."""
        if name in self._cfs:
            return
        cf = _ColumnFamily(name, cf_id=len(self._cfs))
        self._cfs[name] = cf
        self._cf_by_id[cf.cf_id] = cf

    def column_families(self) -> list[str]:
        """Names of all column families."""
        return sorted(self._cfs)

    def _cf(self, name: str) -> _ColumnFamily:
        try:
            return self._cfs[name]
        except KeyError:
            raise StorageError(f"unknown column family {name!r}") from None

    # -- mutations -----------------------------------------------------------

    def put(self, key: bytes, value: bytes, cf: str = "default") -> None:
        """Insert or overwrite a key."""
        family = self._cf(cf)
        if self._wal is not None:
            self._wal.append_put(family.cf_id, key, value)
        family.memtable.put(key, value)
        self.stats.puts += 1
        self._maybe_flush(family)

    def delete(self, key: bytes, cf: str = "default") -> None:
        """Delete a key (write a tombstone)."""
        family = self._cf(cf)
        if self._wal is not None:
            self._wal.append_delete(family.cf_id, key)
        family.memtable.delete(key)
        self.stats.deletes += 1
        self._maybe_flush(family)

    def ingest_sorted(
        self, entries: Iterable[tuple[bytes, bytes]], cf: str = "default"
    ) -> None:
        """Bulk-write a strictly increasing run of ``(key, value)`` pairs.

        Equivalent to a :meth:`put` per pair followed by :meth:`flush`,
        in one sorted pass: the run is merged with its column family's
        memtable (the run is newer) straight into one L0 table — no WAL
        record and no skip-list insert per key. The other memtables are
        flushed with it, so the WAL, which never saw the run, is reset
        rather than left to shadow it on replay. An empty run is a no-op.
        """
        family = self._cf(cf)
        run = list(entries)
        if not run:
            return
        self.stats.puts += len(run)
        for other in self._cfs.values():
            if other is not family:
                self._flush_family(other, finish=False)
        self._flush_family(family, newer=run)

    # -- reads ----------------------------------------------------------------

    def get(self, key: bytes, cf: str = "default") -> bytes | None:
        """Latest value for ``key`` or None (tombstones hide older values)."""
        family = self._cf(cf)
        self.stats.gets += 1
        value = family.memtable.get(key)
        if value is not None:
            self.stats.memtable_hits += 1
            return None if value is TOMBSTONE else value  # type: ignore[return-value]
        for level_no, level in enumerate(family.levels):
            tables = level if level_no == 0 else self._run_candidates(level, key)
            for table in tables:
                if not table.might_contain(key):
                    self.stats.bloom_skips += 1
                    continue
                self.stats.sstable_reads += 1
                found = table.get(key)
                if found is not None:
                    return None if found is TOMBSTONE else found  # type: ignore[return-value]
        return None

    @staticmethod
    def _run_candidates(level: list[SSTable], key: bytes) -> list[SSTable]:
        """Binary search the (disjoint, sorted) run for the covering table."""
        lo, hi = 0, len(level) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            table = level[mid]
            if key < table.min_key:
                hi = mid - 1
            elif key > table.max_key:
                lo = mid + 1
            else:
                return [table]
        return []

    def scan(self, start: bytes | None = None, end: bytes | None = None, cf: str = "default"):
        """Yield live ``(key, value)`` pairs with ``start <= key < end``.

        Sources are merged newest-first so shadowed versions and deleted
        keys never surface.
        """
        family = self._cf(cf)
        sources: list = [family.memtable.scan(start, end)]
        for level in family.levels:
            sources.extend(table.entries(start, end) for table in level)
        yield from _merge_entries(sources, drop_tombstones=True)

    def prefix_scan(self, prefix: bytes, cf: str = "default"):
        """All live entries whose key starts with ``prefix``."""
        end = _prefix_end(prefix)
        yield from self.scan(prefix, end, cf=cf)

    # -- flush & compaction ---------------------------------------------------

    def _maybe_flush(self, family: _ColumnFamily) -> None:
        if family.memtable.approximate_bytes >= self.config.memtable_flush_bytes:
            self._flush_family(family)

    def flush(self) -> None:
        """Flush every memtable to L0 and reset the WAL (nothing to do
        when every memtable is empty: the WAL is too, and the manifest
        is current)."""
        flushed = [
            self._flush_family(family, finish=False)
            for family in self._cfs.values()
        ]
        if any(flushed):
            self._finish_flush()

    def _flush_family(
        self,
        family: _ColumnFamily,
        finish: bool = True,
        newer: list[tuple[bytes, bytes]] | None = None,
    ) -> bool:
        """Write the memtable — under ``newer``, a sorted run that wins
        on equal keys — as one L0 table; False when there was nothing to
        write. A caller flushing several families passes
        ``finish=False`` and calls :meth:`_finish_flush` once itself."""
        if not newer:
            if not len(family.memtable):
                return False
            entries = family.memtable.items()
        elif len(family.memtable):
            entries = _merge_entries(
                [newer, family.memtable.items()], drop_tombstones=False
            )
        else:
            entries = newer
        name = self._new_file_name(family, level=0)
        table = SSTable.write(
            self.storage,
            name,
            entries,
            index_interval=self.config.index_interval,
            bloom_fp_rate=self.config.bloom_fp_rate,
        )
        family.levels[0].insert(0, table)  # newest first
        family.memtable = MemTable(seed=family.cf_id)
        self.stats.flushes += 1
        if len(family.levels[0]) >= self.config.l0_compaction_threshold:
            self._compact(family, 0)
        if finish:
            self._finish_flush()
        return True

    def _finish_flush(self) -> None:
        """Reset the WAL once no memtable holds a record of it; publish
        the new table layout."""
        if self._wal is not None and all(
            not len(family.memtable) for family in self._cfs.values()
        ):
            self._wal.reset()
        self._write_manifest()

    def _level_bytes(self, level: list[SSTable]) -> int:
        return sum(table.file_size() for table in level)

    def _compact(self, family: _ColumnFamily, level_no: int) -> None:
        """Merge ``level_no`` into ``level_no + 1`` as one fresh run."""
        while len(family.levels) <= level_no + 1:
            family.levels.append([])
        upper = family.levels[level_no]
        lower = family.levels[level_no + 1]
        if not upper:
            return
        is_bottom = all(
            not family.levels[i] for i in range(level_no + 2, len(family.levels))
        )
        # Newest-first ordering: L0 tables are newest-first already; the
        # lower run is older than anything above it.
        sources = [table.entries() for table in upper] + [table.entries() for table in lower]
        merged = _merge_entries(sources, drop_tombstones=is_bottom)

        out_name = self._new_file_name(family, level=level_no + 1)
        new_table = SSTable.write(
            self.storage,
            out_name,
            merged,
            index_interval=self.config.index_interval,
            bloom_fp_rate=self.config.bloom_fp_rate,
        )
        pinned = self._checkpointed_files()
        for stale in upper + lower:
            # Checkpoints may still reference the file; keep it if so.
            if stale.name not in pinned and self.storage.exists(stale.name):
                self.storage.delete(stale.name)
        family.levels[level_no] = []
        family.levels[level_no + 1] = [new_table] if new_table.count else []
        self.stats.compactions += 1
        # Cascade when the freshly-built level exceeds its budget.
        budget = self.config.base_level_bytes * (
            self.config.level_size_multiplier ** max(level_no, 0)
        )
        if self._level_bytes(family.levels[level_no + 1]) > budget:
            self._compact(family, level_no + 1)

    # -- checkpoints ------------------------------------------------------------

    def _checkpointed_files(self) -> set[str]:
        """Every file a live checkpoint pins (one union per caller)."""
        files: set[str] = set()
        for checkpoint in self._live_checkpoints:
            files |= checkpoint.all_files()
        return files

    def checkpoint(self) -> Checkpoint:
        """Flush and snapshot the manifest; cheap because files are immutable."""
        self.flush()
        self._sequence += 1
        snapshot = Checkpoint(
            sequence=self._sequence,
            files={
                name: [[t.name for t in level] for level in family.levels]
                for name, family in self._cfs.items()
            },
        )
        self._live_checkpoints.append(snapshot)
        self.stats.checkpoint_count += 1
        return snapshot

    def release_checkpoint(self, checkpoint: Checkpoint) -> None:
        """Drop a checkpoint and garbage-collect files it pinned."""
        self._live_checkpoints = [
            cp for cp in self._live_checkpoints if cp.sequence != checkpoint.sequence
        ]
        live: set[str] = self._checkpointed_files()
        for family in self._cfs.values():
            for level in family.levels:
                live |= {t.name for t in level}
        for name in checkpoint.all_files():
            if name not in live and self.storage.exists(name):
                self.storage.delete(name)

    def export_checkpoint(self, checkpoint: Checkpoint, exclude: set[str] | None = None) -> dict[str, bytes]:
        """File name -> contents for transfer; ``exclude`` enables delta copy."""
        exclude = exclude or set()
        payload: dict[str, bytes] = {}
        for name in sorted(checkpoint.all_files()):
            if name in exclude:
                continue
            payload[name] = self.storage.read_all(name)
        return payload

    @classmethod
    def import_checkpoint(
        cls,
        checkpoint: Checkpoint,
        files: dict[str, bytes],
        storage: StorageBackend | None = None,
        config: LsmConfig | None = None,
    ) -> "LsmDb":
        """Materialize a DB from a checkpoint + transferred file contents."""
        storage = storage if storage is not None else MemoryStorage()
        for name, data in files.items():
            if not storage.exists(name):
                storage.create(name)
                storage.append(name, data)
                storage.seal(name)
        db = cls(storage=storage, config=config)
        db._restore_from_checkpoint(checkpoint)
        return db

    def _restore_from_checkpoint(self, checkpoint: Checkpoint) -> None:
        self._cfs.clear()
        self._cf_by_id.clear()
        for cf_name in sorted(checkpoint.files):
            self.create_column_family(cf_name)
            family = self._cfs[cf_name]
            family.levels = []
            for level in checkpoint.files[cf_name]:
                tables = [SSTable.open(self.storage, name) for name in level]
                family.levels.append(tables)
            if not family.levels:
                family.levels = [[]]
        if "default" not in self._cfs:
            self.create_column_family("default")
        self._sequence = checkpoint.sequence
        self._next_file = self._max_file_number() + 1
        self._write_manifest()

    def _max_file_number(self) -> int:
        best = -1
        for family in self._cfs.values():
            for level in family.levels:
                for table in level:
                    try:
                        number = int(table.name.split("-")[-1].split(".")[0])
                    except ValueError:
                        continue
                    best = max(best, number)
        return best

    # -- manifest & recovery ------------------------------------------------------

    def _new_file_name(self, family: _ColumnFamily, level: int) -> str:
        name = f"sst-{family.name}-L{level}-{self._next_file:08d}.sst"
        self._next_file += 1
        return name

    def _write_manifest(self) -> None:
        snapshot = Checkpoint(
            sequence=self._sequence,
            files={
                name: [[t.name for t in level] for level in family.levels]
                for name, family in self._cfs.items()
            },
        )
        blob = snapshot.to_bytes()
        buf = bytearray()
        serde.write_u32(buf, serde.crc32_of(blob))
        serde.write_bytes(buf, blob)
        if self.storage.exists(_MANIFEST):
            self.storage.delete(_MANIFEST)
        self.storage.create(_MANIFEST)
        self.storage.append(_MANIFEST, bytes(buf))

    def _recover(self) -> None:
        raw = self.storage.read_all(_MANIFEST)
        crc, offset = serde.read_u32(raw, 0)
        blob, _ = serde.read_bytes(raw, offset)
        if serde.crc32_of(blob) != crc:
            raise StorageError("corrupt manifest")
        snapshot = Checkpoint.from_bytes(blob)
        self._restore_from_checkpoint(snapshot)
        # Replay the WAL into fresh memtables.
        if self.config.wal_enabled and self.storage.exists(_WAL):
            self._wal = WriteAheadLog(self.storage, _WAL)
            for cf_id, kind, key, value in self._wal.replay():
                family = self._cf_by_id.get(cf_id)
                if family is None:
                    continue
                if WriteAheadLog.kind_is_put(kind):
                    family.memtable.put(key, value)  # type: ignore[arg-type]
                else:
                    family.memtable.delete(key)

    # -- introspection -----------------------------------------------------------

    def total_entries_estimate(self, cf: str = "default") -> int:
        """Upper bound on live entries (duplicates across levels counted)."""
        family = self._cf(cf)
        total = len(family.memtable)
        for level in family.levels:
            total += sum(t.count for t in level)
        return total

    def level_shape(self, cf: str = "default") -> list[int]:
        """Tables per level — handy for compaction assertions in tests."""
        return [len(level) for level in self._cf(cf).levels]


def _prefix_end(prefix: bytes) -> bytes | None:
    """Smallest key greater than every key with ``prefix``."""
    buf = bytearray(prefix)
    while buf:
        if buf[-1] < 0xFF:
            buf[-1] += 1
            return bytes(buf)
        buf.pop()
    return None


def _merge_entries(sources: list, drop_tombstones: bool) -> list[tuple[bytes, object]]:
    """Merge sorted entry runs into one, in key order.

    Sources must be ordered newest-first: for duplicate keys only the
    entry from the *earliest* source survives. The merge is a dict
    overlay (oldest first, newer overwrite) and one sort — C-level work
    per entry; every caller consumes the whole range anyway.
    """
    newest: dict[bytes, object] = {}
    for source in reversed(sources):
        newest.update(source)
    return [
        (key, newest[key])
        for key in sorted(newest)
        if not (drop_tombstones and newest[key] is TOMBSTONE)
    ]
