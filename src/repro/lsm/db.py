"""The embedded LSM database: column families, compaction, checkpoints.

This is the surface :mod:`repro.state` programs against, shaped after the
slice of RocksDB the paper uses (§4.1.3):

- point ``get``/``put``/``delete`` per column family;
- ``prefix_scan`` (the ``countDistinct`` aggregator keeps per-value
  counts in an auxiliary column family and scans them by prefix);
- ``ingest_sorted``: a sorted run written straight to one table (how
  the state store writes its resident set back at a checkpoint);
- cheap **checkpoints**: flush memtables, snapshot the table list — all
  table files are immutable, so a checkpoint is just a list of names;
- **delta transfer**: given a previous checkpoint, only the files the
  receiver is missing need to be copied (the engine's stale-task
  recovery, §4.2).

Compaction is size-tiered over age-ordered runs. Every flush or
``ingest_sorted`` prepends one run (an immutable table) to its column
family's list, newest first. Only *adjacent* runs merge, so age order —
what lets a newer value shadow an older one — survives every merge: a
window grows from a run towards older ones while the next run is no
larger than what the window already holds or sits in its first run's
power-of-two size class, and is merged once it spans
``l0_compaction_threshold`` runs. A write therefore costs what it adds:
the oldest, biggest run is rewritten only once the runs above it have
grown to its size, and a family holds at most
``width * (1 + ceil(log2(total / smallest)))`` runs. Tombstones are
dropped only by a merge that includes the oldest run. A merge overlays
its runs' encoded records by key and writes them as they are (see
:mod:`repro.lsm.sstable`): no value is decoded or re-encoded.

The store keeps no log or manifest of its own: its storage is volatile,
and a task's state recovers one way — from its last checkpoint
(:meth:`LsmDb.import_checkpoint`) plus a replay of the input log tail.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.common import serde
from repro.common.errors import StorageError
from repro.common.storage import MemoryStorage, StorageBackend
from repro.lsm.memtable import TOMBSTONE, MemTable
from repro.lsm.sstable import KIND_DELETE, Records, SSTable


@dataclass
class LsmConfig:
    """Tuning knobs for the store.

    ``l0_compaction_threshold`` is the merge width: how many adjacent
    runs of similar size accumulate before they are merged into one
    (at least two).
    """

    memtable_flush_bytes: int = 256 * 1024
    l0_compaction_threshold: int = 4


@dataclass
class Checkpoint:
    """An immutable snapshot: per-CF table files, newest run first.

    The names are nested one list deeper than the run list needs: the
    encoding dates from leveled layouts (``[[L0...], [L1]]``), whose
    snapshots flatten to the same age order and still restore.
    """

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
        """Serialize (for the task checkpoint frame and recovery transfer)."""
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
    """One keyspace: a memtable over immutable runs, newest first."""

    def __init__(self, name: str, cf_id: int) -> None:
        self.name = name
        self.cf_id = cf_id
        self.memtable = MemTable(seed=cf_id)
        self.runs: list[SSTable] = []


@dataclass
class LsmStats:
    """Operation counters (read by the latency cost models and tests)."""

    puts: int = 0
    gets: int = 0
    deletes: int = 0
    memtable_hits: int = 0
    sstable_reads: int = 0
    bloom_skips: int = 0
    #: table filters built by a first probe (none are built on write)
    bloom_builds: int = 0
    flushes: int = 0
    compactions: int = 0


class LsmDb:
    """An embedded multi-column-family LSM store."""

    def __init__(self, storage: StorageBackend | None = None, config: LsmConfig | None = None) -> None:
        self._live_checkpoints: list[Checkpoint] = []
        self.storage = storage if storage is not None else MemoryStorage()
        self.config = config if config is not None else LsmConfig()
        self.stats = LsmStats()
        self._cfs: dict[str, _ColumnFamily] = {}
        self._next_file = 0
        self._sequence = 0
        self.create_column_family("default")

    # -- column families ---------------------------------------------------

    def create_column_family(self, name: str) -> None:
        """Create a keyspace; no-op if it already exists."""
        if name in self._cfs:
            return
        self._cfs[name] = _ColumnFamily(name, cf_id=len(self._cfs))

    def _cf(self, name: str) -> _ColumnFamily:
        try:
            return self._cfs[name]
        except KeyError:
            raise StorageError(f"unknown column family {name!r}") from None

    # -- mutations -----------------------------------------------------------

    def put(self, key: bytes, value: bytes, cf: str = "default") -> None:
        """Insert or overwrite a key."""
        family = self._cf(cf)
        family.memtable.put(key, value)
        self.stats.puts += 1
        self._maybe_flush(family)

    def delete(self, key: bytes, cf: str = "default") -> None:
        """Delete a key (write a tombstone)."""
        family = self._cf(cf)
        family.memtable.delete(key)
        self.stats.deletes += 1
        self._maybe_flush(family)

    def ingest_sorted(
        self, entries: Iterable[tuple[bytes, bytes]], cf: str = "default"
    ) -> None:
        """Bulk-write a strictly increasing run of ``(key, value)`` pairs.

        Equivalent to a :meth:`put` per pair followed by :meth:`flush`,
        in one sorted pass: the run is merged with its column family's
        memtable (the run is newer) straight into one table — no
        skip-list insert per key. The other memtables are flushed first,
        as :meth:`flush` would: stored checkpoints name tables, so tables
        are numbered in flush order on either path. An empty run is a
        no-op.
        """
        family = self._cf(cf)
        run = list(entries)
        if not run:
            return
        self.stats.puts += len(run)
        for other in self._cfs.values():
            if other is not family:
                self._flush_family(other)
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
        for table in family.runs:
            if not table.might_contain(key):
                self.stats.bloom_skips += 1
                continue
            self.stats.sstable_reads += 1
            found = table.get(key)
            if found is not None:
                return None if found is TOMBSTONE else found  # type: ignore[return-value]
        return None

    def scan(self, start: bytes | None = None, end: bytes | None = None, cf: str = "default"):
        """Yield live ``(key, value)`` pairs with ``start <= key < end``.

        Sources are merged newest-first so shadowed versions and deleted
        keys never surface.
        """
        family = self._cf(cf)
        sources: list = [family.memtable.scan(start, end)]
        sources.extend(table.entries(start, end) for table in family.runs)
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
        """Flush every non-empty memtable to a new run."""
        for family in self._cfs.values():
            self._flush_family(family)

    def _flush_family(
        self,
        family: _ColumnFamily,
        newer: list[tuple[bytes, bytes]] | None = None,
    ) -> None:
        """Write the memtable — under ``newer``, a sorted run that wins
        on equal keys — as the newest run (nothing when both are empty)."""
        if not newer:
            if not len(family.memtable):
                return
            entries = family.memtable.items()
        elif len(family.memtable):
            entries = _merge_entries(
                [newer, family.memtable.items()], drop_tombstones=False
            )
        else:
            entries = newer
        family.runs.insert(
            0,
            SSTable.write(self.storage, self._table_name(family), entries, self.stats),
        )
        family.memtable = MemTable(seed=family.cf_id)
        self.stats.flushes += 1
        self._compact(family)

    def _table_name(self, family: _ColumnFamily) -> str:
        name = f"sst-{family.name}-{self._next_file:08d}.sst"
        self._next_file += 1
        return name

    def _compact(self, family: _ColumnFamily) -> None:
        """Merge windows of adjacent, similar-sized runs until none is
        ``l0_compaction_threshold`` runs wide (see the module docstring).

        Left alone, every window stops within ``width`` runs at one of a
        larger size class than its first, which bounds the run count."""
        width = max(2, self.config.l0_compaction_threshold)
        runs = family.runs
        start = 0
        while start < len(runs):
            first_class = runs[start].count.bit_length()
            held, end = runs[start].count, start + 1
            while end < len(runs) and (
                runs[end].count <= held or runs[end].count.bit_length() == first_class
            ):
                held += runs[end].count
                end += 1
            if end - start < width:
                start += 1
                continue
            self._merge_runs(family, start, end)
            start = 0

    def _merge_runs(self, family: _ColumnFamily, start: int, end: int) -> None:
        """Replace the adjacent runs ``[start, end)`` by their merge (by
        nothing when every entry cancelled out)."""
        runs = family.runs
        stale = runs[start:end]
        merged = _merge_records(
            [table.records() for table in stale],
            # Nothing older is left for a tombstone to shadow.
            drop_tombstones=end == len(runs),
        )
        runs[start:end] = (
            [SSTable.write_records(self.storage, self._table_name(family), merged, self.stats)]
            if merged[0]
            else []
        )
        pinned = self._checkpointed_files()
        for table in stale:
            # Checkpoints may still reference the file; keep it if so.
            if table.name not in pinned and self.storage.exists(table.name):
                self.storage.delete(table.name)
        self.stats.compactions += 1

    # -- checkpoints ------------------------------------------------------------

    def _checkpointed_files(self) -> set[str]:
        """Every file a live checkpoint pins (one union per caller)."""
        files: set[str] = set()
        for checkpoint in self._live_checkpoints:
            files |= checkpoint.all_files()
        return files

    def _snapshot(self) -> Checkpoint:
        return Checkpoint(
            sequence=self._sequence,
            files={
                name: [[table.name for table in family.runs]]
                for name, family in self._cfs.items()
            },
        )

    def checkpoint(self) -> Checkpoint:
        """Flush and snapshot the table list; cheap because files are immutable."""
        self.flush()
        self._sequence += 1
        snapshot = self._snapshot()
        self._live_checkpoints.append(snapshot)
        return snapshot

    def release_checkpoint(self, checkpoint: Checkpoint) -> None:
        """Drop a checkpoint and garbage-collect files it pinned."""
        self._live_checkpoints = [
            cp for cp in self._live_checkpoints if cp.sequence != checkpoint.sequence
        ]
        live: set[str] = self._checkpointed_files()
        for family in self._cfs.values():
            live.update(table.name for table in family.runs)
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
        config: LsmConfig | None = None,
    ) -> "LsmDb":
        """Materialize a DB from a checkpoint + transferred file contents."""
        storage = MemoryStorage()
        for name, data in files.items():
            storage.create(name)
            storage.append(name, data)
            storage.seal(name)
        db = cls(storage=storage, config=config)
        db._restore_from_checkpoint(checkpoint)
        return db

    def _restore_from_checkpoint(self, checkpoint: Checkpoint) -> None:
        self._cfs.clear()
        for cf_name in sorted(checkpoint.files):
            self.create_column_family(cf_name)
            self._cfs[cf_name].runs = [
                SSTable.open(self.storage, name, stats=self.stats)
                for level in checkpoint.files[cf_name]
                for name in level
            ]
        if "default" not in self._cfs:
            self.create_column_family("default")
        self._sequence = checkpoint.sequence
        self._next_file = self._max_file_number() + 1

    def _max_file_number(self) -> int:
        """Highest table number in storage (every imported table)."""
        best = -1
        for name in self.storage.list():
            if not name.endswith(".sst"):
                continue
            try:
                number = int(name.split("-")[-1].split(".")[0])
            except ValueError:
                continue
            best = max(best, number)
        return best

    # -- introspection -----------------------------------------------------------

    def run_sizes(self, cf: str = "default") -> list[int]:
        """Entries per run, newest first — what compaction decides on."""
        return [table.count for table in self._cf(cf).runs]


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


def _merge_records(runs: list[Records], drop_tombstones: bool) -> Records:
    """Merge tables' encoded records into one run, in key order.

    :func:`_merge_entries` over already-encoded records: runs are
    ordered newest-first, and for duplicate keys only the record from
    the earliest run survives. A record is a pure function of its
    ``(key, value)``, so the merged table's bytes equal those
    :meth:`SSTable.write` would produce from the decoded entries.
    """
    newest: dict[bytes, bytes] = {}
    for keys, records in reversed(runs):
        newest.update(zip(keys, records))
    keys = sorted(newest)
    if drop_tombstones:
        keys = [key for key in keys if newest[key][0] != KIND_DELETE]
    return keys, list(map(newest.__getitem__, keys))
