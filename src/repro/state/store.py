"""Aggregation-state persistence on top of :class:`~repro.lsm.LsmDb`.

Key layout (column family ``aggstate``)::

    varint(metric_id) | varint(agg_index) | group-key bytes  ->  agg state

``countDistinct`` per-value counters (column family ``distinct``)::

    varint(metric_id) | varint(agg_index) | group-key | value  ->  varint count

"Each key represents a particular metric entity in a plan, and the
amount of keys accessed per event match the number of DAG's leaves"
(§4.1.3) — the store counts those logical accesses (``key_reads`` /
``key_writes``) so tests and the latency model can assert exactly that.

The paper's RocksDB puts a native memtable and block cache under every
access; this pure-Python LSM cannot, so the store keeps the *decoded*
aggregators of its working set **resident** and the LSM off the
per-event path. ``apply``/``peek`` are a dict hit, a fold and
``result()``; a miss loads the row from the LSM — or, while the LSM
cannot hold a row that is not resident, skips the lookup and starts a
fresh aggregator (below). Mutated entries are
serialised only at a **barrier** — before anything reads LSM rows
(:meth:`MetricStateStore.checkpoint`, ``export_metric_rows``,
``metric_values``), as one sorted bulk write — or one at a time when
the bounded set evicts them, so LSM contents stay a function of the
arrival sequence. State newer than the last checkpoint therefore lives
only in this process, as do the LSM's memtables, and the LSM keeps no
log of its own: recovery everywhere is checkpoint + log-tail replay.

``apply``/``peek`` address one leaf; the task plan's per-event program
addresses a :class:`Cell` — the resident aggregators of every leaf of
one group-by node for one key — and folds on them directly. A cell is
an index over the resident set, never a second home for state, and the
store keeps it honest two ways. :attr:`MetricStateStore.epoch` moves
whenever an entry *leaves* the resident set (eviction, ``forget_metric``
and therefore ``import_metric_rows``): a plan drops every cell it holds
when it sees the epoch move, so a folded aggregator is always the
resident one. (Past ``RESIDENT_CAP`` every load evicts, so the plan
re-indexes after each miss and runs at roughly the per-leaf price.)
And a cell folded since the last barrier sits in
:attr:`MetricStateStore.dirty_cells`; the store turns those into dirty
entries before it writes back, evicts or forgets anything, so dirtiness
is tracked per cell on the hot path and per entry everywhere else.
Loads still happen one leaf at a time through ``apply``/``peek``, in
the order they always did — load order is eviction order.

The miss path asks the LSM only when the answer can be a row. Every row
a barrier writes belongs to an entry that is resident, so the LSM can
hold a row that is not resident only once an entry has left the set
(eviction, ``forget_metric`` and therefore ``import_metric_rows``) or
when the store was built over a db that already held rows (``restore``).
Until then a miss creates a fresh aggregator without a ``db.get`` —
which, besides the lookup, would build the bloom filter of every table
it probed.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Sequence

from repro.aggregates.base import Aggregator, AuxStore
from repro.aggregates.registry import create_aggregator
from repro.common import serde
from repro.events.event import Event
from repro.lsm.db import Checkpoint, LsmConfig, LsmDb

_CF_STATE = "aggstate"
_CF_DISTINCT = "distinct"

#: Resident aggregators per store. The per-event gain holds while a
#: task's (aggregations x live group keys) working set fits; past it the
#: oldest-loaded entry is evicted (written back when dirty) per load.
RESIDENT_CAP = 32_768


def encode_group_key(values: Sequence[Any]) -> bytes:
    """Stable byte encoding of a group-by key tuple."""
    buf = bytearray()
    serde.write_varint(buf, len(values))
    for value in values:
        serde.write_value(buf, value)
    return bytes(buf)


def decode_group_key(data: bytes) -> tuple:
    """Inverse of :func:`encode_group_key`."""
    count, offset = serde.read_varint(data, 0)
    values = []
    for _ in range(count):
        value, offset = serde.read_value(data, offset)
        values.append(value)
    return tuple(values)


class LsmAuxStore(AuxStore):
    """Aux counters scoped to one (metric, aggregation, entity) prefix."""

    def __init__(self, db: LsmDb, prefix: bytes) -> None:
        self._db = db
        self._prefix = prefix

    def _key(self, suffix: bytes) -> bytes:
        return self._prefix + suffix

    def increment(self, key: bytes, delta: int) -> int:
        full_key = self._key(key)
        raw = self._db.get(full_key, cf=_CF_DISTINCT)
        current = serde.read_varint(raw, 0)[0] if raw is not None else 0
        value = current + delta
        if value < 0:
            raise ValueError(f"distinct counter went negative for {key!r}")
        if value == 0:
            self._db.delete(full_key, cf=_CF_DISTINCT)
        else:
            buf = bytearray()
            serde.write_varint(buf, value)
            self._db.put(full_key, bytes(buf), cf=_CF_DISTINCT)
        return value

    def get(self, key: bytes) -> int:
        raw = self._db.get(self._key(key), cf=_CF_DISTINCT)
        return serde.read_varint(raw, 0)[0] if raw is not None else 0

    def count_keys(self) -> int:
        return sum(1 for _ in self._db.prefix_scan(self._prefix, cf=_CF_DISTINCT))


class Cell:
    """The resident aggregators of one group-by node's leaves for one key.

    Built by the task plan from aggregators the store handed out, valid
    while the store's ``epoch`` stands (see the module docstring). The
    plan folds on ``aggregators`` directly and stamps ``turn`` with the
    event that did; ``dirty`` says the cell is already queued in
    ``MetricStateStore.dirty_cells``.
    """

    __slots__ = ("group_key", "leaves", "aggregators", "dirty", "turn")

    def __init__(
        self,
        group_key: bytes,
        leaves: tuple[tuple[int, int], ...],
        aggregators: tuple[Aggregator, ...],
        turn: int = 0,
    ) -> None:
        self.group_key = group_key
        #: ``(metric_id, agg_index)`` per leaf, shared by the node's cells
        self.leaves = leaves
        self.aggregators = aggregators
        self.dirty = False
        self.turn = turn


class MetricStateStore:
    """Aggregator states: a bounded resident working set over the LSM."""

    def __init__(
        self,
        db: LsmDb | None = None,
        config: LsmConfig | None = None,
        resident_cap: int | None = None,
    ) -> None:
        self.db = db if db is not None else LsmDb(config=config)
        self.db.create_column_family(_CF_STATE)
        self.db.create_column_family(_CF_DISTINCT)
        self.key_reads = 0
        self.key_writes = 0
        self._resident_cap = RESIDENT_CAP if resident_cap is None else resident_cap
        if self._resident_cap < 1:
            raise ValueError(f"resident cap must be positive: {self._resident_cap}")
        #: (metric_id, agg_index, group_key) -> (state key, decoded
        #: aggregator), in load order (the eviction order).
        self._resident: OrderedDict[
            tuple[int, int, bytes], tuple[bytes, Aggregator]
        ] = OrderedDict()
        #: resident entries mutated since they were last written back
        self._dirty: set[tuple[int, int, bytes]] = set()
        #: Moves whenever an entry leaves the resident set: cells built
        #: under an older epoch may hold aggregators that are gone.
        self.epoch = 0
        #: Cells folded since the last barrier (the plan appends, setting
        #: ``cell.dirty``); drained into ``_dirty`` by :meth:`_settle_cells`.
        self.dirty_cells: list[Cell] = []
        #: False while every row in the LSM is resident, so a miss has no
        #: row to load; once true, stays true (see the module docstring).
        self._lsm_may_hold_nonresident = bool(
            self.db.stats.puts or self.db.run_sizes(_CF_STATE)
        )

    # -- key plumbing ------------------------------------------------------------

    @staticmethod
    def state_key(metric_id: int, agg_index: int, group_key: bytes) -> bytes:
        """The primary state key for one aggregation entity."""
        buf = bytearray()
        serde.write_varint(buf, metric_id)
        serde.write_varint(buf, agg_index)
        buf.extend(group_key)
        return bytes(buf)

    # -- the resident set ----------------------------------------------------------

    def _aggregator(
        self, entry: tuple[int, int, bytes], agg_name: str
    ) -> Aggregator:
        """The resident aggregator of ``entry``, loaded on a miss."""
        held = self._resident.get(entry)
        if held is not None:
            return held[1]
        aggregator = create_aggregator(agg_name)
        key = self.state_key(*entry)
        if aggregator.needs_aux:
            aggregator.bind_aux(LsmAuxStore(self.db, key))
        if self._lsm_may_hold_nonresident:
            raw = self.db.get(key, cf=_CF_STATE)
            if raw is not None:
                aggregator.state_from_bytes(raw)
        self._resident[entry] = (key, aggregator)
        if len(self._resident) > self._resident_cap:
            self._settle_cells()
            self.epoch += 1
            self._lsm_may_hold_nonresident = True
            victim, (victim_key, evicted) = self._resident.popitem(last=False)
            if victim in self._dirty:
                self._dirty.remove(victim)
                self.db.put(victim_key, evicted.state_to_bytes(), cf=_CF_STATE)
        return aggregator

    def resident(
        self, metric_id: int, agg_index: int, group_key: bytes
    ) -> Aggregator | None:
        """The entry's aggregator if it is resident; never loads."""
        held = self._resident.get((metric_id, agg_index, group_key))
        return None if held is None else held[1]

    def _settle_cells(self) -> None:
        """Turn the dirty cells into dirty entries. Runs before anything
        reads ``_dirty`` or removes a resident entry, while every queued
        cell still indexes resident aggregators."""
        dirty = self._dirty
        for cell in self.dirty_cells:
            group_key = cell.group_key
            for metric_id, agg_index in cell.leaves:
                dirty.add((metric_id, agg_index, group_key))
            cell.dirty = False
        self.dirty_cells.clear()

    def _write_back(self) -> None:
        """Barrier: serialise every dirty entry into the LSM, sorted."""
        self._settle_cells()
        if not self._dirty:
            return
        rows = sorted(
            (key, aggregator.state_to_bytes())
            for key, aggregator in map(self._resident.__getitem__, self._dirty)
        )
        self.db.ingest_sorted(rows, cf=_CF_STATE)
        self._dirty.clear()

    def apply(
        self,
        metric_id: int,
        agg_index: int,
        agg_name: str,
        group_key: bytes,
        enters: Sequence[tuple[Any, Event]],
        exits: Sequence[tuple[Any, Event]],
    ) -> Any:
        """Fold enters/exits into the entry's state, return the new result."""
        entry = (metric_id, agg_index, group_key)
        aggregator = self._aggregator(entry, agg_name)
        self._dirty.add(entry)
        aggregator.update_batch(enters, exits)
        self.key_reads += 1
        self.key_writes += 1
        return aggregator.result()

    def peek(self, metric_id: int, agg_index: int, agg_name: str, group_key: bytes) -> Any:
        """Read the current result without mutating state."""
        self.key_reads += 1
        return self._aggregator((metric_id, agg_index, group_key), agg_name).result()

    # -- metric-scoped rows (backfill splice, as-of reads) ---------------------------

    @staticmethod
    def metric_prefix(metric_id: int) -> bytes:
        """The key prefix every row of one metric shares (both CFs)."""
        buf = bytearray()
        serde.write_varint(buf, metric_id)
        return bytes(buf)

    def export_metric_rows(
        self, metric_id: int
    ) -> tuple[list[tuple[bytes, bytes]], list[tuple[bytes, bytes]]]:
        """Every live ``(key, value)`` row of one metric: aggregator
        states and countDistinct counters. The rows are the transferable
        form of a backfilled metric's state."""
        self._write_back()
        prefix = self.metric_prefix(metric_id)
        state_rows = list(self.db.prefix_scan(prefix, cf=_CF_STATE))
        distinct_rows = list(self.db.prefix_scan(prefix, cf=_CF_DISTINCT))
        return state_rows, distinct_rows

    def forget_metric(self, metric_id: int) -> None:
        """Drop one metric's resident entries without writing them back
        (the metric is going away, or its rows are being replaced)."""
        self._settle_cells()
        self.epoch += 1
        self._lsm_may_hold_nonresident = True
        for entry in [e for e in self._resident if e[0] == metric_id]:
            del self._resident[entry]
            self._dirty.discard(entry)

    def import_metric_rows(
        self,
        metric_id: int,
        state_rows: Sequence[tuple[bytes, bytes]],
        distinct_rows: Sequence[tuple[bytes, bytes]],
    ) -> None:
        """Replace one metric's rows wholesale with exported rows."""
        self.forget_metric(metric_id)
        prefix = self.metric_prefix(metric_id)
        for cf in (_CF_STATE, _CF_DISTINCT):
            for key, _ in list(self.db.prefix_scan(prefix, cf=cf)):
                self.db.delete(key, cf=cf)
        for key, value in state_rows:
            self.db.put(key, value, cf=_CF_STATE)
        for key, value in distinct_rows:
            self.db.put(key, value, cf=_CF_DISTINCT)

    def metric_values(
        self, metric_id: int, agg_specs: Sequence[tuple[int, str, str]]
    ) -> dict[tuple, dict[str, Any]]:
        """Current results of one metric for every group key it holds.

        ``agg_specs`` is ``(agg_index, agg_name, display_name)`` per
        aggregation, in reply-column order. Decodes the written-back
        rows directly, so reading every key leaves the resident set as
        it was.
        """
        self._write_back()
        states: dict[bytes, dict[int, bytes]] = {}
        for key, raw in self.db.prefix_scan(self.metric_prefix(metric_id), cf=_CF_STATE):
            _, offset = serde.read_varint(key, 0)  # metric id
            agg_index, offset = serde.read_varint(key, offset)
            states.setdefault(bytes(key[offset:]), {})[agg_index] = raw
        values: dict[tuple, dict[str, Any]] = {}
        for group_key in sorted(states):
            row: dict[str, Any] = {}
            for agg_index, agg_name, display_name in agg_specs:
                aggregator = create_aggregator(agg_name)
                raw = states[group_key].get(agg_index)
                if raw is not None:
                    aggregator.state_from_bytes(raw)
                row[display_name] = aggregator.result()
            values[decode_group_key(group_key)] = row
        return values

    # -- checkpoints -----------------------------------------------------------------

    def checkpoint(self) -> Checkpoint:
        """Write back the resident set and snapshot the LSM table list."""
        self._write_back()
        return self.db.checkpoint()

    def export_checkpoint(self, checkpoint: Checkpoint, exclude: set[str] | None = None) -> dict[str, bytes]:
        """File payloads for recovery transfer (delta-aware)."""
        return self.db.export_checkpoint(checkpoint, exclude=exclude)

    @classmethod
    def restore(
        cls,
        checkpoint: Checkpoint,
        files: dict[str, bytes],
        config: LsmConfig | None = None,
    ) -> "MetricStateStore":
        """Materialize a store from a checkpoint + transferred files
        (nothing resident: entries load back as they are touched)."""
        db = LsmDb.import_checkpoint(checkpoint, files, config=config)
        return cls(db=db)
