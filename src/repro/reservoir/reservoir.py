"""The event reservoir facade (paper §4.1.1).

Responsibilities:

- **Append path**: dedup by event id against in-memory chunks; apply the
  out-of-order policy against closed data; insert into the open (or a
  transition) chunk; close/persist chunks when they reach size.
- **Storage layout**: closed chunks are serialized, compressed and
  appended to append-only segment files that seal at a fixed chunk
  count; an in-memory timestamp index supports random reads (backfill).
- **Iterators**: forward cursors for window heads/tails, fed through an
  eagerly-prefetching chunk cache.
- **Checkpoint/restore**: the persisted files plus a small metadata blob
  (index, in-memory chunks, dedup ids) reconstruct the reservoir
  exactly; the engine replays newer events from the messaging layer.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass
from typing import Sequence

from repro.common import serde
from repro.common.compression import Codec, codec_by_name
from repro.common.errors import SchemaError, SerdeError, StorageError
from repro.common.storage import MemoryStorage, StorageBackend
from repro.events.event import Event
from repro.events.schema import SchemaRegistry
from repro.reservoir.cache import ChunkCache
from repro.reservoir.chunk import Chunk, ChunkState
from repro.reservoir.index import ChunkMeta, ReservoirIndex
from repro.reservoir.iterator import ReservoirIterator


class OutOfOrderPolicy(enum.Enum):
    """What to do with events older than the last closed chunk (§4.1.1)."""

    DISCARD = "discard"
    REWRITE = "rewrite"


class AppendStatus(enum.Enum):
    """Outcome of :meth:`EventReservoir.append`."""

    APPENDED = "appended"
    DUPLICATE = "duplicate"
    DISCARDED = "discarded"
    REWRITTEN = "rewritten"


class AppendResult:
    """The stored event (possibly rewritten) and what happened to it.

    A plain slotted class rather than a dataclass: one instance is built
    per appended event, so construction cost is hot-path cost.
    """

    __slots__ = ("status", "event")

    def __init__(self, status: AppendStatus, event: Event | None) -> None:
        self.status = status
        self.event = event

    @property
    def stored(self) -> bool:
        """True when the event (possibly rewritten) entered the reservoir."""
        return self.status in (AppendStatus.APPENDED, AppendStatus.REWRITTEN)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AppendResult):
            return NotImplemented
        return self.status is other.status and self.event == other.event

    def __hash__(self) -> int:
        return hash((self.status, self.event))

    def __repr__(self) -> str:
        return f"AppendResult(status={self.status!r}, event={self.event!r})"


@dataclass
class ReservoirConfig:
    """Reservoir tuning knobs."""

    chunk_max_events: int = 512
    file_max_chunks: int = 64
    cache_capacity: int = 220  # the paper's Figure 9b setting
    codec: str = "zlib:6"
    ooo_policy: OutOfOrderPolicy = OutOfOrderPolicy.REWRITE
    transition_grace_ms: int = 0
    prefetch: bool = True


@dataclass
class ReservoirStats:
    """Counters for tests, benches and the latency cost model."""

    appended: int = 0
    duplicates: int = 0
    ooo_discarded: int = 0
    ooo_rewritten: int = 0
    ooo_inserts: int = 0  # late events inserted into in-memory chunks
    chunks_closed: int = 0
    files_sealed: int = 0
    demand_chunk_loads: int = 0
    prefetch_chunk_loads: int = 0


class EventReservoir:
    """Disk-backed event store with shared window iterators."""

    def __init__(
        self,
        schema_registry: SchemaRegistry,
        storage: StorageBackend | None = None,
        config: ReservoirConfig | None = None,
    ) -> None:
        self.registry = schema_registry
        self.storage = storage if storage is not None else MemoryStorage()
        self.config = config if config is not None else ReservoirConfig()
        self._codec: Codec = codec_by_name(self.config.codec)
        self.cache = ChunkCache(self.config.cache_capacity)
        self.index = ReservoirIndex()
        self.stats = ReservoirStats()
        self._iterators: list[ReservoirIterator] = []
        self._dedup: dict[str, int] = {}  # event id -> chunk id (in-memory only)
        self._transitions: list[Chunk] = []
        self._next_chunk_id = 0
        self._file_seq = 0
        self._chunks_in_file = 0
        self._current_file: str | None = None
        self._max_seen_ts = -1
        self._open = self._new_open_chunk()

    # -- append path -----------------------------------------------------------

    def append(self, event: Event) -> AppendResult:
        """Store an event, applying dedup and the out-of-order policy."""
        self.registry.current().validate_event(event)
        self._roll_open_chunk_on_schema_change()
        if event.event_id in self._dedup:
            self.stats.duplicates += 1
            return AppendResult(AppendStatus.DUPLICATE, None)
        if event.timestamp > self._max_seen_ts:
            self._max_seen_ts = event.timestamp
            self._expire_transitions()

        status = AppendStatus.APPENDED
        horizon = self._closed_horizon()
        if event.timestamp <= horizon:
            if self.config.ooo_policy is OutOfOrderPolicy.DISCARD:
                self.stats.ooo_discarded += 1
                return AppendResult(AppendStatus.DISCARDED, None)
            event = event.with_timestamp(self._rewrite_target(horizon))
            status = AppendStatus.REWRITTEN
            self.stats.ooo_rewritten += 1

        chunk = self._target_chunk(event.timestamp)
        position = chunk.append(event)
        at_tail = chunk is self._open and position == len(chunk.events) - 1
        if not at_tail:
            self.stats.ooo_inserts += 1
            self._fixup_iterators(chunk.chunk_id, position, event)
        self._dedup[event.event_id] = chunk.chunk_id
        self.stats.appended += 1
        if chunk is self._open and len(chunk) >= self.config.chunk_max_events:
            self._close_open_chunk()
        return AppendResult(status, event)

    def append_batch(self, events: Sequence[Event]) -> list[AppendResult]:
        """Store a batch; equivalent to ``[self.append(e) for e in events]``.

        The per-event bookkeeping is amortized across the batch: the
        schema-roll check runs once (the registry cannot change
        mid-batch), and runs of fresh in-order events — timestamp at or
        above ``max_seen_ts`` (equal-timestamp tie groups included), id
        unseen — skip the horizon/out-of-order/chunk-targeting probes
        entirely and bulk-extend the open chunk's tail, with one
        expiry/flush decision per batch. Events that are late,
        duplicated, or tie a timestamp something already sealed at fall
        back to :meth:`append`, so results stay byte-identical to the
        per-event path for every input. With an out-of-order grace
        period the per-event expiry cadence is kept (transition chunks
        must persist mid-batch exactly when the per-event path would
        persist them), amortizing only the schema and targeting checks.
        """
        results: list[AppendResult] = []
        if not events:
            return results
        self._roll_open_chunk_on_schema_change()
        if self.config.transition_grace_ms == 0 and not self._transitions:
            self._append_batch_bulk(events, results)
        else:
            self._append_batch_graced(events, results)
        return results

    def _append_batch_bulk(
        self, events: Sequence[Event], results: list[AppendResult]
    ) -> None:
        """Batch append when no transition chunks can exist (grace 0)."""
        schema = self.registry.current()
        chunk_max = self.config.chunk_max_events
        dedup = self._dedup
        stats = self.stats
        appended_status = AppendStatus.APPENDED
        index, count = 0, len(events)
        while index < count:
            event = events[index]
            timestamp = event.timestamp
            # Equal-timestamp ties ride the slab path too: a tie lands
            # at the open chunk's tail exactly like a fresh event, as
            # long as nothing sealed at (or rewrote past) its timestamp.
            # A fresh timestamp can still sit at or below the closed
            # horizon when rewritten events sealed a chunk *ahead* of
            # ``max_seen_ts``; those — and ties under a rewritten-ahead
            # open tail — take the per-event path so the out-of-order
            # policy applies exactly as append() would.
            open_events = self._open.events
            tie_at_tail = timestamp == self._max_seen_ts and (
                not open_events or open_events[-1].timestamp <= timestamp
            )
            if (
                (timestamp <= self._max_seen_ts and not tie_at_tail)
                or event.event_id in dedup
                or timestamp <= self._closed_horizon()
            ):
                results.append(self.append(event))
                index += 1
                continue
            # Scan ahead: the longest run of fresh, non-decreasing,
            # unique events starting here (tie groups stay in the run).
            run_end = index + 1
            last_ts = timestamp
            run_ids = {event.event_id}
            while run_end < count:
                candidate = events[run_end]
                next_ts = candidate.timestamp
                next_id = candidate.event_id
                if next_ts < last_ts or next_id in dedup or next_id in run_ids:
                    break
                last_ts = next_ts
                run_ids.add(next_id)
                run_end += 1
            run = events[index:run_end] if (index, run_end) != (0, count) else events
            index = run_end
            # Apply the run in open-chunk-sized slabs: bulk validate,
            # bulk extend, one close decision per slab.
            start, run_len = 0, len(run)
            while start < run_len:
                if run[start].timestamp <= self._closed_horizon():
                    # A chunk sealed mid-run exactly at a tie timestamp:
                    # the remaining tie members are below the horizon
                    # now and must follow the out-of-order policy.
                    for late in run[start:]:
                        results.append(self.append(late))
                    break
                open_chunk = self._open
                open_events = open_chunk.events
                space = chunk_max - len(open_events)
                stop = min(start + space, run_len) if space > 0 else start + 1
                slab = run[start:stop] if (start, stop) != (0, run_len) else run
                try:
                    schema.validate_events(slab)
                except SchemaError:
                    # Mirror per-event state on failure: append() stores
                    # the valid prefix, then raises at the bad event.
                    for unchecked in slab:
                        results.append(self.append(unchecked))
                    raise  # pragma: no cover — append() raised above
                open_chunk.extend_tail(slab)
                chunk_id = open_chunk.chunk_id
                dedup.update((e.event_id, chunk_id) for e in slab)
                self._max_seen_ts = slab[-1].timestamp
                stats.appended += len(slab)
                results.extend(AppendResult(appended_status, e) for e in slab)
                if len(open_events) >= chunk_max:
                    self._close_open_chunk()
                start = stop

    def _append_batch_graced(
        self, events: Sequence[Event], results: list[AppendResult]
    ) -> None:
        """Batch append preserving the per-event transition-expiry cadence."""
        schema = self.registry.current()
        chunk_max = self.config.chunk_max_events
        dedup = self._dedup
        stats = self.stats
        open_chunk = self._open
        for event in events:
            timestamp = event.timestamp
            if (
                timestamp <= self._max_seen_ts
                or event.event_id in dedup
                or timestamp <= self._closed_horizon()
            ):
                results.append(self.append(event))
                open_chunk = self._open
                continue
            schema.validate_event(event)
            self._max_seen_ts = timestamp
            if self._transitions:
                self._expire_transitions()
            open_chunk.append_tail(event)
            dedup[event.event_id] = open_chunk.chunk_id
            stats.appended += 1
            if len(open_chunk.events) >= chunk_max:
                self._close_open_chunk()
                open_chunk = self._open
            results.append(AppendResult(AppendStatus.APPENDED, event))

    def _roll_open_chunk_on_schema_change(self) -> None:
        current = self.registry.current()
        if self._open.schema_id != current.schema_id:
            if len(self._open):
                self._close_open_chunk()
            else:
                self._open.schema_id = current.schema_id

    def _closed_horizon(self) -> int:
        """Newest timestamp already sealed into immutable storage."""
        if len(self.index) == 0:
            return -1
        return self.index.get(len(self.index) - 1).last_ts

    def _rewrite_target(self, horizon: int) -> int:
        """Rewrite a too-late timestamp to the first in-memory one (§4.1.1)."""
        for chunk in self._transitions:
            if len(chunk):
                return max(chunk.first_ts, horizon + 1)
        if len(self._open):
            return max(self._open.first_ts, horizon + 1)
        return horizon + 1

    def _target_chunk(self, timestamp: int) -> Chunk:
        """The in-memory chunk whose time range should hold ``timestamp``."""
        for chunk in self._transitions:
            if len(chunk) and timestamp <= chunk.last_ts:
                return chunk
        if len(self._open) and timestamp <= self._open.last_ts:
            return self._open
        return self._open

    def _fixup_iterators(self, chunk_id: int, position: int, event: Event) -> None:
        for iterator in self._iterators:
            iterator.note_insert(chunk_id, position, event)

    # -- chunk life-cycle --------------------------------------------------------

    def _new_open_chunk(self) -> Chunk:
        chunk = Chunk(self._next_chunk_id, self.registry.current().schema_id)
        self._next_chunk_id += 1
        return chunk

    def _close_open_chunk(self) -> None:
        chunk = self._open
        self._open = self._new_open_chunk()
        if not len(chunk):
            return
        if self.config.transition_grace_ms > 0:
            chunk.mark_transition(self._max_seen_ts)
            self._transitions.append(chunk)
        else:
            self._persist_chunk(chunk)

    def _expire_transitions(self) -> None:
        grace = self.config.transition_grace_ms
        while self._transitions:
            chunk = self._transitions[0]
            if chunk.closed_at_ms is None:
                break
            if self._max_seen_ts - chunk.closed_at_ms < grace:
                break
            self._transitions.pop(0)
            self._persist_chunk(chunk)

    def flush(self) -> None:
        """Force-close and persist every in-memory chunk (shutdown path)."""
        for chunk in self._transitions:
            self._persist_chunk(chunk)
        self._transitions.clear()
        if len(self._open):
            chunk = self._open
            self._open = self._new_open_chunk()
            self._persist_chunk(chunk)

    def _persist_chunk(self, chunk: Chunk) -> None:
        chunk.mark_closed()
        schema = self.registry.get(chunk.schema_id)
        payload = chunk.serialize(schema, self._codec)
        record = bytearray()
        serde.write_frame(record, payload)
        file_name = self._file_for_next_chunk()
        offset = self.storage.append(file_name, record)
        self.index.add(
            ChunkMeta(
                chunk_id=chunk.chunk_id,
                file_name=file_name,
                offset=offset,
                length=len(record),
                first_ts=chunk.first_ts,
                last_ts=chunk.last_ts,
                count=len(chunk),
            )
        )
        # Keep the freshly closed chunk warm: tail iterators of short
        # windows will reach it soon. Iterators only move forward, so a
        # chunk below the lowest of them is never read by one again.
        self.cache.put_demand(chunk.chunk_id, chunk.events)
        self.cache.drop_below(
            min(
                (iterator.chunk_id for iterator in self._iterators),
                default=self._open.chunk_id,
            )
        )
        for event in chunk.events:
            self._dedup.pop(event.event_id, None)
        self.stats.chunks_closed += 1
        self._chunks_in_file += 1
        if self._chunks_in_file >= self.config.file_max_chunks:
            self.storage.seal(file_name)
            self.stats.files_sealed += 1
            self._current_file = None
            self._chunks_in_file = 0

    def _file_for_next_chunk(self) -> str:
        if self._current_file is None:
            self._current_file = f"res-{self._file_seq:06d}.seg"
            self._file_seq += 1
            self.storage.create(self._current_file)
        return self._current_file

    # -- chunk access (iterator support) ----------------------------------------

    def has_event_id(self, event_id: str) -> bool:
        """True when ``event_id`` is a known (in-memory) duplicate."""
        return event_id in self._dedup

    def chunk_can_grow(self, chunk_id: int) -> bool:
        """True for the open chunk (it still receives in-order appends)."""
        return chunk_id == self._open.chunk_id

    def chunk_exists(self, chunk_id: int) -> bool:
        """True when ``chunk_id`` refers to persisted or in-memory data."""
        if chunk_id == self._open.chunk_id:
            return True
        if any(c.chunk_id == chunk_id for c in self._transitions):
            return True
        return self.index.position_of_chunk(chunk_id) is not None

    def chunk_events_for_iterator(self, chunk_id: int) -> list[Event] | None:
        """Resolve chunk events for a cursor, paging + prefetching.

        In-memory chunks are returned directly; persisted chunks go
        through the cache (a miss is a demand load) and entering a
        persisted chunk prefetches the next one.
        """
        if chunk_id == self._open.chunk_id:
            return self._open.events
        for chunk in self._transitions:
            if chunk.chunk_id == chunk_id:
                return chunk.events
        position = self.index.position_of_chunk(chunk_id)
        if position is None:
            return None
        events = self.cache.get(chunk_id)
        if events is None:
            events = self._load_chunk(position)
            self.cache.put_demand(chunk_id, events)
            self.stats.demand_chunk_loads += 1
        if self.config.prefetch:
            self._prefetch(position + 1)
        return events

    def _prefetch(self, position: int) -> None:
        if position >= len(self.index):
            return
        meta = self.index.get(position)
        if self.cache.peek(meta.chunk_id):
            return
        events = self._load_chunk(position)
        self.cache.put_prefetch(meta.chunk_id, events)
        self.stats.prefetch_chunk_loads += 1

    def _load_chunk(self, position: int) -> list[Event]:
        meta = self.index.get(position)
        record = self.storage.read(meta.file_name, meta.offset, meta.length)
        try:
            payload, _ = serde.read_frame(record, 0)
        except SerdeError as exc:
            raise StorageError(
                f"corrupt chunk {meta.chunk_id} in {meta.file_name}@{meta.offset}"
            ) from exc
        chunk = Chunk.deserialize(payload, self.registry.get)
        return chunk.events

    # -- iterators ---------------------------------------------------------------

    def new_iterator(self, offset_ms: int = 0, name: str = "") -> ReservoirIterator:
        """Create a cursor at the current frontier (end of stream)."""
        iterator = ReservoirIterator(
            self,
            offset_ms,
            chunk_id=self._open.chunk_id,
            index=len(self._open.events),
            name=name,
        )
        self._iterators.append(iterator)
        return iterator

    def new_iterator_at(self, timestamp: int, offset_ms: int = 0, name: str = "") -> ReservoirIterator:
        """Create a cursor positioned at the first event with ts > ``timestamp``.

        Random positioning powers metric backfill (tail cursor placed in
        history) via the timestamp index.
        """
        chunk_id, index = self.position_after(timestamp)
        iterator = ReservoirIterator(self, offset_ms, chunk_id, index, name=name)
        self._iterators.append(iterator)
        return iterator

    def release_iterator(self, iterator: ReservoirIterator) -> None:
        """Unregister a cursor (stops missed-queue fixups for it)."""
        try:
            self._iterators.remove(iterator)
        except ValueError:
            pass

    @property
    def iterator_count(self) -> int:
        """Number of live cursors (Figure 9b's x-axis)."""
        return len(self._iterators)

    # -- random reads ---------------------------------------------------------------

    def position_after(self, timestamp: int) -> tuple[int, int]:
        """The ``(chunk_id, index)`` of the first event with ts > ``timestamp``."""
        position = self.index.first_position_covering(timestamp + 1)
        while position < len(self.index):
            meta = self.index.get(position)
            if meta.last_ts > timestamp:
                events = self.cache.get(meta.chunk_id)
                if events is None:
                    events = self._load_chunk(position)
                    self.cache.put_demand(meta.chunk_id, events)
                    self.stats.demand_chunk_loads += 1
                idx = bisect.bisect_right([e.timestamp for e in events], timestamp)
                if idx < len(events):
                    return (meta.chunk_id, idx)
            position += 1
        for chunk in self._transitions + [self._open]:
            if len(chunk) and chunk.last_ts > timestamp:
                idx = bisect.bisect_right(
                    [e.timestamp for e in chunk.events], timestamp
                )
                if idx < len(chunk.events):
                    return (chunk.chunk_id, idx)
        return (self._open.chunk_id, len(self._open.events))

    def read_range(self, start_exclusive: int, end_inclusive: int) -> list[Event]:
        """All stored events with ``start_exclusive < ts <= end_inclusive``.

        This is the backfill read path; it bypasses iterator state but
        shares the cache.
        """
        result: list[Event] = []
        chunk_id, index = self.position_after(start_exclusive)
        while True:
            events = self.chunk_events_for_iterator(chunk_id)
            if events is None:
                break
            while index < len(events):
                event = events[index]
                if event.timestamp > end_inclusive:
                    return result
                result.append(event)
                index += 1
            if self.chunk_can_grow(chunk_id) or not self.chunk_exists(chunk_id + 1):
                break
            chunk_id += 1
            index = 0
        return result

    # -- introspection -----------------------------------------------------------------

    @property
    def total_events(self) -> int:
        """Total stored events (persisted + in-memory)."""
        return (
            self.index.total_events()
            + sum(len(c) for c in self._transitions)
            + len(self._open)
        )

    @property
    def memory_chunk_count(self) -> int:
        """In-memory chunks (open + transitions), excluding cache."""
        return 1 + len(self._transitions)

    @property
    def max_seen_ts(self) -> int:
        """Largest event timestamp observed (event-time 'now')."""
        return self._max_seen_ts

    def file_names(self) -> list[str]:
        """All segment files backing this reservoir."""
        names = {meta.file_name for meta in self.index}
        return sorted(names)

    # -- checkpoint / restore ---------------------------------------------------------

    def checkpoint_metadata(self) -> bytes:
        """Small blob: index + in-memory chunks + counters + dedup ids.

        Together with the (immutable) segment files this reconstructs
        the reservoir exactly; the engine pairs it with a message offset
        so newer events replay from the messaging layer.
        """
        buf = bytearray()
        serde.write_bytes(buf, self.registry.to_bytes())
        serde.write_bytes(buf, self.index.to_bytes())
        serde.write_varint(buf, self._next_chunk_id)
        serde.write_varint(buf, self._file_seq)
        serde.write_varint(buf, self._chunks_in_file)
        serde.write_str(buf, self._current_file or "")
        serde.write_signed_varint(buf, self._max_seen_ts)
        in_memory = list(self._transitions) + ([self._open] if len(self._open) else [])
        serde.write_varint(buf, len(in_memory))
        for chunk in in_memory:
            schema = self.registry.get(chunk.schema_id)
            serde.write_varint(buf, chunk.chunk_id)
            serde.write_varint(buf, 1 if chunk.state is ChunkState.TRANSITION else 0)
            serde.write_signed_varint(buf, chunk.closed_at_ms if chunk.closed_at_ms is not None else -1)
            serde.write_bytes(buf, chunk.serialize(schema, self._codec))
        serde.write_varint(buf, self._open.chunk_id)
        return bytes(buf)

    @classmethod
    def restore(
        cls,
        metadata: bytes,
        storage: StorageBackend,
        config: ReservoirConfig | None = None,
    ) -> "EventReservoir":
        """Rebuild a reservoir from checkpoint metadata + segment files."""
        offset = 0
        registry_blob, offset = serde.read_bytes(metadata, offset)
        registry = SchemaRegistry.from_bytes(registry_blob)
        reservoir = cls(registry, storage=storage, config=config)
        index_blob, offset = serde.read_bytes(metadata, offset)
        reservoir.index = ReservoirIndex.from_bytes(index_blob)
        reservoir._next_chunk_id, offset = serde.read_varint(metadata, offset)
        reservoir._file_seq, offset = serde.read_varint(metadata, offset)
        reservoir._chunks_in_file, offset = serde.read_varint(metadata, offset)
        current_file, offset = serde.read_str(metadata, offset)
        reservoir._current_file = current_file or None
        reservoir._max_seen_ts, offset = serde.read_signed_varint(metadata, offset)
        chunk_count, offset = serde.read_varint(metadata, offset)
        in_memory: list[Chunk] = []
        for _ in range(chunk_count):
            _chunk_id, offset = serde.read_varint(metadata, offset)
            is_transition, offset = serde.read_varint(metadata, offset)
            closed_at, offset = serde.read_signed_varint(metadata, offset)
            payload, offset = serde.read_bytes(metadata, offset)
            chunk = Chunk.deserialize(payload, registry.get)
            chunk.state = (
                ChunkState.TRANSITION if is_transition else ChunkState.OPEN
            )
            chunk.closed_at_ms = closed_at if closed_at >= 0 else None
            in_memory.append(chunk)
        open_chunk_id, offset = serde.read_varint(metadata, offset)
        reservoir._transitions = [
            c for c in in_memory if c.state is ChunkState.TRANSITION
        ]
        open_candidates = [c for c in in_memory if c.state is ChunkState.OPEN]
        if open_candidates:
            reservoir._open = open_candidates[0]
        else:
            reservoir._open = Chunk(open_chunk_id, registry.current().schema_id)
            reservoir._next_chunk_id = max(reservoir._next_chunk_id, open_chunk_id + 1)
        for chunk in in_memory:
            for event in chunk.events:
                reservoir._dedup[event.event_id] = chunk.chunk_id
        return reservoir
