"""Chunks: the unit of reservoir I/O.

"Chunks hold multiple events and are kept in-memory until they reach a
fixed size, after which they are closed, serialized, compressed, and
persisted to disk" (§4.1.1). A chunk is *open* while it takes events
(the reservoir holds exactly one) and *closed* once persisted; an event
later than persisted data is rewritten or discarded, never inserted
into a closed chunk.

A chunk is stored one column at a time, with the column codec of
:mod:`repro.events.columns` (the one the worker links use)::

    u8 0x40 | u8 codec id | compressed(
        varint chunk_id | varint schema_id | varint count | varint first_ts |
        event-id string column |
        timestamp steps: a value column of each timestamp minus the one
            before it (the first minus 0) — i64, and small numbers that
            compress well since a chunk is in timestamp order |
        one value column per schema field, in schema order)

An event without a field, or with it set to None, stores None in that
field's column; decoding drops None-valued fields again, so a chunk
reads back as the row format below did.

Chunks written before the columnar format are *row* payloads, read
through :meth:`Schema.decode_event` and never written any more::

    u8 codec id (0-9) | compressed(
        varint chunk_id | varint schema_id | varint count | varint first_ts |
        count x (str event_id | varint timestamp |
                 one tagged serde value per schema field))
"""

from __future__ import annotations

import bisect
import enum
import operator
import struct
from itertools import accumulate

from repro.common import serde
from repro.common.compression import Codec, compress_with_header, decompress_with_header
from repro.common.errors import SerdeError
from repro.events.columns import (
    COL_TAGGED,
    events_from_columns,
    read_str_column,
    read_value_column,
    write_str_column,
    write_value_column,
)
from repro.events.event import Event
from repro.events.schema import Schema

#: first byte of a columnar payload; a row-format payload starts with its
#: codec id (0-9), so the two never collide
_COLUMNAR_TAG = b"\x40"

_timestamp = operator.attrgetter("timestamp")


class ChunkState(enum.Enum):
    """Life-cycle of a chunk."""

    OPEN = "open"
    CLOSED = "closed"


class Chunk:
    """An in-memory, timestamp-ordered run of events."""

    __slots__ = (
        "chunk_id",
        "schema_id",
        "state",
        "events",
        "_approx_bytes",
    )

    def __init__(self, chunk_id: int, schema_id: int) -> None:
        self.chunk_id = chunk_id
        self.schema_id = schema_id
        self.state = ChunkState.OPEN
        self.events: list[Event] = []
        self._approx_bytes = 0

    def __len__(self) -> int:
        return len(self.events)

    @property
    def first_ts(self) -> int:
        """Timestamp of the oldest event (chunk must be non-empty)."""
        return self.events[0].timestamp

    @property
    def last_ts(self) -> int:
        """Timestamp of the newest event (chunk must be non-empty)."""
        return self.events[-1].timestamp

    @property
    def approximate_bytes(self) -> int:
        """Rough in-memory payload size used for the close threshold."""
        return self._approx_bytes

    def append(self, event: Event) -> int:
        """Insert an event keeping timestamp order; returns its position.

        In-order arrivals append at the end in O(1); a late event inside
        the chunk's range is inserted at its sorted position (the caller
        then fixes up any iterators that already passed that position).
        """
        if self.state is ChunkState.CLOSED:
            raise ValueError(f"chunk {self.chunk_id} is closed")
        if not self.events or event.timestamp >= self.events[-1].timestamp:
            self.events.append(event)
            position = len(self.events) - 1
        else:
            position = bisect.bisect_right(
                self.events, event.timestamp, key=_timestamp
            )
            self.events.insert(position, event)
        self._approx_bytes += 32 + 8 * event.field_count()
        return position

    def extend_tail(self, events: list[Event]) -> None:
        """Append events known to be in order (open chunk only): they
        must be in timestamp order and not precede the current tail.
        Equivalent to :meth:`append` per event; the batched reservoir
        path uses it to skip the ordering probe."""
        self.events.extend(events)
        self._approx_bytes += sum(32 + 8 * e.field_count() for e in events)

    def mark_closed(self) -> None:
        """Finalize the chunk; it becomes immutable."""
        self.state = ChunkState.CLOSED

    # -- serialization --------------------------------------------------------

    def serialize(self, schema: Schema, codec: Codec) -> bytes:
        """Encode and compress the chunk for persistence (columnar format,
        see the module docstring)."""
        if schema.schema_id != self.schema_id:
            raise SerdeError(
                f"chunk {self.chunk_id} encoded with schema {self.schema_id}, "
                f"got schema {schema.schema_id}"
            )
        events = self.events
        names = schema.field_names()
        buf = bytearray()
        serde.write_varint(buf, self.chunk_id)
        serde.write_varint(buf, self.schema_id)
        serde.write_varint(buf, len(events))
        serde.write_varint(buf, events[0].timestamp if events else 0)
        write_str_column(buf, [event.event_id for event in events])
        stamps = [event.timestamp for event in events]
        write_value_column(buf, list(map(operator.sub, stamps, [0, *stamps[:-1]])))
        rows = [event._fields for event in events]
        if not rows:
            columns = [()] * len(names)
        elif set(map(tuple, rows)) == {tuple(names)}:
            # every event carries exactly the schema's fields, in order
            columns = zip(*map(tuple, map(dict.values, rows)))
        else:
            columns = zip(*[tuple(map(fields.get, names)) for fields in rows])
        for column in columns:
            write_value_column(buf, column)
        return _COLUMNAR_TAG + compress_with_header(codec, bytes(buf))

    @staticmethod
    def deserialize(payload: bytes, schema_lookup) -> "Chunk":
        """Inverse of :meth:`serialize`; also reads row-format payloads.

        ``schema_lookup`` maps a schema id to a :class:`Schema` — the
        schema-registry hook that makes old chunks readable after the
        event schema evolves. Fields stored as None come back absent.
        """
        columnar = payload[:1] == _COLUMNAR_TAG
        raw = decompress_with_header(payload[1:] if columnar else payload)
        chunk_id, offset = serde.read_varint(raw, 0)
        schema_id, offset = serde.read_varint(raw, offset)
        count, offset = serde.read_varint(raw, offset)
        _first_ts, offset = serde.read_varint(raw, offset)
        schema = schema_lookup(schema_id)
        chunk = Chunk(chunk_id, schema_id)
        if columnar:
            chunk.events = _read_columns(raw, offset, count, schema.field_names())
        else:
            for _ in range(count):
                event, offset = schema.decode_event(raw, offset)
                chunk.events.append(event)
        chunk.mark_closed()
        return chunk

    def __repr__(self) -> str:
        span = f"[{self.first_ts}..{self.last_ts}]" if self.events else "[]"
        return (
            f"Chunk(id={self.chunk_id}, state={self.state.value}, "
            f"n={len(self.events)}, ts={span})"
        )


def _read_columns(raw, offset: int, count: int, names: list[str]) -> list[Event]:
    """The events of a columnar chunk body, None-valued fields dropped."""
    try:
        ids, offset = read_str_column(raw, offset, count)
        steps, offset = read_value_column(raw, offset, count)
        columns = []
        nullable = []
        for name in names:
            tagged = raw[offset] == COL_TAGGED
            column, offset = read_value_column(raw, offset, count)
            columns.append(column)
            if tagged and None in column:
                nullable.append((name, column))
    except (struct.error, IndexError, UnicodeDecodeError) as exc:
        raise SerdeError(f"corrupt columnar chunk: {exc}") from exc
    events = events_from_columns(ids, accumulate(steps), names, columns)
    for name, column in nullable:
        for event, value in zip(events, column):
            if value is None:
                del event._fields[name]
    return events
