"""Column codecs for the batch rows of :data:`repro.shard.wire.TABLE`.

Two field codecs, one per kind of batch the shard links carry:

- :data:`RECORD_COLUMNS`, ``[(offset, Event)]`` — the records of a
  ``WorkBatch`` (tag 29) and of a ``BackfillRecords`` page (tag 48);
- :data:`REPLY_COLUMNS`, ``[(offset, results)]`` — the replies of a
  ``BatchDone`` (tag 30).

Rows are transposed into *columns* — one packed array per field — so a
256-event batch costs a handful of C-level ``struct.pack``/``unpack``
calls instead of a tagged-value call per field, and the reader
materialises events in bulk (``zip`` of unpacked columns straight into
``Event`` slots) before the batch reaches
``EventReservoir.append_batch`` untouched. Value and string columns are
:mod:`repro.events.columns`'s, the codec reservoir chunks use too:
``i64`` / ``f64`` / ``str`` fast paths with a ``tagged`` column for
anything else (``None``, bools, bytes, mixed types, ints outside i64 —
a timestamp at or past 2**63 included).

Records::

    varint count, then (when count > 0)
    u8 contiguous? (1: varint first_offset, 0: count x i64 offsets)
    timestamp value column
    event-id string column
    varint n_shapes, then per shape (a *shape* = one ordered field-name
    tuple; steady-state batches have exactly one):
      field names | varint group_count | [group row indexes u32 x n]
      one value column per field

Replies group rows by result shape ``((metric_id, columns...), ...)``::

    varint count, then (when count > 0)
    offsets as above
    varint n_groups, then per group:
      varint group_count | [group row indexes u32 x n]
      u8 present (0: the rows' results are None) | varint n_metrics |
      per metric: varint metric_id, column names
      one value column per (metric, column) pair

Row indexes are written only when a batch has more than one shape or
group. The readers trust no count: a batch holds at most
:data:`MAX_ROWS` rows, a record costs at least one byte of what follows
its count, and a group never outnumbers its batch — so a hostile frame
raises :class:`SerdeError` before any list is sized from it.
"""

from __future__ import annotations

import struct

from repro.common import serde
from repro.common.errors import SerdeError
from repro.common.layout import Codec
from repro.events.columns import (
    I64_MAX,
    I64_MIN,
    events_from_columns,
    read_str_column,
    read_value_column,
    write_str_column,
    write_value_column,
)
from repro.events.event import Event

#: Rows one batch field carries at most. The dispatchers ship 256
#: records a batch, backfill pages default to 256, and a reply batch
#: answers one work batch.
MAX_ROWS = 1 << 16


def _write_count(buf: bytearray, count: int) -> None:
    if count > MAX_ROWS:
        raise SerdeError(f"a batch of {count} rows exceeds {MAX_ROWS}")
    serde.write_varint(buf, count)


def _read_count(data, offset: int, row_bytes: int) -> tuple[int, int]:
    """A row count, refused when it exceeds :data:`MAX_ROWS` or when
    ``row_bytes`` per row would not fit in the rest of the frame."""
    count, offset = serde.read_varint(data, offset)
    if count > MAX_ROWS or count * row_bytes > len(data) - offset:
        raise SerdeError(f"batch row count {count} exceeds the frame")
    return count, offset


# -- offsets ------------------------------------------------------------------


def _write_offsets(buf: bytearray, offsets: list[int], count: int) -> None:
    """Contiguous runs cost one varint; anything else packs explicitly."""
    first = offsets[0]
    if first >= 0 and offsets == list(range(first, first + count)):
        buf.append(1)
        serde.write_varint(buf, first)
        return
    if min(offsets) < I64_MIN or max(offsets) > I64_MAX:
        raise SerdeError("a gapped offset run outside the i64 range")
    buf.append(0)
    buf += struct.pack(f"<{count}q", *offsets)


def _read_offsets(data, offset: int, count: int):
    mode = data[offset]
    offset += 1
    if mode == 1:
        first, offset = serde.read_varint(data, offset)
        return range(first, first + count), offset
    values = struct.unpack_from(f"<{count}q", data, offset)
    return values, offset + 8 * count


# -- records ------------------------------------------------------------------


def _write_records(buf: bytearray, records: list[tuple[int, Event]]) -> None:
    count = len(records)
    _write_count(buf, count)
    if count == 0:
        return
    _write_offsets(buf, [record[0] for record in records], count)
    events = [record[1] for record in records]
    write_value_column(buf, [ev.timestamp for ev in events])
    write_str_column(buf, [ev.event_id for ev in events])
    shapes: dict[tuple, list[int]] = {}
    for index, ev in enumerate(events):
        shapes.setdefault(tuple(ev._fields), []).append(index)
    serde.write_varint(buf, len(shapes))
    single = len(shapes) == 1
    for names, rows in shapes.items():
        serde.write_str_list(buf, list(names))
        serde.write_varint(buf, len(rows))
        if not single:
            buf += struct.pack(f"<{len(rows)}I", *rows)
        if not names:
            continue
        if single:
            matrix = [tuple(ev._fields.values()) for ev in events]
        else:
            matrix = [tuple(events[i]._fields.values()) for i in rows]
        for column in zip(*matrix):
            write_value_column(buf, column)


def _read_records(data, offset: int) -> tuple[list[tuple[int, Event]], int]:
    count, offset = _read_count(data, offset, 1)
    if count == 0:
        return [], offset
    offsets, offset = _read_offsets(data, offset, count)
    timestamps, offset = read_value_column(data, offset, count)
    ids, offset = read_str_column(data, offset, count)
    n_shapes, offset = serde.read_varint(data, offset)
    events: list[Event] = [None] * count  # type: ignore[list-item]
    for _ in range(n_shapes):
        names, offset = serde.read_str_list(data, offset)
        group_count, offset = serde.read_varint(data, offset)
        if n_shapes > 1:
            rows = struct.unpack_from(f"<{group_count}I", data, offset)
            offset += 4 * group_count
        columns = []
        for _ in names:
            column, offset = read_value_column(data, offset, group_count)
            columns.append(column)
        if n_shapes == 1:
            events = events_from_columns(ids, timestamps, names, columns)
            continue
        group = events_from_columns(
            [ids[i] for i in rows], [timestamps[i] for i in rows], names, columns
        )
        for i, event in zip(rows, group):
            events[i] = event
    return list(zip(offsets, events)), offset


# -- replies ------------------------------------------------------------------


def _write_replies(buf: bytearray, replies: list) -> None:
    count = len(replies)
    _write_count(buf, count)
    if count == 0:
        return
    _write_offsets(buf, [reply[0] for reply in replies], count)
    groups: dict[object, list[int]] = {}
    for index, (_, results) in enumerate(replies):
        if results is None:
            key = None
        else:
            key = tuple(
                (metric_id, tuple(values)) for metric_id, values in results.items()
            )
        groups.setdefault(key, []).append(index)
    serde.write_varint(buf, len(groups))
    single = len(groups) == 1
    for key, rows in groups.items():
        serde.write_varint(buf, len(rows))
        if not single:
            buf += struct.pack(f"<{len(rows)}I", *rows)
        if key is None:
            buf.append(0)
            continue
        buf.append(1)
        serde.write_varint(buf, len(key))
        for metric_id, columns in key:
            serde.write_varint(buf, metric_id)
            serde.write_str_list(buf, list(columns))
        group_results = [replies[i][1] for i in rows]
        for metric_id, columns in key:
            for column in columns:
                write_value_column(
                    buf, [results[metric_id][column] for results in group_results]
                )


def _read_replies(data, offset: int) -> tuple[list, int]:
    # A None (or column-free) reply costs no byte past the group header.
    count, offset = _read_count(data, offset, 0)
    if count == 0:
        return [], offset
    offsets, offset = _read_offsets(data, offset, count)
    n_groups, offset = serde.read_varint(data, offset)
    results_by_row: list = [None] * count
    for _ in range(n_groups):
        group_count, offset = serde.read_varint(data, offset)
        if group_count > count:
            raise SerdeError(f"reply group of {group_count} rows in a batch of {count}")
        if n_groups == 1:
            rows = range(count)
        else:
            rows = struct.unpack_from(f"<{group_count}I", data, offset)
            offset += 4 * group_count
        present = data[offset]
        offset += 1
        if not present:
            continue  # rows stay None
        n_metrics, offset = serde.read_varint(data, offset)
        shape = []
        for _ in range(n_metrics):
            metric_id, offset = serde.read_varint(data, offset)
            columns, offset = serde.read_str_list(data, offset)
            shape.append((metric_id, columns))
        per_metric = []
        for metric_id, columns in shape:
            matrix = []
            for _ in columns:
                column, offset = read_value_column(data, offset, group_count)
                matrix.append(column)
            value_rows = list(zip(*matrix)) if columns else [()] * group_count
            per_metric.append((metric_id, columns, value_rows))
        for group_index, i in enumerate(rows):
            results_by_row[i] = {
                metric_id: dict(zip(columns, value_rows[group_index]))
                for metric_id, columns, value_rows in per_metric
            }
    return list(zip(offsets, results_by_row)), offset


#: ``[(offset, Event)]`` as columns.
RECORD_COLUMNS = Codec(_write_records, _read_records)
#: ``[(offset, results | None)]`` as columns grouped by result shape.
REPLY_COLUMNS = Codec(_write_replies, _read_replies)
