"""Columnar struct-packed batch encoding for every worker data link.

``WorkBatch`` and ``BatchDone`` cross the supervisor pipe and the
frontend↔worker data sockets in this form. Their
:mod:`repro.shard.wire` encoding (only the fallback below and the
bench ladder's reference codec) spends its time in per-event, per-field
pure-Python serde: a varint call per offset, a tagged-value call per
field, a dict walk per reply. Events are transposed into *columns* —
one packed ``struct`` array per field — so a 256-event batch costs a
handful of C-level ``struct.pack``/``unpack`` calls instead of ~2000
Python ones, and the consumer materializes events in bulk (``zip`` of
unpacked columns straight into ``Event`` slots) before handing the batch
to ``EventReservoir.append_batch`` / ``Aggregator.update_batch`` untouched.

Frame layout (``WORK_BATCH_COLUMNAR``)::

    u8 tag=29 | tp | varint reply_from | varint count
    u8 contiguous? (1: varint first_offset, 0: count x i64 offsets)
    count x i64 timestamps
    event-id string column (varint blob_len | blob | count x u32 lens)
    varint n_shapes, then per shape (a *shape* = one ordered field-name
    tuple; steady-state batches have exactly one):
      field names | varint group_count | [group row indexes u32 x n]
      one value column per field

Value and string columns are :mod:`repro.events.columns`'s, the codec
reservoir chunks use too: ``i64`` / ``f64`` / ``str`` fast paths
(exact round-trip, one ``struct`` call), with a ``tagged`` fallback
(the wire codec's per-value encoding) for columns mixing types,
``None``, bools, bytes or out-of-range ints. Anything the
columnar form cannot represent at all falls back to the standard wire
frame for the *whole message* — :func:`decode` dispatches on the tag
byte, so both forms (and every control frame) coexist on one link and
correctness never depends on the fast path being taken.

``BATCH_DONE_COLUMNAR`` (tag 30) applies the same trick to replies:
group rows by result shape ``((metric_id, columns...), ...)``, one
value column per (metric, column) pair, ``None`` results as a marker
group.
"""

from __future__ import annotations

import struct

from repro.common import serde
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
from repro.shard import wire

MSG_WORK_BATCH_COLUMNAR = 29
MSG_BATCH_DONE_COLUMNAR = 30


# -- offsets ------------------------------------------------------------------


def _write_offsets(buf: bytearray, offsets, count: int) -> bool:
    """Contiguous runs cost one varint; anything else packs explicitly.

    Returns False when the offsets cannot be represented (caller falls
    back to the standard wire frame).
    """
    first = offsets[0]
    if first >= 0 and list(offsets) == list(range(first, first + count)):
        buf.append(1)
        serde.write_varint(buf, first)
        return True
    if min(offsets) < I64_MIN or max(offsets) > I64_MAX:
        return False
    buf.append(0)
    buf += struct.pack(f"<{count}q", *offsets)
    return True


def _read_offsets(data, offset: int, count: int):
    mode = data[offset]
    offset += 1
    if mode == 1:
        first, offset = serde.read_varint(data, offset)
        return range(first, first + count), offset
    values = struct.unpack_from(f"<{count}q", data, offset)
    return values, offset + 8 * count


# -- WorkBatch ----------------------------------------------------------------


def _encode_work_batch(msg: wire.WorkBatch) -> bytes:
    records = msg.records
    count = len(records)
    if count == 0:
        return wire.encode(msg)
    buf = bytearray()
    buf.append(MSG_WORK_BATCH_COLUMNAR)
    wire.TP.write(buf, msg.tp)
    serde.write_varint(buf, msg.reply_from)
    serde.write_varint(buf, count)
    if not _write_offsets(buf, [record[0] for record in records], count):
        return wire.encode(msg)
    events = [record[1] for record in records]
    try:
        buf += struct.pack(f"<{count}q", *[ev.timestamp for ev in events])
    except struct.error:
        return wire.encode(msg)
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
    wire.TELEMETRY_TAIL.write(buf, (msg.trace,))
    return bytes(buf)


def _decode_work_batch(data) -> wire.WorkBatch:
    offset = 1
    tp, offset = wire.TP.read(data, offset)
    reply_from, offset = serde.read_varint(data, offset)
    count, offset = serde.read_varint(data, offset)
    offsets, offset = _read_offsets(data, offset, count)
    timestamps = struct.unpack_from(f"<{count}q", data, offset)
    offset += 8 * count
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
    (trace, _), offset = wire.TELEMETRY_TAIL.read(data, offset)
    return wire.WorkBatch(tp, reply_from, list(zip(offsets, events)), trace)


# -- BatchDone ----------------------------------------------------------------


def _encode_batch_done(msg: wire.BatchDone) -> bytes:
    replies = msg.replies
    count = len(replies)
    buf = bytearray()
    buf.append(MSG_BATCH_DONE_COLUMNAR)
    wire.TP.write(buf, msg.tp)
    serde.write_varint(buf, msg.next_offset)
    serde.write_varint(buf, msg.processed)
    serde.write_varint(buf, count)
    if count == 0:
        wire.TELEMETRY_TAIL.write(buf, (msg.trace, msg.stats))
        return bytes(buf)
    if not _write_offsets(buf, [reply[0] for reply in replies], count):
        return wire.encode(msg)
    groups: dict[object, list[int]] = {}
    for index, (_, results) in enumerate(replies):
        if results is None:
            key = None
        else:
            key = tuple(
                (metric_id, tuple(values))
                for metric_id, values in results.items()
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
            if metric_id < 0:
                return wire.encode(msg)
            serde.write_varint(buf, metric_id)
            serde.write_str_list(buf, list(columns))
        group_results = [replies[i][1] for i in rows]
        for metric_id, columns in key:
            for column in columns:
                write_value_column(
                    buf, [results[metric_id][column] for results in group_results]
                )
    wire.TELEMETRY_TAIL.write(buf, (msg.trace, msg.stats))
    return bytes(buf)


def _decode_batch_done(data) -> wire.BatchDone:
    offset = 1
    tp, offset = wire.TP.read(data, offset)
    next_offset, offset = serde.read_varint(data, offset)
    processed, offset = serde.read_varint(data, offset)
    count, offset = serde.read_varint(data, offset)
    if count == 0:
        (trace, stats), offset = wire.TELEMETRY_TAIL.read(data, offset)
        return wire.BatchDone(tp, next_offset, processed, [], trace, stats)
    offsets, offset = _read_offsets(data, offset, count)
    n_groups, offset = serde.read_varint(data, offset)
    results_by_row: list = [None] * count
    for _ in range(n_groups):
        group_count, offset = serde.read_varint(data, offset)
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
            value_rows = (
                list(zip(*matrix)) if columns else [()] * group_count
            )
            per_metric.append((metric_id, columns, value_rows))
        for group_index, i in enumerate(rows):
            results_by_row[i] = {
                metric_id: dict(zip(columns, value_rows[group_index]))
                for metric_id, columns, value_rows in per_metric
            }
    (trace, stats), offset = wire.TELEMETRY_TAIL.read(data, offset)
    return wire.BatchDone(
        tp, next_offset, processed, list(zip(offsets, results_by_row)),
        trace, stats,
    )


# -- entry points -------------------------------------------------------------


def encode(msg: object) -> bytes:
    """Frame a message for a link: columnar hot path, wire for the rest."""
    if type(msg) is wire.WorkBatch:
        return _encode_work_batch(msg)
    if type(msg) is wire.BatchDone:
        return _encode_batch_done(msg)
    return wire.encode(msg)


def decode(payload: bytes) -> object:
    """Decode a link frame: dispatches on the tag byte, so columnar and
    standard wire frames coexist on one channel."""
    tag = payload[0]
    if tag == MSG_WORK_BATCH_COLUMNAR:
        return _decode_work_batch(memoryview(payload))
    if tag == MSG_BATCH_DONE_COLUMNAR:
        return _decode_batch_done(memoryview(payload))
    return wire.decode(payload)
