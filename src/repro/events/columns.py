"""Column codec for runs of events: one packed array per field.

Both places that move many events at once store them transposed — the
worker-link frames (:mod:`repro.shard.columnar`) and the reservoir's
closed chunks (:mod:`repro.reservoir.chunk`). A column of a few hundred
values costs one C-level ``struct.pack``/``unpack`` call instead of a
tagged :func:`repro.common.serde.write_value` call per value, and
:func:`events_from_columns` fills ``Event`` slots straight from the
decoded columns.

A value column is ``u8 kind`` + payload:

- ``COL_I64``: ``count x i64`` — every value an exact ``int`` in range;
- ``COL_F64``: ``count x f64`` — every value an exact ``float``;
- ``COL_STR``: a string column (below) — every value an exact ``str``;
- ``COL_TAGGED``: ``count x`` tagged serde value — anything else
  (``None``, bools, bytes, mixed types, out-of-range ints).

Kinds are chosen by exact ``type()``, so every value round-trips to an
equal value of the same type (a bool never becomes an int, NaN and -0.0
keep their bits). A string column is ``varint blob_len | utf-8 blob |
count x u32 byte lengths``.
"""

from __future__ import annotations

import struct
from itertools import repeat

from repro.common import serde
from repro.events.event import Event

COL_TAGGED = 0
COL_I64 = 1
COL_F64 = 2
COL_STR = 3

I64_MIN = -(2**63)
I64_MAX = 2**63 - 1


def write_str_column(buf: bytearray, values) -> None:
    """Append a string column of ``values`` (each an exact ``str``)."""
    lengths = list(map(len, values))
    blob = "".join(values).encode("utf-8")
    if len(blob) != sum(lengths):  # not pure ASCII: count bytes per value
        lengths = [len(v.encode("utf-8")) for v in values]
    serde.write_varint(buf, len(blob))
    buf += blob
    buf += struct.pack(f"<{len(lengths)}I", *lengths)


def read_str_column(data, offset: int, count: int):
    """Read ``count`` strings; returns ``(values, new_offset)``."""
    total, offset = serde.read_varint(data, offset)
    if total > len(data) - offset:
        raise serde.SerdeError("truncated string column")
    blob = bytes(data[offset : offset + total])
    offset += total
    lengths = struct.unpack_from(f"<{count}I", data, offset)
    offset += 4 * count
    text = blob.decode("utf-8")
    out = []
    pos = 0
    if len(text) == total:  # pure ASCII: byte lengths are char lengths
        for length in lengths:
            out.append(text[pos : pos + length])
            pos += length
    else:
        for length in lengths:
            out.append(blob[pos : pos + length].decode("utf-8"))
            pos += length
    return out, offset


def write_value_column(buf: bytearray, values) -> None:
    """Append one value column, picking the narrowest kind that fits."""
    kinds = set(map(type, values))  # type(), not isinstance: bool is not int here
    if kinds == {int}:
        if min(values) >= I64_MIN and max(values) <= I64_MAX:
            buf.append(COL_I64)
            buf += struct.pack(f"<{len(values)}q", *values)
            return
    elif kinds == {float}:
        buf.append(COL_F64)
        buf += struct.pack(f"<{len(values)}d", *values)
        return
    elif kinds == {str}:
        buf.append(COL_STR)
        write_str_column(buf, values)
        return
    buf.append(COL_TAGGED)
    for value in values:
        serde.write_value(buf, value)


def read_value_column(data, offset: int, count: int):
    """Read ``count`` values of one column; returns ``(values, new_offset)``."""
    kind = data[offset]
    offset += 1
    if kind == COL_I64:
        values = struct.unpack_from(f"<{count}q", data, offset)
        return values, offset + 8 * count
    if kind == COL_F64:
        values = struct.unpack_from(f"<{count}d", data, offset)
        return values, offset + 8 * count
    if kind == COL_STR:
        return read_str_column(data, offset, count)
    if kind == COL_TAGGED:
        values = []
        for _ in range(count):
            value, offset = serde.read_value(data, offset)
            values.append(value)
        return values, offset
    raise serde.SerdeError(f"unknown column kind: {kind}")


def events_from_columns(ids, timestamps, names, columns) -> list[Event]:
    """Materialise events in bulk: event ``i`` takes the ``i``-th id,
    the ``i``-th timestamp and ``names`` zipped with the ``i``-th value
    of each column (``ids`` and ``timestamps`` may be any iterables).
    Slots are filled directly — the values came out of a codec, so
    ``Event.__init__``'s checks and dict copy are skipped."""
    if names:
        rows = map(dict, map(zip, repeat(names), zip(*columns)))
    else:
        rows = [{} for _ in ids]
    blank = Event.__new__
    events = []
    append = events.append
    for event_id, timestamp, fields in zip(ids, timestamps, rows):
        event = blank(Event)
        event.event_id = event_id
        event.timestamp = timestamp
        event._fields = fields
        append(event)
    return events
