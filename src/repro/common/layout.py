"""Declarative record layouts over :mod:`repro.common.serde`.

A record that crosses a pipe, a socket and a disk must have **one**
layout. This module lets the owner of a dataclass state that layout
once, as data, next to the class — the shard wire table
(:mod:`repro.shard.wire`) and the durable log's value codec
(:mod:`repro.messaging.durable`) then walk the same declaration instead
of each spelling the field sequence out by hand.

A :class:`Codec` is a ``(write, read)`` pair with the serde calling
convention: ``write(buf, value)`` appends to a ``bytearray``,
``read(data, offset)`` returns ``(value, new_offset)``. The primitives
wrap the serde functions unchanged (same bytes, same bounds checks);
the four combinators build count-prefixed sequences and mappings,
fixed-arity tuples and attribute-by-attribute dataclass records out of
other codecs.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

from repro.common import serde
from repro.common.errors import SerdeError


class Codec(NamedTuple):
    """One value's binary layout: how to append it, how to read it back."""

    write: Callable[[bytearray, Any], None]
    read: Callable[[Any, int], tuple]


VARINT = Codec(serde.write_varint, serde.read_varint)
SVARINT = Codec(serde.write_signed_varint, serde.read_signed_varint)
STR = Codec(serde.write_str, serde.read_str)
BYTES = Codec(serde.write_bytes, serde.read_bytes)
F64 = Codec(serde.write_f64, serde.read_f64)
#: a tagged scalar (None, bool, int, float, str, bytes).
VALUE = Codec(serde.write_value, serde.read_value)


def _write_flag(buf: bytearray, value: object) -> None:
    buf.append(1 if value else 0)


def _read_flag(data, offset: int) -> tuple[bool, int]:
    if offset >= len(data):
        raise SerdeError("truncated flag byte")
    return bool(data[offset]), offset + 1


def _read_varflag(data, offset: int) -> tuple[bool, int]:
    value, offset = serde.read_varint(data, offset)
    return bool(value), offset


#: a bool as one raw byte.
FLAG = Codec(_write_flag, _read_flag)
#: a bool as a varint — the same byte as :data:`FLAG` for anything this
#: code ever wrote; the reader accepts any non-zero varint as true.
VARFLAG = Codec(_write_flag, _read_varflag)


def seq(item: Codec, build: Callable = tuple, sort: bool = False) -> Codec:
    """A count-prefixed run of ``item``; ``build`` shapes the decoded
    list (``tuple``, ``list``, ``set``), ``sort`` writes in sorted order
    (for unordered containers, so equal values encode equal bytes)."""
    write_item, read_item = item

    def write(buf: bytearray, values) -> None:
        serde.write_varint(buf, len(values))
        for value in sorted(values) if sort else values:
            write_item(buf, value)

    def read(data, offset: int):
        count, offset = serde.read_varint(data, offset)
        values = []
        for _ in range(count):
            value, offset = read_item(data, offset)
            values.append(value)
        return build(values), offset

    return Codec(write, read)


def tuple_of(*items: Codec) -> Codec:
    """A fixed-arity tuple, one codec per position."""

    def write(buf: bytearray, values) -> None:
        for (write_item, _), value in zip(items, values, strict=True):
            write_item(buf, value)

    def read(data, offset: int):
        values = []
        for _, read_item in items:
            value, offset = read_item(data, offset)
            values.append(value)
        return tuple(values), offset

    return Codec(write, read)


def mapping(key: Codec, value: Codec, sort: bool = False) -> Codec:
    """A count-prefixed dict, entries in insertion order or — with
    ``sort`` — in key order."""
    write_key, read_key = key
    write_value, read_value = value

    def write(buf: bytearray, entries) -> None:
        serde.write_varint(buf, len(entries))
        for name in sorted(entries) if sort else entries:
            write_key(buf, name)
            write_value(buf, entries[name])

    def read(data, offset: int):
        count, offset = serde.read_varint(data, offset)
        entries = {}
        for _ in range(count):
            name, offset = read_key(data, offset)
            entries[name], offset = read_value(data, offset)
        return entries, offset

    return Codec(write, read)


def struct(cls: type, *fields: tuple) -> Codec:
    """A record: each ``(attr, codec)`` field in order, rebuilt as
    ``cls(attr=value, ...)``. An ``attr`` that is a tuple of names is one
    block spanning several attributes: its codec writes, and reads back,
    a tuple of their values."""

    def write(buf: bytearray, record) -> None:
        for attr, (write_field, _) in fields:
            if isinstance(attr, str):
                write_field(buf, getattr(record, attr))
            else:
                write_field(buf, tuple(getattr(record, name) for name in attr))

    def read(data, offset: int):
        values = {}
        for attr, (_, read_field) in fields:
            value, offset = read_field(data, offset)
            if isinstance(attr, str):
                values[attr] = value
            else:
                values.update(zip(attr, value))
        return cls(**values), offset

    return Codec(write, read)
