"""Compact binary serialization primitives.

The reservoir persists chunks of events in a binary format (paper §4.1.1:
"define a data format and compression for efficient storage, both in
terms of deserialization time and size"). These helpers implement the
primitive encoders that the chunk codec and the LSM store build on:
varints, zig-zag signed ints, length-prefixed bytes/strings, tagged
scalar values, and the one CRC frame every durable format is made of.

All functions either append to a ``bytearray`` (writers) or read from a
``memoryview``/``bytes`` at an offset and return ``(value, new_offset)``
(readers), so codecs can be composed without intermediate copies.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterator, Sequence

from repro.common.errors import SerdeError

_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")


def write_varint(buf: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint."""
    if value < 0:
        raise SerdeError(f"varint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buf.append(byte | 0x80)
        else:
            buf.append(byte)
            return


def read_varint(data: bytes | memoryview, offset: int) -> tuple[int, int]:
    """Read an unsigned LEB128 varint; return ``(value, new_offset)``."""
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise SerdeError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 70:
            raise SerdeError("varint too long")


#: a varint below 128 is its own single byte
_ONE_BYTE = [bytes((n,)) for n in range(128)]


def varint_bytes(value: int) -> bytes:
    """The bytes :func:`write_varint` appends for ``value``, as one
    object (for encoders that build a record in one expression)."""
    if 0 <= value < 128:
        return _ONE_BYTE[value]
    if value < 0:
        raise SerdeError(f"varint cannot encode negative value {value}")
    out = bytearray()
    while value >= 128:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def signed_varint_bytes(value: int) -> bytes:
    """The bytes :func:`write_signed_varint` appends for ``value``."""
    return varint_bytes(zigzag_encode(value))


#: the bytes :func:`write_f64` appends for a float
pack_f64 = _F64.pack


def zigzag_encode(value: int) -> int:
    """Map a signed int to an unsigned one with small absolute values small."""
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def zigzag_decode(value: int) -> int:
    """Inverse of :func:`zigzag_encode`."""
    return (value >> 1) if not value & 1 else -((value + 1) >> 1)


def write_signed_varint(buf: bytearray, value: int) -> None:
    """Append a zig-zag encoded signed varint (delta timestamps use this)."""
    write_varint(buf, zigzag_encode(value))


def read_signed_varint(data: bytes | memoryview, offset: int) -> tuple[int, int]:
    """Read a zig-zag encoded signed varint."""
    raw, offset = read_varint(data, offset)
    return zigzag_decode(raw), offset


def write_bytes(buf: bytearray, value: bytes) -> None:
    """Append length-prefixed raw bytes."""
    write_varint(buf, len(value))
    buf.extend(value)


def read_bytes(data: bytes | memoryview, offset: int) -> tuple[bytes, int]:
    """Read length-prefixed raw bytes."""
    length, offset = read_varint(data, offset)
    end = offset + length
    if end > len(data):
        raise SerdeError("truncated byte string")
    return bytes(data[offset:end]), end


def write_str(buf: bytearray, value: str) -> None:
    """Append a length-prefixed UTF-8 string."""
    write_bytes(buf, value.encode("utf-8"))


def read_str(data: bytes | memoryview, offset: int) -> tuple[str, int]:
    """Read a length-prefixed UTF-8 string."""
    raw, offset = read_bytes(data, offset)
    return raw.decode("utf-8"), offset


def write_str_list(buf: bytearray, values: Sequence[str]) -> None:
    """Append a count-prefixed list of UTF-8 strings.

    Used by the shard wire layer for string tables (field and column
    names are interned once per message instead of once per event).
    """
    write_varint(buf, len(values))
    for value in values:
        write_str(buf, value)


def read_str_list(data: bytes | memoryview, offset: int) -> tuple[list[str], int]:
    """Read a count-prefixed list of strings written by :func:`write_str_list`."""
    count, offset = read_varint(data, offset)
    values = []
    for _ in range(count):
        value, offset = read_str(data, offset)
        values.append(value)
    return values, offset


def write_f64(buf: bytearray, value: float) -> None:
    """Append a little-endian IEEE-754 double."""
    buf.extend(_F64.pack(value))


def read_f64(data: bytes | memoryview, offset: int) -> tuple[float, int]:
    """Read a little-endian IEEE-754 double."""
    end = offset + 8
    if end > len(data):
        raise SerdeError("truncated float64")
    return _F64.unpack_from(data, offset)[0], end


def write_u32(buf: bytearray, value: int) -> None:
    """Append a fixed-width little-endian uint32 (checksums, counts)."""
    buf.extend(_U32.pack(value))


def read_u32(data: bytes | memoryview, offset: int) -> tuple[int, int]:
    """Read a fixed-width little-endian uint32."""
    end = offset + 4
    if end > len(data):
        raise SerdeError("truncated uint32")
    return _U32.unpack_from(data, offset)[0], end


# Tagged scalar values. Events carry heterogeneous field values; schemas
# pin field types but nullable fields and the generic state store need a
# self-describing encoding.

#: The ints :func:`read_value` reads back: :func:`read_varint` stops at
#: 11 bytes (77 bits), and the zig-zag map spends one of them on the
#: sign. :func:`write_value` writes larger ones that no reader takes.
VALUE_INT_MIN = -(2**76)
VALUE_INT_MAX = 2**76 - 1

_TAG_NONE = 0
_TAG_BOOL_FALSE = 1
_TAG_BOOL_TRUE = 2
_TAG_INT = 3
_TAG_FLOAT = 4
_TAG_STR = 5
_TAG_BYTES = 6


def write_value(buf: bytearray, value: object) -> None:
    """Append a tagged scalar (None, bool, int, float, str, bytes)."""
    if value is None:
        buf.append(_TAG_NONE)
    elif value is False:
        buf.append(_TAG_BOOL_FALSE)
    elif value is True:
        buf.append(_TAG_BOOL_TRUE)
    elif isinstance(value, int):
        buf.append(_TAG_INT)
        write_signed_varint(buf, value)
    elif isinstance(value, float):
        buf.append(_TAG_FLOAT)
        write_f64(buf, value)
    elif isinstance(value, str):
        buf.append(_TAG_STR)
        write_str(buf, value)
    elif isinstance(value, bytes):
        buf.append(_TAG_BYTES)
        write_bytes(buf, value)
    else:
        raise SerdeError(f"unsupported value type: {type(value).__name__}")


def read_value(data: bytes | memoryview, offset: int) -> tuple[object, int]:
    """Read a tagged scalar written by :func:`write_value`."""
    if offset >= len(data):
        raise SerdeError("truncated value tag")
    tag = data[offset]
    offset += 1
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_BOOL_FALSE:
        return False, offset
    if tag == _TAG_BOOL_TRUE:
        return True, offset
    if tag == _TAG_INT:
        return read_signed_varint(data, offset)
    if tag == _TAG_FLOAT:
        return read_f64(data, offset)
    if tag == _TAG_STR:
        return read_str(data, offset)
    if tag == _TAG_BYTES:
        return read_bytes(data, offset)
    raise SerdeError(f"unknown value tag {tag}")


def crc32_of(data: bytes | memoryview) -> int:
    """CRC-32 checksum used to detect torn writes in logs and files."""
    return zlib.crc32(data) & 0xFFFFFFFF


# CRC frames. Every durable record format in the tree — log segments,
# the bus side logs and cut, checkpoints, reservoir chunks — is a
# sequence of (or a single) frame::
#
#     u32 crc | varint len | payload          (crc over payload)
#
# so a torn or bit-flipped write is detected at the frame it hit.


def write_frame(buf: bytearray, payload: bytes | bytearray) -> None:
    """Append one CRC frame around ``payload``."""
    write_u32(buf, crc32_of(payload))
    write_bytes(buf, payload)


def read_frame(data: bytes | memoryview, offset: int) -> tuple[bytes, int]:
    """Read one CRC frame; :class:`SerdeError` if it is torn or corrupt."""
    crc, offset = read_u32(data, offset)
    payload, offset = read_bytes(data, offset)
    if crc32_of(payload) != crc:
        raise SerdeError("frame checksum mismatch")
    return payload, offset


def iter_frames(
    data: bytes | memoryview, offset: int = 0
) -> Iterator[tuple[int, int, bytes]]:
    """Yield ``(start, end, payload)`` per intact frame from ``offset``.

    Stops silently at the first torn or corrupt frame — the tail of an
    interrupted write; everything before it is durable.
    """
    size = len(data)
    while offset < size:
        try:
            payload, end = read_frame(data, offset)
        except SerdeError:
            return
        yield offset, end, payload
        offset = end
