"""Length-prefixed TCP framing for front-door connections.

One frame = a 4-byte big-endian length followed by exactly one
``shard.wire`` payload (tag byte + typed body). TCP gives a byte
stream; the prefix restores the message boundaries the pipe-based
planes get for free from ``send_bytes``. The cap rejects frames that
could only come from a confused (or hostile) peer before a gigabyte of
buffer is committed to them.
"""

from __future__ import annotations

import asyncio
import struct

from repro.common.errors import EngineError

#: Upper bound on a single frame's payload (32 MiB — far above any
#: sane IngestBatch at the ``INGEST_MAX`` chunking of the shard cluster).
MAX_FRAME_BYTES = 32 << 20

_LEN = struct.Struct(">I")


class FrameError(EngineError):
    """A malformed or truncated frame; the connection is unusable."""


def frame(payload: bytes) -> bytes:
    """Prefix one wire payload with its length."""
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"frame too large: {len(payload)} bytes")
    return _LEN.pack(len(payload)) + payload


def take_frame(buffer: bytearray) -> bytes | None:
    """Pop one complete frame's payload off the front of ``buffer``;
    ``None`` while it holds less than a whole frame (the blocking
    client's receive path: ``recv`` into the buffer until this
    answers)."""
    if len(buffer) < _LEN.size:
        return None
    (length,) = _LEN.unpack_from(buffer)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame too large: {length} bytes")
    end = _LEN.size + length
    if len(buffer) < end:
        return None
    payload = bytes(buffer[_LEN.size:end])
    del buffer[:end]
    return payload


async def read_frame(reader: asyncio.StreamReader) -> bytes | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    EOF mid-frame raises :class:`FrameError` — the peer vanished with a
    message half-sent, which callers must treat as an abort, not a
    hangup.
    """
    try:
        header = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise FrameError("connection closed mid-header") from None
        return None
    except ConnectionResetError:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame too large: {length} bytes")
    try:
        return await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionResetError):
        raise FrameError("connection closed mid-frame") from None


async def write_frame(writer: asyncio.StreamWriter, payload: bytes) -> None:
    """Write one frame and wait out the transport's backpressure."""
    writer.write(frame(payload))
    await writer.drain()
