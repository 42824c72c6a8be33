"""Write-ahead log.

Every mutation is appended here before touching the memtable, so an
unflushed memtable can be rebuilt after a crash. Records carry a CRC-32
so a torn tail write is detected and replay stops cleanly at the last
complete record (instead of resurrecting garbage).

Record wire format (one :func:`repro.common.serde.write_frame` frame)::

    u32 crc | varint len | payload
    payload := varint cf_id | u8 kind | bytes key | [bytes value]

``kind`` is 0 for put, 1 for delete.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.common import serde
from repro.common.errors import SerdeError
from repro.common.storage import StorageBackend

_KIND_PUT = 0
_KIND_DELETE = 1


class WriteAheadLog:
    """Append-only mutation log over a :class:`StorageBackend` file."""

    def __init__(self, storage: StorageBackend, name: str) -> None:
        self._storage = storage
        self.name = name
        if not storage.exists(name):
            storage.create(name)

    def append_put(self, cf_id: int, key: bytes, value: bytes) -> None:
        """Log a put."""
        payload = bytearray()
        serde.write_varint(payload, cf_id)
        payload.append(_KIND_PUT)
        serde.write_bytes(payload, key)
        serde.write_bytes(payload, value)
        self._append_record(payload)

    def append_delete(self, cf_id: int, key: bytes) -> None:
        """Log a delete."""
        payload = bytearray()
        serde.write_varint(payload, cf_id)
        payload.append(_KIND_DELETE)
        serde.write_bytes(payload, key)
        self._append_record(payload)

    def _append_record(self, payload: bytearray) -> None:
        record = bytearray()
        serde.write_frame(record, payload)
        self._storage.append(self.name, record)

    def replay(self) -> Iterator[tuple[int, int, bytes, bytes | None]]:
        """Yield ``(cf_id, kind, key, value_or_None)`` for intact records.

        Stops silently at the first torn frame or undecodable record —
        that is the tail of an interrupted write, and everything before
        it is durable.
        """
        for _start, _end, payload in serde.iter_frames(self._storage.read_all(self.name)):
            try:
                cf_id, poff = serde.read_varint(payload, 0)
                kind = payload[poff]
                key, poff = serde.read_bytes(payload, poff + 1)
                value: bytes | None = None
                if kind == _KIND_PUT:
                    value, poff = serde.read_bytes(payload, poff)
                elif kind != _KIND_DELETE:
                    return
            except (SerdeError, IndexError):
                return
            yield cf_id, kind, key, value

    def size(self) -> int:
        """Current log size in bytes."""
        return self._storage.size(self.name)

    def reset(self) -> None:
        """Truncate the log (called after a successful memtable flush)."""
        self._storage.delete(self.name)
        self._storage.create(self.name)

    @staticmethod
    def kind_is_put(kind: int) -> bool:
        """True for put records from :meth:`replay`."""
        return kind == _KIND_PUT
