"""last / prev — positional aggregations over the window.

``last`` is the newest value currently in the window, ``prev`` the one
before it. Because evictions remove the *oldest* events first, tracking
only the two newest (timestamp, id, value) entries is exact: when the
second-newest is evicted the window has shrunk to one event; when the
newest is evicted it is empty.
"""

from __future__ import annotations

from typing import Any

from repro.aggregates.base import Aggregator
from repro.common import serde
from repro.events.event import Event

_Entry = tuple[int, str, object]


class _RecencyAggregator(Aggregator):
    """Shared state tracking the two most recent entries."""

    __slots__ = ("_last", "_prev")

    def __init__(self) -> None:
        self._last: _Entry | None = None
        self._prev: _Entry | None = None

    def add(self, value: Any, event: Event) -> None:
        if value is None:
            return
        entry = (event.timestamp, event.event_id, value)
        if self._last is None or entry[:2] >= self._last[:2]:
            self._prev = self._last
            self._last = entry
        elif self._prev is None or entry[:2] >= self._prev[:2]:
            # Late event newer than prev but older than last.
            self._prev = entry

    def evict(self, value: Any, event: Event) -> None:
        if value is None:
            return
        key = (event.timestamp, event.event_id)
        if self._last is not None and self._last[:2] == key:
            # Evicting the newest: everything older is already gone.
            self._last = None
            self._prev = None
        elif self._prev is not None and self._prev[:2] == key:
            self._prev = None

    def state_to_bytes(self) -> bytes:
        buf = bytearray()
        for entry in (self._last, self._prev):
            if entry is None:
                buf.append(0)
            else:
                buf.append(1)
                serde.write_varint(buf, entry[0])
                serde.write_str(buf, entry[1])
                serde.write_value(buf, entry[2])
        return bytes(buf)

    def state_from_bytes(self, data: bytes) -> None:
        offset = 0
        entries: list[_Entry | None] = []
        for _ in range(2):
            present = data[offset]
            offset += 1
            if not present:
                entries.append(None)
                continue
            timestamp, offset = serde.read_varint(data, offset)
            event_id, offset = serde.read_str(data, offset)
            value, offset = serde.read_value(data, offset)
            entries.append((timestamp, event_id, value))
        self._last, self._prev = entries[0], entries[1]


class LastAggregator(_RecencyAggregator):
    """``last(field)``: newest non-null value in the window."""

    name = "last"
    __slots__ = ()

    def result(self) -> Any:
        return None if self._last is None else self._last[2]


class PrevAggregator(_RecencyAggregator):
    """``prev(field)``: second newest non-null value in the window."""

    name = "prev"
    __slots__ = ()

    def result(self) -> Any:
        return None if self._prev is None else self._prev[2]
