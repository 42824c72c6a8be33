"""countDistinct via per-value counters in an auxiliary store.

"The countDistinct uses an auxiliary column-family in RocksDB to hold
the counts" (§4.1.3): each distinct field value maps to its in-window
multiplicity; the aggregator's own state is just the number of live
counters, maintained incrementally as counters rise from / fall to zero.
"""

from __future__ import annotations

from typing import Any

from repro.aggregates.base import Aggregator, AuxStore, MemoryAuxStore
from repro.common import serde
from repro.events.event import Event


def _value_key(value: Any) -> bytes:
    """Stable byte encoding of a field value used as the counter key."""
    buf = bytearray()
    serde.write_value(buf, value)
    return bytes(buf)


class CountDistinctAggregator(Aggregator):
    """``countDistinct(field)`` over the window's non-null values."""

    name = "countDistinct"
    needs_aux = True
    __slots__ = ("_distinct", "_aux")

    def __init__(self) -> None:
        self._distinct = 0
        self._aux: AuxStore = MemoryAuxStore()

    def bind_aux(self, aux: AuxStore) -> None:
        self._aux = aux

    def add(self, value: Any, event: Event) -> None:
        if value is None:
            return
        if self._aux.increment(_value_key(value), 1) == 1:
            self._distinct += 1

    def evict(self, value: Any, event: Event) -> None:
        if value is None:
            return
        if self._aux.increment(_value_key(value), -1) == 0:
            self._distinct -= 1

    def result(self) -> int:
        return self._distinct

    def state_to_bytes(self) -> bytes:
        buf = bytearray()
        serde.write_signed_varint(buf, self._distinct)
        return bytes(buf)

    def state_from_bytes(self, data: bytes) -> None:
        self._distinct, _ = serde.read_signed_varint(data, 0)
