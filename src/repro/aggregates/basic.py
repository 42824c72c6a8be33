"""count, sum and avg — the scalar accumulators.

These need no auxiliary data beyond their accumulator(s): "an average
requires storing also a counter, while a sum or a count, do not require
any extra data other than the current value" (§4.1.3).
"""

from __future__ import annotations

from typing import Any

from repro.aggregates.base import Aggregator
from repro.common import serde
from repro.events.event import Event


class CountAggregator(Aggregator):
    """``count(field)``: non-null values only (SQL semantics).

    ``count(*)`` is expressed by feeding a constant ``True`` as the
    value for every event (the plan does this when the argument is *).
    """

    name = "count"
    __slots__ = ("_count",)

    def __init__(self) -> None:
        self._count = 0

    def add(self, value: Any, event: Event) -> None:
        if value is not None:
            self._count += 1

    def evict(self, value: Any, event: Event) -> None:
        if value is not None:
            self._count -= 1

    def update_batch(self, enters, exits) -> None:
        self._count -= sum(1 for value, _ in exits if value is not None)
        self._count += sum(1 for value, _ in enters if value is not None)

    def result(self) -> int:
        return self._count

    def state_to_bytes(self) -> bytes:
        return serde.signed_varint_bytes(self._count)

    def state_from_bytes(self, data: bytes) -> None:
        self._count, _ = serde.read_signed_varint(data, 0)


class SumAggregator(Aggregator):
    """``sum(field)`` over numeric values; null values are ignored."""

    name = "sum"
    __slots__ = ("_sum",)

    def __init__(self) -> None:
        self._sum = 0.0

    def add(self, value: Any, event: Event) -> None:
        if value is not None:
            self._sum += float(value)

    def evict(self, value: Any, event: Event) -> None:
        if value is not None:
            self._sum -= float(value)

    def update_batch(self, enters, exits) -> None:
        # Sequential left-to-right folds keep float results bit-identical
        # to the per-event path; ``sum(..., start)`` adds left-to-right.
        total = self._sum
        for value, _ in exits:
            if value is not None:
                total -= float(value)
        self._sum = sum(
            (float(value) for value, _ in enters if value is not None), total
        )

    def result(self) -> float:
        return self._sum

    def state_to_bytes(self) -> bytes:
        return serde.pack_f64(self._sum)

    def state_from_bytes(self, data: bytes) -> None:
        self._sum, _ = serde.read_f64(data, 0)


class AvgAggregator(Aggregator):
    """``avg(field)``; stores sum and count, returns None when empty."""

    name = "avg"
    __slots__ = ("_sum", "_count")

    def __init__(self) -> None:
        self._sum = 0.0
        self._count = 0

    def add(self, value: Any, event: Event) -> None:
        if value is not None:
            self._sum += float(value)
            self._count += 1

    def evict(self, value: Any, event: Event) -> None:
        if value is not None:
            self._sum -= float(value)
            self._count -= 1

    def update_batch(self, enters, exits) -> None:
        total = self._sum
        count = self._count
        for value, _ in exits:
            if value is not None:
                total -= float(value)
                count -= 1
        for value, _ in enters:
            if value is not None:
                total += float(value)
                count += 1
        self._sum = total
        self._count = count

    def result(self) -> float | None:
        if self._count == 0:
            return None
        return self._sum / self._count

    def state_to_bytes(self) -> bytes:
        return serde.pack_f64(self._sum) + serde.signed_varint_bytes(self._count)

    def state_from_bytes(self, data: bytes) -> None:
        self._sum, offset = serde.read_f64(data, 0)
        self._count, _ = serde.read_signed_varint(data, offset)
