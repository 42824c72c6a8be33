"""stdDev via Welford's online algorithm with reverse updates.

The paper stores "the three parameters to compute the Welford's online
algorithm" (§4.1.3, reference [50]): count, mean and M2 (the sum of
squared deviations). Eviction applies the algebraic inverse of the
update, which is exact in real arithmetic and numerically stable enough
for windowed use (state resets whenever the window empties, bounding
error accumulation).
"""

from __future__ import annotations

import math
from typing import Any

from repro.aggregates.base import Aggregator
from repro.common import serde
from repro.events.event import Event


class StdDevAggregator(Aggregator):
    """Sample standard deviation of a numeric field over the window."""

    name = "stdDev"
    __slots__ = ("_count", "_mean", "_m2")

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, value: Any, event: Event) -> None:
        if value is None:
            return
        value = float(value)
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)

    def evict(self, value: Any, event: Event) -> None:
        if value is None:
            return
        value = float(value)
        if self._count <= 1:
            # Window empties: reset exactly to avoid error accumulation.
            self._count = 0
            self._mean = 0.0
            self._m2 = 0.0
            return
        old_mean = self._mean
        self._count -= 1
        self._mean = (self._count + 1) * old_mean / self._count - value / self._count
        self._m2 -= (value - old_mean) * (value - self._mean)
        if self._m2 < 0.0:
            self._m2 = 0.0  # clamp tiny negative drift from float error

    def result(self) -> float | None:
        if self._count < 2:
            return None
        return math.sqrt(self._m2 / (self._count - 1))

    def variance(self) -> float | None:
        """Sample variance (used by tests for tighter tolerances)."""
        if self._count < 2:
            return None
        return self._m2 / (self._count - 1)

    def state_to_bytes(self) -> bytes:
        return (
            serde.signed_varint_bytes(self._count)
            + serde.pack_f64(self._mean)
            + serde.pack_f64(self._m2)
        )

    def state_from_bytes(self, data: bytes) -> None:
        self._count, offset = serde.read_signed_varint(data, 0)
        self._mean, offset = serde.read_f64(data, offset)
        self._m2, _ = serde.read_f64(data, offset)
