"""min/max via a monotonic deque (the paper's reference [30], Knuth).

The deque holds ``(timestamp, event_id, value)`` candidates in eviction
order with monotone values: for ``max`` the values strictly decrease, so
the front is always the window maximum. In-order adds and evictions are
O(1) amortized; out-of-order adds (late events behind the window head)
take a linear fix-up on the small candidate deque, preserving exactness.

The deque is a plain ``list``: the state store keeps one aggregator per
group key resident, an empty ``collections.deque`` is 760 bytes against
a list's 56, and the candidate run is short (logarithmic in the window
for unordered values), so popping its front is a few-pointer move.
"""

from __future__ import annotations

from typing import Any

from repro.aggregates.base import Aggregator
from repro.common import serde
from repro.common.errors import SerdeError
from repro.events.event import Event


class _ExtremeAggregator(Aggregator):
    """Shared implementation; ``_keep_left(a, b)`` decides dominance."""

    __slots__ = ("_deque",)

    def __init__(self) -> None:
        self._deque: list[tuple[int, str, float]] = []

    @staticmethod
    def _dominates(keeper: float, candidate: float) -> bool:
        raise NotImplementedError

    def add(self, value: Any, event: Event) -> None:
        if value is None:
            return
        value = float(value)
        entry = (event.timestamp, event.event_id, value)
        if not self._deque or self._deque[-1][0] <= event.timestamp:
            # In-order arrival: pop earlier candidates this one dominates
            # (it expires later than all of them).
            while self._deque and not self._dominates(self._deque[-1][2], value):
                self._deque.pop()
            self._deque.append(entry)
            return
        # Late arrival: place the entry at its timestamp position, drop
        # earlier entries it dominates, skip insertion when a later
        # entry dominates it.
        entries = self._deque
        position = len(entries)
        while position > 0 and entries[position - 1][0] > event.timestamp:
            position -= 1
        if any(self._dominates(e[2], value) or e[2] == value for e in entries[position:]):
            return  # a later-expiring entry is at least as extreme
        while position > 0 and not self._dominates(entries[position - 1][2], value):
            entries.pop(position - 1)
            position -= 1
        entries.insert(position, entry)

    def update_batch(self, enters, exits) -> None:
        for value, event in exits:
            self.evict(value, event)
        dominates = self._dominates
        candidates = self._deque
        for value, event in enters:
            if value is None:
                continue
            value = float(value)
            if not candidates or candidates[-1][0] <= event.timestamp:
                # In-order arrival: same monotonic pops as add(), with
                # the dispatch and deque lookups hoisted out of the loop.
                while candidates and not dominates(candidates[-1][2], value):
                    candidates.pop()
                candidates.append((event.timestamp, event.event_id, value))
            else:
                self.add(value, event)

    def evict(self, value: Any, event: Event) -> None:
        if value is None or not self._deque:
            return
        front = self._deque[0]
        if front[0] == event.timestamp and front[1] == event.event_id:
            del self._deque[0]
            return
        # The evicted event is usually not a candidate (it was dominated
        # at insertion time). If it is — possible with out-of-order
        # evictions from a missed-queue — remove it wherever it sits.
        for position, entry in enumerate(self._deque):
            if entry[0] == event.timestamp and entry[1] == event.event_id:
                del self._deque[position]
                return

    def result(self) -> float | None:
        if not self._deque:
            return None
        return self._deque[0][2]

    def candidate_count(self) -> int:
        """Size of the candidate deque (memory-accounting hook)."""
        return len(self._deque)

    def state_to_bytes(self) -> bytes:
        # The serde writers' bytes (varint count, then per candidate
        # varint timestamp | str event_id | f64 value), written in one
        # buffer: an epoch-ms timestamp is a six-byte varint, and its
        # loop inlined here is most of what a candidate costs.
        varint = serde.varint_bytes
        buf = bytearray(varint(len(self._deque)))
        append, extend, pack_f64 = buf.append, buf.extend, serde.pack_f64
        for timestamp, event_id, value in self._deque:
            if timestamp < 0:
                raise SerdeError(f"varint cannot encode negative value {timestamp}")
            while timestamp >= 128:
                append(timestamp & 0x7F | 0x80)
                timestamp >>= 7
            append(timestamp)
            raw = event_id.encode()
            extend(varint(len(raw)))
            extend(raw)
            extend(pack_f64(value))
        return bytes(buf)

    def state_from_bytes(self, data: bytes) -> None:
        self._deque.clear()
        count, offset = serde.read_varint(data, 0)
        for _ in range(count):
            timestamp, offset = serde.read_varint(data, offset)
            event_id, offset = serde.read_str(data, offset)
            value, offset = serde.read_f64(data, offset)
            self._deque.append((timestamp, event_id, value))


class MaxAggregator(_ExtremeAggregator):
    """``max(field)``: deque values strictly decreasing."""

    name = "max"
    __slots__ = ()

    @staticmethod
    def _dominates(keeper: float, candidate: float) -> bool:
        return keeper > candidate


class MinAggregator(_ExtremeAggregator):
    """``min(field)``: deque values strictly increasing."""

    name = "min"
    __slots__ = ()

    @staticmethod
    def _dominates(keeper: float, candidate: float) -> bool:
        return keeper < candidate
