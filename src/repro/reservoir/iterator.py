"""Reservoir iterators — the window head/tail cursors of Figure 5.

An iterator is a cursor over the reservoir's global event order,
positioned at ``(chunk_id, index_within_chunk)``. Windows advance their
head iterator to pull *entering* events and their tail iterator to pull
*expiring* events; iterators transparently page closed chunks through
the cache and trigger the eager prefetch of the next chunk the moment
they enter a new one.

Out-of-order inserts behind a cursor are delivered through a *missed
queue*: the reservoir shifts the cursor and parks the late event so the
invariant "every stored event is emitted exactly once per iterator"
survives late data (see :meth:`EventReservoir._fixup_iterators`).
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import TYPE_CHECKING

from repro.events.event import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.reservoir.reservoir import EventReservoir


class ReservoirIterator:
    """A shared, forward-only cursor over reservoir events."""

    def __init__(
        self,
        reservoir: "EventReservoir",
        offset_ms: int,
        chunk_id: int,
        index: int,
        name: str = "",
    ) -> None:
        # A proxy, not a reference: the reservoir lists its iterators, and
        # a cycle between them would outlive a dropped task processor
        # once a checkpoint barrier froze it (see TaskProcessor.checkpoint).
        self._reservoir = weakref.proxy(reservoir)
        self.offset_ms = offset_ms
        self.chunk_id = chunk_id
        self.index = index
        self.name = name or f"it@{offset_ms}"
        self.missed: deque[Event] = deque()
        self.refcount = 1
        self.events_emitted = 0
        self._current_events: list[Event] | None = None
        self._current_chunk_id = -1

    @property
    def position(self) -> tuple[int, int]:
        """Current ``(chunk_id, index)`` cursor."""
        return (self.chunk_id, self.index)

    def advance_upto(
        self, limit_ts: int, max_at_limit: int | None = None
    ) -> list[Event]:
        """Emit all unconsumed events with ``timestamp <= limit_ts``.

        Late events parked in the missed queue are emitted first (they
        are, by construction, already behind the cursor and therefore
        within any future limit).

        ``max_at_limit`` bounds how many scanned events with timestamp
        *exactly* ``limit_ts`` are emitted before the cursor stops (just
        past the last emitted one). The batched ingestion path uses this
        to process timestamp-tied runs one event at a time: a tie group
        is fully appended before the plan advances, so each advance must
        stop at its own event instead of consuming the whole group.
        Missed-queue events do not count against the bound.
        """
        batch: list[Event] = []
        while self.missed:
            batch.append(self.missed.popleft())
        reservoir = self._reservoir
        at_limit = 0
        capped = False
        while True:
            events = self._events_for(self.chunk_id)
            if events is None:
                break  # cursor is at the frontier (no such chunk yet)
            while self.index < len(events):
                event = events[self.index]
                if event.timestamp > limit_ts:
                    self.events_emitted += len(batch)
                    return batch
                batch.append(event)
                self.index += 1
                if event.timestamp == limit_ts and max_at_limit is not None:
                    at_limit += 1
                    if at_limit >= max_at_limit:
                        capped = True
                        break
            # Exhausted this chunk (or capped exactly at its tail). The
            # open chunk can still grow, so park there; otherwise move
            # to the next chunk if it exists — the capped exit performs
            # the same boundary walk so the cursor parks at the position
            # an uncapped advance over the same consumed events would
            # reach, but never emits (nor skips) anything past the cap.
            if capped and self.index < len(events):
                break
            if reservoir.chunk_can_grow(self.chunk_id):
                break
            if not reservoir.chunk_exists(self.chunk_id + 1):
                break
            self.chunk_id += 1
            self.index = 0
            self._current_events = None
            self._current_chunk_id = -1
            if capped:
                # Re-run the walk on the next chunk: an empty closed
                # chunk would roll again; a non-empty one parks at 0.
                events = self._events_for(self.chunk_id)
                if events is None or len(events) > 0:
                    break
        self.events_emitted += len(batch)
        return batch

    def may_page(self, limit_ts: int) -> bool:
        """True unless advancing to ``limit_ts`` surely reads no chunk
        through the reservoir's cache: it stops inside the chunk the
        cursor holds, or rolls from there into the open chunk. Cache
        reads are order-sensitive (LRU), so a caller that advances
        several cursors out of their per-event order checks this first.
        """
        reservoir = self._reservoir
        chunk_id = self.chunk_id
        if self._current_chunk_id != chunk_id or self._current_events is None:
            return not reservoir.chunk_can_grow(chunk_id)
        events = self._current_events
        if self.index < len(events) and events[-1].timestamp > limit_ts:
            return False
        return not (
            reservoir.chunk_can_grow(chunk_id) or reservoir.chunk_can_grow(chunk_id + 1)
        )

    def _events_for(self, chunk_id: int) -> list[Event] | None:
        if self._current_chunk_id == chunk_id and self._current_events is not None:
            return self._current_events
        events = self._reservoir.chunk_events_for_iterator(chunk_id)
        if events is None:
            return None
        self._current_events = events
        self._current_chunk_id = chunk_id
        return events

    def invalidate_cached_chunk(self) -> None:
        """Drop the local chunk reference (called when its data moved)."""
        self._current_events = None
        self._current_chunk_id = -1

    def note_insert(self, chunk_id: int, position: int, event: Event) -> None:
        """React to a late insert at ``(chunk_id, position)``.

        If the cursor has already passed that slot, shift it so it still
        points at the same next event, and park the late event in the
        missed queue.
        """
        if chunk_id > self.chunk_id:
            return
        if chunk_id == self.chunk_id:
            if position >= self.index:
                return
            self.index += 1
        # Insert happened strictly behind the cursor.
        self.missed.append(event)
        if chunk_id == self._current_chunk_id:
            # list identity is stable (in-place insert), but be safe.
            self.invalidate_cached_chunk()

    def __repr__(self) -> str:
        return (
            f"ReservoirIterator({self.name}, offset={self.offset_ms}ms, "
            f"pos=({self.chunk_id},{self.index}), missed={len(self.missed)})"
        )
