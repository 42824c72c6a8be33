"""The reservoir chunk cache with eager prefetching.

"Iterators eagerly load adjacent chunks into cache when a new chunk is
loaded from disk, and starts to be iterated. Hence, when a window needs
events from the next chunk, the chunk is normally already available"
(§4.1.1). The cache distinguishes *demand* loads (latency-visible: the
iterator had to wait) from *prefetch* loads (asynchronous in the paper,
hidden from the critical path) — the distinction Figure 9b measures when
the iterator count approaches the cache capacity.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass
class CacheStats:
    """Counters consumed by tests and the latency cost model."""

    hits: int = 0
    demand_misses: int = 0
    prefetch_loads: int = 0
    prefetch_wasted: int = 0  # prefetched but evicted or dropped before first use
    evictions: int = 0  # capacity (LRU) evictions
    passed_drops: int = 0  # chunks dropped once every iterator passed them

    @property
    def total_requests(self) -> int:
        return self.hits + self.demand_misses

    @property
    def miss_rate(self) -> float:
        total = self.total_requests
        return self.demand_misses / total if total else 0.0


class ChunkCache:
    """LRU cache of decoded chunk event lists, keyed by chunk id.

    Capacity is measured in chunks, mirroring the paper's experiment
    setup ("we used 220 chunk elements in Railgun's cache", §5.2.1).
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive: {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[int, list] = OrderedDict()
        self._never_used: set[int] = set()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, chunk_id: int) -> bool:
        return chunk_id in self._entries

    def get(self, chunk_id: int) -> list | None:
        """Events for a cached chunk (refreshes recency) or None."""
        entry = self._entries.get(chunk_id)
        if entry is None:
            self.stats.demand_misses += 1
            return None
        self._entries.move_to_end(chunk_id)
        self._never_used.discard(chunk_id)
        self.stats.hits += 1
        return entry

    def peek(self, chunk_id: int) -> bool:
        """Presence check without touching stats or recency."""
        return chunk_id in self._entries

    def put_demand(self, chunk_id: int, events: list) -> None:
        """Insert a chunk loaded on the critical path."""
        self._insert(chunk_id, events, prefetched=False)

    def put_prefetch(self, chunk_id: int, events: list) -> None:
        """Insert a chunk loaded ahead of need (off the critical path)."""
        if chunk_id in self._entries:
            return
        self.stats.prefetch_loads += 1
        self._insert(chunk_id, events, prefetched=True)

    def _insert(self, chunk_id: int, events: list, prefetched: bool) -> None:
        if chunk_id in self._entries:
            self._entries.move_to_end(chunk_id)
            return
        while len(self._entries) >= self.capacity:
            evicted_id, _ = self._entries.popitem(last=False)
            self.stats.evictions += 1
            if evicted_id in self._never_used:
                self._never_used.discard(evicted_id)
                self.stats.prefetch_wasted += 1
        self._entries[chunk_id] = events
        if prefetched:
            self._never_used.add(chunk_id)

    def drop_below(self, chunk_id: int) -> None:
        """Drop every chunk whose id is below ``chunk_id`` — the chunks
        every live iterator has already passed. Random reads reload them
        from storage, as after an eviction."""
        for passed in [cid for cid in self._entries if cid < chunk_id]:
            del self._entries[passed]
            self.stats.passed_drops += 1
            if passed in self._never_used:
                self._never_used.discard(passed)
                self.stats.prefetch_wasted += 1

    def invalidate(self, chunk_id: int) -> None:
        """Drop one chunk (used when a transition chunk is re-persisted)."""
        self._entries.pop(chunk_id, None)
        self._never_used.discard(chunk_id)

    def clear(self) -> None:
        """Drop everything (stats are retained)."""
        self._entries.clear()
        self._never_used.clear()
