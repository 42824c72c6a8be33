"""Per-event-rescan engine — Flink's custom fraud pattern (paper [21]).

"For each event, the solution computes each aggregation from scratch by
iterating over all stored events (persisted in RocksDB) for those
matching the window interval. This approach has quadratic performance,
and since Flink was not designed to store events and manage event
expiration, few optimizations are possible" (§2.2). Results are exact
(it is a true sliding window) — the problem is cost, which the stats
expose for the latency model.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass


@dataclass
class ScanStats:
    """Cost counters: the quadratic blow-up made visible."""

    events: int = 0
    events_scanned: int = 0
    stored_events: int = 0


class PerEventScanEngine:
    """Exact sliding ``sum``/``count`` by full rescan per event."""

    def __init__(self, window_ms: int, prune_factor: int = 4) -> None:
        if window_ms <= 0:
            raise ValueError(f"window must be positive: {window_ms}")
        self.window_ms = window_ms
        # Flink does not manage expiry; we model the practical variant
        # that prunes very old events occasionally (state TTL), keeping
        # storage bounded at prune_factor x window occupancy.
        self.prune_factor = prune_factor
        self.stats = ScanStats()
        self._store: dict[object, list[tuple[int, float]]] = defaultdict(list)

    def on_event(self, key: object, timestamp: int, value: float) -> tuple[float, int]:
        """Store, rescan the key's events, return exact (sum, count)."""
        self.stats.events += 1
        entries = self._store[key]
        entries.append((timestamp, value))
        self.stats.stored_events += 1
        cutoff = timestamp - self.window_ms
        total = 0.0
        count = 0
        for entry_ts, entry_value in entries:
            self.stats.events_scanned += 1
            if entry_ts > cutoff and entry_ts <= timestamp:
                total += entry_value
                count += 1
        # TTL-style pruning, not per-event expiry (Flink has no notion
        # of per-event window expiry for this pattern).
        if entries and entries[0][0] <= timestamp - self.prune_factor * self.window_ms:
            kept = [(ts, v) for ts, v in entries if ts > cutoff]
            self.stats.stored_events -= len(entries) - len(kept)
            self._store[key] = kept
        return total, count

    def count(self, key: object, now: int) -> int:
        """Exact count (rescan without storing)."""
        cutoff = now - self.window_ms
        entries = self._store.get(key, [])
        self.stats.events_scanned += len(entries)
        return sum(1 for ts, _ in entries if cutoff < ts <= now)

    def sum(self, key: object, now: int) -> float:
        """Exact sum (rescan without storing)."""
        cutoff = now - self.window_ms
        entries = self._store.get(key, [])
        self.stats.events_scanned += len(entries)
        return sum(v for ts, v in entries if cutoff < ts <= now)
