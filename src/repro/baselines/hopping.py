"""Hopping-window engine — the Flink-style baseline (paper §2, §2.2).

Mechanics mirrored from mainstream stream processors:

- a sliding window of size ``ws`` with hop ``s`` is approximated by
  ``ws/s`` overlapping *panes* per key, each covering ``[start, start+ws)``
  with starts at hop multiples;
- an arriving event updates **every** pane containing its timestamp
  (``ws/s`` state updates — the cost ratio of §2.2) and is then
  discarded (no storage, no expiry processing);
- a pane *fires* when event time passes its end; the fired result is
  what rules and queries observe until the next pane fires, so results
  are only refreshed once per hop — the Figure 1 inaccuracy;
- at every hop boundary, pane rotation creates/expires one pane per
  active key (the per-hop maintenance burst the latency simulation
  charges for).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass


@dataclass
class HoppingStats:
    """Cost counters the simulator's Flink model is calibrated from."""

    events: int = 0
    pane_updates: int = 0
    panes_created: int = 0
    panes_expired: int = 0
    fired_windows: int = 0


class HoppingWindowEngine:
    """``sum``/``count`` per key over hopping windows."""

    def __init__(self, window_ms: int, hop_ms: int) -> None:
        if window_ms <= 0 or hop_ms <= 0:
            raise ValueError("window and hop must be positive")
        if hop_ms > window_ms:
            raise ValueError(
                f"hop {hop_ms} larger than window {window_ms} (step s is "
                "generally not bigger than ws, §2)"
            )
        self.window_ms = window_ms
        self.hop_ms = hop_ms
        self.stats = HoppingStats()
        # key -> pane start -> [sum, count]
        self._panes: dict[object, dict[int, list[float]]] = defaultdict(dict)
        # key -> start of the newest *fired* pane (results visible to queries)
        self._fired: dict[object, tuple[int, float, int]] = {}
        self._watermark = -1

    @property
    def panes_per_event(self) -> int:
        """The §2.2 ratio: window states touched per arriving event."""
        return -(-self.window_ms // self.hop_ms)  # ceil

    def _pane_starts(self, timestamp: int) -> list[int]:
        """All pane starts whose ``[start, start + ws)`` contains ``ts``."""
        first = ((timestamp - self.window_ms) // self.hop_ms + 1) * self.hop_ms
        starts = []
        start = first
        while start <= timestamp:
            starts.append(start)
            start += self.hop_ms
        return starts

    def on_event(self, key: object, timestamp: int, value: float) -> None:
        """Update all covering panes; fire this key's passed panes.

        Firing is lazy per key (as Flink's per-key timers would do), so
        the engine never scans the whole key space on a single event.
        """
        self.stats.events += 1
        if timestamp > self._watermark:
            self._watermark = timestamp
        self._maybe_fire(key, timestamp)
        panes = self._panes[key]
        for start in self._pane_starts(timestamp):
            state = panes.get(start)
            if state is None:
                state = [0.0, 0]
                panes[start] = state
                self.stats.panes_created += 1
            state[0] += value
            state[1] += 1
            self.stats.pane_updates += 1

    # -- queries (observe the last fired window, as a rule engine would) -----

    def count(self, key: object, now: int) -> int:
        """Count from the newest fired pane at ``now`` (0 before any fire)."""
        self._maybe_fire(key, now)
        fired = self._fired.get(key)
        return fired[2] if fired else 0

    def sum(self, key: object, now: int) -> float:
        """Sum from the newest fired pane at ``now``."""
        self._maybe_fire(key, now)
        fired = self._fired.get(key)
        return fired[1] if fired else 0.0

    def _maybe_fire(self, key: object, now: int) -> None:
        panes = self._panes.get(key)
        if not panes:
            return
        fired_start = None
        for start in sorted(panes):
            if start + self.window_ms <= now:
                fired_start = start
        if fired_start is None:
            return
        for start in [s for s in panes if s <= fired_start]:
            state = panes.pop(start)
            if start == fired_start:
                self._fired[key] = (start, state[0], state[1])
                self.stats.fired_windows += 1
            self.stats.panes_expired += 1

    def max_live_count(self, key: object) -> int:
        """Largest count over the key's *live* (unfired) panes.

        The most generous reading possible for hopping windows: an
        early-trigger rule that inspects every open pane per event. Even
        this cannot detect a burst unless some single pane's boundaries
        contain all its events — Figure 1's core argument.
        """
        panes = self._panes.get(key)
        if not panes:
            return 0
        return max(int(state[1]) for state in panes.values())

    def active_pane_count(self) -> int:
        """Total live pane states (the §2.2 memory-scaling story)."""
        return sum(len(panes) for panes in self._panes.values())

    def active_key_count(self) -> int:
        """Keys with live panes (per-hop rotation cost driver)."""
        return sum(1 for panes in self._panes.values() if panes)
