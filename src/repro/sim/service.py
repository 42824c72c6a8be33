"""Per-engine service-time models.

Each model turns the *mechanisms* of its engine into milliseconds of
single-threaded processor-unit work per event. The constants are
calibrated so a single node reproduces the paper's operating points
(§5.1: 500 ev/s comfortable for Railgun and for Flink at large hops;
§5.3: ~3.1k ev/s per processor unit at the 25k ev/s node sweet spot),
and the *shapes* — who degrades, where the cliffs sit — follow from the
mechanisms, not from fitted curves.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.sim.distributions import LogNormal


@dataclass
class RailgunServiceConfig:
    """Railgun per-event cost drivers (all microseconds unless noted)."""

    base_us: float = 120.0  # poll/dispatch/reply overhead
    #: share of ``base_us`` that is per-poll-dispatch bookkeeping rather
    #: than per-event compute; the batched ingest path pays it once per
    #: polled batch instead of once per event. Clamped to ``base_us``
    #: (a config tuned to a smaller base keeps its meaning: everything
    #: amortizable amortizes).
    dispatch_us: float = 70.0
    #: events consumed per poll batch. 1 models the per-event engine
    #: (every event pays the full dispatch); the batched engine polls
    #: up to ``POLL_MAX_RECORDS`` at a time, amortizing ``dispatch_us``
    #: across every queued event that rides the same batch.
    poll_batch_events: int = 1
    per_state_key_us: float = 35.0  # one RocksDB get+put per DAG leaf
    state_keys: int = 2  # DAG leaves touched per event (Figure 6)
    per_tail_event_us: float = 12.0  # expiring-event processing per tail
    tails: int = 1  # distinct tail iterators advanced per event
    jitter_sigma: float = 0.35
    # reservoir paging
    chunk_events: int = 512
    iterators: int = 2
    cache_capacity: int = 220
    decompress_ms: float = 3.0  # OS page-cache hit: deserialization only
    full_io_ms: float = 14.0  # actual disk seek (rare)
    full_io_fraction: float = 0.12
    chunk_close_cpu_ms: float = 0.5  # serialize+compress, charged partially
    chunk_close_sync_fraction: float = 0.15  # I/O is async (§4.1.1)


class RailgunServiceModel:
    """Service time for one Railgun processor unit."""

    def __init__(self, config: RailgunServiceConfig, rng: random.Random) -> None:
        self.config = config
        self._rng = rng
        if config.dispatch_us < 0.0:
            raise ValueError(f"negative dispatch_us: {config.dispatch_us}")
        self._dispatch_us = min(config.dispatch_us, config.base_us)
        base_ms = (
            config.base_us
            + config.per_state_key_us * config.state_keys
            + config.per_tail_event_us * config.tails
        ) / 1000.0
        self._base = LogNormal(base_ms, config.jitter_sigma, rng)
        # Follower events in a poll batch skip the per-dispatch share of
        # base_us — the paper's batched path pays poll/dispatch/reply
        # bookkeeping once per batch, not once per event.
        self._amortized = LogNormal(
            max(base_ms - self._dispatch_us / 1000.0, 1e-6),
            config.jitter_sigma,
            rng,
        )
        self._events = 0
        self._miss_probability = self._compute_miss_probability()

    @property
    def poll_batch_events(self) -> int:
        """Events per poll batch (the pipeline's batch-formation knob)."""
        return self.config.poll_batch_events

    def _compute_miss_probability(self) -> float:
        """Demand-miss probability per chunk advance.

        Prefetching hides loads while the cache can hold one in-flight
        chunk per iterator (§5.2.1); as the iterator count approaches
        the capacity, prefetched chunks get evicted before use.
        """
        iterators = self.config.iterators
        capacity = self.config.cache_capacity
        knee = 0.85 * capacity
        if iterators <= knee:
            return 0.0004
        overshoot = (iterators - knee) / max(capacity - knee, 1e-9)
        return min(1.0, 0.0004 + 0.5 * overshoot**2)

    @property
    def mean_service_ms(self) -> float:
        """Expected per-event service time at batch size 1 (worst case)."""
        return self._mean_service_ms(batch_events=1)

    @property
    def mean_service_ms_batched(self) -> float:
        """Expected per-event service time with full poll batches.

        The saturated-throughput bound for the batched engine: under
        load every poll drains ``poll_batch_events`` events and the
        dispatch overhead amortizes fully. Between this and
        :attr:`mean_service_ms` lies every partially-batched regime.
        """
        return self._mean_service_ms(batch_events=self.config.poll_batch_events)

    def _mean_service_ms(self, batch_events: int) -> float:
        advances_per_event = self.config.iterators / self.config.chunk_events
        miss_penalty = (
            self._miss_probability
            * (
                (1 - self.config.full_io_fraction) * self.config.decompress_ms
                + self.config.full_io_fraction * self.config.full_io_ms
            )
        )
        dispatch_us = self._dispatch_us
        amortized_base_us = (
            self.config.base_us
            - dispatch_us
            + dispatch_us / max(1, batch_events)
        )
        return (
            (amortized_base_us
             + self.config.per_state_key_us * self.config.state_keys
             + self.config.per_tail_event_us * self.config.tails) / 1000.0
            + advances_per_event * miss_penalty
            + (self.config.chunk_close_cpu_ms
               * self.config.chunk_close_sync_fraction) / self.config.chunk_events
        )

    def service_ms(
        self, event_time_ms: int, key: int, first_of_batch: bool = True
    ) -> float:
        """Sample one event's processing time.

        ``first_of_batch`` selects the per-batch vs per-event split:
        the first event of a poll batch pays the full dispatch overhead,
        followers sample the amortized base. With the default batch size
        of 1 every event is a batch leader and the model is bit-for-bit
        the pre-batching one (the amortized distribution never draws).
        """
        self._events += 1
        total = (self._base if first_of_batch else self._amortized).sample()
        # Chunk close: every chunk_events appends, serialize+compress;
        # writes are async so only a CPU fraction hits the critical path.
        if self._events % self.config.chunk_events == 0:
            total += (
                self.config.chunk_close_cpu_ms
                * self.config.chunk_close_sync_fraction
            )
        # Iterator chunk advances: each iterator crosses a chunk boundary
        # every chunk_events events; a miss pays deserialization (page
        # cache) or occasionally a real seek.
        advances = self.config.iterators / self.config.chunk_events
        while advances > 0:
            take = min(advances, 1.0)
            if self._rng.random() < take * self._miss_probability:
                if self._rng.random() < self.config.full_io_fraction:
                    total += self.config.full_io_ms * (0.7 + 0.6 * self._rng.random())
                else:
                    total += self.config.decompress_ms * (0.7 + 0.6 * self._rng.random())
            advances -= take
        return total


@dataclass
class HoppingServiceConfig:
    """Flink-style hopping-window cost drivers."""

    base_us: float = 150.0
    per_pane_update_us: float = 6.0  # one windowed-state update
    window_ms: int = 60 * 60 * 1000
    hop_ms: int = 5 * 60 * 1000
    per_key_rotation_us: float = 25.0  # pane create+fire+expire per key
    active_keys: int = 20_000  # distinct keys in one window span
    jitter_sigma: float = 0.4


class HoppingServiceModel:
    """Service time for a Flink-style worker on hopping windows.

    Two mechanisms dominate (§2.2): per-event pane updates
    (``windowSize/hopSize`` of them) and the per-hop rotation burst that
    touches every active key. Small hops inflate both — at 10 s hops and
    below the worker's capacity drops under the offered 500 ev/s and the
    queue (and thus latency) diverges, which is exactly Figure 8.
    """

    def __init__(self, config: HoppingServiceConfig, rng: random.Random) -> None:
        self.config = config
        self._rng = rng
        self.panes_per_event = -(-config.window_ms // config.hop_ms)
        per_event_ms = (
            config.base_us + config.per_pane_update_us * self.panes_per_event
        ) / 1000.0
        self._base = LogNormal(per_event_ms, config.jitter_sigma, rng)
        self._last_hop = -1

    @property
    def rotation_burst_ms(self) -> float:
        """Blocking work at each hop boundary."""
        return self.config.active_keys * self.config.per_key_rotation_us / 1000.0

    @property
    def mean_service_ms(self) -> float:
        """Expected per-event cost with the burst amortized in."""
        per_event = (
            self.config.base_us
            + self.config.per_pane_update_us * self.panes_per_event
        ) / 1000.0
        return per_event  # burst is charged separately per hop

    def service_ms(self, event_time_ms: int, key: int) -> float:
        """Sample one event's processing time (plus any due hop burst)."""
        total = self._base.sample()
        hop_index = event_time_ms // self.config.hop_ms
        if hop_index != self._last_hop:
            if self._last_hop >= 0:
                hops_crossed = min(hop_index - self._last_hop, 3)
                total += self.rotation_burst_ms * hops_crossed * (
                    0.8 + 0.4 * self._rng.random()
                )
            self._last_hop = hop_index
        return total


@dataclass
class PerEventScanConfig:
    """Flink custom fraud pattern [21]: full rescan per event."""

    base_us: float = 200.0
    per_scanned_event_us: float = 1.2  # RocksDB iteration + deserialize
    window_occupancy: float = 1800.0  # mean stored events per key window
    occupancy_sigma: float = 1.0  # Zipf keys: heavy-tailed occupancy
    jitter_sigma: float = 0.3


class PerEventScanServiceModel:
    """Service time for the per-event-rescan baseline (quadratic)."""

    def __init__(self, config: PerEventScanConfig, rng: random.Random) -> None:
        self.config = config
        self._rng = rng
        self._occupancy = LogNormal(config.window_occupancy, config.occupancy_sigma, rng)
        self._jitter = LogNormal(1.0, config.jitter_sigma, rng)

    @property
    def mean_service_ms(self) -> float:
        import math

        mean_occupancy = self.config.window_occupancy * math.exp(
            self.config.occupancy_sigma**2 / 2
        )
        return (
            self.config.base_us
            + self.config.per_scanned_event_us * mean_occupancy
        ) / 1000.0

    def service_ms(self, event_time_ms: int, key: int) -> float:
        scanned = self._occupancy.sample()
        base = (
            self.config.base_us + self.config.per_scanned_event_us * scanned
        ) / 1000.0
        return base * self._jitter.sample()
