"""Admission control for the front door: quotas, caps, latency budgets.

The server's contract is *bounded* intake: every accepted event is
tracked until its reply ships, and an ``IngestBatch`` that would push a
tenant (or the whole server) past its limits is answered with an
explicit ``ServerBusy`` frame naming the rejected correlations — never
buffered without bound, never silently dropped. Three checks gate each
batch, cheapest first (nothing queues between the server's loop and the
cluster, so unread socket data is the only queue and TCP its
back-pressure):

1. **server-wide in-flight cap** — total events accepted and not yet
   replied, across all tenants.
2. **per-tenant in-flight cap** — one tenant cannot occupy the whole
   pipeline.
3. **per-tenant token bucket** — sustained events/second with a burst
   allowance; the refusal carries ``retry_after_ms`` computed from the
   refill rate, so clients back off exactly as long as needed.

Each tenant also carries a :class:`LatencyBudget` (target p50/p99) and a
:class:`~repro.common.percentiles.LatencyRecorder` of observed
server-side latencies; :meth:`AdmissionController.stats` reports
observed vs budget so a breach is visible in monitoring before clients
notice.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Mapping

from repro.common.percentiles import LatencyRecorder
from repro.common.timesource import TimeSource, resolve_time_source


@dataclass(frozen=True)
class LatencyBudget:
    """Target server-side latency percentiles for a tenant (ms)."""

    p50_ms: float = 50.0
    p99_ms: float = 250.0


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission limits.

    ``events_per_sec`` is the sustained token-bucket rate and ``burst``
    its capacity; ``max_in_flight`` caps events accepted but not yet
    replied; ``max_connections`` caps concurrent sockets. ``budget`` is
    the latency target the tenant's observed percentiles are judged
    against in ``stats()``.
    """

    events_per_sec: float = 100_000.0
    burst: int = 8_192
    max_in_flight: int = 4_096
    max_connections: int = 256
    budget: LatencyBudget = LatencyBudget()


@dataclass(frozen=True)
class Decision:
    """The verdict on a connection or batch: admitted, or shed with a
    machine-readable reason and a retry hint."""

    ok: bool
    reason: str = ""
    retry_after_ms: int = 0


ADMITTED = Decision(True)

#: ``ServerBusy.reason`` prefix that is not load at all: the cluster
#: refused the batch whole before publishing (schema violation, unknown
#: stream). The server writes it, the clients raise on it instead of
#: retrying.
REJECTED = "rejected: "

#: Retry hint for refusals that depend on in-flight work completing
#: (connection and in-flight caps) rather than on token refill — there
#: is no exact schedule, so hint a short, fixed backoff.
_BACKOFF_MS = 25


class TokenBucket:
    """A token bucket over an injectable :class:`TimeSource`.

    ``try_take(n)`` returns 0.0 and debits on success, or the seconds
    until ``n`` tokens will have accrued (without debiting) — the
    caller turns that into ``retry_after_ms``. With a
    :class:`~repro.common.timesource.DeterministicTimeSource` every
    refill (and thus every ``retry_after_ms``) is an exact function of
    virtual time — no real sleeping anywhere in the admission tests.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        time_source: TimeSource | None = None,
    ) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError(f"rate and burst must be positive: {rate}, {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._time = resolve_time_source(time_source)
        self._tokens = float(burst)
        self._last = self._time.monotonic()

    def _refill(self) -> None:
        now = self._time.monotonic()
        if now > self._last:
            self._tokens = min(
                self.burst, self._tokens + (now - self._last) * self.rate
            )
        self._last = now

    @property
    def tokens(self) -> float:
        """Tokens currently available (after refill)."""
        self._refill()
        return self._tokens

    def try_take(self, n: float = 1.0) -> float:
        self._refill()
        if n <= self._tokens:
            self._tokens -= n
            return 0.0
        return (n - self._tokens) / self.rate


@dataclass
class _TenantState:
    quota: TenantQuota
    bucket: TokenBucket
    connections: int = 0
    in_flight: int = 0
    admitted_events: int = 0
    shed_events: int = 0
    recorder: LatencyRecorder = field(default_factory=LatencyRecorder)


class AdmissionController:
    """Server-wide admission state: caps, per-tenant quotas, latency.

    Thread-safe (one lock around every decision): the server's loop
    thread decides and completes, while ``stats()`` may be read from any
    thread. Tenants not named in ``quotas`` get
    ``default_quota``; state is created lazily on first contact.
    """

    def __init__(
        self,
        quotas: Mapping[str, TenantQuota] | None = None,
        default_quota: TenantQuota = TenantQuota(),
        max_connections: int = 1_024,
        max_in_flight: int = 16_384,
        time_source: TimeSource | None = None,
    ) -> None:
        self.max_connections = max_connections
        self.max_in_flight = max_in_flight
        self._quotas = dict(quotas or {})
        self._default_quota = default_quota
        self._time = resolve_time_source(time_source)
        self._tenants: dict[str, _TenantState] = {}
        self._lock = threading.Lock()
        self.connections = 0
        self.in_flight = 0
        self.shed_batches = 0

    def quota_for(self, tenant: str) -> TenantQuota:
        """The quota a tenant is (or would be) admitted under."""
        return self._quotas.get(tenant, self._default_quota)

    def _state(self, tenant: str) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            quota = self.quota_for(tenant)
            state = _TenantState(
                quota,
                TokenBucket(quota.events_per_sec, quota.burst, self._time),
            )
            self._tenants[tenant] = state
        return state

    # -- connections ----------------------------------------------------------

    def connect(self, tenant: str) -> Decision:
        """Admit or refuse a new connection for ``tenant``."""
        with self._lock:
            if self.connections >= self.max_connections:
                return Decision(False, "server-connections", _BACKOFF_MS)
            state = self._state(tenant)
            if state.connections >= state.quota.max_connections:
                return Decision(False, "tenant-connections", _BACKOFF_MS)
            state.connections += 1
            self.connections += 1
            return ADMITTED

    def disconnect(self, tenant: str) -> None:
        """Release a connection previously admitted by :meth:`connect`."""
        with self._lock:
            state = self._state(tenant)
            state.connections = max(0, state.connections - 1)
            self.connections = max(0, self.connections - 1)

    # -- batches --------------------------------------------------------------

    def admit(self, tenant: str, events: int) -> Decision:
        """Admit or shed a batch of ``events`` for ``tenant``.

        All-or-nothing: a batch is either fully accepted (and debited
        against the bucket and in-flight counters) or fully shed — the
        caller answers a shed with one ``ServerBusy`` naming every
        correlation in the batch.
        """
        with self._lock:
            state = self._state(tenant)
            if self.in_flight + events > self.max_in_flight:
                return self._shed(state, events, "server-in-flight", _BACKOFF_MS)
            if state.in_flight + events > state.quota.max_in_flight:
                return self._shed(state, events, "tenant-in-flight", _BACKOFF_MS)
            wait_s = state.bucket.try_take(events)
            if wait_s > 0:
                return self._shed(
                    state, events, "tenant-rate", max(1, math.ceil(wait_s * 1000))
                )
            state.in_flight += events
            state.admitted_events += events
            self.in_flight += events
            return ADMITTED

    def _shed(
        self, state: _TenantState, events: int, reason: str, retry_ms: int
    ) -> Decision:
        state.shed_events += events
        self.shed_batches += 1
        return Decision(False, reason, retry_ms)

    def complete(
        self, tenant: str, events: int = 1, latency_ms: float | None = None
    ) -> None:
        """Mark admitted events replied; record their server latency."""
        with self._lock:
            state = self._state(tenant)
            state.in_flight = max(0, state.in_flight - events)
            self.in_flight = max(0, self.in_flight - events)
            if latency_ms is not None:
                state.recorder.record(max(latency_ms, 0.0), count=events)

    # -- introspection --------------------------------------------------------

    def stats(self) -> dict:
        """Counters plus observed-vs-budget latency per tenant."""
        with self._lock:
            tenants = {}
            for tenant, state in sorted(self._tenants.items()):
                observed_p50 = (
                    state.recorder.percentile(50.0) if state.recorder.count else 0.0
                )
                observed_p99 = (
                    state.recorder.percentile(99.0) if state.recorder.count else 0.0
                )
                budget = state.quota.budget
                tenants[tenant] = {
                    "connections": state.connections,
                    "in_flight": state.in_flight,
                    "admitted_events": state.admitted_events,
                    "shed_events": state.shed_events,
                    "observed_p50_ms": observed_p50,
                    "observed_p99_ms": observed_p99,
                    "budget_p50_ms": budget.p50_ms,
                    "budget_p99_ms": budget.p99_ms,
                    "within_p50_budget": observed_p50 <= budget.p50_ms,
                    "within_p99_budget": observed_p99 <= budget.p99_ms,
                }
            return {
                "connections": self.connections,
                "in_flight": self.in_flight,
                "shed_batches": self.shed_batches,
                "tenants": tenants,
            }
