"""Admission-control unit tests: token buckets, caps, latency budgets.

The controller is pure bookkeeping over an injectable
:class:`~repro.common.timesource.TimeSource`, so every behavior here is
deterministic — zero real sleeping anywhere (asserted below), no
sockets. The server contract tests in ``test_server_frontdoor.py``
exercise the same code end to end over TCP.
"""

from __future__ import annotations

import time

import pytest

from repro.common.timesource import DeterministicTimeSource
from repro.server.admission import (
    AdmissionController,
    LatencyBudget,
    TenantQuota,
    TokenBucket,
)


def FakeClock(start: float = 0.0) -> DeterministicTimeSource:
    """The deterministic time plane; admission reads it, tests advance it."""
    return DeterministicTimeSource(start)


class TestTokenBucket:
    def test_starts_full_and_debits(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=5.0, time_source=clock)
        assert bucket.tokens == 5.0
        assert bucket.try_take(3) == 0.0
        assert bucket.tokens == 2.0

    def test_refills_at_rate_capped_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=5.0, time_source=clock)
        bucket.try_take(5)
        clock.advance(0.25)
        assert bucket.tokens == pytest.approx(2.5)
        clock.advance(100.0)
        assert bucket.tokens == 5.0  # never above burst

    def test_refusal_returns_exact_wait_without_debit(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=5.0, time_source=clock)
        bucket.try_take(5)
        wait = bucket.try_take(2)
        assert wait == pytest.approx(0.2)  # 2 tokens at 10/s
        assert bucket.tokens == 0.0  # refusal did not debit
        clock.advance(wait)
        assert bucket.try_take(2) == 0.0

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=-1.0)


def make_controller(clock, **overrides) -> AdmissionController:
    defaults = dict(
        default_quota=TenantQuota(
            events_per_sec=100.0,
            burst=50,
            max_in_flight=40,
            max_connections=2,
            budget=LatencyBudget(p50_ms=10.0, p99_ms=20.0),
        ),
        max_connections=3,
        max_in_flight=60,
        time_source=clock,
    )
    defaults.update(overrides)
    return AdmissionController(**defaults)


class TestConnections:
    def test_tenant_connection_cap(self):
        admission = make_controller(FakeClock())
        assert admission.connect("a").ok
        assert admission.connect("a").ok
        refused = admission.connect("a")
        assert not refused.ok and refused.reason == "tenant-connections"
        admission.disconnect("a")
        assert admission.connect("a").ok

    def test_server_connection_cap_across_tenants(self):
        admission = make_controller(FakeClock())
        for tenant in ("a", "a", "b"):
            assert admission.connect(tenant).ok
        refused = admission.connect("c")
        assert not refused.ok and refused.reason == "server-connections"

    def test_named_quota_overrides_default(self):
        admission = make_controller(
            FakeClock(), quotas={"vip": TenantQuota(max_connections=1)}
        )
        assert admission.quota_for("vip").max_connections == 1
        assert admission.connect("vip").ok
        assert not admission.connect("vip").ok


class TestBatchAdmission:
    def test_checks_fire_in_documented_order(self):
        clock = FakeClock()
        admission = make_controller(clock)
        # 1. server in-flight: two tenants together exceed the server cap
        #    while each stays under its own.
        assert admission.admit("a", 35).ok
        assert admission.admit("b", 30).reason == "server-in-flight"
        admission.complete("a", 35)
        # 2. tenant in-flight.
        assert admission.admit("b", 30).ok
        assert admission.admit("b", 20).reason == "tenant-in-flight"
        admission.complete("b", 30)
        # 3. token bucket: b already spent 30 of its 50-token burst, so
        #    25 more exceed the tokens left while staying under the caps.
        shed = admission.admit("b", 25)
        assert shed.reason == "tenant-rate"
        assert shed.retry_after_ms >= 1

    def test_all_or_nothing_and_rate_recovery(self):
        clock = FakeClock()
        admission = make_controller(clock)
        assert admission.admit("a", 40).ok
        admission.complete("a", 40)
        shed = admission.admit("a", 20)  # 10 tokens left of burst 50
        assert shed.reason == "tenant-rate"
        # The refusal names the exact wait for the full batch (100/s).
        assert shed.retry_after_ms == 100
        clock.advance(0.1)
        assert admission.admit("a", 20).ok

    def test_ledger_counts_admitted_and_shed(self):
        admission = make_controller(FakeClock())
        admission.admit("a", 10)
        admission.admit("a", 100)  # over tenant in-flight: shed
        stats = admission.stats()
        assert stats["in_flight"] == 10
        assert stats["shed_batches"] == 1
        tenant = stats["tenants"]["a"]
        assert tenant["admitted_events"] == 10
        assert tenant["shed_events"] == 100
        admission.complete("a", 10)
        assert admission.stats()["in_flight"] == 0

    def test_complete_never_goes_negative(self):
        admission = make_controller(FakeClock())
        admission.complete("ghost", 5)
        stats = admission.stats()
        assert stats["in_flight"] == 0
        assert stats["tenants"]["ghost"]["in_flight"] == 0


class TestLatencyBudgets:
    def test_observed_percentiles_vs_budget(self):
        admission = make_controller(FakeClock())
        admission.admit("a", 200)
        for _ in range(90):
            admission.complete("a", 1, latency_ms=5.0)
        for _ in range(10):
            admission.complete("a", 1, latency_ms=500.0)
        tenant = admission.stats()["tenants"]["a"]
        assert tenant["observed_p50_ms"] <= 10.0
        assert tenant["observed_p99_ms"] > 20.0
        assert tenant["within_p50_budget"] is True
        assert tenant["within_p99_budget"] is False
        assert tenant["budget_p50_ms"] == 10.0
        assert tenant["budget_p99_ms"] == 20.0

    def test_no_samples_reports_zero_within_budget(self):
        admission = make_controller(FakeClock())
        admission.connect("quiet")
        tenant = admission.stats()["tenants"]["quiet"]
        assert tenant["observed_p50_ms"] == 0.0
        assert tenant["within_p99_budget"] is True


class TestDeterministicRetryAfter:
    def test_exact_retry_schedule_with_zero_real_sleeping(self):
        # The satellite regression for the old `clock: Callable` params
        # default-bound to time.monotonic at import: a deterministic
        # source must drive the *exact* retry_after_ms schedule while
        # the test spends no measurable real time waiting.
        wall_started = time.perf_counter()
        ts = FakeClock()
        admission = make_controller(ts)
        # Drain the 50-token burst (in two takes: in-flight cap is 40).
        for take in (40, 10):
            assert admission.admit("a", take).ok
            admission.complete("a", take)
        # 100 ev/s: n missing tokens cost exactly n*10 ms, always.
        for missing in (1, 7, 40):
            shed = admission.admit("a", missing)
            assert shed.reason == "tenant-rate"
            assert shed.retry_after_ms == missing * 10
        # Advancing virtual time by the hinted wait admits exactly that
        # batch — a shorter advance still refuses with the remainder.
        shed = admission.admit("a", 20)
        assert shed.retry_after_ms == 200
        ts.advance(0.1)
        assert admission.admit("a", 20).retry_after_ms == 100
        ts.advance(0.1)
        assert admission.admit("a", 20).ok
        assert time.perf_counter() - wall_started < 0.5

    def test_construction_reads_injected_source_not_import_time(self):
        # Buckets built from a source that starts deep in virtual time
        # must anchor refill at *that* time (the import-time binding bug
        # would anchor at process start and grant a huge refill).
        ts = FakeClock(start=1_000_000.0)
        bucket = TokenBucket(rate=1.0, burst=10.0, time_source=ts)
        bucket.try_take(10)
        assert bucket.tokens == 0.0
        ts.advance(5.0)
        assert bucket.tokens == 5.0
