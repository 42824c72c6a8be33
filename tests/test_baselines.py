"""Baseline engine tests: mechanics and the accuracy gaps they exhibit."""

import pytest

from repro.baselines import (
    HoppingWindowEngine,
    LambdaArchitecture,
    PerEventScanEngine,
    TrueSlidingReference,
)
from repro.common.timesource import MINUTES, SECONDS


class TestTrueSlidingReference:
    def test_window_semantics(self):
        reference = TrueSlidingReference(1000)
        reference.on_event("k", 100, 5.0)
        reference.on_event("k", 500, 3.0)
        assert reference.count("k", 500) == 2
        assert reference.sum("k", 500) == 8.0
        assert reference.count("k", 1100) == 1  # ts=100 expired at 1100
        assert reference.count("k", 1501) == 0

    def test_keys_isolated(self):
        reference = TrueSlidingReference(1000)
        reference.on_event("a", 100, 1.0)
        assert reference.count("b", 100) == 0

    def test_stored_events(self):
        reference = TrueSlidingReference(1000)
        for ts in (100, 200, 1500):
            reference.on_event("k", ts, 1.0)
        assert reference.stored_events() == 1  # first two expired


class TestHoppingEngine:
    def test_panes_per_event_ratio(self):
        engine = HoppingWindowEngine(60 * MINUTES, 5 * MINUTES)
        assert engine.panes_per_event == 12
        engine = HoppingWindowEngine(60 * MINUTES, 1 * SECONDS)
        assert engine.panes_per_event == 3600

    def test_hop_larger_than_window_rejected(self):
        with pytest.raises(ValueError):
            HoppingWindowEngine(1000, 2000)

    def test_event_updates_all_covering_panes(self):
        engine = HoppingWindowEngine(3000, 1000)
        engine.on_event("k", 2500, 1.0)
        assert engine.stats.pane_updates == 3

    def test_fired_result_quantized_to_hops(self):
        engine = HoppingWindowEngine(2000, 1000)
        engine.on_event("k", 500, 1.0)
        engine.on_event("k", 1500, 1.0)
        # At t=1500 only pane [-1000, 1000) has fired: one event.
        assert engine.count("k", 1500) == 1
        # At t=2100 the pane [0, 2000) fired with both events.
        assert engine.count("k", 2100) == 2
        # A true sliding window at 2600 holds only ts=1500; the fired
        # hopping result still reports the stale pane.
        truth = TrueSlidingReference(2000)
        truth.on_event("k", 500, 1.0)
        truth.on_event("k", 1500, 1.0)
        assert truth.count("k", 2600) == 1
        assert engine.count("k", 2600) != truth.count("k", 2600)

    def test_max_live_count_sees_open_panes(self):
        engine = HoppingWindowEngine(2000, 1000)
        engine.on_event("k", 100, 1.0)
        engine.on_event("k", 200, 1.0)
        assert engine.max_live_count("k") == 2

    def test_figure1_burst_invisible_to_any_pane(self):
        window, hop = 5 * MINUTES, 1 * MINUTES
        engine = HoppingWindowEngine(window, hop)
        base = 30 * SECONDS  # misaligned with the hop grid
        for offset in (0, 60, 120, 180, 299):  # 5 events in <5 minutes
            engine.on_event("k", base + offset * SECONDS, 1.0)
        assert engine.max_live_count("k") < 5

    def test_pane_expiry_bounds_memory(self):
        engine = HoppingWindowEngine(3000, 1000)
        for i in range(50):
            engine.on_event("k", i * 1000, 1.0)
        assert engine.active_pane_count() <= engine.panes_per_event + 1
        assert engine.stats.panes_expired > 0

    def test_active_key_count(self):
        engine = HoppingWindowEngine(3000, 1000)
        engine.on_event("a", 100, 1.0)
        engine.on_event("b", 150, 1.0)
        assert engine.active_key_count() == 2


class TestPerEventScan:
    def test_results_exact(self):
        engine = PerEventScanEngine(1000)
        truth = TrueSlidingReference(1000)
        for ts, value in ((100, 1.0), (600, 2.0), (1400, 3.0)):
            total, count = engine.on_event("k", ts, value)
            truth.on_event("k", ts, value)
            assert count == truth.count("k", ts)
            assert total == pytest.approx(truth.sum("k", ts))

    def test_scan_cost_grows_with_occupancy(self):
        engine = PerEventScanEngine(1_000_000)
        for i in range(100):
            engine.on_event("k", i, 1.0)
        assert engine.stats.events_scanned == sum(range(1, 101))

    def test_ttl_pruning_bounds_storage(self):
        engine = PerEventScanEngine(100, prune_factor=2)
        for i in range(1000):
            engine.on_event("k", i * 10, 1.0)
        assert engine.stats.stored_events < 500

    def test_query_methods(self):
        engine = PerEventScanEngine(1000)
        engine.on_event("k", 100, 5.0)
        assert engine.count("k", 150) == 1
        assert engine.sum("k", 150) == 5.0


class TestLambdaArchitecture:
    def test_exact_within_speed_layer(self):
        lam = LambdaArchitecture(10_000, batch_interval_ms=60_000)
        lam.on_event("k", 1000, 2.0)
        lam.on_event("k", 2000, 3.0)
        assert lam.count("k", 2000) == 2
        assert lam.sum("k", 2000) == 5.0

    def test_batch_staleness_causes_error(self):
        window, interval = 5_000, 10_000
        lam = LambdaArchitecture(window, interval)
        truth = TrueSlidingReference(window)
        lam.on_event("k", 9_000, 1.0)
        truth.on_event("k", 9_000, 1.0)
        # Cross a batch boundary; the batch layer now owns ts<10000 and
        # computed its window as of t=10000 (including ts=9000).
        lam.on_event("k", 11_000, 1.0)
        truth.on_event("k", 11_000, 1.0)
        # At 14.5s the true window holds only ts=11000; lambda still
        # reports the stale batch contribution for ts=9000 too.
        assert truth.count("k", 14_500) == 1
        assert lam.count("k", 14_500) == 2

    def test_batch_runs_counted(self):
        lam = LambdaArchitecture(5_000, 10_000)
        lam.on_event("k", 1_000, 1.0)
        lam.on_event("k", 25_000, 1.0)
        assert lam.stats.batch_runs >= 1

    def test_bad_params(self):
        with pytest.raises(ValueError):
            LambdaArchitecture(0, 100)
        with pytest.raises(ValueError):
            PerEventScanEngine(0)
        with pytest.raises(ValueError):
            TrueSlidingReference(0)
