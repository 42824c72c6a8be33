"""Workload generator tests: determinism, skew, burst geometry."""

import pytest

from repro.common.timesource import MINUTES
from repro.events.generators import BurstWorkload, FraudWorkload, ZipfSampler, fraud_schema


class TestFraudSchema:
    def test_has_103_fields_by_default(self):
        assert len(fraud_schema()) == 103

    def test_core_fields_present(self):
        schema = fraud_schema()
        for name in ("cardId", "merchantId", "amount"):
            assert schema.has_field(name)

    def test_custom_width(self):
        assert len(fraud_schema(50)) == 50

    def test_too_narrow_rejected(self):
        with pytest.raises(ValueError):
            fraud_schema(3)


class TestZipfSampler:
    def test_rank_zero_most_popular(self):
        import random

        sampler = ZipfSampler(1000, 1.2, random.Random(1))
        counts = {}
        for _ in range(20_000):
            rank = sampler.sample()
            counts[rank] = counts.get(rank, 0) + 1
        assert counts.get(0, 0) > counts.get(100, 0)
        assert all(0 <= rank < 1000 for rank in counts)

    def test_uniform_when_s_zero(self):
        import random

        sampler = ZipfSampler(10, 0.0, random.Random(2))
        counts = [0] * 10
        for _ in range(20_000):
            counts[sampler.sample()] += 1
        assert max(counts) < 2 * min(counts)

    def test_bad_parameters(self):
        import random

        with pytest.raises(ValueError):
            ZipfSampler(0, 1.0, random.Random(1))
        with pytest.raises(ValueError):
            ZipfSampler(10, -1.0, random.Random(1))


class TestFraudWorkload:
    def test_deterministic_given_seed(self):
        a = FraudWorkload(seed=7).take(50)
        b = FraudWorkload(seed=7).take(50)
        assert [e.fields for e in a] == [e.fields for e in b]
        assert [e.timestamp for e in a] == [e.timestamp for e in b]

    def test_different_seeds_differ(self):
        a = FraudWorkload(seed=1).take(20)
        b = FraudWorkload(seed=2).take(20)
        assert [e.fields for e in a] != [e.fields for e in b]

    def test_events_validate_against_schema(self):
        workload = FraudWorkload(seed=3)
        for event in workload.take(30):
            workload.schema.validate_event(event)

    def test_timestamps_monotone(self):
        events = FraudWorkload(seed=4).take(200)
        assert all(
            events[i].timestamp <= events[i + 1].timestamp
            for i in range(len(events) - 1)
        )

    def test_rate_approximately_respected(self):
        events = FraudWorkload(seed=5, events_per_second=1000.0).take(2000)
        span_s = (events[-1].timestamp - events[0].timestamp) / 1000.0
        rate = len(events) / span_s
        assert 700 < rate < 1400

    def test_paced_mode_has_fixed_interarrival(self):
        events = FraudWorkload(seed=6, events_per_second=100.0, jitter=0).take(10)
        gaps = {
            events[i + 1].timestamp - events[i].timestamp
            for i in range(len(events) - 1)
        }
        assert gaps == {10}

    def test_card_skew_is_heavy(self):
        events = FraudWorkload(seed=8, cards=1000).take(3000)
        counts = {}
        for event in events:
            counts[event["cardId"]] = counts.get(event["cardId"], 0) + 1
        top = max(counts.values())
        assert top > 3000 / 1000 * 10  # head card way above average

    def test_ids_unique(self):
        events = FraudWorkload(seed=9).take(500)
        assert len({e.event_id for e in events}) == 500

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            FraudWorkload(events_per_second=0)


class TestBurstWorkload:
    def test_burst_fits_inside_window(self):
        window = 5 * MINUTES
        for burst in BurstWorkload(window, entities=20, seed=1).bursts():
            span = burst[-1].timestamp - burst[0].timestamp
            assert 0 < span < window

    def test_burst_size(self):
        for burst in BurstWorkload(5 * MINUTES, burst_size=7, entities=5).bursts():
            assert len(burst) == 7

    def test_bursts_are_isolated_in_time(self):
        bursts = list(BurstWorkload(5 * MINUTES, entities=10, seed=2).bursts())
        for previous, current in zip(bursts, bursts[1:]):
            gap = current[0].timestamp - previous[-1].timestamp
            assert gap > 5 * MINUTES

    def test_span_range_respected(self):
        window = 5 * MINUTES
        workload = BurstWorkload(window, entities=20, seed=3, span_range=(0.9, 0.95))
        for burst in workload.bursts():
            span = burst[-1].timestamp - burst[0].timestamp
            assert 0.85 * window < span < 0.96 * window

    def test_timestamps_sorted_within_burst(self):
        for burst in BurstWorkload(5 * MINUTES, entities=10, seed=4).bursts():
            timestamps = [event.timestamp for event in burst]
            assert timestamps == sorted(timestamps)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            BurstWorkload(1000, burst_size=1)
        with pytest.raises(ValueError):
            BurstWorkload(1000, span_range=(0.0, 0.5))
