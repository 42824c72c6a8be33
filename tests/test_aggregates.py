"""Aggregator tests: each verified against brute force over a window."""

import math
import random
import statistics

import pytest
from hypothesis import given, settings, strategies as st

from repro.aggregates import (
    AGGREGATOR_NAMES,
    AvgAggregator,
    CountAggregator,
    CountDistinctAggregator,
    LastAggregator,
    MaxAggregator,
    MemoryAuxStore,
    MinAggregator,
    PrevAggregator,
    StdDevAggregator,
    SumAggregator,
    aggregator_requires_numeric,
    create_aggregator,
)
from repro.common import serde
from repro.common.errors import QueryError, SerdeError
from repro.events.event import Event


def _event(i, ts=None):
    return Event(f"e{i}", ts if ts is not None else i, {})


def _sliding_replay(aggregator, values, window):
    """Feed values through a size-`window` sliding window; yield results."""
    for i, value in enumerate(values):
        if i >= window:
            aggregator.evict(values[i - window], _event(i - window))
        aggregator.add(value, _event(i))
        yield aggregator.result()


class TestCount:
    def test_counts_non_null(self):
        agg = CountAggregator()
        agg.add(1, _event(0))
        agg.add(None, _event(1))
        agg.add("x", _event(2))
        assert agg.result() == 2

    def test_evict(self):
        agg = CountAggregator()
        agg.add(1, _event(0))
        agg.evict(1, _event(0))
        assert agg.result() == 0

    def test_star_semantics_with_sentinel(self):
        agg = CountAggregator()
        for i in range(5):
            agg.add(True, _event(i))  # plan feeds True for count(*)
        assert agg.result() == 5


class TestSumAvg:
    def test_sum_windowed(self):
        values = [random.Random(1).uniform(-10, 10) for _ in range(50)]
        agg = SumAggregator()
        for i, result in enumerate(_sliding_replay(agg, values, 10)):
            expected = sum(values[max(0, i - 9): i + 1])
            assert result == pytest.approx(expected)

    def test_avg_windowed(self):
        values = list(range(30))
        agg = AvgAggregator()
        for i, result in enumerate(_sliding_replay(agg, values, 5)):
            window = values[max(0, i - 4): i + 1]
            assert result == pytest.approx(sum(window) / len(window))

    def test_avg_empty_is_none(self):
        agg = AvgAggregator()
        assert agg.result() is None
        agg.add(1.0, _event(0))
        agg.evict(1.0, _event(0))
        assert agg.result() is None

    def test_nulls_ignored(self):
        agg = AvgAggregator()
        agg.add(2.0, _event(0))
        agg.add(None, _event(1))
        assert agg.result() == 2.0


class TestMinMax:
    @pytest.mark.parametrize("cls,func", [(MaxAggregator, max), (MinAggregator, min)])
    def test_windowed_exact(self, cls, func):
        rng = random.Random(5)
        values = [rng.randrange(100) for _ in range(200)]
        agg = cls()
        for i, result in enumerate(_sliding_replay(agg, values, 16)):
            window = values[max(0, i - 15): i + 1]
            assert result == func(window)

    def test_empty_is_none(self):
        agg = MaxAggregator()
        assert agg.result() is None

    def test_deque_stays_small_on_monotone_input(self):
        agg = MaxAggregator()
        for i in range(100):
            agg.add(i, _event(i))
        assert agg.candidate_count() == 1  # increasing input: only newest

    def test_out_of_order_add_exact(self):
        agg = MaxAggregator()
        agg.add(5, Event("a", 100, {}))
        agg.add(3, Event("b", 300, {}))
        # Late event between them with a dominating value.
        agg.add(9, Event("late", 200, {}))
        assert agg.result() == 9
        agg.evict(5, Event("a", 100, {}))
        assert agg.result() == 9
        agg.evict(9, Event("late", 200, {}))
        assert agg.result() == 3

    def test_out_of_order_dominated_insert_skipped(self):
        agg = MaxAggregator()
        agg.add(5, Event("a", 100, {}))
        agg.add(7, Event("b", 300, {}))  # dominates and pops a
        agg.add(6, Event("late", 200, {}))  # dominated by b (later, larger)
        assert agg.candidate_count() == 1
        assert agg.result() == 7
        agg.evict(5, Event("a", 100, {}))  # not a candidate: no-op
        agg.evict(6, Event("late", 200, {}))  # not a candidate: no-op
        assert agg.result() == 7

    @given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=120))
    @settings(max_examples=40)
    def test_property_windowed_max(self, values):
        agg = MaxAggregator()
        for i, result in enumerate(_sliding_replay(agg, values, 8)):
            assert result == max(values[max(0, i - 7): i + 1])

    @given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=120))
    @settings(max_examples=40)
    def test_property_windowed_min(self, values):
        agg = MinAggregator()
        for i, result in enumerate(_sliding_replay(agg, values, 8)):
            assert result == min(values[max(0, i - 7): i + 1])


class TestStdDev:
    def test_windowed_matches_statistics(self):
        rng = random.Random(2)
        values = [rng.uniform(0, 100) for _ in range(100)]
        agg = StdDevAggregator()
        for i, result in enumerate(_sliding_replay(agg, values, 12)):
            window = values[max(0, i - 11): i + 1]
            if len(window) < 2:
                assert result is None
            else:
                assert result == pytest.approx(statistics.stdev(window), rel=1e-6)

    def test_variance(self):
        agg = StdDevAggregator()
        for value in (2.0, 4.0, 6.0):
            agg.add(value, _event(0))
        assert agg.variance() == pytest.approx(statistics.variance([2, 4, 6]))

    def test_under_two_samples_none(self):
        agg = StdDevAggregator()
        assert agg.result() is None
        agg.add(1.0, _event(0))
        assert agg.result() is None

    def test_reset_on_empty(self):
        agg = StdDevAggregator()
        agg.add(5.0, _event(0))
        agg.evict(5.0, _event(0))
        agg.add(1.0, _event(1))
        agg.add(3.0, _event(2))
        assert agg.result() == pytest.approx(statistics.stdev([1.0, 3.0]))

    def test_numerical_stability_large_offset(self):
        agg = StdDevAggregator()
        base = 1e9
        values = [base + v for v in (1.0, 2.0, 3.0, 4.0)]
        for i, value in enumerate(values):
            agg.add(value, _event(i))
        agg.evict(values[0], _event(0))
        assert agg.result() == pytest.approx(statistics.stdev(values[1:]), rel=1e-3)


class TestLastPrev:
    def test_tracks_two_newest(self):
        last, prev = LastAggregator(), PrevAggregator()
        for i, value in enumerate(("a", "b", "c")):
            for agg in (last, prev):
                agg.add(value, _event(i, ts=i * 10))
        assert last.result() == "c"
        assert prev.result() == "b"

    def test_eviction_of_older_events_is_noop(self):
        last = LastAggregator()
        for i in range(5):
            last.add(i, _event(i, ts=i * 10))
        last.evict(0, _event(0, ts=0))
        assert last.result() == 4

    def test_evicting_prev_clears_it(self):
        prev = PrevAggregator()
        prev.add("a", _event(0, ts=0))
        prev.add("b", _event(1, ts=10))
        prev.evict("a", _event(0, ts=0))
        assert prev.result() is None

    def test_evicting_last_empties_window(self):
        last = LastAggregator()
        last.add("a", _event(0, ts=0))
        last.evict("a", _event(0, ts=0))
        assert last.result() is None

    def test_late_event_between_last_and_prev(self):
        last, prev = LastAggregator(), PrevAggregator()
        for agg in (last, prev):
            agg.add("old", _event(0, ts=0))
            agg.add("new", _event(2, ts=100))
            agg.add("mid", _event(1, ts=50))  # late
        assert last.result() == "new"
        assert prev.result() == "mid"


class TestCountDistinct:
    def test_windowed_exact(self):
        rng = random.Random(3)
        values = [f"v{rng.randrange(6)}" for _ in range(120)]
        agg = CountDistinctAggregator()
        for i, result in enumerate(_sliding_replay(agg, values, 20)):
            window = values[max(0, i - 19): i + 1]
            assert result == len(set(window))

    def test_nulls_ignored(self):
        agg = CountDistinctAggregator()
        agg.add(None, _event(0))
        assert agg.result() == 0

    def test_aux_store_binding(self):
        agg = CountDistinctAggregator()
        aux = MemoryAuxStore()
        agg.bind_aux(aux)
        agg.add("x", _event(0))
        agg.add("x", _event(1))
        assert aux.count_keys() == 1
        agg.evict("x", _event(0))
        assert agg.result() == 1
        agg.evict("x", _event(1))
        assert agg.result() == 0
        assert aux.count_keys() == 0

    def test_mixed_value_types_distinct(self):
        agg = CountDistinctAggregator()
        agg.add(1, _event(0))
        agg.add("1", _event(1))
        agg.add(1.0, _event(2))
        assert agg.result() == 3


class TestStateSerde:
    @pytest.mark.parametrize(
        "name", ["count", "sum", "avg", "stdDev", "max", "min", "last", "prev", "countDistinct"]
    )
    def test_roundtrip_preserves_result(self, name):
        agg = create_aggregator(name)
        rng = random.Random(11)
        for i in range(20):
            agg.add(rng.uniform(0, 10), _event(i, ts=i * 7))
        clone = create_aggregator(name)
        if clone.needs_aux:
            # countDistinct shares its aux store across (de)serialization.
            aux = MemoryAuxStore()
            fresh = create_aggregator(name)
            fresh.bind_aux(aux)
            for i in range(20):
                fresh.add(i % 4, _event(i, ts=i))
            clone.bind_aux(aux)
            clone.state_from_bytes(fresh.state_to_bytes())
            assert clone.result() == fresh.result()
            return
        clone.state_from_bytes(agg.state_to_bytes())
        assert clone.result() == pytest.approx(agg.result())


COUNTS = st.integers(-(2**40), 2**40) | st.sampled_from([0, -1, 63, -64, 64, 2**62])
FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, math.nan, 2.0**-1074]
)
CANDIDATES = st.lists(
    st.tuples(
        st.integers(0, 2**36) | st.sampled_from([127, 128, 2**35, 2**63]),
        st.text(max_size=12),  # non-ASCII ids: the prefix is a byte length
        FLOATS,
    ),
    max_size=8,
)


def _written(*writes):
    """The bytes the serde writers append, in order."""
    buf = bytearray()
    for write, value in writes:
        write(buf, value)
    return bytes(buf)


def _assert_roundtrip(agg, name):
    clone = create_aggregator(name)
    clone.state_from_bytes(agg.state_to_bytes())
    assert clone.state_to_bytes() == agg.state_to_bytes()


class TestOneCallStateEncoders:
    """Each ``state_to_bytes`` builds its bytes in one expression; they
    must equal what the serde writers it replaced append."""

    @given(COUNTS, FLOATS)
    @settings(max_examples=150, deadline=None)
    def test_scalar_accumulators(self, count, total):
        agg = create_aggregator("count")
        agg._count = count
        assert agg.state_to_bytes() == _written((serde.write_signed_varint, count))
        _assert_roundtrip(agg, "count")
        agg = create_aggregator("sum")
        agg._sum = total
        assert agg.state_to_bytes() == _written((serde.write_f64, total))
        _assert_roundtrip(agg, "sum")
        agg = create_aggregator("avg")
        agg._sum, agg._count = total, count
        assert agg.state_to_bytes() == _written(
            (serde.write_f64, total), (serde.write_signed_varint, count)
        )
        _assert_roundtrip(agg, "avg")

    @given(COUNTS, FLOATS, FLOATS)
    @settings(max_examples=150, deadline=None)
    def test_stddev(self, count, mean, m2):
        agg = create_aggregator("stdDev")
        agg._count, agg._mean, agg._m2 = count, mean, m2
        assert agg.state_to_bytes() == _written(
            (serde.write_signed_varint, count), (serde.write_f64, mean), (serde.write_f64, m2)
        )
        _assert_roundtrip(agg, "stdDev")

    @given(st.sampled_from(["min", "max"]), CANDIDATES)
    @settings(max_examples=150, deadline=None)
    def test_min_max_candidates(self, name, candidates):
        agg = create_aggregator(name)
        agg._deque = list(candidates)
        writes = [(serde.write_varint, len(candidates))]
        for timestamp, event_id, value in candidates:
            writes += [
                (serde.write_varint, timestamp),
                (serde.write_str, event_id),
                (serde.write_f64, value),
            ]
        assert agg.state_to_bytes() == _written(*writes)
        _assert_roundtrip(agg, name)

    def test_negative_timestamp_is_refused_like_the_writer(self):
        agg = create_aggregator("max")
        agg._deque = [(-1, "e", 1.0)]
        with pytest.raises(SerdeError):
            agg.state_to_bytes()


class TestRegistry:
    def test_all_names_constructible(self):
        for name in ("count", "SUM", "Avg", "stddev", "countdistinct"):
            assert create_aggregator(name) is not None

    def test_unknown_rejected(self):
        with pytest.raises(QueryError):
            create_aggregator("median")

    #: state bytes after the fold below, as written before any class
    #: declared ``__slots__``: stored rows must keep loading
    GOLDEN_STATES = {
        "count": "06",
        "sum": "0000000000001d40",
        "avg": "0000000000001d4006",
        "stdDev": "065555555555550340abaaaaaaaa2a1440",
        "max": "0228026533000000000000114032026534000000000000f83f",
        "min": "0132026534000000000000f83f",
        "last": "013202653404000000000000f83f0128026533040000000000001140",
        "prev": "013202653404000000000000f83f0128026533040000000000001140",
        "countDistinct": "04",
    }

    def test_no_instance_dict_and_state_bytes_unchanged(self):
        # Thousands of aggregators stay resident per task: none may
        # carry a __dict__, and slots must not have moved a state byte.
        assert set(self.GOLDEN_STATES) == set(AGGREGATOR_NAMES)
        for name, golden in self.GOLDEN_STATES.items():
            agg = create_aggregator(name)
            assert not hasattr(agg, "__dict__"), name
            for i, value in enumerate([3.0, 1.5, None, 4.25, 1.5]):
                agg.add(value, _event(i, ts=(i + 1) * 10))
            agg.evict(3.0, _event(0, ts=10))
            state = agg.state_to_bytes()
            assert state.hex() == golden, name
            clone = create_aggregator(name)
            clone.state_from_bytes(state)
            assert clone.state_to_bytes() == state, name
            assert clone.result() == agg.result(), name

    def test_numeric_classification(self):
        assert aggregator_requires_numeric("sum")
        assert aggregator_requires_numeric("stdDev")
        assert not aggregator_requires_numeric("count")
        assert not aggregator_requires_numeric("last")

    def test_aux_store_negative_guard(self):
        aux = MemoryAuxStore()
        with pytest.raises(ValueError):
            aux.increment(b"k", -1)
