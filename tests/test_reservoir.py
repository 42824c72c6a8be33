"""Event reservoir tests: append path, iterators, OOO, checkpointing."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.storage import MemoryStorage
from repro.events import Event, FieldType, Schema, SchemaField, SchemaRegistry
from repro.reservoir import (
    AppendResult,
    EventReservoir,
    OutOfOrderPolicy,
    ReservoirConfig,
)
from repro.reservoir.reservoir import AppendStatus


def _registry():
    registry = SchemaRegistry()
    registry.register(Schema([SchemaField("v", FieldType.INT)]))
    return registry


def _reservoir(**kwargs):
    defaults = dict(chunk_max_events=8, file_max_chunks=4, cache_capacity=4)
    defaults.update(kwargs)
    return EventReservoir(_registry(), config=ReservoirConfig(**defaults))


def _event(i, ts=None):
    return Event(f"e{i}", ts if ts is not None else i * 100, {"v": i})


class TestAppendPath:
    def test_append_stores(self):
        reservoir = _reservoir()
        result = reservoir.append(_event(0))
        assert result.status is AppendStatus.APPENDED
        assert result.stored
        assert reservoir.total_events == 1

    def test_chunks_close_at_size(self):
        reservoir = _reservoir(chunk_max_events=4)
        for i in range(9):
            reservoir.append(_event(i))
        assert reservoir.stats.chunks_closed == 2
        assert reservoir.total_events == 9

    def test_files_seal_at_chunk_count(self):
        reservoir = _reservoir(chunk_max_events=2, file_max_chunks=2)
        for i in range(12):
            reservoir.append(_event(i))
        assert reservoir.stats.files_sealed >= 2
        sealed = [n for n in reservoir.storage.list() if reservoir.storage.is_sealed(n)]
        assert len(sealed) == reservoir.stats.files_sealed

    def test_dedup_in_memory_window(self):
        reservoir = _reservoir(chunk_max_events=100)
        reservoir.append(_event(0))
        duplicate = reservoir.append(_event(0))
        assert duplicate.status is AppendStatus.DUPLICATE
        assert reservoir.stats.duplicates == 1
        assert reservoir.total_events == 1

    def test_dedup_forgets_persisted_chunks(self):
        # Matches the paper: dedup only covers chunks still in memory.
        reservoir = _reservoir(chunk_max_events=2)
        reservoir.append(_event(0))
        reservoir.append(_event(1))  # closes the chunk
        result = reservoir.append(Event("e0", 500, {"v": 0}))
        assert result.status is not AppendStatus.DUPLICATE

    def test_schema_validation_applies(self):
        from repro.common.errors import SchemaError

        reservoir = _reservoir()
        with pytest.raises(SchemaError):
            reservoir.append(Event("bad", 1, {"unknown": 1}))

    def test_max_seen_ts(self):
        reservoir = _reservoir()
        reservoir.append(_event(0, ts=50))
        reservoir.append(_event(1, ts=20))
        assert reservoir.max_seen_ts == 50


class TestOutOfOrder:
    def test_discard_policy(self):
        reservoir = _reservoir(chunk_max_events=2, ooo_policy=OutOfOrderPolicy.DISCARD)
        for i in range(4):
            reservoir.append(_event(i))
        late = reservoir.append(Event("late", 0, {"v": 99}))
        assert late.status is AppendStatus.DISCARDED
        assert not late.stored
        assert reservoir.stats.ooo_discarded == 1

    def test_rewrite_policy(self):
        reservoir = _reservoir(chunk_max_events=2, ooo_policy=OutOfOrderPolicy.REWRITE)
        for i in range(4):
            reservoir.append(_event(i))
        late = reservoir.append(Event("late", 0, {"v": 99}))
        assert late.status is AppendStatus.REWRITTEN
        assert late.stored
        horizon = reservoir.index.get(len(reservoir.index) - 1).last_ts
        assert late.event.timestamp > horizon

    def test_late_within_open_chunk_inserted(self):
        reservoir = _reservoir(chunk_max_events=100)
        reservoir.append(_event(0, ts=100))
        reservoir.append(_event(1, ts=300))
        late = reservoir.append(Event("late", 200, {"v": 9}))
        assert late.status is AppendStatus.APPENDED
        assert reservoir.stats.ooo_inserts == 1
        events = reservoir.read_range(-1, 1000)
        assert [e.timestamp for e in events] == [100, 200, 300]

    def test_rewrite_when_no_memory_events(self):
        reservoir = _reservoir(chunk_max_events=2)
        reservoir.append(_event(0, ts=100))
        reservoir.append(_event(1, ts=200))  # persists; open chunk empty
        late = reservoir.append(Event("late", 50, {"v": 9}))
        assert late.status is AppendStatus.REWRITTEN
        assert late.event.timestamp == 201


class TestIterators:
    def test_head_tail_window_contents(self):
        reservoir = _reservoir(chunk_max_events=4)
        head = reservoir.new_iterator(0, "head")
        tail = reservoir.new_iterator(500, "tail")
        window = []
        for i in range(30):
            event = _event(i)
            reservoir.append(event)
            window.extend(head.advance_upto(event.timestamp))
            for expired in tail.advance_upto(event.timestamp - 500):
                window.remove(expired)
            expected = [
                e for e in (_event(j) for j in range(i + 1))
                if e.timestamp > event.timestamp - 500
            ]
            assert [e.event_id for e in window] == [e.event_id for e in expected]

    def test_iterator_emits_each_event_once(self):
        reservoir = _reservoir(chunk_max_events=4)
        iterator = reservoir.new_iterator()
        seen = []
        for i in range(20):
            reservoir.append(_event(i))
            seen.extend(iterator.advance_upto(10_000))
        assert [e.event_id for e in seen] == [f"e{i}" for i in range(20)]

    def test_missed_queue_for_late_inserts(self):
        reservoir = _reservoir(chunk_max_events=100)
        iterator = reservoir.new_iterator()
        reservoir.append(_event(0, ts=100))
        reservoir.append(_event(1, ts=300))
        assert len(iterator.advance_upto(300)) == 2
        # Late insert behind the cursor -> missed queue.
        reservoir.append(Event("late", 200, {"v": 9}))
        batch = iterator.advance_upto(300)
        assert [e.event_id for e in batch] == ["late"]

    def test_iterator_positions_stable_across_chunk_close(self):
        reservoir = _reservoir(chunk_max_events=4)
        iterator = reservoir.new_iterator()
        for i in range(4):
            reservoir.append(_event(i))
        first = iterator.advance_upto(10_000)
        for i in range(4, 8):
            reservoir.append(_event(i))
        second = iterator.advance_upto(10_000)
        assert len(first) + len(second) == 8

    def test_release_iterator(self):
        reservoir = _reservoir()
        iterator = reservoir.new_iterator()
        assert reservoir.iterator_count == 1
        reservoir.release_iterator(iterator)
        assert reservoir.iterator_count == 0
        reservoir.release_iterator(iterator)  # idempotent

    def test_new_iterator_at_history(self):
        reservoir = _reservoir(chunk_max_events=4)
        for i in range(20):
            reservoir.append(_event(i))
        iterator = reservoir.new_iterator_at(950)
        batch = iterator.advance_upto(10_000)
        assert [e.timestamp for e in batch] == [i * 100 for i in range(10, 20)]

    def test_prefetch_hides_demand_misses(self):
        reservoir = _reservoir(chunk_max_events=4, cache_capacity=3)
        tail = reservoir.new_iterator(2_000, "tail")
        for i in range(100):
            event = _event(i)
            reservoir.append(event)
            tail.advance_upto(event.timestamp - 2_000)
        # Sequential tails should be served by cache + prefetch.
        assert reservoir.cache.stats.demand_misses <= 2

    @given(st.lists(st.integers(min_value=0, max_value=5_000), min_size=1, max_size=120))
    @settings(max_examples=30, deadline=None)
    def test_property_every_stored_event_emitted_once(self, raw_timestamps):
        reservoir = _reservoir(chunk_max_events=5)
        iterator = reservoir.new_iterator()
        stored_ids = []
        emitted = []
        for index, ts in enumerate(raw_timestamps):
            result = reservoir.append(Event(f"e{index}", ts, {"v": index}))
            if result.stored:
                stored_ids.append(f"e{index}")
            emitted.extend(iterator.advance_upto(10**9))
        emitted.extend(iterator.advance_upto(10**9))
        assert sorted(e.event_id for e in emitted) == sorted(stored_ids)


class TestRandomReads:
    def test_read_range_bounds(self):
        reservoir = _reservoir(chunk_max_events=4)
        for i in range(20):
            reservoir.append(_event(i))
        events = reservoir.read_range(450, 900)
        assert [e.timestamp for e in events] == [500, 600, 700, 800, 900]

    def test_read_range_exclusive_start(self):
        reservoir = _reservoir(chunk_max_events=4)
        for i in range(10):
            reservoir.append(_event(i))
        assert [e.timestamp for e in reservoir.read_range(500, 700)] == [600, 700]

    def test_read_range_empty(self):
        reservoir = _reservoir()
        assert reservoir.read_range(0, 100) == []

    def test_position_after(self):
        reservoir = _reservoir(chunk_max_events=4)
        for i in range(20):
            reservoir.append(_event(i))
        chunk_id, index = reservoir.position_after(550)
        events = reservoir.chunk_events_for_iterator(chunk_id)
        assert events[index].timestamp == 600

    def test_position_after_everything(self):
        reservoir = _reservoir(chunk_max_events=4)
        for i in range(5):
            reservoir.append(_event(i))
        chunk_id, index = reservoir.position_after(10_000)
        events = reservoir.chunk_events_for_iterator(chunk_id)
        assert index == len(events)


class TestCheckpointRestore:
    def _roundtrip(self, reservoir):
        metadata = reservoir.checkpoint_metadata()
        storage = MemoryStorage()
        for name in reservoir.storage.list():
            storage.create(name)
            storage.append(name, reservoir.storage.read_all(name))
            if reservoir.storage.is_sealed(name):
                storage.seal(name)
        return EventReservoir.restore(metadata, storage, reservoir.config)

    def test_restore_preserves_events(self):
        reservoir = _reservoir(chunk_max_events=4)
        for i in range(23):
            reservoir.append(_event(i))
        restored = self._roundtrip(reservoir)
        assert restored.total_events == reservoir.total_events
        original = [e.event_id for e in reservoir.read_range(-1, 10**9)]
        recovered = [e.event_id for e in restored.read_range(-1, 10**9)]
        assert original == recovered

    def test_restore_preserves_dedup(self):
        reservoir = _reservoir(chunk_max_events=100)
        reservoir.append(_event(0))
        restored = self._roundtrip(reservoir)
        assert restored.append(_event(0)).status is AppendStatus.DUPLICATE

    def test_restore_continues_appending(self):
        reservoir = _reservoir(chunk_max_events=4)
        for i in range(10):
            reservoir.append(_event(i))
        restored = self._roundtrip(reservoir)
        result = restored.append(_event(10))
        assert result.status is AppendStatus.APPENDED
        assert restored.total_events == 11


class TestSchemaEvolutionInReservoir:
    def test_old_chunks_readable_after_evolution(self):
        registry = SchemaRegistry()
        registry.register(Schema([SchemaField("v", FieldType.INT)]))
        reservoir = EventReservoir(
            registry, config=ReservoirConfig(chunk_max_events=2)
        )
        reservoir.append(Event("a", 1, {"v": 1}))
        reservoir.append(Event("b", 2, {"v": 2}))  # persisted with schema 0
        registry.register(
            Schema([SchemaField("v", FieldType.INT), SchemaField("w", FieldType.STRING)])
        )
        reservoir.append(Event("c", 3, {"v": 3, "w": "new"}))
        events = reservoir.read_range(-1, 100)
        assert [e.event_id for e in events] == ["a", "b", "c"]
        assert events[2]["w"] == "new"

    def test_open_chunk_rolls_on_schema_change(self):
        registry = SchemaRegistry()
        registry.register(Schema([SchemaField("v", FieldType.INT)]))
        reservoir = EventReservoir(
            registry, config=ReservoirConfig(chunk_max_events=100)
        )
        reservoir.append(Event("a", 1, {"v": 1}))
        registry.register(
            Schema([SchemaField("v", FieldType.INT), SchemaField("w", FieldType.STRING)])
        )
        reservoir.append(Event("b", 2, {"v": 2, "w": "x"}))
        # The first chunk had to close so each chunk has one schema.
        assert reservoir.stats.chunks_closed == 1
