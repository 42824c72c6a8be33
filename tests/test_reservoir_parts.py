"""Chunk, index and cache unit tests (reservoir building blocks)."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.compression import codec_by_name
from repro.common.errors import SerdeError
from repro.common.storage import MemoryStorage
from repro.events import Event, FieldType, Schema, SchemaField, SchemaRegistry
from repro.reservoir import Chunk, ChunkCache, ChunkMeta, ChunkState, ReservoirIndex
from repro.reservoir.reservoir import EventReservoir, ReservoirConfig

SCHEMA = Schema(
    [SchemaField("v", FieldType.INT), SchemaField("s", FieldType.STRING)],
    schema_id=0,
)
CODEC = codec_by_name("zlib:6")


def _event(i, ts=None):
    return Event(f"e{i}", ts if ts is not None else i * 10, {"v": i, "s": f"x{i}"})


class TestChunk:
    def test_append_in_order(self):
        chunk = Chunk(0, 0)
        for i in range(5):
            assert chunk.append(_event(i)) == i
        assert chunk.first_ts == 0
        assert chunk.last_ts == 40

    def test_late_insert_keeps_order(self):
        chunk = Chunk(0, 0)
        chunk.append(_event(0, ts=10))
        chunk.append(_event(1, ts=30))
        position = chunk.append(_event(2, ts=20))
        assert position == 1
        assert [e.timestamp for e in chunk.events] == [10, 20, 30]

    def test_equal_ts_inserts_after(self):
        chunk = Chunk(0, 0)
        chunk.append(_event(0, ts=10))
        chunk.append(_event(1, ts=30))
        position = chunk.append(_event(2, ts=10))
        assert position == 1  # after the existing ts=10 event

    def test_lifecycle_open_then_closed(self):
        chunk = Chunk(0, 0)
        chunk.append(_event(0))
        assert chunk.state is ChunkState.OPEN
        chunk.mark_closed()
        with pytest.raises(ValueError):
            chunk.append(_event(2))

    def test_serialize_roundtrip(self):
        chunk = Chunk(7, 0)
        for i in range(20):
            chunk.append(_event(i))
        payload = chunk.serialize(SCHEMA, CODEC)
        restored = Chunk.deserialize(payload, lambda sid: SCHEMA)
        assert restored.chunk_id == 7
        assert restored.state is ChunkState.CLOSED
        assert restored.events == chunk.events

    def test_serialize_wrong_schema_rejected(self):
        chunk = Chunk(0, 3)
        with pytest.raises(SerdeError):
            chunk.serialize(SCHEMA, CODEC)  # schema_id 0 != 3

    def test_compression_shrinks(self):
        chunk = Chunk(0, 0)
        for i in range(200):
            chunk.append(Event(f"e{i}", i, {"v": 1, "s": "same-string"}))
        compressed = chunk.serialize(SCHEMA, codec_by_name("zlib:6"))
        raw = chunk.serialize(SCHEMA, codec_by_name("none"))
        assert len(compressed) < len(raw) / 2


def _canonical(events):
    """Events as comparable data: each value as (exact type, repr), so
    NaN equals NaN and -0.0 differs from 0.0."""
    return [
        (e.event_id, e.timestamp, {k: (type(v), repr(v)) for k, v in e.items()})
        for e in events
    ]


def _without_none(event):
    return Event(
        event.event_id,
        event.timestamp,
        {k: v for k, v in event.items() if v is not None},
    )


CODEC_FIELDS = [
    SchemaField("s", FieldType.STRING),
    SchemaField("i", FieldType.INT),
    SchemaField("f", FieldType.FLOAT),
    SchemaField("b", FieldType.BOOL),
]

_FIELD_VALUES = {
    "s": st.none() | st.text(max_size=6),  # empty and non-ASCII included
    "i": st.none()
    | st.integers(min_value=-(2**63), max_value=2**63 - 1)
    # beyond i64 either way, up to what a tagged serde int holds
    | st.integers(min_value=2**63, max_value=2**75)
    | st.integers(min_value=-(2**75), max_value=-(2**63) - 1)
    | st.booleans(),  # a bool in an int field
    "f": st.none()
    | st.floats()  # NaN and ±inf included
    | st.sampled_from([-0.0, float("nan")])
    | st.integers(min_value=-(2**53), max_value=2**53),  # an int in a float field
    "b": st.none() | st.booleans(),
}


@st.composite
def _codec_chunks(draw):
    """Chunks of 0, 1, 512 or a few events: rows cycle through a small
    drawn pool (fields may be absent, None or any value above, in any
    order), timestamps rise in runs of ties."""
    count = draw(st.sampled_from([0, 1, 512]) | st.integers(2, 40))
    pool = draw(
        st.lists(
            st.fixed_dictionaries({}, optional=_FIELD_VALUES).flatmap(
                lambda row: st.permutations(list(row.items())).map(dict)
            ),
            min_size=1,
            max_size=6,
        )
    )
    ids = draw(st.lists(st.text(max_size=4), min_size=1, max_size=4))
    start = draw(st.integers(0, 2**50))
    ties = draw(st.integers(1, 8))
    return [
        Event(f"{ids[i % len(ids)]}{i}", start + i // ties, pool[i % len(pool)])
        for i in range(count)
    ]


class TestChunkCodec:
    @settings(max_examples=60, deadline=None)
    @given(_codec_chunks(), st.sampled_from(["zlib:6", "none"]))
    def test_roundtrip_drops_none_fields(self, events, codec):
        registry = SchemaRegistry()
        schema = registry.register(Schema(CODEC_FIELDS))
        # The registry evolves after the chunk's schema: the chunk must
        # still decode through the schema id it references.
        registry.register(Schema(CODEC_FIELDS + [SchemaField("x", FieldType.STRING)]))
        chunk = Chunk(3, schema.schema_id)
        for event in events:
            chunk.append(event)
        payload = chunk.serialize(schema, codec_by_name(codec))
        restored = Chunk.deserialize(payload, registry.get)
        assert restored.chunk_id == 3
        assert restored.schema_id == schema.schema_id
        assert restored.state is ChunkState.CLOSED
        assert _canonical(restored.events) == _canonical(
            [_without_none(e) for e in events]
        )
        # decoded fields keep schema order, as the row format's did
        for event in restored.events:
            assert list(event) == [
                f.name for f in CODEC_FIELDS if f.name in event
            ]

    def test_payload_never_starts_with_a_codec_id(self):
        chunk = Chunk(0, 0)
        chunk.append(_event(1))
        for name in ("none", "zlib:1", "zlib:9"):
            assert chunk.serialize(SCHEMA, codec_by_name(name))[0] > 9

    def test_corrupt_columns_raise_serde_error(self):
        chunk = Chunk(0, 0)
        for i in range(4):
            chunk.append(_event(i))
        payload = chunk.serialize(SCHEMA, codec_by_name("none"))
        with pytest.raises(SerdeError):
            Chunk.deserialize(payload[:-3], lambda sid: SCHEMA)


GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "chunk_golden.json").read_text()
)


def _golden_events(rows):
    return [Event(event_id, ts, fields) for event_id, ts, fields in rows]


class TestRowFormatChunks:
    """Chunks written by the row-format codec, checked in at
    ``tests/data/chunk_golden.json``, still read to the same events."""

    def test_row_payload_decodes(self):
        golden = GOLDEN["chunk"]
        registry = SchemaRegistry.from_bytes(bytes.fromhex(golden["registry"]))
        payload = bytes.fromhex(golden["payload"])
        assert payload[0] <= 9  # a codec id: the row format
        chunk = Chunk.deserialize(payload, registry.get)
        assert chunk.chunk_id == 5
        assert chunk.state is ChunkState.CLOSED
        assert _canonical(chunk.events) == _canonical(_golden_events(golden["events"]))

    def test_checkpoint_with_open_chunk_restores(self):
        golden = GOLDEN["checkpoint"]
        storage = MemoryStorage()
        for name, data in golden["files"].items():
            storage.create(name)
            storage.append(name, bytes.fromhex(data))
        metadata = bytes.fromhex(golden["metadata"])
        # The writer's config also named an out-of-order grace period,
        # an option the reservoir no longer has.
        settings = golden["reservoir"]
        config = ReservoirConfig(
            chunk_max_events=settings["chunk_max_events"], codec=settings["codec"]
        )
        reservoir = EventReservoir.restore(metadata, storage, config)
        transition, open_chunk = golden["in_memory"]
        assert (transition["state"], open_chunk["state"]) == ("transition", "open")
        # The open chunk restores in memory ...
        assert (
            reservoir._open.chunk_id,
            reservoir._open.state,
            _canonical(reservoir._open.events),
        ) == (
            open_chunk["chunk_id"],
            ChunkState.OPEN,
            _canonical(_golden_events(open_chunk["events"])),
        )
        # ... and the transition chunk persisted during restore: indexed.
        position = reservoir.index.position_of_chunk(transition["chunk_id"])
        assert position == len(reservoir.index) - 1
        assert reservoir.index.get(position).count == len(transition["events"])
        assert _canonical(
            reservoir.chunk_events_for_iterator(transition["chunk_id"])
        ) == _canonical(_golden_events(transition["events"]))
        expected = _canonical(_golden_events(golden["events"]))
        assert _canonical(reservoir.read_range(-1, reservoir.max_seen_ts)) == expected
        # Checkpointing again writes the in-memory chunks columnar; the
        # mix of row-format segment files and columnar chunks restores.
        again = EventReservoir.restore(reservoir.checkpoint_metadata(), storage, config)
        assert _canonical(again.read_range(-1, again.max_seen_ts)) == expected


class TestReservoirIndex:
    def _meta(self, chunk_id, first, last):
        return ChunkMeta(chunk_id, f"f{chunk_id}", 0, 10, first, last, 5)

    def test_ordering_enforced(self):
        index = ReservoirIndex()
        index.add(self._meta(0, 0, 10))
        with pytest.raises(ValueError):
            index.add(self._meta(0, 20, 30))  # duplicate id
        with pytest.raises(ValueError):
            index.add(self._meta(1, 5, 30))  # overlapping range

    def test_position_of_chunk(self):
        index = ReservoirIndex()
        for i in range(5):
            index.add(self._meta(i * 2, i * 100, i * 100 + 50))
        assert index.position_of_chunk(4) == 2
        assert index.position_of_chunk(5) is None

    def test_first_position_covering(self):
        index = ReservoirIndex()
        index.add(self._meta(0, 0, 50))
        index.add(self._meta(1, 100, 150))
        assert index.first_position_covering(25) == 0
        assert index.first_position_covering(75) == 1  # gap -> next chunk
        assert index.first_position_covering(125) == 1
        assert index.first_position_covering(500) == 2  # past everything

    def test_covering_before_all_data(self):
        index = ReservoirIndex()
        index.add(self._meta(0, 100, 150))
        assert index.first_position_covering(10) == 0

    def test_total_events(self):
        index = ReservoirIndex()
        index.add(self._meta(0, 0, 10))
        index.add(self._meta(1, 20, 30))
        assert index.total_events() == 10

    def test_serde_roundtrip(self):
        index = ReservoirIndex()
        for i in range(4):
            index.add(self._meta(i, i * 100, i * 100 + 50))
        restored = ReservoirIndex.from_bytes(index.to_bytes())
        assert len(restored) == 4
        assert restored.get(2).first_ts == 200


class TestChunkCache:
    def test_lru_eviction_order(self):
        cache = ChunkCache(2)
        cache.put_demand(1, ["a"])
        cache.put_demand(2, ["b"])
        cache.get(1)  # refresh 1
        cache.put_demand(3, ["c"])  # evicts 2
        assert 1 in cache
        assert 2 not in cache
        assert 3 in cache

    def test_get_miss_counts(self):
        cache = ChunkCache(2)
        assert cache.get(9) is None
        assert cache.stats.demand_misses == 1

    def test_prefetch_accounting(self):
        cache = ChunkCache(2)
        cache.put_prefetch(1, ["a"])
        assert cache.stats.prefetch_loads == 1
        assert cache.get(1) == ["a"]
        assert cache.stats.hits == 1

    def test_wasted_prefetch_detected(self):
        cache = ChunkCache(1)
        cache.put_prefetch(1, ["a"])
        cache.put_demand(2, ["b"])  # evicts 1 before any use
        assert cache.stats.prefetch_wasted == 1

    def test_used_prefetch_not_wasted(self):
        cache = ChunkCache(1)
        cache.put_prefetch(1, ["a"])
        cache.get(1)
        cache.put_demand(2, ["b"])
        assert cache.stats.prefetch_wasted == 0

    def test_peek_does_not_touch_stats(self):
        cache = ChunkCache(2)
        cache.put_demand(1, ["a"])
        assert cache.peek(1)
        assert not cache.peek(9)
        assert cache.stats.hits == 0
        assert cache.stats.demand_misses == 0

    def test_miss_rate(self):
        cache = ChunkCache(2)
        cache.get(1)
        cache.put_demand(1, ["a"])
        cache.get(1)
        assert cache.stats.miss_rate == pytest.approx(0.5)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ChunkCache(0)

    def test_duplicate_prefetch_ignored(self):
        cache = ChunkCache(2)
        cache.put_prefetch(1, ["a"])
        cache.put_prefetch(1, ["a"])
        assert cache.stats.prefetch_loads == 1
