"""Event model and schema tests (encoding, validation, evolution)."""

import pytest
from hypothesis import given, strategies as st

from repro.common import serde
from repro.common.compression import codec_by_name
from repro.common.errors import SchemaError, SerdeError
from repro.events import Event, FieldType, Schema, SchemaField, SchemaRegistry
from repro.reservoir import Chunk


def _schema(*fields):
    return Schema([SchemaField(name, ftype) for name, ftype in fields])


PAYMENTS = _schema(
    ("cardId", FieldType.STRING),
    ("amount", FieldType.FLOAT),
    ("count", FieldType.INT),
    ("flag", FieldType.BOOL),
)


def _chunk_roundtrip(events):
    """Events through the reservoir's chunk codec, the one place events
    are encoded positionally against a schema."""
    registry = SchemaRegistry()
    schema = registry.register(PAYMENTS)
    chunk = Chunk(0, schema.schema_id)
    for event in events:
        chunk.append(event)
    payload = chunk.serialize(schema, codec_by_name("zlib:6"))
    return Chunk.deserialize(payload, registry.get).events


class TestEvent:
    def test_field_access(self):
        event = Event("e1", 5, {"a": 1, "b": "x"})
        assert event["a"] == 1
        assert event.get("b") == "x"
        assert event.get("missing") is None
        assert "a" in event
        assert "z" not in event

    def test_fields_copy_is_isolated(self):
        event = Event("e1", 5, {"a": 1})
        copy = event.fields
        copy["a"] = 2
        assert event["a"] == 1

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
            Event("e1", -1, {})

    def test_with_timestamp(self):
        event = Event("e1", 5, {"a": 1})
        moved = event.with_timestamp(9)
        assert moved.timestamp == 9
        assert moved.event_id == "e1"
        assert moved["a"] == 1
        assert event.timestamp == 5

    def test_equality(self):
        assert Event("e", 1, {"a": 1}) == Event("e", 1, {"a": 1})
        assert Event("e", 1, {"a": 1}) != Event("e", 1, {"a": 2})
        assert Event("e", 1, {}) != Event("f", 1, {})

    def test_repr_previews_fields(self):
        event = Event("e1", 5, {"a": 1, "b": 2, "c": 3, "d": 4})
        assert "e1" in repr(event)
        assert "..." in repr(event)


class TestFieldType:
    @pytest.mark.parametrize(
        "ftype,good,bad",
        [
            (FieldType.BOOL, True, 1),
            (FieldType.INT, 3, True),
            (FieldType.INT, 3, 3.0),
            (FieldType.FLOAT, 3.5, "x"),
            (FieldType.STRING, "x", 3),
        ],
    )
    def test_validation(self, ftype, good, bad):
        assert ftype.validate(good)
        assert not ftype.validate(bad)

    def test_none_always_valid(self):
        assert all(ftype.validate(None) for ftype in FieldType)

    def test_float_accepts_int(self):
        assert FieldType.FLOAT.validate(3)


class TestSchema:
    def test_duplicate_fields_rejected(self):
        with pytest.raises(SchemaError):
            _schema(("a", FieldType.INT), ("a", FieldType.INT))

    def test_validate_event_accepts_partial(self):
        PAYMENTS.validate_event(Event("e", 1, {"cardId": "c"}))

    def test_validate_event_rejects_wrong_type(self):
        with pytest.raises(SchemaError):
            PAYMENTS.validate_event(Event("e", 1, {"amount": "not a number"}))

    def test_validate_event_rejects_undeclared(self):
        with pytest.raises(SchemaError):
            PAYMENTS.validate_event(Event("e", 1, {"mystery": 1}))

    # -- validate_events: decided by column, raising like the per-event path --

    @staticmethod
    def _batch(bad_fields):
        """Long enough for the column pass (short batches skip it)."""
        good = {"cardId": "c", "amount": 1.5, "count": 2, "flag": True}
        return [
            *(Event(f"g{i}", i, good) for i in range(8)),
            Event("e1", 8, dict(good, amount=None, count=3)),
            Event("e2", 9, bad_fields),  # the only offender: nothing else forces the loop
        ]

    @pytest.mark.parametrize(
        "bad_fields",
        [
            {"cardId": "c", "amount": 1.5, "count": 2, "mystery": 1},  # undeclared
            {"cardId": "c", "amount": "1.5", "count": 2, "flag": True},  # wrong type
            {"cardId": "c", "amount": 1.5, "count": True, "flag": True},  # bool as int
            {"cardId": 7},  # another field shape, and wrong in it
        ],
    )
    def test_validate_events_raises_what_validate_event_raises(self, bad_fields):
        batch = self._batch(bad_fields)
        with pytest.raises(SchemaError) as per_event:
            for event in batch:
                PAYMENTS.validate_event(event)
        with pytest.raises(SchemaError) as batched:
            PAYMENTS.validate_events(batch)
        assert type(batched.value) is type(per_event.value)
        assert str(batched.value) == str(per_event.value)

    def test_validate_events_accepts_what_validate_event_accepts(self):
        class Count(int):
            """An ``int`` subclass: not the column's exact type, still an int."""

        good = {"cardId": "c", "amount": 1, "count": 2, "flag": False}
        PAYMENTS.validate_events([])
        PAYMENTS.validate_events([Event("e0", 1, {}), Event("e1", 2, {})])
        plenty = [Event(f"g{i}", i, good) for i in range(8)]
        PAYMENTS.validate_events(plenty)  # decided by column
        PAYMENTS.validate_events(
            [*plenty, Event("e1", 8, dict(good, count=Count(5), amount=None))]
        )
        PAYMENTS.validate_events(
            [
                *plenty,
                Event("e2", 9, {"cardId": "c"}),  # a different field shape
                Event("e3", 10, dict(reversed(good.items()))),  # same names, reordered
            ]
        )

    def test_validate_events_column_pass_does_not_cross_reordered_fields(self):
        """Same field *set* in another order is another shape: read by
        position, the second batch's columns would look well typed."""
        schema = _schema(("a", FieldType.INT), ("b", FieldType.STRING))
        plenty = [Event(f"g{i}", i, {"a": 1, "b": "x"}) for i in range(8)]
        schema.validate_events([*plenty, Event("e1", 8, {"b": "y", "a": 2})])
        with pytest.raises(SchemaError, match="field 'b' expects string, got int: 2"):
            schema.validate_events([*plenty, Event("e1", 8, {"b": 2, "a": "y"})])

    # -- ints: bounded by what the codecs read back --

    def test_the_largest_int_magnitudes_that_round_trip_are_accepted(self):
        for value in (serde.VALUE_INT_MAX, serde.VALUE_INT_MIN):
            buf = bytearray()
            serde.write_value(buf, value)
            assert serde.read_value(bytes(buf), 0) == (value, len(buf))
            event = Event("e", 1, {"count": value, "amount": value})
            PAYMENTS.validate_event(event)
            PAYMENTS.validate_events([event] * 9)
            assert _chunk_roundtrip([event]) == [event]

    def test_the_next_int_past_them_is_rejected(self):
        for value in (serde.VALUE_INT_MAX + 1, serde.VALUE_INT_MIN - 1):
            buf = bytearray()
            serde.write_value(buf, value)
            with pytest.raises(SerdeError):
                serde.read_value(bytes(buf), 0)
            for name in ("count", "amount"):  # a float field takes ints too
                event = Event("e", 1, {name: value})
                with pytest.raises(SchemaError, match="outside"):
                    PAYMENTS.validate_event(event)
                with pytest.raises(SchemaError, match="outside"):
                    PAYMENTS.validate_events([event] * 9)

    def test_a_batch_with_an_out_of_range_int_takes_the_per_event_path(self, monkeypatch):
        checked = []
        validate_event = Schema.validate_event
        monkeypatch.setattr(
            Schema,
            "validate_event",
            lambda schema, event: (checked.append(event), validate_event(schema, event)),
        )
        good = {"cardId": "c", "amount": 1.5, "count": serde.VALUE_INT_MAX, "flag": True}
        plenty = [Event(f"g{i}", i, good) for i in range(8)]
        PAYMENTS.validate_events(plenty)  # decided by column
        assert checked == []
        bad = Event("e1", 8, dict(good, count=serde.VALUE_INT_MAX + 1))
        with pytest.raises(SchemaError, match="field 'count' holds an int outside"):
            PAYMENTS.validate_events([*plenty, bad])
        assert checked == [*plenty, bad]

    def test_encode_decode_roundtrip(self):
        event = Event("e9", 123, {"cardId": "c1", "amount": 9.5, "flag": True})
        assert _chunk_roundtrip([event]) == [event]

    def test_absent_fields_stay_absent(self):
        event = Event("e9", 1, {"cardId": "c1"})
        (decoded,) = _chunk_roundtrip([event])
        assert "amount" not in decoded

    @given(
        st.text(max_size=20),
        st.integers(min_value=0, max_value=2**48),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_roundtrip_property(self, card, timestamp, amount):
        event = Event("id", timestamp, {"cardId": card, "amount": amount})
        assert _chunk_roundtrip([event]) == [event]

    def test_schema_serde_roundtrip(self):
        restored = Schema.from_bytes(PAYMENTS.to_bytes())
        assert restored == PAYMENTS

    def test_compatible_upgrade_appends(self):
        wider = _schema(
            ("cardId", FieldType.STRING),
            ("amount", FieldType.FLOAT),
            ("count", FieldType.INT),
            ("flag", FieldType.BOOL),
            ("extra", FieldType.STRING),
        )
        assert PAYMENTS.is_compatible_upgrade(wider)

    def test_incompatible_upgrades(self):
        renamed = _schema(("cardX", FieldType.STRING))
        retyped = _schema(("cardId", FieldType.INT))
        shorter = _schema(("cardId", FieldType.STRING))
        assert not PAYMENTS.is_compatible_upgrade(renamed)
        assert not PAYMENTS.is_compatible_upgrade(retyped)
        assert not PAYMENTS.is_compatible_upgrade(shorter)


class TestSchemaRegistry:
    def test_register_assigns_incrementing_ids(self):
        registry = SchemaRegistry()
        first = registry.register(_schema(("a", FieldType.INT)))
        second = registry.register(
            _schema(("a", FieldType.INT), ("b", FieldType.INT))
        )
        assert first.schema_id == 0
        assert second.schema_id == 1
        assert registry.current() is second

    def test_identical_reregistration_is_noop(self):
        registry = SchemaRegistry()
        first = registry.register(_schema(("a", FieldType.INT)))
        again = registry.register(_schema(("a", FieldType.INT)))
        assert again is first
        assert len(registry) == 1

    def test_incompatible_evolution_rejected(self):
        registry = SchemaRegistry()
        registry.register(_schema(("a", FieldType.INT)))
        with pytest.raises(SchemaError):
            registry.register(_schema(("a", FieldType.STRING)))

    def test_old_ids_stay_resolvable(self):
        registry = SchemaRegistry()
        registry.register(_schema(("a", FieldType.INT)))
        registry.register(_schema(("a", FieldType.INT), ("b", FieldType.INT)))
        assert registry.get(0).field_names() == ["a"]
        assert registry.get(1).field_names() == ["a", "b"]

    def test_unknown_id(self):
        registry = SchemaRegistry()
        with pytest.raises(SchemaError):
            registry.get(5)

    def test_empty_registry_has_no_current(self):
        with pytest.raises(SchemaError):
            SchemaRegistry().current()

    def test_registry_serde_roundtrip(self):
        registry = SchemaRegistry()
        registry.register(_schema(("a", FieldType.INT)))
        registry.register(_schema(("a", FieldType.INT), ("b", FieldType.STRING)))
        restored = SchemaRegistry.from_bytes(registry.to_bytes())
        assert len(restored) == 2
        assert restored.current().field_names() == ["a", "b"]
        assert restored.get(0).field_names() == ["a"]
