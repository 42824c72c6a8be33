"""Event schemas and the schema registry.

The reservoir serializes chunks "using a specific events' schema and
stored referencing their current schema id. Each time the event schema
changes, a new entry is added to the schema registry" (§4.1.1). A schema
pins field order and types so events encode positionally (no per-event
field names on disk), and old chunks remain readable after the schema
evolves.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import chain
from typing import Any, Iterable, Sequence

from repro.common import serde
from repro.common.errors import SchemaError, SerdeError
from repro.events.event import Event


class FieldType(enum.Enum):
    """Scalar types supported by event fields."""

    BOOL = "bool"
    INT = "int"
    FLOAT = "float"
    STRING = "string"

    def validate(self, value: Any) -> bool:
        """True when ``value`` (or None — all fields are nullable) fits."""
        if value is None:
            return True
        return _TYPE_CHECKERS[self](value)


def _check_bool(value: Any) -> bool:
    return isinstance(value, bool)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int(value: Any) -> bool:
    return _is_int(value) and _INT_MIN <= value <= _INT_MAX


def _check_float(value: Any) -> bool:
    return isinstance(value, float) or _check_int(value)


def _check_str(value: Any) -> bool:
    return isinstance(value, str)


#: An int field holds what a chunk, a checkpoint or a wire frame can
#: read back (:data:`repro.common.serde.VALUE_INT_MIN` .. ``MAX``).
_INT_MIN = serde.VALUE_INT_MIN
_INT_MAX = serde.VALUE_INT_MAX


def _ints_in_range(column: list, kinds: set) -> bool:
    """True when the ints of a column (its exact value types ``kinds``)
    all lie within the range an int field holds."""
    if kinds != {int}:
        column = [value for value in column if type(value) is int]
    return _INT_MIN <= min(column) and max(column) <= _INT_MAX


#: per-type non-None checkers, precomputed so the validation hot loop
#: avoids the enum if-chain dispatch
_TYPE_CHECKERS = {
    FieldType.BOOL: _check_bool,
    FieldType.INT: _check_int,
    FieldType.FLOAT: _check_float,
    FieldType.STRING: _check_str,
}

#: exact value types a whole column may hold for :meth:`Schema.validate_events`
#: to accept it without looking at single values (``bool`` is its own
#: type here, so a bool in an int column is left to the per-event loop)
_COLUMN_TYPES = {
    FieldType.BOOL: frozenset({bool, type(None)}),
    FieldType.INT: frozenset({int, type(None)}),
    FieldType.FLOAT: frozenset({int, float, type(None)}),
    FieldType.STRING: frozenset({str, type(None)}),
}

#: batches shorter than this go straight to the per-event loop: the
#: column pass has a fixed cost (~4 µs on 2-field events, ~12 µs on
#: 32-field ones) that the loop undercuts up to ~12 and ~5 events, and
#: one-event slabs per partition are what small request batches become
_COLUMN_PASS_MIN = 8


@dataclass(frozen=True)
class SchemaField:
    """A named, typed, nullable field."""

    name: str
    field_type: FieldType


class Schema:
    """An ordered list of fields with a registry-assigned id."""

    def __init__(self, fields: Iterable[SchemaField], schema_id: int = -1) -> None:
        self.fields = tuple(fields)
        self.schema_id = schema_id
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate field names in schema: {names}")
        self._index = {f.name: i for i, f in enumerate(self.fields)}
        self._validators = {
            f.name: (f.field_type.value, _TYPE_CHECKERS[f.field_type])
            for f in self.fields
        }
        self._column_types = {f.name: _COLUMN_TYPES[f.field_type] for f in self.fields}

    def __len__(self) -> int:
        return len(self.fields)

    def field_names(self) -> list[str]:
        """Field names in schema order."""
        return [f.name for f in self.fields]

    def has_field(self, name: str) -> bool:
        """True when the schema declares ``name``."""
        return name in self._index

    def validate_event(self, event: Event) -> None:
        """Raise :class:`SchemaError` when an event does not fit.

        Single pass over the event's own fields — declared fields the
        event omits need no check (all fields are nullable), so only
        present values are typed and probed for declaration.
        """
        validators = self._validators
        for name, value in event.items():
            spec = validators.get(name)
            if spec is None:
                raise SchemaError(f"event carries undeclared field {name!r}")
            if value is not None and not spec[1](value):
                if spec[0] in ("int", "float") and _is_int(value):
                    raise SchemaError(
                        f"field {name!r} holds an int outside "
                        f"[-2**76, 2**76 - 1]: {value!r}"
                    )
                raise SchemaError(
                    f"field {name!r} expects {spec[0]}, "
                    f"got {type(value).__name__}: {value!r}"
                )

    def validate_events(self, events: Sequence[Event]) -> None:
        """Validate a batch; raises at the first offending event, exactly
        like calling :meth:`validate_event` in sequence.

        The batch is first decided by column: when every event has the
        same ordered field names, all declared, and each column's set of
        exact value types lies within its declared type ∪ ``NoneType``
        (and a column holding ints has its min and max in range),
        nothing can raise and the per-field pass is skipped. The column
        pass only ever *accepts*: anything else (mixed shapes, an ``int``
        subclass, a real violation, a batch too short to be worth
        transposing) takes the per-event loop, which accepts or raises
        as before.
        """
        if len(events) >= _COLUMN_PASS_MIN:
            rows = [event._fields for event in events]
            names = tuple(rows[0])
            accepted = self._column_types
            if all(name in accepted for name in names) and set(
                map(tuple, rows)
            ) == {names}:
                # Row-major value types; column i is every width-th one.
                # (Chained, so one row's values view is alive at a time:
                # a view per row would trip the cyclic GC every batch.)
                kinds = list(map(type, chain.from_iterable(map(dict.values, rows))))
                width = len(names)
                for i, name in enumerate(names):
                    column_kinds = set(kinds[i::width])
                    if not column_kinds <= accepted[name]:
                        break
                    if int in column_kinds and not _ints_in_range(
                        [row[name] for row in rows], column_kinds
                    ):
                        break
                else:
                    return
        for event in events:
            self.validate_event(event)

    def decode_event(self, data: bytes | memoryview, offset: int) -> tuple[Event, int]:
        """Decode one event of a row-format chunk; returns
        ``(event, new_offset)``. Only chunks written before the columnar
        format (:mod:`repro.reservoir.chunk`) hold rows."""
        event_id, offset = serde.read_str(data, offset)
        timestamp, offset = serde.read_varint(data, offset)
        fields: dict[str, Any] = {}
        for field in self.fields:
            value, offset = serde.read_value(data, offset)
            if value is not None:
                fields[field.name] = value
        return Event(event_id, timestamp, fields), offset

    def is_compatible_upgrade(self, new: "Schema") -> bool:
        """True when ``new`` only appends fields or keeps them identical.

        This is the evolution rule the registry enforces: existing fields
        must keep name and type; new fields go at the end (old chunks
        decode them as absent).
        """
        if len(new) < len(self):
            return False
        return all(
            new.fields[i] == self.fields[i] for i in range(len(self.fields))
        )

    def to_bytes(self) -> bytes:
        """Serialize the schema itself (persisted with reservoir data)."""
        buf = bytearray()
        serde.write_varint(buf, max(self.schema_id, 0))
        serde.write_varint(buf, len(self.fields))
        for field in self.fields:
            serde.write_str(buf, field.name)
            serde.write_str(buf, field.field_type.value)
        return bytes(buf)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Schema":
        """Inverse of :meth:`to_bytes`."""
        offset = 0
        schema_id, offset = serde.read_varint(data, offset)
        count, offset = serde.read_varint(data, offset)
        fields = []
        for _ in range(count):
            name, offset = serde.read_str(data, offset)
            type_name, offset = serde.read_str(data, offset)
            try:
                field_type = FieldType(type_name)
            except ValueError:
                raise SerdeError(f"unknown field type {type_name!r}") from None
            fields.append(SchemaField(name, field_type))
        return cls(fields, schema_id=schema_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.fields == other.fields

    def __repr__(self) -> str:
        return f"Schema(id={self.schema_id}, fields={len(self.fields)})"


class SchemaRegistry:
    """Registry of schema versions for one stream.

    ``register`` assigns monotonically increasing ids; ``current`` is the
    id chunks reference at write time; any historical id stays resolvable
    so old chunks can always be deserialized (§4.1.1).
    """

    def __init__(self) -> None:
        self._schemas: dict[int, Schema] = {}
        self._current_id: int | None = None

    def register(self, schema: Schema) -> Schema:
        """Register a schema version; returns the stored (id-stamped) schema.

        Re-registering an identical schema is a no-op returning the
        existing version.
        """
        if self._current_id is not None:
            current = self._schemas[self._current_id]
            if current == schema:
                return current
            if not current.is_compatible_upgrade(schema):
                raise SchemaError(
                    "incompatible schema evolution: fields may only be appended"
                )
        new_id = (self._current_id + 1) if self._current_id is not None else 0
        stored = Schema(schema.fields, schema_id=new_id)
        self._schemas[new_id] = stored
        self._current_id = new_id
        return stored

    def current(self) -> Schema:
        """The latest schema version."""
        if self._current_id is None:
            raise SchemaError("registry has no schemas")
        return self._schemas[self._current_id]

    def get(self, schema_id: int) -> Schema:
        """Resolve a historical schema id."""
        try:
            return self._schemas[schema_id]
        except KeyError:
            raise SchemaError(f"unknown schema id {schema_id}") from None

    def __len__(self) -> int:
        return len(self._schemas)

    def to_bytes(self) -> bytes:
        """Serialize all versions (used by checkpoint/recovery transfer)."""
        buf = bytearray()
        serde.write_varint(buf, len(self._schemas))
        for schema_id in sorted(self._schemas):
            serde.write_bytes(buf, self._schemas[schema_id].to_bytes())
        return bytes(buf)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SchemaRegistry":
        """Inverse of :meth:`to_bytes`."""
        registry = cls()
        offset = 0
        count, offset = serde.read_varint(data, offset)
        for _ in range(count):
            raw, offset = serde.read_bytes(data, offset)
            schema = Schema.from_bytes(raw)
            registry._schemas[schema.schema_id] = schema
            if registry._current_id is None or schema.schema_id > registry._current_id:
                registry._current_id = schema.schema_id
        return registry
