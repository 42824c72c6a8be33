"""Cluster catalogue: streams, partitioners, metrics and DDL operations.

Operational requests (create/delete stream or metric, schema evolution)
are broadcast through an internal operations topic and applied by every
node in log order (§3.3: "to broadcast operational requests triggered by
the client"), so all processor units converge on the same catalogue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

from repro.common.errors import EngineError, QueryError
from repro.common.layout import STR, VARFLAG, VARINT, seq, struct, tuple_of
from repro.events.schema import FieldType, Schema, SchemaField
from repro.messaging.log import OFFSET_PAIRS
from repro.query.ast import Query
from repro.query.parser import parse_query

#: Topic that carries DDL operations (single partition: total order).
OPERATIONS_TOPIC = "__operations"
#: Implicit partitioner used by metrics with no GROUP BY (single partition).
GLOBAL_PARTITIONER = "__all__"


def topic_name(stream: str, partitioner: str) -> str:
    """Event-topic name for one (stream, partitioner) pair."""
    return f"{stream}.{partitioner}"


def normalize_fields(schema: object) -> tuple[tuple[str, str], ...]:
    """Schema fields as ``(name, type-name)`` pairs, from a
    :class:`Schema`, a mapping, or a ``(name, type)`` iterable."""
    if isinstance(schema, Schema):
        return tuple((f.name, f.field_type.value) for f in schema.fields)
    if isinstance(schema, Mapping):
        return tuple((name, str(type_name)) for name, type_name in schema.items())
    return tuple((name, str(type_name)) for name, type_name in schema)


@dataclass(frozen=True)
class StreamDef:
    """A registered stream: schema fields + partitioners + partitioning."""

    name: str
    fields: tuple[tuple[str, str], ...]  # (field name, FieldType value)
    partitioners: tuple[str, ...]
    partitions: int

    def schema(self) -> Schema:
        """The stream's (current) schema, built once per definition."""
        return self._schema

    @cached_property
    def _schema(self) -> Schema:
        return Schema(
            [SchemaField(name, FieldType(type_name)) for name, type_name in self.fields]
        )

    def topics(self) -> list[str]:
        """All event topics of this stream."""
        return [topic_name(self.name, p) for p in self.partitioners]

    def partition_count(self, partitioner: str) -> int:
        """Partitions of one partitioner's topic (the global one has one)."""
        return 1 if partitioner == GLOBAL_PARTITIONER else self.partitions


@dataclass(frozen=True)
class MetricDef:
    """A registered metric: the query plus its routing topic."""

    metric_id: int
    query_text: str
    stream: str
    topic: str
    backfill: bool = False

    def parse(self) -> Query:
        """Re-parse the query text (parsing is deterministic)."""
        return parse_query(self.query_text)


#: schema fields as ``(name, type-name)`` pairs.
FIELD_PAIRS = seq(tuple_of(STR, STR))
STREAM_DEF = struct(
    StreamDef,
    ("name", STR),
    ("fields", FIELD_PAIRS),
    ("partitioners", seq(STR)),
    ("partitions", VARINT),
)
METRIC_DEF = struct(
    MetricDef,
    ("metric_id", VARINT),
    ("query_text", STR),
    ("stream", STR),
    ("topic", STR),
    ("backfill", VARFLAG),
)


# -- DDL operations (broadcast values on the operations topic) -----------------


@dataclass(frozen=True)
class CreateStreamOp:
    stream: StreamDef


@dataclass(frozen=True)
class CreateMetricOp:
    metric: MetricDef
    #: per-task activation cuts ``(tp, offset)``: the dispatch frontier
    #: of each topic task when the DDL landed. A task restored from a
    #: checkpoint that predates this metric must not fold replayed
    #: records below the cut into it — the original incarnation
    #: processed them without the metric. Empty for metrics defined
    #: before traffic (activation 0) and for backfill completions
    #: (their state rides checkpoints, never a replay).
    activations: tuple = ()


@dataclass(frozen=True)
class DeleteMetricOp:
    metric_id: int


@dataclass(frozen=True)
class EvolveSchemaOp:
    stream: str
    new_fields: tuple[tuple[str, str], ...]  # appended fields


@dataclass(frozen=True)
class AddPartitionerOp:
    stream: str
    partitioner: str


#: The one binary layout of every DDL op, as ``(attr, codec)`` fields in
#: order. The shard wire registers the ops under its control tags and the
#: durable log under its payload tags, so the live broadcast and the
#: operations-log replay carry the same record.
OP_LAYOUTS = {
    CreateStreamOp: (("stream", STREAM_DEF),),
    CreateMetricOp: (("metric", METRIC_DEF), ("activations", OFFSET_PAIRS)),
    DeleteMetricOp: (("metric_id", VARINT),),
    EvolveSchemaOp: (("stream", STR), ("new_fields", FIELD_PAIRS)),
    AddPartitionerOp: (("stream", STR), ("partitioner", STR)),
}
#: every DDL op class.
CATALOG_OPS = tuple(OP_LAYOUTS)


@dataclass
class Catalog:
    """Applied view of the operations log."""

    streams: dict[str, StreamDef] = field(default_factory=dict)
    metrics: dict[int, MetricDef] = field(default_factory=dict)
    next_metric_id: int = 0

    def apply(self, op: object) -> None:
        """Fold one DDL operation into the catalogue (idempotent)."""
        if isinstance(op, CreateStreamOp):
            self.streams.setdefault(op.stream.name, op.stream)
        elif isinstance(op, CreateMetricOp):
            self.metrics.setdefault(op.metric.metric_id, op.metric)
            self.next_metric_id = max(self.next_metric_id, op.metric.metric_id + 1)
        elif isinstance(op, DeleteMetricOp):
            self.metrics.pop(op.metric_id, None)
        elif isinstance(op, EvolveSchemaOp):
            stream = self._stream(op.stream)
            self.streams[op.stream] = StreamDef(
                stream.name,
                stream.fields + op.new_fields,
                stream.partitioners,
                stream.partitions,
            )
        elif isinstance(op, AddPartitionerOp):
            stream = self._stream(op.stream)
            if op.partitioner not in stream.partitioners:
                self.streams[op.stream] = StreamDef(
                    stream.name,
                    stream.fields,
                    stream.partitioners + (op.partitioner,),
                    stream.partitions,
                )
        else:
            raise EngineError(f"unknown operation {op!r}")

    # -- DDL rules: what every facade checks before it publishes an op ----------

    def build_stream_def(
        self,
        name: str,
        partitioners: Iterable[str],
        partitions: int,
        schema: object,
        with_global_partitioner: bool,
    ) -> StreamDef:
        """Validate and build a new stream's definition."""
        if name in self.streams:
            raise EngineError(f"stream {name!r} already exists")
        partitioner_list = list(partitioners)
        if with_global_partitioner:
            partitioner_list.append(GLOBAL_PARTITIONER)
        if not partitioner_list:
            raise EngineError("a stream needs at least one partitioner")
        fields = normalize_fields(schema)
        declared = {field_name for field_name, _ in fields}
        for partitioner in partitioner_list:
            if partitioner != GLOBAL_PARTITIONER and partitioner not in declared:
                raise EngineError(f"partitioner {partitioner!r} is not a schema field")
        return StreamDef(name, fields, tuple(partitioner_list), partitions)

    def build_metric_def(self, query_text: str, backfill: bool = False) -> MetricDef:
        """Parse, validate and route a Figure 4 metric; the caller
        applies the returned definition and replicates it."""
        query = parse_query(query_text)
        if query.as_of is not None:
            raise EngineError(
                "AS OF is a read-time clause; a metric definition has no "
                "read instant — use query_as_of() on the spliced metric"
            )
        if query.stream not in self.streams:
            raise EngineError(f"unknown stream {query.stream!r}")
        self.validate_metric_fields(query)
        return MetricDef(
            metric_id=self.next_metric_id,
            query_text=query_text,
            stream=query.stream,
            topic=self.route_metric(query),
            backfill=backfill,
        )

    def validate_new_partitioner(
        self, stream: str, partitioner: str
    ) -> StreamDef | None:
        """Validate a §4 post-creation partitioner addition.

        Returns the stream definition, or ``None`` when the partitioner
        is already present (the addition is an idempotent no-op); raises
        for unknown streams and undeclared fields.
        """
        stream_def = self._stream(stream)
        if partitioner in stream_def.partitioners:
            return None
        declared = {name for name, _ in stream_def.fields}
        if partitioner != GLOBAL_PARTITIONER and partitioner not in declared:
            raise EngineError(f"partitioner {partitioner!r} is not a schema field")
        return stream_def

    def validate_metric_fields(self, query: Query) -> None:
        """Reject metrics referencing fields their stream does not declare."""
        declared = {name for name, _ in self.streams[query.stream].fields}
        for agg in query.aggregations:
            if agg.field is not None and agg.field not in declared:
                raise EngineError(
                    f"aggregation field {agg.field!r} not in stream {query.stream!r}"
                )
        for field_name in query.group_by:
            if field_name not in declared:
                raise EngineError(
                    f"group-by field {field_name!r} not in stream {query.stream!r}"
                )
        if query.where is not None:
            for field_name in query.where.referenced_fields():
                if field_name not in declared:
                    raise EngineError(
                        f"filter field {field_name!r} not in stream {query.stream!r}"
                    )

    def _stream(self, name: str) -> StreamDef:
        try:
            return self.streams[name]
        except KeyError:
            raise EngineError(f"unknown stream {name!r}") from None

    def event_topics(self) -> dict[str, int]:
        """Every stream's event topics with their partition counts."""
        return {
            topic_name(stream.name, partitioner): stream.partition_count(partitioner)
            for stream in self.streams.values()
            for partitioner in stream.partitioners
        }

    def metrics_for_topic(self, topic: str) -> list[MetricDef]:
        """Metrics computed by task processors of ``topic``, id order."""
        return sorted(
            (m for m in self.metrics.values() if m.topic == topic),
            key=lambda m: m.metric_id,
        )

    def stream_of_topic(self, topic: str) -> StreamDef | None:
        """The stream a topic belongs to (None for internal topics)."""
        for stream in self.streams.values():
            if topic in stream.topics():
                return stream
        return None

    def route_metric(self, query: Query) -> str:
        """Pick the topic for a metric: a partitioner ⊆ its group-by keys.

        "Accurate metrics only need events to be hashed by a subset of
        their group by keys" (§4): any partitioner among the group-by
        fields keeps an entity's events in one task. Metrics without a
        group-by need the global (single-partition) partitioner.
        """
        stream = self._stream(query.stream)
        if not query.group_by:
            if GLOBAL_PARTITIONER not in stream.partitioners:
                raise QueryError(
                    f"metric without GROUP BY needs stream {stream.name!r} created "
                    f"with the global partitioner"
                )
            return topic_name(stream.name, GLOBAL_PARTITIONER)
        for partitioner in stream.partitioners:
            if partitioner in query.group_by:
                return topic_name(stream.name, partitioner)
        raise QueryError(
            f"no partitioner of stream {stream.name!r} ({', '.join(stream.partitioners)}) "
            f"is among the metric's group-by fields ({', '.join(query.group_by)})"
        )
