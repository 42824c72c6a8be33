"""The front-end layer (paper §3.1, Figure 3 steps 1–2 and 5–6).

Receives client events, fans them out to every partitioner topic of the
stream (keyed by the partitioner field so entity locality holds), then
collects the per-task replies from the node's dedicated reply topic and
assembles the final client response once all expected replies arrived.

The client half every cluster facade shares also lives here: the
:class:`Reply` a caller gets back, :func:`client_event` /
:func:`deliver_batch` — ``client-…`` id minting plus the
pump-until-replied loop behind every facade's ``send``/``send_batch``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.common.errors import EngineError
from repro.engine.catalog import (
    GLOBAL_PARTITIONER,
    OPERATIONS_TOPIC,
    REPLY_TOPIC_PREFIX,
    Catalog,
    topic_name,
)
from repro.engine.envelope import EventEnvelope, ReplyEnvelope
from repro.events.event import Event
from repro.messaging.broker import MessageBus
from repro.messaging.log import TopicPartition
from repro.messaging.producer import Producer
from repro.telemetry import StageLaps


@dataclass
class Reply:
    """A completed client response."""

    event: Event
    stream: str
    results: dict[int, dict[str, Any]]
    latency_ms: int

    def metric(self, metric_id: int) -> dict[str, Any]:
        """All columns of one metric."""
        return self.results.get(metric_id, {})

    def value(self, metric_id: int, column: str) -> Any:
        """One aggregation value, e.g. ``reply.value(0, "sum(amount)")``."""
        return self.results.get(metric_id, {}).get(column)


def client_event(
    clock,
    base_id: int,
    fields: Mapping[str, Any] | None,
    timestamp: int | None,
    event: Event | None,
    event_id: str | None,
) -> Event:
    """The event one ``send`` publishes: ``event`` as given, else built
    from ``fields``, stamped with the facade clock and given the
    ``client-…`` id ``base_id`` names unless the caller chose them."""
    if event is not None:
        return event
    if fields is None:
        raise EngineError("either fields or event is required")
    return Event(
        event_id if event_id is not None else f"client-{base_id:012d}",
        timestamp if timestamp is not None else clock.now(),
        fields,
    )


def deliver_batch(
    facade,
    batch: Iterable[Mapping[str, Any] | Event],
    base_id: int,
    ship: Callable[[list[Event]], list[int]],
    completed: dict[int, Reply],
    max_rounds: int,
) -> list[Reply]:
    """Mint, ship and await one client batch — every facade's send path.

    Mapping items become events stamped with the facade clock and ids
    ``client-<base_id + index>`` (the facade's published-record count,
    so ids stay unique and match across topologies for the same call
    sequence). ``ship(events)`` hands them to the transport and returns
    their correlation ids; ``facade._round(laps)`` runs one pump round
    until every correlation's :class:`Reply` sits in ``completed``.
    The stage histograms tile the call: ``engine_ingest_ms`` (mint +
    ship), the rounds' own ``engine_dispatch_ms``/``engine_collect_ms``
    laps, ``engine_reply_ms`` (popping the replies) — they sum to
    ``engine_batch_ms`` exactly.
    """
    metrics = facade.metrics
    laps = StageLaps(metrics)
    now = facade.clock.now()
    events = [
        item
        if isinstance(item, Event)
        else Event(f"client-{base_id + index:012d}", now, item)
        for index, item in enumerate(batch)
    ]
    correlations = ship(events)
    metrics.counter_add("engine_batches_in_total")
    metrics.counter_add("engine_events_in_total", len(events))
    laps.lap("engine_ingest_ms")
    outstanding = set(correlations)
    for _ in range(max_rounds):
        if not outstanding:
            break
        facade._round(laps)
        if completed:
            outstanding.difference_update(completed)
    if outstanding:
        raise EngineError(
            f"{len(outstanding)} of {len(correlations)} replies did not "
            f"complete within {max_rounds} pump rounds"
        )
    replies = [completed.pop(correlation) for correlation in correlations]
    metrics.counter_add("engine_replies_out_total", len(replies))
    laps.lap("engine_reply_ms")
    laps.total("engine_batch_ms")
    return replies


@dataclass
class PendingRequest:
    """A client request awaiting its fan-in of task replies."""

    correlation_id: int
    event: Event
    stream: str
    expected: int
    sent_at_ms: int
    results: dict[int, dict[str, Any]] = field(default_factory=dict)
    received: int = 0

    @property
    def complete(self) -> bool:
        return self.received >= self.expected


class FrontEnd:
    """Per-node client entry point."""

    def __init__(self, node_id: str, bus: MessageBus, clock) -> None:
        self.node_id = node_id
        self.bus = bus
        self.clock = clock
        self.catalog = Catalog()
        self.producer = Producer(bus, clock)
        self.reply_topic = REPLY_TOPIC_PREFIX + node_id
        self._reply_tp = TopicPartition(self.reply_topic, 0)
        #: replies already in the topic (a reopened durable bus) belong
        #: to requests of an earlier process; this frontend reads on
        #: from the end.
        self._reply_offset = bus.end_offset(self._reply_tp)
        self._ops_tp = TopicPartition(OPERATIONS_TOPIC, 0)
        self._ops_offset = 0
        self._next_correlation = 0
        self.pending: dict[int, PendingRequest] = {}
        self.completed: dict[int, Reply] = {}
        self.events_received = 0

    # -- step 1-2: receive + fan out ----------------------------------------------

    def send(self, stream_name: str, event: Event) -> int:
        """Publish an event to all of its stream's topics; returns corr id."""
        self._consume_ops()
        stream = self.catalog.streams.get(stream_name)
        if stream is None:
            raise EngineError(f"unknown stream {stream_name!r}")
        stream.schema().validate_event(event)
        correlation_id = self._next_correlation
        self._next_correlation += 1
        topics = stream.topics()
        envelope = EventEnvelope(
            stream=stream_name,
            event=event,
            origin_node=self.node_id,
            correlation_id=correlation_id,
            fanout=len(topics),
        )
        for partitioner in stream.partitioners:
            key = (
                "__global__"
                if partitioner == GLOBAL_PARTITIONER
                else event.get(partitioner)
            )
            self.producer.send(
                topic_name(stream_name, partitioner),
                key=key,
                value=envelope,
                timestamp=self.clock.now(),
            )
        self.pending[correlation_id] = PendingRequest(
            correlation_id=correlation_id,
            event=event,
            stream=stream_name,
            expected=len(topics),
            sent_at_ms=self.clock.now(),
        )
        self.events_received += 1
        return correlation_id

    def send_batch(self, stream_name: str, events: Sequence[Event]) -> list[int]:
        """Publish a batch of events; returns their correlation ids.

        One ops-consume, catalogue lookup, schema validation and clock
        read cover the whole batch; the per-event work shrinks to the
        keyed fan-out publishes. The batch is validated before the first
        publish, so a schema-invalid event rejects it whole: nothing is
        published, nothing left pending. Reply collection is unchanged —
        each event still gets its own correlation id and fan-in.
        """
        self._consume_ops()
        stream = self.catalog.streams.get(stream_name)
        if stream is None:
            raise EngineError(f"unknown stream {stream_name!r}")
        stream.schema().validate_events(events)
        topics = stream.topics()
        fanout = len(topics)
        now = self.clock.now()
        partitioner_topics = [
            (partitioner, topic_name(stream_name, partitioner))
            for partitioner in stream.partitioners
        ]
        send = self.producer.send
        correlation_ids: list[int] = []
        for event in events:
            correlation_id = self._next_correlation
            self._next_correlation += 1
            envelope = EventEnvelope(
                stream=stream_name,
                event=event,
                origin_node=self.node_id,
                correlation_id=correlation_id,
                fanout=fanout,
            )
            for partitioner, topic in partitioner_topics:
                key = (
                    "__global__"
                    if partitioner == GLOBAL_PARTITIONER
                    else event.get(partitioner)
                )
                send(topic, key=key, value=envelope, timestamp=now)
            self.pending[correlation_id] = PendingRequest(
                correlation_id=correlation_id,
                event=event,
                stream=stream_name,
                expected=fanout,
                sent_at_ms=now,
            )
            correlation_ids.append(correlation_id)
        self.events_received += len(correlation_ids)
        return correlation_ids

    # -- step 5-6: collect + respond ---------------------------------------------------

    def poll_replies(self) -> list[Reply]:
        """Drain the reply topic; returns requests completed this call.

        This frontend is the topic's only reader, so every reply it has
        consumed is truncated away (whole segments on a durable bus).
        """
        self._consume_ops()
        finished: list[Reply] = []
        messages = self.bus.read(self._reply_tp, self._reply_offset, 1000)
        if not messages:
            return finished
        for message in messages:
            self._reply_offset = message.offset + 1
            reply = message.value
            if not isinstance(reply, ReplyEnvelope):
                continue
            completed = self.deliver_reply(reply)
            if completed is not None:
                finished.append(completed)
        self.bus.log(self._reply_tp).truncate_below(self._reply_offset)
        return finished

    def deliver_reply(self, reply: ReplyEnvelope) -> Reply | None:
        """Fan one task reply into its pending request.

        The reply-topic poll loop funnels through here; the
        process-parallel engine also calls it directly — the coordinator
        process hosts both the shard supervisor and the frontend, so
        every reply merges in-process without a bus hop. Returns the
        completed response when this reply was the last one expected.
        """
        request = self.pending.get(reply.correlation_id)
        if request is None:
            return None  # duplicate reply after completion
        for metric_id, values in reply.results.items():
            request.results[metric_id] = values
        request.received += 1
        if not request.complete:
            return None
        del self.pending[request.correlation_id]
        completed = Reply(
            event=request.event,
            stream=request.stream,
            results=request.results,
            latency_ms=self.clock.now() - request.sent_at_ms,
        )
        self.completed[request.correlation_id] = completed
        return completed

    def take_completed(self, correlation_id: int) -> Reply | None:
        """Pop a completed response (step 6: reply to the client)."""
        return self.completed.pop(correlation_id, None)

    def _consume_ops(self) -> None:
        if not self.bus.has_topic(OPERATIONS_TOPIC):
            return
        for message in self.bus.read(self._ops_tp, self._ops_offset, 1000):
            self._ops_offset = message.offset + 1
            self.catalog.apply(message.value)
