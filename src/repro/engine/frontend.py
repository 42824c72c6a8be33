"""The front-end layer (paper §3.1, Figure 3 steps 1–2 and 5–6).

Receives client events and fans them out to every partitioner topic of
the stream (keyed by the partitioner field so entity locality holds).
The processor units hand each task reply to the origin node's frontend
in process (its ``inbox``; replies never cross the bus), and the
frontend assembles the final client response once every topic answered.

The client half every cluster facade shares also lives here: the
:class:`Reply` a caller gets back, :func:`client_event` /
:func:`deliver_batch` — ``client-…`` id minting plus the
pump-until-replied loop behind every facade's ``send``/``send_batch`` —
and :func:`fan_in`, the one topic-deduped merge of task replies into
:class:`PendingRequest` entries that every topology runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.common.errors import EngineError
from repro.engine.catalog import (
    GLOBAL_PARTITIONER,
    OPERATIONS_TOPIC,
    Catalog,
    topic_name,
)
from repro.engine.envelope import EventEnvelope
from repro.events.event import Event
from repro.messaging.broker import MessageBus
from repro.messaging.log import TopicPartition
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
    """A client request awaiting the replies of its fanned-out topics."""

    event: Event
    stream: str
    expected: int
    sent_at_ms: int
    results: dict[int, dict[str, Any]] = field(default_factory=dict)
    #: topics that already answered — the de-dup key that makes replayed
    #: replies (promotions, worker or frontend recovery) count at most
    #: once each.
    replied: set[str] = field(default_factory=set)


def fan_in(
    pending: dict[int, PendingRequest],
    completed: dict[int, Reply],
    now: int,
    correlation_id: int,
    topic: str,
    results: dict | None,
) -> Reply | None:
    """Fan one task reply into its pending request, topic-deduped.

    Every topology's fan-in: a :class:`FrontEnd` drains its inbox
    through here, a :class:`~repro.shard.cluster.ShardCluster` its
    frontends' ``ReplyBatch`` frames. A reply for an unknown request, a
    reply without results, or a repeat of a topic that already answered
    counts for nothing; counting topics, not raw replies, keeps the
    fan-in exact for multi-partitioner streams. Returns the completed
    response (also filed in ``completed``) when this reply was the last
    one expected.
    """
    request = pending.get(correlation_id)
    if request is None or results is None or topic in request.replied:
        return None
    request.replied.add(topic)
    for metric_id, values in results.items():
        request.results[metric_id] = values
    if len(request.replied) < request.expected:
        return None
    del pending[correlation_id]
    reply = completed[correlation_id] = Reply(
        event=request.event,
        stream=request.stream,
        results=request.results,
        latency_ms=now - request.sent_at_ms,
    )
    return reply


class FrontEnd:
    """Per-node client entry point."""

    def __init__(self, node_id: str, bus: MessageBus, clock) -> None:
        self.node_id = node_id
        self.bus = bus
        self.clock = clock
        self.catalog = Catalog()
        #: ``(correlation_id, topic, results)`` task replies handed over
        #: in process by the processor units, awaiting :meth:`poll_replies`.
        self.inbox: list[tuple[int, str, dict]] = []
        self._ops_tp = TopicPartition(OPERATIONS_TOPIC, 0)
        self._ops_offset = 0
        self._next_correlation = 0
        self.pending: dict[int, PendingRequest] = {}
        self.completed: dict[int, Reply] = {}
        self.events_received = 0

    # -- step 1-2: receive + fan out ----------------------------------------------

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
        publish = self.bus.publish
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
                publish(topic, key, envelope, now)
            self.pending[correlation_id] = PendingRequest(
                event, stream_name, fanout, now
            )
            correlation_ids.append(correlation_id)
        self.events_received += len(correlation_ids)
        return correlation_ids

    # -- step 5-6: collect + respond ---------------------------------------------------

    def poll_replies(self) -> list[Reply]:
        """Fan the inbox into the pending requests; returns the requests
        completed this call."""
        self._consume_ops()
        inbox = self.inbox
        if not inbox:
            return []
        pending, completed = self.pending, self.completed
        now = self.clock.now()
        finished = []
        for correlation_id, topic, results in inbox:
            reply = fan_in(pending, completed, now, correlation_id, topic, results)
            if reply is not None:
                finished.append(reply)
        inbox.clear()
        return finished

    def _consume_ops(self) -> None:
        if not self.bus.has_topic(OPERATIONS_TOPIC):
            return
        for message in self.bus.read(self._ops_tp, self._ops_offset, 1000):
            self._ops_offset = message.offset + 1
            self.catalog.apply(message.value)
