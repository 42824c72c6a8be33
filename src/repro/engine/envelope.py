"""Message envelopes flowing through the bus (Figure 3).

Events travel from a front-end to event topics wrapped in
:class:`EventEnvelope` (steps 2–3). Task processors hand their replies
to the origin node's frontend in process (steps 4–5), so no reply
crosses the bus; :class:`ReplyEnvelope` is the record older durable
directories hold in their ``__reply.<node>`` topics, kept so they still
decode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.events.event import Event
from repro.messaging.log import TopicPartition


@dataclass(frozen=True)
class EventEnvelope:
    """An event published to one (stream, partitioner) topic."""

    stream: str
    event: Event
    origin_node: str
    correlation_id: int
    fanout: int  # how many topics this event was published to


@dataclass(frozen=True)
class ReplyEnvelope:
    """Aggregation results from one task processor for one event (the
    reply record of older durable directories; nothing writes it now)."""

    correlation_id: int
    event_id: str
    task: TopicPartition
    results: dict[int, dict[str, Any]]  # metric id -> column -> value
