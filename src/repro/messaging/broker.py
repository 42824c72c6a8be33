"""The message bus: topics, partitions, brokers and committed offsets.

A single in-process object stands in for the Kafka cluster. Brokers are
modelled as leader assignments over partitions — enough to reason about
replication placement and to let the simulator charge per-broker costs —
while the data path is the shared partition logs.
"""

from __future__ import annotations

from typing import Any

from repro.common.errors import MessagingError
from repro.common.hashing import partition_for
from repro.messaging.log import Message, PartitionLog, TopicPartition


class MessageBus:
    """Topic registry + partition logs + committed-offset store."""

    def __init__(self, brokers: int = 1) -> None:
        if brokers <= 0:
            raise ValueError(f"need at least one broker: {brokers}")
        self.broker_count = brokers
        self._logs: dict[TopicPartition, PartitionLog] = {}
        self._topics: dict[str, int] = {}  # topic -> partition count
        self._leaders: dict[TopicPartition, int] = {}
        self._committed: dict[tuple[str, TopicPartition], int] = {}
        self.messages_published = 0

    # -- topic management --------------------------------------------------------

    def create_topic(self, name: str, partitions: int, replication: int = 1) -> None:
        """Create a topic; adding partitions to an existing one is allowed."""
        if partitions <= 0:
            raise MessagingError(f"topic {name!r} needs at least one partition")
        if replication > self.broker_count:
            raise MessagingError(
                f"replication {replication} exceeds broker count {self.broker_count}"
            )
        existing = self._topics.get(name, 0)
        if existing > partitions:
            raise MessagingError(
                f"cannot shrink topic {name!r} from {existing} to {partitions}"
            )
        self._topics[name] = partitions
        for index in range(existing, partitions):
            tp = TopicPartition(name, index)
            self._logs[tp] = PartitionLog(tp, replication)
            self._leaders[tp] = (hash(name) + index) % self.broker_count

    def has_topic(self, name: str) -> bool:
        """True when the topic exists."""
        return name in self._topics

    def partitions_for(self, topic: str) -> int:
        """Partition count of a topic."""
        try:
            return self._topics[topic]
        except KeyError:
            raise MessagingError(f"unknown topic {topic!r}") from None

    def topic_partitions(self, topic: str) -> list[TopicPartition]:
        """All (topic, partition) pairs of a topic."""
        return [TopicPartition(topic, i) for i in range(self.partitions_for(topic))]

    def leader_of(self, tp: TopicPartition) -> int:
        """Broker id leading a partition (used by the simulator)."""
        return self._leaders[tp]

    def total_partitions(self) -> int:
        """Total partitions across topics (Kafka-load proxy in §5.3)."""
        return sum(self._topics.values())

    # -- data path -----------------------------------------------------------------

    def log(self, tp: TopicPartition) -> PartitionLog:
        """The log behind a (topic, partition)."""
        try:
            return self._logs[tp]
        except KeyError:
            raise MessagingError(f"unknown partition {tp}") from None

    def publish(self, topic: str, key: Any, value: Any, timestamp: int) -> tuple[TopicPartition, int]:
        """Append with keyed routing; returns ``(tp, offset)``."""
        partitions = self.partitions_for(topic)
        index = partition_for(key, partitions) if key is not None else (
            self.messages_published % partitions
        )
        tp = TopicPartition(topic, index)
        offset = self._logs[tp].append(key, value, timestamp)
        self.messages_published += 1
        return tp, offset

    def read(self, tp: TopicPartition, from_offset: int, max_records: int) -> list[Message]:
        """Read messages at ``from_offset`` onwards."""
        return self.log(tp).read(from_offset, max_records)

    def end_offset(self, tp: TopicPartition) -> int:
        """Log-end offset of a partition."""
        return self.log(tp).end_offset

    # -- committed offsets -------------------------------------------------------------

    def commit_offset(self, group: str, tp: TopicPartition, offset: int) -> None:
        """Record a consumer group's committed position."""
        self._committed[(group, tp)] = offset

    def committed_offset(self, group: str, tp: TopicPartition) -> int:
        """Committed position (0 when the group never committed)."""
        return self._committed.get((group, tp), 0)
