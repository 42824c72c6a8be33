"""Partition logs: append-only, offset-addressed message sequences."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.common.layout import STR, VARINT, seq, struct, tuple_of


@dataclass(frozen=True)
class TopicPartition:
    """The unit of work distribution — a (topic, partition) pair (§3.2)."""

    topic: str
    partition: int

    def __str__(self) -> str:
        return f"{self.topic}-{self.partition}"


#: the one binary layout of a task address and of a ``(task, offset)``
#: list (watermarks, seeks, activation cuts, consistent cuts), shared by
#: the shard wire and the durable log.
TP = struct(TopicPartition, ("topic", STR), ("partition", VARINT))
OFFSET_PAIRS = seq(tuple_of(TP, VARINT))


@dataclass(frozen=True)
class Message:
    """One log entry."""

    offset: int
    key: Any
    value: Any
    timestamp: int


class PartitionLog:
    """An append-only in-memory log with monotonically increasing offsets."""

    def __init__(self, tp: TopicPartition, replication: int = 1) -> None:
        self.tp = tp
        self.replication = replication
        self._messages: list[Message] = []

    def append(self, key: Any, value: Any, timestamp: int) -> int:
        """Append and return the assigned offset."""
        offset = len(self._messages)
        self._messages.append(Message(offset, key, value, timestamp))
        return offset

    def read(self, from_offset: int, max_records: int) -> list[Message]:
        """Messages with ``offset >= from_offset``, up to ``max_records``."""
        if from_offset < 0:
            from_offset = 0
        return self._messages[from_offset : from_offset + max_records]

    @property
    def end_offset(self) -> int:
        """Offset the next append will receive (aka log-end offset)."""
        return len(self._messages)

    def __len__(self) -> int:
        return len(self._messages)
