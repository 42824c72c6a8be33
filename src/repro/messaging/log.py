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
    """An in-memory log with monotonically increasing, absolute offsets.

    The log retains records from :attr:`start_offset` to
    :attr:`end_offset`. :meth:`truncate_below` advances the start once a
    reader has consumed what lies below it; offsets never shift, and a
    read below the start clamps to it (truncated records are gone).
    """

    def __init__(self, tp: TopicPartition, replication: int = 1) -> None:
        self.tp = tp
        self.replication = replication
        self._messages: list[Message] = []
        #: offset of ``_messages[0]``: the retention start
        self._base = 0
        self._pins: dict[int, int] = {}
        self._next_pin = 0

    def append(self, key: Any, value: Any, timestamp: int) -> int:
        """Append and return the assigned offset."""
        offset = self._base + len(self._messages)
        self._messages.append(Message(offset, key, value, timestamp))
        return offset

    def read(self, from_offset: int, max_records: int) -> list[Message]:
        """Messages with ``offset >= from_offset``, up to ``max_records``;
        reads below the retention start clamp to it."""
        start = max(from_offset, self._base) - self._base
        return self._messages[start : start + max_records]

    @property
    def end_offset(self) -> int:
        """Offset the next append will receive (aka log-end offset)."""
        return self._base + len(self._messages)

    @property
    def start_offset(self) -> int:
        """Lowest retained offset (advances with truncation)."""
        return self._base

    def __len__(self) -> int:
        """Records held in memory."""
        return len(self._messages)

    # -- retention -------------------------------------------------------------
    #
    # A pin is a reader's claim on history: while any pin is open,
    # truncation clamps to the lowest pinned offset, so a backfill
    # replaying the log behind the live writer never sees its unread
    # records deleted under it. Pins are in-process state — they protect
    # *live* readers, not crashed ones — so a reopened log starts with
    # none.

    def pin(self, offset: int) -> int:
        """Hold retention at ``offset``; returns a token for the holder."""
        token = self._next_pin
        self._next_pin += 1
        self._pins[token] = max(offset, self.start_offset)
        return token

    def advance_pin(self, token: int, offset: int) -> None:
        """Move a pin forward as its reader consumes (never backward)."""
        if token in self._pins:
            self._pins[token] = max(self._pins[token], offset)

    def unpin(self, token: int) -> None:
        """Release a pin; idempotent."""
        self._pins.pop(token, None)

    @property
    def pinned_floor(self) -> int | None:
        """Lowest offset any open pin protects (``None`` when unpinned)."""
        return min(self._pins.values()) if self._pins else None

    def truncate_below(self, offset: int) -> int:
        """Drop every record below ``offset`` from memory; returns the
        new retention start. Open pins clamp the cut, and so does the
        log end."""
        floor = self.pinned_floor
        if floor is not None:
            offset = min(offset, floor)
        offset = min(offset, self.end_offset)
        if offset > self._base:
            del self._messages[: offset - self._base]
            self._base = offset
        return self._base
