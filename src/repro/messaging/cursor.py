"""Shared log-reader cursors that survive checkpoint-driven truncation.

A :class:`LogCursor` is the second reader of a partition log: while the
live consumer tails the head, a cursor replays history (backfill, as-of
queries, migration export) from an arbitrary start offset. The cursor
*pins retention* — truncation clamps to the lowest open pin
(:meth:`~repro.messaging.log.PartitionLog.pin`), so the records between
the cursor and the live frontier cannot be deleted while the replay is
in flight. Reading advances the pin in lock-step, so retention resumes
reclaiming behind the cursor as it catches up.
"""

from __future__ import annotations

from repro.messaging.broker import MessageBus
from repro.messaging.log import Message, TopicPartition


class LogCursor:
    """A positioned, retention-pinning reader over one partition log."""

    def __init__(self, bus: MessageBus, tp: TopicPartition, start: int = 0) -> None:
        self.bus = bus
        self.tp = tp
        log = bus.log(tp)
        # Reads below the retention start are gone; clamp like the log does.
        self.position = max(start, log.start_offset)
        self.closed = False
        self._pin_token: int | None = log.pin(self.position)

    def lag(self) -> int:
        """Records between the cursor and the live log end."""
        return max(0, self.bus.end_offset(self.tp) - self.position)

    def read(self, max_records: int) -> list[Message]:
        """The next run of messages; advances position and pin."""
        messages = self.bus.read(self.tp, self.position, max_records)
        if messages:
            self.position = messages[-1].offset + 1
            self._advance_pin()
        return messages

    def seek(self, offset: int) -> None:
        """Jump forward (e.g. to a checkpoint's offset); pins follow."""
        if offset > self.position:
            self.position = offset
            self._advance_pin()

    def _advance_pin(self) -> None:
        if self._pin_token is not None:
            self.bus.log(self.tp).advance_pin(self._pin_token, self.position)

    def close(self) -> None:
        """Release the retention pin; idempotent."""
        self.closed = True
        if self._pin_token is not None:
            self.bus.log(self.tp).unpin(self._pin_token)
            self._pin_token = None

    def __enter__(self) -> "LogCursor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
