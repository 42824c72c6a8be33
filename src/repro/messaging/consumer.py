"""Consumers: pull-based readers with group membership.

"Kafka follows a pull-based approach where consumers continuously poll
for new messages by providing their individual offset since the last
poll" (§3.3). A consumer tracks one position per assigned partition,
starting from the group's committed offset, and exposes ``seek`` so the
engine can rewind to a checkpointed offset during recovery.
"""

from __future__ import annotations

from typing import Iterable, Protocol

from repro.common.clock import Clock, SystemClock
from repro.common.errors import MessagingError
from repro.messaging.broker import MessageBus
from repro.messaging.groups import AssignmentStrategy, GroupCoordinator
from repro.messaging.log import TopicPartition


class RebalanceListener(Protocol):
    """Callbacks invoked around assignment changes (Kafka-style)."""

    def on_partitions_revoked(self, partitions: list[TopicPartition]) -> None:
        """Partitions leaving this consumer."""

    def on_partitions_assigned(self, partitions: list[TopicPartition]) -> None:
        """Partitions newly owned by this consumer."""


class ConsumerRecord:
    """A polled message with its provenance."""

    __slots__ = ("tp", "offset", "key", "value", "timestamp")

    def __init__(self, tp: TopicPartition, offset: int, key, value, timestamp: int) -> None:
        self.tp = tp
        self.offset = offset
        self.key = key
        self.value = value
        self.timestamp = timestamp

    @property
    def topic(self) -> str:
        return self.tp.topic

    @property
    def partition(self) -> int:
        return self.tp.partition

    def __repr__(self) -> str:
        return f"ConsumerRecord({self.tp}@{self.offset})"


class _NullListener:
    def on_partitions_revoked(self, partitions: list[TopicPartition]) -> None:
        pass

    def on_partitions_assigned(self, partitions: list[TopicPartition]) -> None:
        pass


class Consumer:
    """A group member polling its assigned partitions."""

    def __init__(
        self,
        bus: MessageBus,
        coordinator: GroupCoordinator,
        group_id: str,
        member_id: str,
        clock: Clock | None = None,
    ) -> None:
        self._bus = bus
        self._coordinator = coordinator
        self.group_id = group_id
        self.member_id = member_id
        self._clock = clock if clock is not None else SystemClock()
        self._positions: dict[TopicPartition, int] = {}
        self._subscribed = False
        self.records_polled = 0

    # -- membership -----------------------------------------------------------------

    def subscribe(
        self,
        topics: Iterable[str],
        listener: RebalanceListener | None = None,
        strategy: AssignmentStrategy | None = None,
    ) -> None:
        """Join the group for ``topics``; assignment arrives on next tick."""
        if self._subscribed:
            raise MessagingError(f"consumer {self.member_id!r} already subscribed")
        self._coordinator.join(
            self.group_id,
            self.member_id,
            topics,
            self._clock.now(),
            listener=listener if listener is not None else _NullListener(),
            strategy=strategy,
        )
        self._subscribed = True

    def update_subscription(self, topics: Iterable[str]) -> None:
        """Change the subscribed topic set (triggers a rebalance)."""
        if not self._subscribed:
            raise MessagingError(f"consumer {self.member_id!r} not subscribed")
        self._coordinator.update_subscription(self.group_id, self.member_id, topics)

    def is_member(self) -> bool:
        """True while the coordinator still counts us in (not expired)."""
        return self.member_id in self._coordinator.members_of(self.group_id)

    def rejoin(self, topics: Iterable[str], listener: RebalanceListener | None = None,
               strategy: AssignmentStrategy | None = None) -> None:
        """Re-enter the group after expiry (node revival path)."""
        self._coordinator.join(
            self.group_id,
            self.member_id,
            topics,
            self._clock.now(),
            listener=listener if listener is not None else _NullListener(),
            strategy=strategy,
        )
        self._subscribed = True

    def close(self) -> None:
        """Leave the group gracefully."""
        if self._subscribed:
            self._coordinator.leave(self.group_id, self.member_id)
            self._subscribed = False

    def heartbeat(self) -> None:
        """Signal liveness (the processor loop calls this every poll)."""
        self._coordinator.heartbeat(self.group_id, self.member_id, self._clock.now())

    # -- position management ------------------------------------------------------------

    def assignment(self) -> list[TopicPartition]:
        """Currently assigned partitions, sorted."""
        return sorted(
            self._coordinator.assignment_of(self.group_id, self.member_id), key=str
        )

    def position(self, tp: TopicPartition) -> int:
        """Next offset this consumer will read for ``tp``."""
        if tp not in self._positions:
            self._positions[tp] = self._bus.committed_offset(self.group_id, tp)
        return self._positions[tp]

    def seek(self, tp: TopicPartition, offset: int) -> None:
        """Rewind/forward the read position (recovery path)."""
        if offset < 0:
            raise MessagingError(f"cannot seek to negative offset {offset}")
        self._positions[tp] = offset

    def seek_to_end(self, tp: TopicPartition) -> None:
        """Skip to the log end (replica bootstrap fast-path)."""
        self._positions[tp] = self._bus.end_offset(tp)

    def commit(self, tp: TopicPartition | None = None) -> None:
        """Commit current position(s) for this group."""
        targets = [tp] if tp is not None else self.assignment()
        for target in targets:
            self._bus.commit_offset(self.group_id, target, self.position(target))

    # -- the data path ------------------------------------------------------------------

    def poll(self, max_records: int = 100) -> list[ConsumerRecord]:
        """Heartbeat + read from every assigned partition, round-robin.

        A consumer expelled by the coordinator (missed heartbeats) polls
        nothing until it rejoins — mirroring a fenced Kafka consumer.
        """
        records: list[ConsumerRecord] = []
        for _tp, batch in self.poll_batches(max_records):
            records.extend(batch)
        return records

    def poll_batches(
        self, max_records: int = 100
    ) -> list[tuple[TopicPartition, list[ConsumerRecord]]]:
        """Like :meth:`poll`, but grouped per partition.

        Each group is a contiguous offset run from one partition, in the
        same order :meth:`poll` would interleave them — the batched
        engine hot path hands whole runs to a task processor without
        re-bucketing. Empty partitions produce no group.
        """
        if not self.is_member():
            return []
        self.heartbeat()
        batches: list[tuple[TopicPartition, list[ConsumerRecord]]] = []
        assigned = self.assignment()
        if not assigned:
            return batches
        per_partition = max(1, max_records // len(assigned))
        total = 0
        for tp in assigned:
            position = self.position(tp)
            messages = self._bus.read(tp, position, per_partition)
            if not messages:
                continue
            batches.append(
                (
                    tp,
                    [
                        ConsumerRecord(
                            tp, message.offset, message.key, message.value,
                            message.timestamp,
                        )
                        for message in messages
                    ],
                )
            )
            self._positions[tp] = messages[-1].offset + 1
            total += len(messages)
        self.records_polled += total
        return batches

    def lag(self) -> int:
        """Total unread messages across the assignment."""
        return sum(
            self._bus.end_offset(tp) - self.position(tp) for tp in self.assignment()
        )


class PartitionView:
    """A coordinator-free reader over an explicitly assigned partition set.

    A shard frontend polls its partition logs *on behalf of* the shard
    workers: the view tracks one read position per owned partition
    (starting at 0), which recovery seeks back to a checkpointed
    offset.

    Unlike :class:`Consumer` there is no group membership, heartbeat,
    committed offset or rebalance protocol: assignment is installed
    directly (the front layer is the assignment authority) and reads
    return raw :class:`~repro.messaging.log.Message` batches without
    per-record wrapping, keeping the dispatch hot path allocation-light.
    """

    def __init__(self, bus: MessageBus) -> None:
        self._bus = bus
        self._positions: dict[TopicPartition, int] = {}
        self._assigned: list[TopicPartition] = []

    def set_assignment(self, partitions: Iterable[TopicPartition]) -> None:
        """Install the owned partition set (sorted for determinism)."""
        self._assigned = sorted(partitions, key=str)

    def assignment(self) -> list[TopicPartition]:
        """Currently assigned partitions, sorted."""
        return list(self._assigned)

    def position(self, tp: TopicPartition) -> int:
        """Next offset to read."""
        return self._positions.get(tp, 0)

    def seek(self, tp: TopicPartition, offset: int) -> None:
        """Rewind/forward the read position (replay-after-restart path)."""
        if offset < 0:
            raise MessagingError(f"cannot seek to negative offset {offset}")
        self._positions[tp] = offset

    def poll_one(self, tp: TopicPartition, max_records: int = 256) -> list:
        """One contiguous message run from a single partition.

        A frontend polls partition-by-partition so it can skip every
        partition whose worker ran out of flow-control credits, instead
        of over-reading the whole assignment.
        """
        messages = self._bus.read(tp, self.position(tp), max_records)
        if messages:
            self._positions[tp] = messages[-1].offset + 1
        return messages

    def lag(self) -> int:
        """Total unread messages across the assignment."""
        return sum(
            self._bus.end_offset(tp) - self.position(tp) for tp in self._assigned
        )
