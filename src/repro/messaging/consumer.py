"""Consumers: pull-based readers with group membership.

"Kafka follows a pull-based approach where consumers continuously poll
for new messages by providing their individual offset since the last
poll" (§3.3). A consumer tracks one position per assigned partition,
starting from the group's committed offset, and exposes ``seek`` so the
engine can rewind to a checkpointed offset during recovery.
"""

from __future__ import annotations

from typing import Iterable

from repro.common.errors import MessagingError
from repro.common.timesource import Clock, SystemClock
from repro.messaging.broker import MessageBus
from repro.messaging.groups import GroupCoordinator
from repro.messaging.log import Message, TopicPartition


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

    # -- membership -----------------------------------------------------------------

    def subscribe(self, topics: Iterable[str]) -> None:
        """Join the group for ``topics``; assignment arrives from the
        engine's authority."""
        if self._subscribed:
            raise MessagingError(f"consumer {self.member_id!r} already subscribed")
        self.rejoin(topics)

    def update_subscription(self, topics: Iterable[str]) -> None:
        """Change the subscribed topic set (triggers a rebalance)."""
        if not self._subscribed:
            raise MessagingError(f"consumer {self.member_id!r} not subscribed")
        self._coordinator.update_subscription(self.group_id, self.member_id, topics)

    def is_member(self) -> bool:
        """True while the coordinator still counts us in (not expired)."""
        return self._coordinator.has_member(self.group_id, self.member_id)

    def rejoin(self, topics: Iterable[str]) -> None:
        """Re-enter the group after expiry (node revival path)."""
        self._coordinator.join(self.group_id, self.member_id, topics, self._clock.now())
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

    def commit(self, tp: TopicPartition | None = None) -> None:
        """Commit current position(s) for this group."""
        targets = [tp] if tp is not None else self.assignment()
        for target in targets:
            self._bus.commit_offset(self.group_id, target, self.position(target))

    # -- the data path ------------------------------------------------------------------

    def poll_batches(self, max_records: int = 100) -> list[tuple[TopicPartition, list[Message]]]:
        """Heartbeat + read from every assigned partition, one run each.

        Each run is a contiguous offset run from one partition — the
        batched engine hot path hands whole runs to a task processor
        without re-bucketing. Empty partitions produce no run. A
        consumer expelled by the coordinator (missed heartbeats) polls
        nothing until it rejoins — mirroring a fenced Kafka consumer.
        """
        if not self.is_member():
            return []
        self.heartbeat()
        batches: list[tuple[TopicPartition, list[Message]]] = []
        assigned = self.assignment()
        if not assigned:
            return batches
        per_partition = max(1, max_records // len(assigned))
        for tp in assigned:
            messages = self._bus.read(tp, self.position(tp), per_partition)
            if messages:
                batches.append((tp, messages))
                self._positions[tp] = messages[-1].offset + 1
        return batches


class PartitionView:
    """A coordinator-free reader over an explicitly assigned partition set.

    A shard frontend polls its partition logs *on behalf of* the shard
    workers: the view tracks one read position per owned partition
    (starting at 0), which recovery seeks back to a checkpointed
    offset.

    Unlike :class:`Consumer` there is no group membership, heartbeat,
    committed offset or rebalance protocol: assignment is installed
    directly (the front layer is the assignment authority) and reads
    return raw :class:`~repro.messaging.log.Message` runs, as
    :meth:`Consumer.poll_batches` does.
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
