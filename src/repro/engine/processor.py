"""Processor units — Algorithm 1.

A processor unit single-threadedly (here: cooperatively, one
``run_once`` per pump) handles operational requests, polls its active
and replica consumers, routes messages to task processors, and replies
for active tasks. It keeps revoked task processors around as **stale**
data leftovers, which the sticky strategy (Figure 7) exploits to turn
future reassignments into cheap delta recoveries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.common.errors import EngineError
from repro.engine.catalog import (
    CHECKPOINTS_TOPIC,
    OPERATIONS_TOPIC,
    REPLY_TOPIC_PREFIX,
    AddPartitionerOp,
    Catalog,
    CreateMetricOp,
    CreateStreamOp,
    DeleteMetricOp,
    EvolveSchemaOp,
)
from repro.engine.envelope import EventEnvelope, ReplyEnvelope
from repro.engine.task import TaskCheckpoint, TaskProcessor
from repro.lsm.db import LsmConfig
from repro.messaging.broker import MessageBus
from repro.messaging.consumer import Consumer
from repro.messaging.groups import GroupCoordinator
from repro.messaging.log import TopicPartition
from repro.messaging.producer import Producer
from repro.reservoir.reservoir import ReservoirConfig

if TYPE_CHECKING:  # pragma: no cover - circular-import guard
    from repro.engine.cluster import RailgunCluster

#: consumer group shared by every active-task consumer (§3.3: "all
#: Railgun active task consumers belong to the same consumer group")
ACTIVE_GROUP = "railgun-active"


def replica_group(unit_id: str) -> str:
    """Each unit's replica consumer gets its own group (§3.3)."""
    return f"railgun-replica.{unit_id}"


@dataclass
class RecoveryStats:
    """Counters for the recovery/ablation benches."""

    recoveries: int = 0
    delta_recoveries: int = 0
    fresh_starts: int = 0
    promotions: int = 0
    bytes_transferred: int = 0
    checkpoints_taken: int = 0


@dataclass
class UnitConfig:
    """Per-unit tuning."""

    checkpoint_interval: int = 200  # messages per task between checkpoints
    poll_max_records: int = 64
    reservoir: ReservoirConfig = field(default_factory=ReservoirConfig)
    lsm: LsmConfig = field(default_factory=LsmConfig)
    max_stale_tasks: int = 16


class ProcessorUnit:
    """One back-end worker: a set of task processors on one thread."""

    def __init__(
        self,
        unit_id: str,
        node_id: str,
        bus: MessageBus,
        coordinator: GroupCoordinator,
        clock,
        cluster: "RailgunCluster | None" = None,
        config: UnitConfig | None = None,
    ) -> None:
        self.unit_id = unit_id
        self.node_id = node_id
        self.bus = bus
        self.clock = clock
        self.cluster = cluster
        self.config = config if config is not None else UnitConfig()
        self.catalog = Catalog()
        self.stats = RecoveryStats()
        self._ops_offset = 0
        self._ops_tp = TopicPartition(OPERATIONS_TOPIC, 0)
        self.producer = Producer(bus, clock)
        self.active_consumer = Consumer(bus, coordinator, ACTIVE_GROUP, unit_id, clock)
        self.replica_consumer = Consumer(
            bus, coordinator, replica_group(unit_id), unit_id, clock
        )
        self.task_processors: dict[TopicPartition, TaskProcessor] = {}
        self.stale: dict[TopicPartition, TaskProcessor] = {}
        self._known_active: set[TopicPartition] = set()
        self._known_replica: set[TopicPartition] = set()
        self._checkpoint_counters: dict[TopicPartition, int] = {}
        self.messages_processed = 0
        self.replies_sent = 0

    def subscribe(self, topics: list[str]) -> None:
        """Join the active and replica groups for the event topics."""
        self.active_consumer.subscribe(topics, strategy=_keep_previous_assignor)
        self.replica_consumer.subscribe(topics, strategy=_keep_previous_assignor)

    # -- Algorithm 1 -----------------------------------------------------------------

    def run_once(self) -> int:
        """One loop iteration; returns the number of messages handled.

        The consumers are drained in per-partition batches: each batch
        goes through the task processor's batch-apply entry point (which
        amortizes the reservoir bookkeeping over in-order runs), then
        replies stream out in the original per-message order.
        """
        self._process_operational_requests()
        self._reconcile_assignments()
        handled = 0
        active_tps = set(self.active_consumer.assignment())
        active_batches = self.active_consumer.poll_batches(self.config.poll_max_records)
        replica_batches = self.replica_consumer.poll_batches(self.config.poll_max_records)
        for tp, records in active_batches + replica_batches:
            event_records = [
                record for record in records if isinstance(record.value, EventEnvelope)
            ]
            if not event_records:
                continue
            processor = self._processor_for(tp)
            answers = processor.process_batch(
                [(record.offset, record.value.event) for record in event_records]
            )
            handled += len(event_records)
            self.messages_processed += len(event_records)
            self._note_processed(tp, processor, len(event_records))
            if tp in active_tps:
                for record, answer in zip(event_records, answers):
                    if answer is not None:
                        self._send_reply(record.value, tp, answer)
        if active_batches:
            # Advance the group's committed offsets so a future owner
            # knows which messages already got replies.
            self.active_consumer.commit()
        return handled

    # -- operational requests (Algorithm 1 line 2) --------------------------------------

    def _process_operational_requests(self) -> None:
        records = self.bus.read(self._ops_tp, self._ops_offset, 1000)
        for message in records:
            self._ops_offset = message.offset + 1
            op = message.value
            self.catalog.apply(op)
            if isinstance(op, CreateMetricOp):
                for tp, processor in self.task_processors.items():
                    if tp.topic == op.metric.topic:
                        processor.add_metric(op.metric)
            elif isinstance(op, DeleteMetricOp):
                for processor in self.task_processors.values():
                    processor.remove_metric(op.metric_id)
            elif isinstance(op, EvolveSchemaOp):
                stream = self.catalog.streams[op.stream]
                for tp, processor in self.task_processors.items():
                    if processor.stream_name == op.stream:
                        processor.evolve_schema(stream)
            elif isinstance(op, (CreateStreamOp, AddPartitionerOp)):
                pass  # topics/partitions handled by the cluster harness

    # -- assignment reconciliation ---------------------------------------------------------

    def _reconcile_assignments(self) -> None:
        current_active = set(self.active_consumer.assignment())
        current_replica = set(self.replica_consumer.assignment())
        owned = current_active | current_replica

        # Revocations: keep data as stale leftovers.
        for tp in (self._known_active | self._known_replica) - owned:
            processor = self.task_processors.pop(tp, None)
            if processor is not None:
                self.stale[tp] = processor
                self._trim_stale()

        # Additions: initialize task processors (recovery if needed).
        for tp in current_active - self._known_active:
            self._initialize_task(tp, as_active=True)
        for tp in current_replica - self._known_replica:
            if tp not in self.task_processors:
                self._initialize_task(tp, as_active=False)

        self._known_active = current_active
        self._known_replica = current_replica

    def _trim_stale(self) -> None:
        while len(self.stale) > self.config.max_stale_tasks:
            oldest = next(iter(self.stale))
            del self.stale[oldest]

    def _initialize_task(self, tp: TopicPartition, as_active: bool) -> None:
        consumer = self.active_consumer if as_active else self.replica_consumer
        existing = self.task_processors.get(tp)
        if existing is not None:
            # Promotion: a live replica became active (or vice versa);
            # no data copy is needed (§4.2: "recovered immediate").
            consumer.seek(tp, existing.next_offset)
            self.stats.promotions += 1
            return
        stream = self.catalog.stream_of_topic(tp.topic)
        if stream is None:
            # The catalogue may lag the topic creation; retry next loop.
            return
        metrics = self.catalog.metrics_for_topic(tp.topic)
        donor_checkpoint = None
        if self.cluster is not None:
            donor_checkpoint = self.cluster.request_recovery_data(
                tp, exclude_unit=self.unit_id,
                local_sealed=self._stale_sealed_files(tp),
            )
        if donor_checkpoint is not None:
            local_files = self._stale_files(tp)
            processor = TaskProcessor.restore(
                donor_checkpoint,
                stream,
                metrics,
                reservoir_config=self.config.reservoir,
                lsm_config=self.config.lsm,
                local_files=local_files,
            )
            self.stats.recoveries += 1
            if tp in self.stale:
                self.stats.delta_recoveries += 1
            self.stats.bytes_transferred += donor_checkpoint.data_bytes()
            if as_active:
                # Resume where replies are owed: messages the previous
                # owner committed (replied to) need no re-send, but the
                # stretch between the committed offset and the donor's
                # head may have been processed without a reply.
                committed = self.bus.committed_offset(ACTIVE_GROUP, tp)
                consumer.seek(tp, min(committed, processor.next_offset))
            else:
                consumer.seek(tp, processor.next_offset)
        else:
            processor = TaskProcessor.build(
                tp,
                stream,
                metrics,
                reservoir_config=self.config.reservoir,
                lsm_config=self.config.lsm,
            )
            self.stats.fresh_starts += 1
            consumer.seek(tp, 0)
        self.stale.pop(tp, None)
        self.task_processors[tp] = processor

    def _stale_files(self, tp: TopicPartition) -> dict[str, bytes]:
        processor = self.stale.get(tp)
        if processor is None:
            return {}
        files: dict[str, bytes] = {}
        for storage in (processor.reservoir.storage, processor.state.db.storage):
            for name in storage.list():
                files[name] = storage.read_all(name)
        return files

    def _stale_sealed_files(self, tp: TopicPartition) -> set[str]:
        processor = self.stale.get(tp)
        if processor is None:
            return set()
        sealed = set()
        storage = processor.reservoir.storage
        for name in storage.list():
            if storage.is_sealed(name):
                sealed.add(name)
        state_storage = processor.state.db.storage
        for name in state_storage.list():
            if name.endswith(".sst"):
                sealed.add(name)
        return sealed

    def _processor_for(self, tp: TopicPartition) -> TaskProcessor:
        processor = self.task_processors.get(tp)
        if processor is None:
            # Message for a task we were just assigned but have not yet
            # initialized (catalogue lag) — initialize now.
            self._initialize_task(
                tp, as_active=tp in set(self.active_consumer.assignment())
            )
            processor = self.task_processors.get(tp)
            if processor is None:
                raise EngineError(
                    f"unit {self.unit_id} polled message for uninitializable task {tp}"
                )
        return processor

    # -- replies & checkpoints ---------------------------------------------------------------

    def _send_reply(self, envelope: EventEnvelope, tp: TopicPartition, results) -> None:
        reply = ReplyEnvelope(
            correlation_id=envelope.correlation_id,
            event_id=envelope.event.event_id,
            task=tp,
            results=results,
        )
        self.producer.send(
            REPLY_TOPIC_PREFIX + envelope.origin_node,
            key=None,
            value=reply,
            timestamp=self.clock.now(),
        )
        self.replies_sent += 1

    def _note_processed(
        self, tp: TopicPartition, processor: TaskProcessor, count: int
    ) -> None:
        """Advance the checkpoint counter by ``count`` processed messages.

        A checkpoint is taken (at a message boundary, so it is still
        consistent) whenever the counter crosses a multiple of the
        interval; a batch crossing several multiples checkpoints once —
        the later checkpoint subsumes the earlier ones.
        """
        if count <= 0:
            return
        counter = self._checkpoint_counters.get(tp, 0)
        advanced = counter + count
        self._checkpoint_counters[tp] = advanced
        interval = self.config.checkpoint_interval
        if advanced // interval == counter // interval:
            return
        checkpoint = processor.checkpoint()
        self.stats.checkpoints_taken += 1
        self.producer.send(
            CHECKPOINTS_TOPIC,
            key=str(tp),
            value=(self.unit_id, self.node_id, str(tp), checkpoint.offset),
            timestamp=self.clock.now(),
        )

    # -- recovery donor side ------------------------------------------------------------------

    def donate_checkpoint(self, tp: TopicPartition, exclude_files: set[str]) -> TaskCheckpoint | None:
        """Serve a (fresh) checkpoint of a task this unit has data for.

        Live task processors are preferred (a consistent checkpoint is
        taken on the spot); stale leftovers serve their last state.
        ``exclude_files`` implements the delta copy: immutable files the
        receiver already holds are stripped from the payload.
        """
        processor = self.task_processors.get(tp) or self.stale.get(tp)
        if processor is None:
            return None
        checkpoint = processor.checkpoint()
        if exclude_files:
            checkpoint.reservoir_files = {
                name: data
                for name, data in checkpoint.reservoir_files.items()
                if not (name in exclude_files and name in checkpoint.reservoir_sealed)
            }
            checkpoint.state_files = {
                name: data
                for name, data in checkpoint.state_files.items()
                if name not in exclude_files
            }
        return checkpoint

    def data_offset_for(self, tp: TopicPartition) -> int | None:
        """Highest offset this unit holds data for (donor ranking)."""
        processor = self.task_processors.get(tp) or self.stale.get(tp)
        return processor.next_offset if processor is not None else None


def _keep_previous_assignor(subscriptions, partitions, previous):
    """Placeholder strategy: engine installs assignments externally.

    Keeps whatever each member had (minus partitions that vanished), so
    the coordinator's internal rebalance never fights the Figure 7
    authority. Marked ``allows_incomplete``: partitions may be briefly
    unowned until the authority installs the real assignment.
    """
    valid = set(partitions)
    return {
        member: {tp for tp in previous.get(member, set()) if tp in valid}
        for member in subscriptions
    }


_keep_previous_assignor.allows_incomplete = True  # type: ignore[attr-defined]
