"""Processor units — Algorithm 1.

A processor unit single-threadedly (here: cooperatively, one
``run_once`` per pump) handles operational requests, polls its active
and replica consumers, routes messages to task processors, and replies
for active tasks. It keeps revoked task processors around as **stale**
data leftovers, which the sticky strategy (Figure 7) exploits to turn
future reassignments into cheap delta recoveries.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.common.errors import EngineError
from repro.engine.catalog import (
    OPERATIONS_TOPIC,
    Catalog,
    CreateMetricOp,
    DeleteMetricOp,
    EvolveSchemaOp,
)
from repro.engine.envelope import EventEnvelope
from repro.engine.task import TaskCheckpoint, TaskProcessor
from repro.lsm.db import LsmConfig
from repro.messaging.broker import MessageBus
from repro.messaging.consumer import Consumer
from repro.messaging.groups import GroupCoordinator
from repro.messaging.log import TopicPartition
from repro.reservoir.reservoir import ReservoirConfig

if TYPE_CHECKING:  # pragma: no cover - circular-import guard
    from repro.engine.cluster import RailgunCluster

#: consumer group shared by every active-task consumer (§3.3: "all
#: Railgun active task consumers belong to the same consumer group")
ACTIVE_GROUP = "railgun-active"

#: records one consumer poll takes, split over its partitions.
POLL_MAX_RECORDS = 64

#: revoked task processors kept for delta recovery, oldest dropped first.
MAX_STALE_TASKS = 16


def replica_group(unit_id: str) -> str:
    """Each unit's replica consumer gets its own group (§3.3)."""
    return f"railgun-replica.{unit_id}"


def apply_op(
    catalog: Catalog,
    task_processors: Mapping[TopicPartition, TaskProcessor],
    op: object,
) -> None:
    """Fold one DDL op into ``catalog`` and onto the task processors it
    touches: a new metric joins the tasks of its topic, a deleted one
    leaves every task, an evolved schema reaches the tasks of its
    stream. Processor units and shard workers both apply ops here."""
    catalog.apply(op)
    if isinstance(op, CreateMetricOp):
        for tp, processor in task_processors.items():
            if tp.topic == op.metric.topic:
                processor.add_metric(op.metric)
    elif isinstance(op, DeleteMetricOp):
        for processor in task_processors.values():
            processor.remove_metric(op.metric_id)
    elif isinstance(op, EvolveSchemaOp):
        stream = catalog.streams[op.stream]
        for processor in task_processors.values():
            if processor.stream_name == op.stream:
                processor.evolve_schema(stream)


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
    reservoir: ReservoirConfig = field(default_factory=ReservoirConfig)
    lsm: LsmConfig = field(default_factory=LsmConfig)


class ProcessorUnit:
    """One back-end worker: a set of task processors on one thread."""

    def __init__(
        self,
        unit_id: str,
        node_id: str,
        bus: MessageBus,
        coordinator: GroupCoordinator,
        clock,
        cluster: "RailgunCluster",
        config: UnitConfig | None = None,
    ) -> None:
        self.unit_id = unit_id
        self.node_id = node_id
        self.bus = bus
        self.clock = clock
        # The cluster owns its units through its nodes: held weakly, a
        # dropped cluster dies by reference counting even after a
        # checkpoint barrier froze it (see TaskProcessor.checkpoint).
        self.cluster = weakref.proxy(cluster)
        self.config = config if config is not None else UnitConfig()
        self.catalog = Catalog()
        self.stats = RecoveryStats()
        self._ops_offset = 0
        self._ops_tp = TopicPartition(OPERATIONS_TOPIC, 0)
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

    def subscribe(self, topics: list[str]) -> None:
        """Join the active and replica groups for the event topics."""
        self.active_consumer.subscribe(topics)
        self.replica_consumer.subscribe(topics)

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
        active_batches = self.active_consumer.poll_batches(POLL_MAX_RECORDS)
        replica_batches = self.replica_consumer.poll_batches(POLL_MAX_RECORDS)
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
            # Topics and partitions of new streams and partitioners are
            # the cluster harness's part.
            apply_op(self.catalog, self.task_processors, message.value)

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
        while len(self.stale) > MAX_STALE_TASKS:
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
        # An active task answers every record from its seek point on, so
        # its state must not already hold a record past the offsets the
        # previous owner replied to (committed): such a donor is skipped.
        limit = self.bus.committed_offset(ACTIVE_GROUP, tp) if as_active else None
        donor_checkpoint = self.cluster.request_recovery_data(
            tp, exclude_unit=self.unit_id, held=self._stale_held_files(tp),
            limit=limit,
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

    def _stale_held_files(self, tp: TopicPartition) -> dict[str, int]:
        """Sizes of the immutable files a stale leftover holds (sealed
        reservoir segments, LSM tables): what a donor need not ship."""
        processor = self.stale.get(tp)
        if processor is None:
            return {}
        held: dict[str, int] = {}
        storage = processor.reservoir.storage
        for name in storage.list():
            if storage.is_sealed(name):
                held[name] = storage.size(name)
        state_storage = processor.state.db.storage
        for name in state_storage.list():
            if name.endswith(".sst"):
                held[name] = state_storage.size(name)
        return held

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
        """Hand one task reply to the origin node's frontend in process;
        it fans in at that node's next :meth:`FrontEnd.poll_replies`."""
        self.cluster.nodes[envelope.origin_node].frontend.inbox.append(
            (envelope.correlation_id, tp.topic, results)
        )

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
        # The barrier runs, no payload is built: a recovering task asks
        # a live donor for a fresh checkpoint instead.
        processor.checkpoint(barrier_only=True)
        self.stats.checkpoints_taken += 1

    # -- recovery donor side ------------------------------------------------------------------

    def donate_checkpoint(
        self, tp: TopicPartition, held: dict[str, int]
    ) -> TaskCheckpoint | None:
        """Serve a (fresh) checkpoint of a task this unit has data for.

        Live task processors are preferred (a consistent checkpoint is
        taken on the spot); stale leftovers serve their last state.
        ``held`` implements the delta copy: immutable files the receiver
        already holds whole are neither read nor shipped.
        """
        processor = self.task_processors.get(tp) or self.stale.get(tp)
        if processor is None:
            return None
        return processor.checkpoint(held)

    def data_offset_for(self, tp: TopicPartition) -> int | None:
        """Highest offset this unit holds data for (donor ranking)."""
        processor = self.task_processors.get(tp) or self.stale.get(tp)
        return processor.next_offset if processor is not None else None

