"""The process-parallel Railgun cluster with a single coordinator.

``ParallelCluster`` is the coordinator-pipe transport under the shared
front layer (:class:`~repro.shard.cluster.ShardCluster`, which owns the
client API, DDL, reads, worker topology and the worker half of
recovery). The coordinator process hosts the frontend (fan-out + fan-in,
publishing into the coordinator's bus), polls that bus through one
:class:`~repro.messaging.consumer.PartitionView` per worker, ships
contiguous offset runs across the supervisor pipes as the unit of work
(the batched ``poll_batches`` → ``process_batch`` path), merges the
returned replies straight into the frontend and commits offsets only
once their replies landed. Backfills install through the same pipes
(:class:`~repro.shard.backfill.ShardBackfill`).

This is the ``frontends=1`` topology of ``create_cluster("process")``.
When the coordinator's own fan-out/merge loop becomes the ceiling,
``frontends=N`` swaps this transport for the sharded-frontend
:class:`~repro.shard.router.ClusterRouter`, which splits exactly these
coordinator roles across N frontend processes (see
``docs/ARCHITECTURE.md``). Only this transport survives a coordinator
restart: reopened over the same ``durable_dir`` it recovers catalogue,
logs, replied watermarks and checkpoints from disk
(:meth:`ParallelCluster._recover_from_disk`).

Determinism guarantees: partitions are sharded with the Figure 7 sticky
strategy, each partition's records are processed in log order by exactly
one worker, and every reply value is produced by the same
``TaskProcessor.process_batch`` code the single-process engine runs — so
replies and aggregate stats match the cooperative engine exactly, no
matter how work interleaves across processes. Recovery is
checkpoint-shipped: after a worker crash or a rebalance only the
uncheckpointed tail replays, with the committed watermark suppressing
every reply the client already saw.
"""

from __future__ import annotations

import multiprocessing
import os

from repro.common.errors import EngineError
from repro.common.timesource import TimeSource
from repro.engine.catalog import OPERATIONS_TOPIC
from repro.engine.envelope import EventEnvelope, ReplyEnvelope
from repro.engine.frontend import FrontEnd
from repro.engine.processor import ACTIVE_GROUP, UnitConfig
from repro.events.event import Event
from repro.messaging.broker import MessageBus
from repro.messaging.consumer import PartitionView
from repro.messaging.durable import DurableBus
from repro.messaging.log import TopicPartition
from repro.messaging.producer import Producer
from repro.replay.asof import LogPage, read_page
from repro.shard.backfill import ShardBackfill
from repro.shard.cluster import ShardCluster
from repro.telemetry import StageLaps


class ParallelCluster(ShardCluster):
    """N shard worker processes behind a RailgunCluster-compatible facade."""

    _backfill_job = ShardBackfill

    def __init__(
        self,
        workers: int = 2,
        unit_config: UnitConfig | None = None,
        tick_ms: int = 1,
        batch_max: int = 256,
        checkpoint_every: int | None = 2048,
        assignment_strategy: object | None = None,
        mp_context: multiprocessing.context.BaseContext | None = None,
        durable_dir: str | None = None,
        durable_fsync: str = "batch",
        time_source: TimeSource | None = None,
    ) -> None:
        super().__init__(
            "coordinator", workers, unit_config, tick_ms, batch_max,
            checkpoint_every, assignment_strategy, mp_context, durable_dir,
            time_source,
        )
        if self.durable_dir is not None:
            self.bus = DurableBus(
                os.path.join(self.durable_dir, "bus"), fsync=durable_fsync
            )
        else:
            self.bus = MessageBus()
        self.bus.create_topic(OPERATIONS_TOPIC, partitions=1)
        self._ops_producer = Producer(self.bus, self.clock)
        # The client layer is a Railgun node's frontend alone: same
        # fan-out, same reply fan-in; the shard workers are its units.
        self.frontend = FrontEnd("node-0", self.bus, self.clock)
        self.pending = self.frontend.pending
        self.completed = self.frontend.completed
        #: one bus view per worker: the dispatch position of its tasks.
        self._views: dict[str, PartitionView] = {}
        #: envelopes shipped but not yet replied, keyed by (task, offset).
        self._pending: dict[tuple[TopicPartition, int], EventEnvelope] = {}
        if self.durable_dir is not None and self.bus.recovered:
            self._recover_from_disk()

    def _recover_from_disk(self) -> None:
        """Coordinator restart: rebuild the world from the durable state.

        The operations log replays into the catalogue and (as control
        frames) into every worker; the replied watermarks come back from
        the bus's committed offsets; the rebalance then ships the
        persisted checkpoint store into the fresh workers and seeks each
        task to its checkpointed offset — replay is bounded by the
        uncheckpointed tail, never the log length.
        """
        ops_tp = TopicPartition(OPERATIONS_TOPIC, 0)
        for message in self.bus.read(ops_tp, 0, self.bus.end_offset(ops_tp)):
            op = message.value
            self.catalog.apply(op)
            self.supervisor.broadcast_control(op)
        for tp in self._event_tasks():
            committed = self.bus.committed_offset(ACTIVE_GROUP, tp)
            if committed:
                self._watermarks[tp] = committed
        self._rebalance()

    # -- transport hooks ------------------------------------------------------

    @property
    def _published(self) -> int:
        return self.bus.messages_published

    def _publish_transport(self, op: object) -> None:
        """Create the topics the catalogue now names, then log the op
        (in that order: a reopen must find every logged stream's topics)."""
        for topic, count in self.catalog.event_topics().items():
            self.bus.create_topic(topic, partitions=count)
        self._ops_producer.send(OPERATIONS_TOPIC, key=None, value=op)

    def _ship(self, stream: str, events: list[Event]) -> list[int]:
        self.supervisor.active_span = self._mint_span()
        return self.frontend.send_batch(stream, events)

    send_batch = ShardCluster.send_batch

    def _round(self, laps: StageLaps) -> int:
        """Dispatch (bus → worker pipes, backfill steps), then collect."""
        self.clock.advance(self.tick_ms)
        shipped = self._dispatch() + self._step_backfills()
        laps.lap("engine_dispatch_ms")
        # Nothing new to ship and work in flight: block briefly instead
        # of spinning — on a loaded host the coordinator must yield the
        # core to its workers.
        timeout = 0.0
        if shipped == 0 and self.supervisor.outstanding() > 0:
            timeout = 0.01
        collected = self._collect(timeout)
        laps.lap("engine_collect_ms")
        return shipped + collected

    def _idle(self) -> bool:
        return not (
            self.supervisor.outstanding()
            or self._pending
            or any(view.lag() for view in self._views.values())
        )

    def _quiesce(self, timeout_rounds: int = 2000) -> None:
        for _ in range(timeout_rounds):
            if not self.supervisor.outstanding():
                return
            self._collect(timeout=0.01)
        raise EngineError("shard workers did not quiesce")

    def _apply_routes(
        self,
        mapping: dict[str, set[TopicPartition]],
        seeks: dict[TopicPartition, int],
    ) -> None:
        views: dict[str, PartitionView] = {}
        for worker_id, owned in mapping.items():
            view = self._views.get(worker_id)
            if view is None:
                view = PartitionView(self.bus, ACTIVE_GROUP)
            view.set_assignment(owned)
            for tp in owned & seeks.keys():
                view.seek(tp, seeks[tp])
            views[worker_id] = view
        self._views = views

    def _announce_restart(
        self, worker_id: str, seeks: dict[TopicPartition, int]
    ) -> None:
        view = self._views.get(worker_id)
        if view is not None:
            for tp, offset in seeks.items():
                view.seek(tp, offset)

    def _read_page(self, tp: TopicPartition, begin: int, max_records: int) -> LogPage:
        return read_page(self.bus, tp, begin, max_records)

    def _truncate_logs(self, offsets: dict[TopicPartition, int]) -> None:
        self.bus.flush()
        self.bus.truncate_below(offsets)

    def _teardown(self) -> None:
        if self.durable_dir is not None:
            self.bus.close()

    # -- the coordinator loop -------------------------------------------------

    def _dispatch(self) -> int:
        """Ship contiguous offset runs to their owning workers."""
        shipped = 0
        pending = self._pending
        watermarks = self._watermarks
        supervisor = self.supervisor
        for worker_id, view in self._views.items():
            for tp in view.assignment():
                if not supervisor.can_submit(worker_id):
                    break
                messages = view.poll_one(tp, self.batch_max)
                if not messages:
                    continue
                watermark = watermarks.get(tp, 0)
                records = []
                for message in messages:
                    value = message.value
                    if isinstance(value, EventEnvelope):
                        records.append((message.offset, value.event))
                        # Offsets below the watermark are replays whose
                        # replies the worker suppresses — tracking their
                        # envelopes again would leak them forever.
                        if message.offset >= watermark:
                            pending[(tp, message.offset)] = value
                if records:
                    supervisor.submit(tp, records, watermark)
                    shipped += len(records)
        return shipped

    def _collect(self, timeout: float = 0.0) -> int:
        """Drain finished batches; merge replies; commit watermarks.

        Every envelope originates at this coordinator's frontend (also
        in logs reopened from disk), so replies merge straight into its
        pending requests — no reply-topic hop.
        """
        merged = 0
        deliver = self.frontend.deliver_reply
        for batch in self.supervisor.poll(timeout):
            tp = batch.tp
            for offset, results in batch.replies:
                envelope = self._pending.pop((tp, offset), None)
                if envelope is None or results is None:
                    continue
                deliver(
                    ReplyEnvelope(
                        correlation_id=envelope.correlation_id,
                        event_id=envelope.event.event_id,
                        task=tp,
                        results=results,
                    )
                )
                merged += 1
            watermark = max(self._watermarks.get(tp, 0), batch.next_offset)
            self._watermarks[tp] = watermark
            owner = self.supervisor.owner_of(tp)
            if owner is not None:
                self._views[owner].commit(tp, watermark)
        self._raise_worker_errors()
        self._truncate_durable_logs()
        return merged
