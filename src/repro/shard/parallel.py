"""The process-parallel Railgun cluster with a single coordinator.

``ParallelCluster`` preserves the single-process :class:`RailgunCluster`
client API — same DDL calls, same ``send``/``send_batch``, same
:class:`~repro.engine.cluster.Reply` objects, byte-identical reply
values — while the back-end work runs in shard worker processes. The
coordinator process keeps the roles the paper gives a node's front
layer: it hosts the frontend (fan-out + fan-in), polls the bus through
one :class:`~repro.messaging.consumer.PartitionView` per worker, ships
contiguous offset runs across the pipe as the unit of work (the batched
``poll_batches`` → ``process_batch`` path), publishes the returned
replies to the reply topic and commits offsets only once their replies
landed.

This is the ``frontends=1`` topology of ``create_cluster("process")``.
When the coordinator's own fan-out/merge loop becomes the ceiling,
``frontends=N`` swaps this facade for the sharded-frontend
:class:`~repro.shard.router.ClusterRouter`, which splits exactly these
coordinator roles across N frontend processes (see
``docs/ARCHITECTURE.md``).

Determinism guarantees: partitions are sharded with the Figure 7 sticky
strategy, each partition's records are processed in log order by exactly
one worker, and every reply value is produced by the same
``TaskProcessor.process_batch`` code the single-process engine runs — so
replies and aggregate stats match the cooperative engine exactly, no
matter how work interleaves across processes.

Recovery is checkpoint-shipped (the paper's MAD contract needs bounded
replay, not replay-from-genesis): workers ship task checkpoints to the
supervisor on a configurable cadence (``checkpoint_every`` records),
and every recovery path starts from the latest stored checkpoint. After
a worker crash the supervisor restarts it, replays the control log,
ships each owned task's checkpoint into the fresh process, and the
cluster seeks the partition to the **checkpointed offset** — only the
uncheckpointed tail replays, with the committed watermark suppressing
every reply the client already saw. Rebalances get worker-to-worker
state handoff the same way: the new owner restores from the
supervisor's store and replays only the tail.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Any, Iterable, Mapping

from repro.common.clock import ManualClock
from repro.common.errors import EngineError
from repro.common.timesource import TimeSource, resolve_time_source
from repro.engine.catalog import (
    GLOBAL_PARTITIONER,
    OPERATIONS_TOPIC,
    REPLY_TOPIC_PREFIX,
    AddPartitionerOp,
    Catalog,
    CreateMetricOp,
    CreateStreamOp,
    DeleteMetricOp,
    EvolveSchemaOp,
    topic_name,
)
from repro.engine.cluster import (
    Reply,
    _normalize_fields,
    build_metric_def,
    build_stream_def,
    validate_new_partitioner,
)
from repro.engine.envelope import EventEnvelope, ReplyEnvelope
from repro.engine.node import RailgunNode
from repro.engine.processor import ACTIVE_GROUP, UnitConfig
from repro.engine.task import TaskProcessor
from repro.events.event import Event
from repro.messaging.broker import MessageBus
from repro.messaging.consumer import PartitionView
from repro.messaging.durable import DurableBus, resolve_durable_dir
from repro.messaging.log import TopicPartition
from repro.messaging.producer import Producer
from repro.replay.asof import AsOfResult, as_of_values
from repro.shard.backfill import ShardBackfill
from repro.shard.supervisor import ShardSupervisor
from repro.telemetry import MetricsRegistry, decode_snapshot, merge_snapshots


#: node id of the coordinator-side frontend (mirrors RailgunCluster).
FRONTEND_NODE = "node-0"


class ParallelCluster:
    """N shard worker processes behind a RailgunCluster-compatible facade."""

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
        self._time = resolve_time_source(time_source)
        #: coordinator-side registry, shared with the supervisor so the
        #: whole front layer's accounting lives in one snapshot; the
        #: merged cluster view is :meth:`telemetry`.
        self.metrics = MetricsRegistry("coordinator", time_source=self._time)
        self._span_seq = 0
        self.clock = ManualClock(start_ms=1)
        self.durable_dir = resolve_durable_dir(durable_dir, "parallel")
        if self.durable_dir is not None:
            self.bus = DurableBus(
                os.path.join(self.durable_dir, "bus"), fsync=durable_fsync
            )
        else:
            self.bus = MessageBus()
        self.catalog = Catalog()
        self.tick_ms = tick_ms
        self.batch_max = batch_max
        self.bus.create_topic(OPERATIONS_TOPIC, partitions=1)
        self.bus.create_topic(REPLY_TOPIC_PREFIX + FRONTEND_NODE, partitions=1)
        self._ops_producer = Producer(self.bus, self.clock)
        self._reply_producer = Producer(self.bus, self.clock)
        # The client layer is a frontend-only Railgun node: same fan-out,
        # same reply fan-in, zero processor units in this process.
        self.node = RailgunNode(FRONTEND_NODE, self.bus, None, self.clock, 0)
        self.frontend = self.node.frontend
        self.supervisor = ShardSupervisor(
            workers,
            unit_config=unit_config,
            strategy=assignment_strategy,
            time_source=self._time,
            checkpoint_interval=checkpoint_every,
            mp_context=mp_context,
            checkpoint_dir=(
                os.path.join(self.durable_dir, "checkpoints")
                if self.durable_dir is not None
                else None
            ),
            telemetry=self.metrics,
        )
        self.supervisor.on_restart = self._on_worker_restart
        self._views: dict[str, PartitionView] = {
            worker_id: PartitionView(self.bus, ACTIVE_GROUP)
            for worker_id in self.supervisor.worker_ids()
        }
        #: replied watermark per task: replies below it already reached
        #: the client, so replayed work must not repeat them.
        self._watermarks: dict[TopicPartition, int] = {}
        #: envelopes shipped but not yet replied, keyed by (task, offset).
        self._pending: dict[tuple[TopicPartition, int], EventEnvelope] = {}
        #: checkpoint-store version the logs were last truncated against.
        self._truncated_at = 0
        #: running/finished backfill jobs (kept for status queries).
        self._backfills: list[ShardBackfill] = []
        self.rebalance_count = 0
        self._closed = False
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
        for topic in self._event_topics():
            for tp in self.bus.topic_partitions(topic):
                committed = self.bus.committed_offset(ACTIVE_GROUP, tp)
                if committed:
                    self._watermarks[tp] = committed
        self._rebalance()

    # -- topology -------------------------------------------------------------

    def add_worker(self) -> str:
        """Spawn one more shard worker and rebalance onto it.

        Checkpoints are refreshed first, so tasks that move restore on
        the new worker from up-to-date state and replay nothing.
        """
        self._quiesce()
        self._refresh_checkpoints()
        worker_id = self.supervisor.add_worker()
        self._views[worker_id] = PartitionView(self.bus, ACTIVE_GROUP)
        self._rebalance()
        return worker_id

    def remove_worker(self, worker_id: str) -> None:
        """Retire a worker; its tasks hand their state off via the
        checkpoint store and replay only the (empty, post-quiesce) tail
        on their new owner."""
        self._quiesce()
        self._refresh_checkpoints()
        self.supervisor.remove_worker(worker_id)
        del self._views[worker_id]
        self._rebalance()

    def _refresh_checkpoints(self) -> None:
        """Pull fresh with-state checkpoints before a planned topology
        change; best effort — a crash here falls back to the last stored
        checkpoint plus tail replay."""
        try:
            self.supervisor.request_checkpoints(with_state=True)
        except EngineError:
            pass

    def kill_worker(self, worker_id: str) -> None:
        """SIGKILL a worker process (fault injection for tests)."""
        self.supervisor.kill_worker(worker_id)

    def worker_ids(self) -> list[str]:
        """Current shard workers."""
        return self.supervisor.worker_ids()

    # -- DDL ------------------------------------------------------------------

    def create_stream(
        self,
        name: str,
        partitioners: Iterable[str],
        partitions: int = 4,
        schema: object = (),
        with_global_partitioner: bool = False,
    ) -> None:
        """Register a stream: schema + partitioners + topic creation."""
        stream = build_stream_def(
            self.catalog, name, partitioners, partitions, schema,
            with_global_partitioner,
        )
        for partitioner in stream.partitioners:
            count = 1 if partitioner == GLOBAL_PARTITIONER else partitions
            self.bus.create_topic(topic_name(name, partitioner), partitions=count)
        self._publish_op(CreateStreamOp(stream))
        self._rebalance()

    def create_metric(self, query_text: str, backfill: bool = False) -> int:
        """Register a metric from a Figure 4 statement; returns metric id."""
        metric = build_metric_def(self.catalog, query_text, backfill)
        self._publish_op(CreateMetricOp(metric, self._activation_cuts(metric)))
        return metric.metric_id

    def _activation_cuts(self, metric) -> tuple:
        """Each topic task's processed frontier at DDL time — the offset
        a recovery replay must re-activate the metric at (the cut is
        stamped into the op, so the durable reopen path replays it
        identically)."""
        return tuple(
            sorted(
                ((tp, self._watermarks.get(tp, 0))
                 for tp in self.bus.topic_partitions(metric.topic)),
                key=lambda pair: str(pair[0]),
            )
        )

    def delete_metric(self, metric_id: int) -> None:
        """Remove a metric cluster-wide."""
        self._publish_op(DeleteMetricOp(metric_id))

    def evolve_schema(self, stream: str, new_fields: object) -> None:
        """Append fields to a stream schema (old chunks stay readable)."""
        self._publish_op(EvolveSchemaOp(stream, _normalize_fields(new_fields)))

    def add_partitioner(self, stream: str, partitioner: str) -> None:
        """Add a top-level partitioner after stream creation (§4)."""
        stream_def = validate_new_partitioner(self.catalog, stream, partitioner)
        if stream_def is None:
            return
        count = 1 if partitioner == GLOBAL_PARTITIONER else stream_def.partitions
        self.bus.create_topic(topic_name(stream, partitioner), partitions=count)
        self._publish_op(AddPartitionerOp(stream, partitioner))
        self._rebalance()

    def _publish_op(self, op: object) -> None:
        """Apply one DDL op locally, log it, replicate it to workers.

        The op itself is the control frame (the wire table registers the
        catalogue's op classes), and the durable reopen path broadcasts
        the logged ops the same way.
        """
        self.catalog.apply(op)
        self._ops_producer.send(OPERATIONS_TOPIC, key=None, value=op)
        self.supervisor.broadcast_control(op)

    def _event_topics(self) -> list[str]:
        return sorted(
            topic
            for stream in self.catalog.streams.values()
            for topic in stream.topics()
        )

    # -- replay & backfill ----------------------------------------------------

    def backfill_metric(self, query_text: str) -> int:
        """Define a metric *after the fact* and materialize it from the logs.

        The metric id is reserved immediately; a background
        :class:`~repro.shard.backfill.ShardBackfill` job (stepped from
        :meth:`pump`, so ingest never pauses) replays each partition log
        through a coordinator-side shadow and ships the exported state
        to the owning workers, which splice it at exact cut offsets.
        Only on completion does the ``CreateMetricOp`` reach the
        operations log and the worker control log — an incomplete
        backfill does not survive a coordinator restart and must be
        re-issued. Use :meth:`backfill_status` to observe completion.
        """
        metric = build_metric_def(self.catalog, query_text)
        self.catalog.apply(CreateMetricOp(metric))
        self._backfills.append(ShardBackfill(self, metric))
        return metric.metric_id

    def backfill_status(self, metric_id: int) -> str:
        """``"running"``, ``"complete"``, or ``"unknown"`` for an id."""
        for job in self._backfills:
            if job.metric.metric_id == metric_id:
                return "complete" if job.done else "running"
        return "unknown"

    def metric_values(self, metric_id: int) -> dict[tuple, dict[str, Any]]:
        """A metric's current per-group values, merged across partitions.

        Workers hold the live state, so this takes a synchronous
        with-state checkpoint and reads the values off restored
        copies — exact, because a restore is byte-faithful to the
        worker's state at the checkpoint boundary.
        """
        metric = self.catalog.metrics.get(metric_id)
        if metric is None:
            raise EngineError(f"unknown metric id {metric_id}")
        self.supervisor.request_checkpoints(with_state=True)
        stream = self.catalog.streams[metric.stream]
        config = self.supervisor.unit_config
        merged: dict[tuple, dict[str, Any]] = {}
        for tp in self.bus.topic_partitions(metric.topic):
            checkpoint = self.supervisor.checkpoints.get(tp)
            if checkpoint is None:
                continue
            metrics = [
                m
                for m in self.catalog.metrics_for_topic(metric.topic)
                if m.metric_id in checkpoint.metric_ids
            ]
            processor = TaskProcessor.restore(
                checkpoint,
                stream,
                metrics,
                reservoir_config=config.reservoir,
                lsm_config=config.lsm,
            )
            if processor.has_metric(metric_id):
                merged.update(processor.metric_values(metric_id))
        return merged

    def query_as_of(self, metric_id: int, as_of: int) -> AsOfResult:
        """Time-travel read: the metric's values at event time ``as_of``,
        answered from the supervisor's stored checkpoints plus a bounded
        replay of each partition log's tail."""
        metric = self.catalog.metrics.get(metric_id)
        if metric is None:
            raise EngineError(f"unknown metric id {metric_id}")
        tps = self.bus.topic_partitions(metric.topic)
        checkpoints = {
            tp: checkpoint
            for tp in tps
            if (checkpoint := self.supervisor.checkpoints.get(tp)) is not None
        }
        config = self.supervisor.unit_config
        return as_of_values(
            self.bus,
            tps,
            self.catalog.streams[metric.stream],
            self.catalog.metrics_for_topic(metric.topic),
            metric_id,
            as_of,
            checkpoints=checkpoints,
            reservoir_config=config.reservoir,
            lsm_config=config.lsm,
        )

    def _step_backfills(self) -> int:
        work = 0
        for job in self._backfills:
            work += job.step()
        return work

    # -- the data path --------------------------------------------------------

    def _mint_span(self) -> str | None:
        """A fresh trace-span id for the batch about to ship (or ``None``
        when telemetry is off); the supervisor stamps it onto every
        ``WorkBatch`` so worker-side hop timings stay attributable."""
        if not self.metrics.enabled:
            return None
        self._span_seq += 1
        return f"{self.metrics.process}-{self._span_seq}"

    def send(
        self,
        stream: str,
        fields: Mapping[str, Any] | None = None,
        timestamp: int | None = None,
        event: Event | None = None,
        event_id: str | None = None,
        max_rounds: int = 2000,
    ) -> Reply:
        """Send one event and pump until its reply completes."""
        if event is None:
            if fields is None:
                raise EngineError("either fields or event is required")
            if timestamp is None:
                timestamp = self.clock.now()
            if event_id is None:
                event_id = f"client-{self.bus.messages_published:012d}"
            event = Event(event_id, timestamp, fields)
        metrics = self.metrics
        batch_started = metrics.now()
        self.supervisor.active_span = self._mint_span()
        correlation = self.frontend.send(stream, event)
        metrics.counter_add("engine_batches_in_total")
        metrics.counter_add("engine_events_in_total")
        for _ in range(max_rounds):
            completed = self.frontend.take_completed(correlation)
            if completed is not None:
                metrics.counter_add("engine_replies_out_total")
                metrics.observe_since("engine_batch_ms", batch_started)
                return Reply(
                    event=completed.event,
                    stream=completed.stream,
                    results=completed.results,
                    latency_ms=completed.latency_ms,
                )
            self.pump()
        raise EngineError(
            f"reply for correlation {correlation} did not complete within "
            f"{max_rounds} pump rounds"
        )

    def send_batch(
        self,
        stream: str,
        batch: Iterable[Mapping[str, Any] | Event],
        max_rounds: int = 20000,
    ) -> list[Reply]:
        """Send a batch and pump until every reply lands; input order."""
        metrics = self.metrics
        batch_started = metrics.now()
        self.supervisor.active_span = self._mint_span()
        with metrics.time_stage("engine_ingest_ms"):
            events: list[Event] = []
            base_id = self.bus.messages_published
            for index, item in enumerate(batch):
                if isinstance(item, Event):
                    events.append(item)
                else:
                    events.append(
                        Event(
                            f"client-{base_id + index:012d}",
                            self.clock.now(),
                            item,
                        )
                    )
            correlations = self.frontend.send_batch(stream, events)
        metrics.counter_add("engine_batches_in_total")
        metrics.counter_add("engine_events_in_total", len(events))
        outstanding = set(correlations)
        for _ in range(max_rounds):
            if not outstanding:
                break
            self.pump()
            completed = self.frontend.completed
            if completed:
                outstanding.difference_update(completed)
        if outstanding:
            raise EngineError(
                f"{len(outstanding)} of {len(correlations)} batched replies did "
                f"not complete within {max_rounds} pump rounds"
            )
        replies: list[Reply] = []
        with metrics.time_stage("engine_reply_ms"):
            for correlation in correlations:
                completed_reply = self.frontend.take_completed(correlation)
                replies.append(
                    Reply(
                        event=completed_reply.event,
                        stream=completed_reply.stream,
                        results=completed_reply.results,
                        latency_ms=completed_reply.latency_ms,
                    )
                )
        metrics.counter_add("engine_replies_out_total", len(replies))
        metrics.observe_since("engine_batch_ms", batch_started)
        return replies

    # -- the world loop -------------------------------------------------------

    def pump(self) -> int:
        """One coordinator round: dispatch, collect, assemble replies."""
        self.clock.advance(self.tick_ms)
        metrics = self.metrics
        with metrics.time_stage("engine_dispatch_ms"):
            shipped = self._dispatch()
            shipped += self._step_backfills()
        # Nothing new to ship and work in flight: block briefly instead
        # of spinning — on a loaded host the coordinator must yield the
        # core to its workers.
        timeout = 0.0
        if shipped == 0 and self.supervisor.outstanding() > 0:
            timeout = 0.01
        with metrics.time_stage("engine_collect_ms"):
            collected = self._collect(timeout)
        with metrics.time_stage("engine_reply_ms"):
            self.frontend.poll_replies()
        return shipped + collected

    def run_until_quiet(self, max_rounds: int = 20000, quiet_rounds: int = 3) -> int:
        """Pump until nothing moves for ``quiet_rounds`` consecutive steps."""
        total = 0
        quiet = 0
        for _ in range(max_rounds):
            handled = self.pump()
            total += handled
            busy = (
                handled
                or self.frontend.pending
                or self.supervisor.outstanding()
                or any(view.lag() for view in self._views.values())
                or any(not job.done for job in self._backfills)
            )
            if not busy:
                quiet += 1
                if quiet >= quiet_rounds:
                    return total
            else:
                quiet = 0
        return total

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
        """Drain finished batches; deliver replies; commit watermarks."""
        published = 0
        deliver = self.frontend.deliver_reply
        for batch in self.supervisor.poll(timeout):
            tp = batch.tp
            for offset, results in batch.replies:
                envelope = self._pending.pop((tp, offset), None)
                if envelope is None or results is None:
                    continue
                reply = ReplyEnvelope(
                    correlation_id=envelope.correlation_id,
                    event_id=envelope.event.event_id,
                    task=tp,
                    results=results,
                )
                if envelope.origin_node == FRONTEND_NODE:
                    # Reply fan-in lives in this process: skip the bus
                    # hop and merge straight into the pending request.
                    deliver(reply)
                else:
                    self._reply_producer.send(
                        REPLY_TOPIC_PREFIX + envelope.origin_node,
                        key=None,
                        value=reply,
                        timestamp=self.clock.now(),
                    )
                published += 1
            watermark = max(self._watermarks.get(tp, 0), batch.next_offset)
            self._watermarks[tp] = watermark
            owner = self.supervisor.owner_of(tp)
            if owner is not None:
                self._views[owner].commit(tp, watermark)
        if self.supervisor.worker_errors:
            raise EngineError(
                "shard worker failed:\n" + self.supervisor.worker_errors[-1]
            )
        self._truncate_durable_logs()
        return published

    def _truncate_durable_logs(self) -> None:
        """Checkpoint-aware retention: whenever the checkpoint store
        advanced, flush the bus and delete every segment wholly below
        each task's stored checkpoint offset (ROADMAP: the logs no
        longer grow without bound)."""
        if self.durable_dir is None:
            return
        store = self.supervisor.checkpoints
        if store.stored == self._truncated_at:
            return
        self._truncated_at = store.stored
        self.bus.flush()
        self.bus.truncate_below(store.offsets())

    # -- rebalance / recovery -------------------------------------------------

    def _rebalance(self) -> None:
        tasks = [
            tp
            for topic in self._event_topics()
            for tp in self.bus.topic_partitions(topic)
        ]
        if not tasks:
            return
        before = {
            worker_id: set(view.assignment())
            for worker_id, view in self._views.items()
        }
        mapping = self.supervisor.assign(tasks)
        for worker_id, owned in mapping.items():
            view = self._views[worker_id]
            view.set_assignment(owned)
            for tp in owned - before.get(worker_id, set()):
                # New owner: restore from the supervisor's stored
                # checkpoint (worker-to-worker state handoff) and replay
                # only the tail past its offset; without a checkpoint
                # the whole partition log replays. The watermark
                # suppresses replayed replies either way.
                if self.supervisor.ship_checkpoint(worker_id, tp):
                    view.seek(tp, self.supervisor.checkpoints.offset(tp))
                else:
                    view.seek(tp, 0)
        # Moved tasks were rebuilt from checkpoints that may predate a
        # splice still in flight: re-derive their installs.
        for job in self._backfills:
            job.reset()
        self.rebalance_count += 1

    def _on_worker_restart(
        self, worker_id: str, tasks: set[TopicPartition]
    ) -> None:
        """Crash recovery: replay each partition's uncheckpointed tail.

        The supervisor already shipped each owned task's stored
        checkpoint into the fresh process, so the view seeks to the
        checkpointed offset (zero when no checkpoint exists yet) and
        only the tail replays. ``reply_from`` (the replied watermark)
        keeps the replay silent up to the last reply the client saw; the
        records whose replies never landed reply again, byte-identical.
        """
        view = self._views.get(worker_id)
        if view is None:
            return
        for tp in tasks:
            view.seek(tp, self.supervisor.checkpoints.offset(tp))
        # The fresh incarnation restored from checkpoints that may not
        # contain an in-flight splice (and its stash died with the old
        # process): forget those installs/acks so they re-derive.
        for job in self._backfills:
            job.reset(tasks)

    def _quiesce(self, timeout_rounds: int = 2000) -> None:
        for _ in range(timeout_rounds):
            if not self.supervisor.outstanding():
                return
            self._collect(timeout=0.01)
        raise EngineError("shard workers did not quiesce")

    # -- introspection / shutdown ---------------------------------------------

    def total_messages_processed(self) -> int:
        """Messages processed across workers (replays included)."""
        return self.supervisor.total_messages_processed()

    def telemetry(self) -> dict:
        """One merged, stable-schema telemetry snapshot of the cluster.

        Coordinator and supervisor share a registry; each worker's
        latest snapshot rides its ``BatchDone`` frames. See
        docs/OBSERVABILITY.md for the schema and the metric catalog.
        """
        snapshots = [self.metrics.snapshot()]
        for blob in self.supervisor.child_snapshots():
            try:
                snapshots.append(decode_snapshot(blob))
            except Exception:
                continue  # torn/foreign snapshot: observation only, skip
        return merge_snapshots(snapshots)

    def checkpoint_offsets(self) -> dict[TopicPartition, int]:
        """Consumed offsets per task, straight from the workers."""
        return self.supervisor.request_checkpoints()

    def checkpoint_now(self) -> dict[TopicPartition, int]:
        """Take a full checkpoint of every task, synchronously.

        Blocks until each worker's state frames land in the supervisor's
        checkpoint store; returns the checkpointed offsets. Subsequent
        crash recovery or rebalance replays only records past them.
        """
        offsets = self.supervisor.request_checkpoints(with_state=True)
        self._truncate_durable_logs()
        return offsets

    def close(self) -> None:
        """Stop every worker process (and flush the durable bus); idempotent."""
        if not self._closed:
            self._closed = True
            for job in self._backfills:
                job.close()
            self.supervisor.shutdown()
            if self.durable_dir is not None:
                self.bus.close()

    def __enter__(self) -> "ParallelCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
