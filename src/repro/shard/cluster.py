"""The shard-cluster core: the front layer both process topologies share.

The paper gives every Railgun node one front layer — fan-out, reply
fan-in, and the same client API whatever the deployment (§3.1,
Figure 3). The process-parallel engine runs that layer over two
transports: :class:`~repro.shard.parallel.ParallelCluster` dispatches
from its own coordinator loop over the supervisor pipes,
:class:`~repro.shard.router.ClusterRouter` routes to N frontend
processes that dispatch over their own worker sockets.
:class:`ShardCluster` is everything that is not transport, written
once: the DDL calls (with metric activation cuts and a worker barrier),
``send``/``send_batch``, metric and as-of reads, backfill start and
status, worker add/remove/kill, checkpoint and telemetry reads,
``close``, and the worker half of rebalance and crash recovery —
assign, ship checkpoints, derive the seeks, reset the backfills.

A facade is its constructor, what only it has, and these transport
hooks (docs/ARCHITECTURE.md tabulates both implementations):

- ``_ship(stream, events)`` — hand a batch to the transport; returns
  one correlation id per event, in order;
- ``_round(laps)`` — one pump round, lapping ``engine_dispatch_ms``
  then ``engine_collect_ms`` on the :class:`~repro.telemetry.StageLaps`;
- ``_quiesce()`` — no work batch in flight (before a topology change);
- ``_apply_routes(mapping, seeks)`` — install the task → worker map and
  rewind the moved tasks to their seek offsets;
- ``_announce_restart(worker_id, seeks)`` — a crashed worker is back:
  rewind its tasks to their checkpointed offsets;
- ``_read_page(tp, begin, max_records)`` — one
  :class:`~repro.replay.asof.LogPage` of a partition log;
- ``_publish_transport(op)`` — the transport half of publishing a DDL op;
- ``_idle()`` — nothing queued or in flight below the pending map;
- ``_truncate_logs(offsets)`` — retention below stored checkpoints on
  whoever holds the partition logs;
- ``_teardown()`` — stop the transport (before the workers stop);
- ``_published`` — records published so far (one per DDL op, one per
  event per fanned-out topic): the base of auto-minted ``client-…`` ids;
- ``_backfill_job`` — the :class:`~repro.shard.backfill.BackfillJob`
  class that installs a backfill over this transport.

``pending``/``completed`` are the facade's fan-in tables (correlation →
request / :class:`~repro.engine.frontend.Reply`).
"""

from __future__ import annotations

import os
import threading
from typing import Any, Iterable, Mapping

from repro.common.clock import ManualClock
from repro.common.errors import EngineError
from repro.common.timesource import TimeSource, resolve_time_source
from repro.engine.catalog import (
    AddPartitionerOp,
    Catalog,
    CreateMetricOp,
    CreateStreamOp,
    DeleteMetricOp,
    EvolveSchemaOp,
    MetricDef,
)
from repro.engine.cluster import (
    _normalize_fields,
    build_metric_def,
    build_stream_def,
    validate_new_partitioner,
)
from repro.engine.frontend import Reply, client_event, deliver_batch
from repro.engine.processor import UnitConfig
from repro.engine.task import TaskProcessor
from repro.events.event import Event
from repro.messaging.durable import resolve_durable_dir
from repro.messaging.log import TopicPartition
from repro.replay.asof import AsOfResult, as_of_values
from repro.shard.supervisor import ShardSupervisor
from repro.telemetry import (
    MetricsRegistry,
    StageLaps,
    decode_bundle,
    decode_snapshot,
    merge_snapshots,
)


class ShardCluster:
    """Shard worker processes behind the ``RailgunCluster`` client API."""

    def __init__(
        self,
        name: str,
        workers: int,
        unit_config: UnitConfig | None,
        tick_ms: int,
        batch_max: int,
        checkpoint_every: int | None,
        assignment_strategy: object | None,
        mp_context,
        durable_dir: str | None,
        time_source: TimeSource | None,
        listen_dir: str | None = None,
    ) -> None:
        self._time = resolve_time_source(time_source)
        #: front-layer registry (``name`` is its process label), shared
        #: with the supervisor so both account into one snapshot; the
        #: merged cluster view is :meth:`telemetry`.
        self.metrics = MetricsRegistry(name, time_source=self._time)
        self._span_seq = 0
        self.clock = ManualClock(start_ms=1)
        self.catalog = Catalog()
        self.tick_ms = tick_ms
        self.batch_max = batch_max
        self.durable_dir = resolve_durable_dir(durable_dir, name)
        self.supervisor = ShardSupervisor(
            workers,
            unit_config=unit_config,
            strategy=assignment_strategy,
            time_source=self._time,
            checkpoint_interval=checkpoint_every,
            mp_context=mp_context,
            listen_dir=listen_dir,
            checkpoint_dir=(
                os.path.join(self.durable_dir, "checkpoints")
                if self.durable_dir is not None
                else None
            ),
            telemetry=self.metrics,
        )
        self.supervisor.on_restart = self._on_worker_restart
        #: replied watermark per task: replies below it already reached
        #: the client, so replayed work must not repeat them.
        self._watermarks: dict[TopicPartition, int] = {}
        #: latest telemetry bundle per transport process that forwards
        #: one (its own snapshot plus the worker snapshots it absorbed).
        self._bundles: dict[str, bytes] = {}
        #: running/finished backfill jobs (kept for status queries).
        self._backfills: list = []
        self.rebalance_count = 0
        #: checkpoint-store version the logs were last truncated against.
        self._truncated_at = 0
        self._closed = False
        self._close_lock = threading.Lock()

    # -- topology -------------------------------------------------------------

    def add_worker(self) -> str:
        """Spawn one more shard worker and rebalance onto it.

        The data plane is quiesced and checkpoints refreshed first, so
        tasks that move restore on the new worker from up-to-date state
        and replay nothing.
        """
        self._quiesce()
        self._refresh_checkpoints()
        worker_id = self.supervisor.add_worker()
        self._rebalance()
        return worker_id

    def remove_worker(self, worker_id: str) -> None:
        """Retire a worker; its tasks hand their state off via the
        checkpoint store and replay only the (empty, post-quiesce) tail
        on their new owner."""
        self._quiesce()
        self._refresh_checkpoints()
        self.supervisor.remove_worker(worker_id)
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
        """SIGKILL a shard worker (fault injection for tests)."""
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
        self._publish_op(CreateStreamOp(stream))
        self._rebalance()

    def create_metric(self, query_text: str, backfill: bool = False) -> int:
        """Register a metric from a Figure 4 statement; returns metric id.

        The op carries each topic task's replied frontier at DDL time —
        the offset a recovery replay must re-activate the metric at (the
        durable reopen path replays the same op identically).
        """
        metric = build_metric_def(self.catalog, query_text, backfill)
        activations = tuple(
            (tp, self._watermarks.get(tp, 0)) for tp in self._metric_tasks(metric)
        )
        self._publish_op(CreateMetricOp(metric, activations))
        self._sync_workers()
        return metric.metric_id

    def delete_metric(self, metric_id: int) -> None:
        """Remove a metric cluster-wide."""
        self._publish_op(DeleteMetricOp(metric_id))
        self._sync_workers()

    def evolve_schema(self, stream: str, new_fields: object) -> None:
        """Append fields to a stream schema (old chunks stay readable)."""
        self._publish_op(EvolveSchemaOp(stream, _normalize_fields(new_fields)))

    def add_partitioner(self, stream: str, partitioner: str) -> None:
        """Add a top-level partitioner after stream creation (§4)."""
        if validate_new_partitioner(self.catalog, stream, partitioner) is None:
            return
        self._publish_op(AddPartitionerOp(stream, partitioner))
        self._rebalance()

    def _publish_op(self, op: object) -> None:
        """Apply one DDL op, replicate it to every worker (the op is its
        own control frame) and hand it to the transport."""
        self.catalog.apply(op)
        self.supervisor.broadcast_control(op)
        self._publish_transport(op)

    def _sync_workers(self) -> None:
        """Barrier: every live worker has consumed the control frames
        broadcast so far.

        DDL that changes what replies *contain* (a metric appearing or
        vanishing) round-trips the control pipe before returning. With
        work batches on other channels (the frontends' data sockets) the
        two are unordered, and an event dispatched right after the DDL
        could otherwise be processed against the old metric set; on a
        single FIFO pipe the barrier costs one round trip.
        """
        try:
            self.supervisor.request_checkpoints(with_state=False)
        except EngineError:
            pass  # a worker died mid-barrier; its restart replays the log

    def _event_tasks(self) -> list[TopicPartition]:
        return sorted(
            (
                TopicPartition(topic, index)
                for topic, count in self.catalog.event_topics().items()
                for index in range(count)
            ),
            key=str,
        )

    def _metric_tasks(self, metric: MetricDef) -> list[TopicPartition]:
        return [tp for tp in self._event_tasks() if tp.topic == metric.topic]

    def _metric(self, metric_id: int) -> MetricDef:
        metric = self.catalog.metrics.get(metric_id)
        if metric is None:
            raise EngineError(f"unknown metric id {metric_id}")
        return metric

    # -- replay & backfill ----------------------------------------------------

    def backfill_metric(self, query_text: str) -> int:
        """Define a metric *after the fact* and materialize it from the logs.

        The metric id is reserved immediately; a background job (stepped
        from :meth:`pump`, so ingest never pauses) replays each
        partition log through a shadow and splices the exported state
        into the owning worker at an exact cut offset — see
        :mod:`repro.shard.backfill`. Only on completion does the
        ``CreateMetricOp`` reach the worker control log — an incomplete
        backfill does not survive a coordinator restart and must be
        re-issued. Use :meth:`backfill_status` to observe completion.
        """
        metric = build_metric_def(self.catalog, query_text)
        self.catalog.apply(CreateMetricOp(metric))
        self._backfills.append(self._backfill_job(self, metric))
        return metric.metric_id

    def backfill_status(self, metric_id: int) -> str:
        """``"running"``, ``"complete"``, or ``"unknown"`` for an id."""
        for job in self._backfills:
            if job.metric.metric_id == metric_id:
                return "complete" if job.done else "running"
        return "unknown"

    def _step_backfills(self) -> int:
        work = 0
        for job in self._backfills:
            work += job.step()
        return work

    def metric_values(self, metric_id: int) -> dict[tuple, dict[str, Any]]:
        """A metric's current per-group values, merged across partitions.

        Workers hold the live state, so this takes a synchronous
        with-state checkpoint and reads the values off restored
        copies — exact, because a restore is byte-faithful to the
        worker's state at the checkpoint boundary.
        """
        metric = self._metric(metric_id)
        self.supervisor.request_checkpoints(with_state=True)
        stream = self.catalog.streams[metric.stream]
        config = self.supervisor.unit_config
        merged: dict[tuple, dict[str, Any]] = {}
        for tp in self._metric_tasks(metric):
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
        replay of each partition log's tail (paged in through the
        transport's log reader)."""
        metric = self._metric(metric_id)
        tps = self._metric_tasks(metric)
        store = self.supervisor.checkpoints
        config = self.supervisor.unit_config
        return as_of_values(
            self._read_page,
            tps,
            self.catalog.streams[metric.stream],
            self.catalog.metrics_for_topic(metric.topic),
            metric_id,
            as_of,
            checkpoints={
                tp: checkpoint
                for tp in tps
                if (checkpoint := store.get(tp)) is not None
            },
            reservoir_config=config.reservoir,
            lsm_config=config.lsm,
        )

    # -- the data path --------------------------------------------------------

    def _mint_span(self) -> str | None:
        """A fresh trace-span id for the batch about to ship (``None``
        when telemetry is off); it rides every frame the batch causes,
        so worker-side hop timings stay attributable."""
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
        event = client_event(
            self.clock, self._published, fields, timestamp, event, event_id
        )
        return self.send_batch(stream, [event], max_rounds)[0]

    def send_batch(
        self,
        stream: str,
        batch: Iterable[Mapping[str, Any] | Event],
        max_rounds: int = 20000,
    ) -> list[Reply]:
        """Send a batch and pump until every reply lands; input order."""
        return deliver_batch(
            self, batch, self._published,
            lambda events: self._ship(stream, events),
            self.completed, max_rounds,
        )

    # -- the world loop -------------------------------------------------------

    def pump(self) -> int:
        """One round of the front layer: dispatch, collect, police."""
        return self._round(StageLaps(self.metrics))

    def run_until_quiet(self, max_rounds: int = 20000, quiet_rounds: int = 3) -> int:
        """Pump until nothing moves for ``quiet_rounds`` consecutive
        rounds: no reply merged, no request pending, the transport idle
        and every backfill done."""
        total = 0
        quiet = 0
        for _ in range(max_rounds):
            handled = self.pump()
            total += handled
            busy = (
                handled
                or self.pending
                or not self._idle()
                or any(not job.done for job in self._backfills)
            )
            if not busy:
                quiet += 1
                if quiet >= quiet_rounds:
                    return total
            else:
                quiet = 0
        return total

    def _raise_worker_errors(self) -> None:
        if self.supervisor.worker_errors:
            raise EngineError(
                "shard worker failed:\n" + self.supervisor.worker_errors[-1]
            )

    def _truncate_durable_logs(self) -> None:
        """Checkpoint-aware retention: whenever the (persistent)
        checkpoint store advanced, every segment wholly below each
        task's stored checkpoint offset goes — the logs no longer grow
        without bound."""
        if self.durable_dir is None:
            return
        store = self.supervisor.checkpoints
        if store.stored == self._truncated_at:
            return
        self._truncated_at = store.stored
        self._truncate_logs(store.offsets())

    # -- rebalance / recovery -------------------------------------------------

    def _rebalance(self) -> None:
        """(Re)shard the tasks over the workers, stickily.

        A task's new owner gets the supervisor's stored checkpoint
        shipped first (worker-to-worker state handoff; the control pipe
        is FIFO, so the restore lands before the task's next batch) and
        replays only the tail past its offset — the whole log where no
        checkpoint exists; the replied watermark suppresses replayed
        replies either way. Moved tasks were rebuilt from checkpoints
        that may predate a splice still in flight, so every backfill
        re-derives its installs.
        """
        tasks = self._event_tasks()
        if not tasks:
            return
        supervisor = self.supervisor
        previous = {
            worker_id: set(handle.assigned)
            for worker_id, handle in supervisor.handles.items()
        }
        mapping = supervisor.assign(tasks)
        seeks: dict[TopicPartition, int] = {}
        for worker_id, owned in mapping.items():
            for tp in owned - previous.get(worker_id, set()):
                shipped = supervisor.ship_checkpoint(worker_id, tp)
                seeks[tp] = supervisor.checkpoints.offset(tp) if shipped else 0
        self._apply_routes(mapping, seeks)
        for job in self._backfills:
            job.reset()
        self.rebalance_count += 1

    def _on_worker_restart(
        self, worker_id: str, tasks: set[TopicPartition]
    ) -> None:
        """Crash recovery: replay each owned task's uncheckpointed tail.

        The supervisor already replayed the control log and shipped
        each owned task's stored checkpoint into the fresh process, so
        the tasks rewind to the checkpointed offset (zero when no
        checkpoint exists yet) and only the tail replays. The replied
        watermark keeps the replay silent up to the last reply the
        client saw; the records whose replies never landed reply again,
        byte-identical. The fresh incarnation may lack an in-flight
        splice (its stash died with the old process): those installs
        and acks are forgotten and re-derived.
        """
        offset = self.supervisor.checkpoints.offset
        self._announce_restart(worker_id, {tp: offset(tp) for tp in tasks})
        for job in self._backfills:
            job.reset(tasks)

    # -- introspection / shutdown ---------------------------------------------

    def total_messages_processed(self) -> int:
        """Messages processed across workers (replays included)."""
        return self.supervisor.total_messages_processed()

    def checkpoint_offsets(self) -> dict[TopicPartition, int]:
        """Consumed offsets per task, straight from the workers."""
        return self.supervisor.request_checkpoints()

    def checkpoint_now(self) -> dict[TopicPartition, int]:
        """Take a full checkpoint of every task, synchronously.

        Blocks until each worker's state frames land in the supervisor's
        checkpoint store; returns the checkpointed offsets. Subsequent
        crash recovery or rebalance replays only records past them, and
        durable logs are truncated below them at once.
        """
        offsets = self.supervisor.request_checkpoints(with_state=True)
        self._truncate_durable_logs()
        return offsets

    def telemetry(self) -> dict:
        """One merged, stable-schema telemetry snapshot of the cluster.

        The front layer and the supervisor share a registry; each
        worker's latest snapshot rides its ``BatchDone`` frames, and a
        transport process that forwards a bundle adds its own. See
        docs/OBSERVABILITY.md for the schema and the metric catalog.
        """
        snapshots = [self.metrics.snapshot()]
        for blob in self.supervisor.child_snapshots():
            try:
                snapshots.append(decode_snapshot(blob))
            except Exception:
                continue  # torn/foreign snapshot: observation only, skip
        for bundle in self._bundles.values():
            try:
                snapshots.extend(decode_bundle(bundle))
            except Exception:
                continue  # torn bundle: skipped, never raises
        return merge_snapshots(snapshots)

    def close(self) -> None:
        """Stop the transport and every worker process; idempotent and
        thread-safe (concurrent calls race on one lock, every call after
        the first returns at once)."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        for job in self._backfills:
            job.close()
        try:
            self._teardown()
        finally:
            self.supervisor.shutdown()

    def __enter__(self) -> "ShardCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
