"""The shard-cluster core: the one front layer both process topologies run.

The paper gives every Railgun node one front layer — fan-out, reply
fan-in, the same client API whatever the deployment (§3.1, Figure 3).
:class:`ShardCluster` is that layer, written once: the client API
(:class:`~repro.engine.cluster.ClusterFacade`, shared with ``single``),
the worker half of rebalance and crash recovery, and the whole protocol
with its frontends (:class:`~repro.shard.frontend.FrontendEngine`, the
owners of the partition logs, which dispatch over the workers' data
sockets; the supervisor's pipes carry control only). ``_ship`` hashes
each event's partitioner keys into the owning frontend's
``IngestBatch``, :func:`~repro.engine.frontend.fan_in` merges
``ReplyBatch`` replies into topic-deduped requests, and ``FrontendAssign``, ``WorkerRestarted``,
``TruncateLogs``, ``BackfillStart``, ``BackfillRead`` and
``DrainRequest`` steer the frontends.

A facade is its constructor, what only it has, and one kind of frontend
link in ``_frontends`` — the only transport hooks (docs/ARCHITECTURE.md
tabulates both links):

- ``send(msg)`` — hand the frontend one control or ingest frame;
- ``poll()`` — the frames the frontend owes the host (replies, drain
  acks, log pages, errors), without blocking;
- ``waitables()`` — connections worth blocking on while nothing moves;
- ``idle()`` — no dispatch backlog or batch in flight that ``pending``
  does not show;
- ``snapshots()`` — the frontend's and its workers' telemetry;
- ``close()`` — stop the frontend (before the workers stop).

A link also carries its ``frontend_id``, the ``owned`` partitions and a
``restarts`` count (a request re-asks a frontend that restarted).
``pending``/``completed`` are the fan-in tables (correlation → request /
:class:`~repro.engine.frontend.Reply`).
"""

from __future__ import annotations

import multiprocessing.connection
import os
import threading
from typing import Any, Iterable, Mapping

from repro.common.errors import EngineError
from repro.common.hashing import partition_for
from repro.common.timesource import ManualClock, TimeSource, resolve_time_source
from repro.engine.assignment import (
    PreviousState,
    ProcessorInfo,
    StickyAssignmentStrategy,
)
from repro.engine.catalog import (
    GLOBAL_PARTITIONER,
    Catalog,
    MetricDef,
    StreamDef,
    topic_name,
)
from repro.engine.cluster import ClusterFacade
from repro.engine.frontend import PendingRequest, Reply, deliver_batch, fan_in
from repro.engine.processor import UnitConfig
from repro.engine.task import TaskProcessor
from repro.events.event import Event
from repro.messaging.durable import resolve_durable_dir
from repro.messaging.log import TopicPartition
from repro.replay.asof import AsOfResult, as_of_values
from repro.shard import wire
from repro.shard.backfill import BackfillJob
from repro.shard.supervisor import ShardSupervisor
from repro.telemetry import MetricsRegistry, StageLaps, merge_snapshots

#: events per ``IngestBatch`` frame: a shipment is cut into runs this long.
INGEST_MAX = 256


class ShardCluster(ClusterFacade):
    """Shard worker processes behind the ``RailgunCluster`` client API."""

    def __init__(
        self,
        name: str,
        workers: int,
        unit_config: UnitConfig | None,
        checkpoint_every: int | None,
        durable_dir: str | None,
        time_source: TimeSource | None,
    ) -> None:
        self._time = resolve_time_source(time_source)
        #: front-layer registry (``name`` is its process label), shared
        #: with the supervisor so both account into one snapshot; the
        #: merged cluster view is :meth:`telemetry`.
        self.metrics = MetricsRegistry(name, time_source=self._time)
        self.clock = ManualClock(start_ms=1)
        self.catalog = Catalog()
        self.durable_dir = resolve_durable_dir(durable_dir, name)
        self.supervisor = ShardSupervisor(
            workers,
            unit_config=unit_config,
            time_source=self._time,
            checkpoint_interval=checkpoint_every,
            checkpoint_dir=(
                os.path.join(self.durable_dir, "checkpoints")
                if self.durable_dir is not None
                else None
            ),
            telemetry=self.metrics,
        )
        self.supervisor.on_restart = self._on_worker_restart
        self.frontend_strategy = StickyAssignmentStrategy(0)
        #: frontend id -> link (filled by the facade).
        self._frontends: dict[str, Any] = {}
        #: task -> owning frontend (sticky: once placed, never moved).
        self._fe_owner: dict[TopicPartition, str] = {}
        #: replied watermark per task: replies below it already reached
        #: the client, so replayed work must not repeat them.
        self._watermarks: dict[TopicPartition, int] = {}
        self.pending: dict[int, PendingRequest] = {}
        self.completed: dict[int, Reply] = {}
        self._next_correlation = 0
        #: records published so far (one per DDL op, one per event per
        #: fanned-out topic): the base of auto-minted ``client-…`` ids,
        #: so the same call sequence mints the same event identities on
        #: every topology.
        self._published = 0
        self._next_drain = 0
        self._drain_acks: set[tuple[int, str]] = set()
        #: answered log-read pages, keyed by (task, begin offset).
        self._read_pages: dict[tuple[TopicPartition, int], wire.BackfillRecords] = {}
        self.frontend_errors: list[str] = []
        #: running/finished backfill jobs (kept for status queries).
        self._backfills: list[BackfillJob] = []
        self.rebalance_count = 0
        #: checkpoint-store version the logs were last truncated against.
        self._truncated_at = 0
        self._closed = False
        self._close_lock = threading.Lock()
        #: the front-door handle when served (``create_cluster(serve=…)``).
        self.server = None

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

    # -- DDL hooks ------------------------------------------------------------

    def _add_topics(self, op: object, stream: StreamDef, partitioners) -> None:
        """Publish ``op``, then shard the new tasks over the workers."""
        self._publish_op(op)
        self._rebalance()

    def _activations(self, metric: MetricDef) -> tuple:
        """Each topic task's replied frontier at DDL time — the offset a
        recovery replay must re-activate the metric at (the durable
        reopen path replays the same op identically)."""
        return tuple(
            (tp, self._watermarks.get(tp, 0)) for tp in self._metric_tasks(metric)
        )

    def _backfill_job(self, metric: MetricDef) -> BackfillJob:
        # The frontends replay each partition log through a shadow and
        # splice it into the owning worker (see repro.shard.backfill);
        # an incomplete backfill does not survive a coordinator restart.
        return BackfillJob(self, metric)

    def _publish_op(self, op: object) -> None:
        """Apply one DDL op and replicate it — to every worker (the op is
        its own control frame) and to every frontend (stream DDL gives
        them the topics their logs need)."""
        self.catalog.apply(op)
        self.supervisor.broadcast_control(op)
        self._published += 1
        self._broadcast(op)

    def _broadcast(self, msg: object) -> None:
        for link in self._frontends.values():
            link.send(msg)

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

    # -- replay & backfill ----------------------------------------------------

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
        replay of each partition log's tail (paged in from the frontend
        that owns it)."""
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

    def _read_page(
        self,
        tp: TopicPartition,
        begin: int,
        max_records: int,
        timeout: float = 10.0,
    ) -> wire.BackfillRecords:
        """One ``BackfillRead`` round trip to the task's owning frontend
        (re-asked across a frontend restart)."""
        owner = self._fe_owner.get(tp)
        if owner is None:
            raise EngineError(f"partition {tp} has no frontend owner")
        key = (tp, begin)
        self._read_pages.pop(key, None)
        self._ask(
            self._frontends[owner],
            wire.BackfillRead(tp, begin, max_records),
            lambda: key in self._read_pages,
            self._time.deadline(timeout),
        )
        return self._read_pages.pop(key)

    def _ask(self, link, request: object, answered, deadline) -> None:
        """Send ``request`` to a frontend and pump until ``answered()``,
        re-asking a frontend that restarted meanwhile."""
        asked = link.restarts
        link.send(request)
        while not answered():
            if deadline.expired():
                raise EngineError(
                    f"frontend {link.frontend_id} did not answer "
                    f"{type(request).__name__}"
                )
            self.pump()
            if link.restarts != asked:
                asked = link.restarts
                link.send(request)

    # -- the data path --------------------------------------------------------

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

    def _ship(self, stream: str, events: list[Event]) -> list[int]:
        """Hash, bucket per frontend and send a run of events.

        The per-event hot path of the front layer: ``partition_for`` on
        each partitioner key (identical placement to the single-process
        bus), a pending fan-in entry, and one ``IngestBatch`` entry per
        owning frontend. A batch is validated whole before its first
        pending entry.
        """
        stream_def = self.catalog.streams.get(stream)
        if stream_def is None:
            raise EngineError(f"unknown stream {stream!r}")
        stream_def.schema().validate_events(events)
        expected = len(stream_def.topics())
        now = self.clock.now()
        routes = []
        for partitioner in stream_def.partitioners:
            topic = topic_name(stream, partitioner)
            owners = [
                self._fe_owner.get(TopicPartition(topic, index))
                for index in range(stream_def.partition_count(partitioner))
            ]
            if None in owners:
                raise EngineError(
                    f"partition {topic}-{owners.index(None)} has no frontend owner"
                )
            routes.append((partitioner, len(owners), owners))
        buckets: dict[str, list] = {}
        correlations = list(
            range(self._next_correlation, self._next_correlation + len(events))
        )
        self._next_correlation += len(events)
        self._published += expected * len(events)
        pending = self.pending
        for correlation, event in zip(correlations, events):
            per_frontend: dict[str, list[tuple[str, int]]] = {}
            for partitioner, partitions, owners in routes:
                key = (
                    "__global__"
                    if partitioner == GLOBAL_PARTITIONER
                    else event.get(partitioner)
                )
                partition = partition_for(key, partitions)
                per_frontend.setdefault(owners[partition], []).append(
                    (partitioner, partition)
                )
            pending[correlation] = PendingRequest(event, stream, expected, now)
            for owner, targets in per_frontend.items():
                buckets.setdefault(owner, []).append(
                    (correlation, event, tuple(targets))
                )
        for frontend_id, entries in buckets.items():
            link = self._frontends[frontend_id]
            self.metrics.counter_add(
                "router_events_routed_total", len(entries), label=frontend_id
            )
            for start in range(0, len(entries), INGEST_MAX):
                link.send(wire.IngestBatch(stream, entries[start:start + INGEST_MAX]))
                # Keep the reply direction drained while flooding the
                # ingest direction: a full reply pipe would wedge a
                # frontend process and, transitively, this send; in
                # process it is the pass that dispatches the run at once.
                self._drain_replies()
        return correlations

    # -- the world loop -------------------------------------------------------

    def run_until_quiet(self, max_rounds: int = 20000, quiet_rounds: int = 3) -> int:
        """Pump until nothing moves for ``quiet_rounds`` consecutive
        rounds: no reply merged, no request pending, every frontend idle
        and every backfill done."""
        total = 0
        quiet = 0
        for _ in range(max_rounds):
            handled = self.pump()
            total += handled
            busy = handled or self.pending or not self._idle() or self._backfilling()
            if not busy:
                quiet += 1
                if quiet >= quiet_rounds:
                    return total
            else:
                quiet = 0
        return total

    def _round(self, laps: StageLaps) -> int:
        """One :meth:`_turn`; when nothing moved, block briefly on the
        links instead of spinning — the front layer must yield the core
        to its children."""
        handled = self._turn(laps)
        if handled == 0:
            waitables = self._waitables()
            if waitables:
                multiprocessing.connection.wait(waitables, 0.01)
                handled += self._drain_replies()
        laps.lap("engine_collect_ms")
        return handled

    def _turn(self, laps: StageLaps) -> int:
        """The non-blocking part of a round: control out (backfill
        completion, retention) and the frontends' frames in, then police
        the children. The front-door server drives a router with turns,
        awaiting :meth:`_waitables` on its own loop in between."""
        self.clock.advance(1)  # one virtual millisecond per round
        handled = self._step_backfills()
        self._truncate_durable_logs()
        handled += self._drain_replies()
        laps.lap("engine_dispatch_ms")
        self.supervisor.poll(0.0)
        self._raise_worker_errors()
        if self.frontend_errors:
            raise EngineError("shard frontend failed:\n" + self.frontend_errors[-1])
        return handled

    def _waitables(self) -> list:
        return [conn for link in self._frontends.values() for conn in link.waitables()]

    def _backfilling(self) -> bool:
        return any(not job.done for job in self._backfills)

    def _idle(self) -> bool:
        return all(link.idle() for link in self._frontends.values())

    def _quiesce(self) -> None:
        self.drain()

    def drain(self, timeout: float = 30.0) -> None:
        """Quiesce the data plane: every frontend dispatches its backlog
        and waits out its outstanding batches before acking.

        Recovery-aware: a frontend that is mid-replay after a worker
        crash acks only once the replay finished, and a frontend that
        restarts while draining is re-asked.
        """
        request_id = self._next_drain
        self._next_drain += 1
        deadline = self._time.deadline(timeout)
        for frontend_id, link in self._frontends.items():
            self._ask(
                link,
                wire.DrainRequest(request_id),
                lambda: (request_id, frontend_id) in self._drain_acks,
                deadline,
            )
        self._drain_acks = {
            ack for ack in self._drain_acks if ack[0] != request_id
        }

    def _drain_replies(self) -> int:
        handled = 0
        for link in self._frontends.values():
            for msg in link.poll():
                handled += self._on_frontend_msg(link, msg)
        return handled

    def _on_frontend_msg(self, link, msg: object) -> int:
        if isinstance(msg, wire.ReplyBatch):
            pending, completed = self.pending, self.completed
            now = self.clock.now()
            for correlation_id, topic, results in msg.replies:
                fan_in(pending, completed, now, correlation_id, topic, results)
            self.metrics.counter_add(
                "router_replies_merged_total",
                len(msg.replies),
                label=link.frontend_id,
            )
            self._note_watermarks(msg.watermarks)
            for worker_id, records, replies in msg.processed:
                self.supervisor.note_processed(worker_id, records, replies)
            return len(msg.replies)
        if isinstance(msg, wire.DrainAck):
            self._drain_acks.add((msg.request_id, link.frontend_id))
            self._note_watermarks(msg.watermarks)
            return 1
        if isinstance(msg, wire.BackfillRecords):
            self._read_pages[(msg.tp, msg.begin)] = msg
            return 1
        if isinstance(msg, wire.WorkerError):
            self.frontend_errors.append(msg.message)
            return 0
        raise EngineError(f"unexpected frontend frame: {type(msg).__name__}")

    def _note_watermarks(self, watermarks) -> None:
        """Snapshot replied watermarks (the seed of respawn suppression)."""
        for tp, offset in watermarks:
            if offset > self._watermarks.get(tp, 0):
                self._watermarks[tp] = offset

    def _raise_worker_errors(self) -> None:
        if self.supervisor.worker_errors:
            raise EngineError(
                "shard worker failed:\n" + self.supervisor.worker_errors[-1]
            )

    def _truncate_durable_logs(self) -> None:
        """Checkpoint-aware retention: whenever the (persistent)
        checkpoint store advanced, each frontend deletes every segment
        wholly below its owned tasks' stored checkpoint offsets — the
        logs no longer grow without bound."""
        if self.durable_dir is None:
            return
        store = self.supervisor.checkpoints
        if store.stored == self._truncated_at:
            return
        self._truncated_at = store.stored
        offsets = store.offsets()
        for link in self._frontends.values():
            owned = tuple(
                (tp, offsets[tp])
                for tp in sorted(link.owned, key=str)
                if offsets.get(tp, 0) > 0
            )
            if owned:
                link.send(wire.TruncateLogs(owned))

    # -- rebalance / recovery -------------------------------------------------

    def _rebalance(self) -> None:
        """(Re)shard the tasks over the workers, stickily.

        A task's new owner gets the stored checkpoint shipped first (a
        worker applies control before the data sent after it) and
        replays only the tail past its offset — the whole log without
        one — under the replied watermark. Moved tasks may predate a
        splice in flight, so every backfill re-derives its installs.
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

    def _apply_routes(
        self,
        mapping: dict[str, set[TopicPartition]],
        seeks: dict[TopicPartition, int],
    ) -> None:
        """Place tasks on frontends and send each its routes + seeks.

        Frontend ownership is append-only: a task, once owned, NEVER
        moves — its owner hosts the task's only log and replied
        watermark, so a move would strand both (silently dropped
        events). The frontend count is fixed, so pinning costs nothing
        but balance on topic additions.
        """
        owner_of = {
            tp: worker_id for worker_id, owned in mapping.items() for tp in owned
        }
        tasks = sorted(owner_of, key=str)
        assignment = self.frontend_strategy.assign(
            tasks,
            [
                ProcessorInfo(frontend_id, frontend_id)
                for frontend_id in self._frontends
            ],
            PreviousState(
                active={
                    frontend_id: set(link.owned)
                    for frontend_id, link in self._frontends.items()
                }
            ),
        )
        placed: dict[TopicPartition, str] = {}
        for frontend_id in self._frontends:
            for tp in assignment.active.get(frontend_id, set()):
                placed[tp] = frontend_id
        for tp in tasks:
            if tp not in self._fe_owner:
                self._fe_owner[tp] = placed[tp]
        for frontend_id, link in self._frontends.items():
            link.owned = {
                tp for tp, owner in self._fe_owner.items() if owner == frontend_id
            }
            routes = tuple(
                (tp, owner_of[tp], self.supervisor.worker_addr(owner_of[tp]))
                for tp in sorted(link.owned, key=str)
            )
            link.send(
                wire.FrontendAssign(
                    routes,
                    tuple((tp, seeks[tp]) for tp, _, _ in routes if tp in seeks),
                )
            )

    def _on_worker_restart(
        self, worker_id: str, tasks: set[TopicPartition]
    ) -> None:
        """Crash recovery: replay each owned task's uncheckpointed tail.

        The supervisor already shipped each task's stored checkpoint
        into the fresh process, so the tasks rewind to the checkpointed
        offset (zero without one); the replied watermark keeps the
        replay silent up to the last reply the client saw. Every
        frontend hears the restart — it lifts a crash quarantine. An
        in-flight splice died with the old process: its installs and
        acks are re-derived.
        """
        offset = self.supervisor.checkpoints.offset
        addr = self.supervisor.worker_addr(worker_id)
        for link in self._frontends.values():
            relevant = sorted(link.owned & tasks, key=str)
            link.send(
                wire.WorkerRestarted(
                    worker_id, addr, tuple((tp, offset(tp)) for tp in relevant)
                )
            )
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
        frontend link adds its own snapshot (an in-process frontend
        records into the shared one) and the latest snapshot of every
        worker it dispatches to. See docs/OBSERVABILITY.md for the
        schema and the metric catalog.
        """
        snapshots = [self.metrics.snapshot()]
        for link in self._frontends.values():
            snapshots.extend(link.snapshots())
        return merge_snapshots(snapshots)

    def close(self) -> None:
        """Stop the front door when served, then the frontends and every
        worker process; idempotent and thread-safe (concurrent calls
        race on one lock, every call after the first returns at once)."""
        server, self.server = self.server, None
        if server is not None:
            server.stop()
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        for job in self._backfills:
            job.close()
        try:
            self._settle()
            for link in self._frontends.values():
                link.close()
        finally:
            self.supervisor.shutdown()

    def _settle(self, timeout: float = 10.0) -> None:
        """Drain-before-close: complete the fan-ins still pending before
        the children stop. Bounded by ``timeout`` and by a stall of ~50
        idle rounds; a child error mid-drain downgrades to an immediate
        teardown."""
        deadline = self._time.deadline(timeout)
        stalled = 0
        try:
            while self.pending and not deadline.expired() and stalled <= 50:
                stalled = 0 if self.pump() else stalled + 1
        except EngineError:
            pass  # dead child mid-drain: fall through to teardown
