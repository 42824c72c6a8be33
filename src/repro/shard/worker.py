"""The shard worker — one OS process owning a set of partitions.

A worker is the process-parallel counterpart of a
:class:`~repro.engine.processor.ProcessorUnit`: it runs the batched
consume→process loop (``WorkBatch`` in, ``BatchDone`` out) over its own
:class:`~repro.engine.task.TaskProcessor` per owned partition. It holds
no connection to the message bus — the frontends poll the logs on its
behalf and ship contiguous offset runs as columnar frames over the data
sockets they connect to the worker's listener — so the whole data path
of a worker is: decode batch, ``process_batch``, encode replies. Its
supervisor pipe carries control only.

Workers are born empty. Catalogue state (streams, metrics, schema
evolutions) arrives as control messages; task state either accumulates
from work batches or arrives wholesale as a
:class:`~repro.shard.wire.RestoreTask` checkpoint frame. After a crash
the supervisor replays the control log into a fresh process and ships
each owned task's stored checkpoint, and the frontends replay only the
tail past it, under ``reply_from`` = the replied watermark. On
``CheckpointTailRequest(with_state=True)`` the worker ships every owned
task's snapshot inside the ack, holding only the bytes the supervisor's
store lacks: of each file it advertised, nothing if held whole, else the
tail past the advertised size.
"""

from __future__ import annotations

import os
import socket
import traceback
from dataclasses import dataclass
from multiprocessing import connection
from multiprocessing.connection import Connection

from repro.engine.catalog import (
    CATALOG_OPS,
    Catalog,
    CreateMetricOp,
    DeleteMetricOp,
    MetricDef,
)
from repro.engine.processor import UnitConfig, apply_op
from repro.engine.task import BackfillState, TaskProcessor
from repro.messaging.log import TopicPartition
from repro.shard import wire
from repro.telemetry import MetricsRegistry, encode_snapshot

#: Minimum seconds between snapshot ships on BatchDone frames.
_STATS_SHIP_INTERVAL_S = 0.02


@dataclass
class _PendingSplice:
    """A metric waiting for its task to reach an exact offset cut.

    Two flavors share the mechanism. A *backfill install* carries the
    replayed ``state`` and acks with ``BackfillInstalled`` once spliced.
    An *activation* (``state is None``) registers a freshly created
    metric with zero state at the dispatch frontier the DDL was stamped
    with — used when a task is rebuilt from a checkpoint (or from
    scratch) that predates the metric, so the recovery replay below the
    cut cannot fold records the original incarnation processed without
    the metric.
    """

    at_offset: int
    metric: MetricDef
    state: BackfillState | None


class ShardWorker:
    """The in-process brain of one shard worker (testable without fork)."""

    def __init__(self, worker_id: str, config: UnitConfig | None = None) -> None:
        self.worker_id = worker_id
        self.config = config if config is not None else UnitConfig()
        self.catalog = Catalog()
        self.assigned: set[TopicPartition] = set()
        self.task_processors: dict[TopicPartition, TaskProcessor] = {}
        #: splices waiting for their task to reach the cut offset,
        #: keyed ``tp -> metric_id``; applied mid-batch when a cut
        #: lands inside a run.
        self._pending_splices: dict[
            TopicPartition, dict[int, _PendingSplice]
        ] = {}
        #: activation cut per ``(tp, metric_id)`` from ``CreateMetric``
        #: frames: the dispatch frontier when the DDL landed. Consulted
        #: whenever a task is (re)built so replayed records below the
        #: cut never reach a metric created after them. Never pruned on
        #: revoke — a task handed back later still needs its history.
        self._activations: dict[tuple[TopicPartition, int], int] = {}
        #: frames to push to the supervisor outside the request/reply
        #: rhythm (backfill acks); the main loop flushes after each pass.
        self.outbox: list[object] = []
        self.messages_processed = 0
        #: This process's metric registry; its snapshot piggybacks on
        #: BatchDone frames so the dispatcher side always holds a fresh
        #: copy (observation only — never influences replies).
        self.telemetry = MetricsRegistry(f"worker:{worker_id}")
        #: Monotonic stamp of the last snapshot shipped: encoding one is
        #: the telemetry plane's single hot-path cost, so it rides at
        #: most every ``_STATS_SHIP_INTERVAL_S`` (first batch always).
        self._stats_shipped_at: float | None = None

    # -- control plane --------------------------------------------------------

    def handle_control(self, msg: object) -> wire.CheckpointTailAck | None:
        """Apply one control message to the local catalogue and tasks;
        returns the ack a checkpoint request is owed."""
        if isinstance(msg, wire.CheckpointTailRequest):
            frames = self.build_checkpoints(msg.held_map()) if msg.with_state else []
            return wire.CheckpointTailAck(
                msg.request_id, self.checkpoint_offsets(), frames
            )
        if isinstance(msg, wire.RestoreTask):
            self.restore_task(msg.frame)
        elif isinstance(msg, CATALOG_OPS):
            apply_op(self.catalog, self.task_processors, msg)
            if isinstance(msg, CreateMetricOp):
                for tp, at_offset in msg.activations:
                    self._activations[(tp, msg.metric.metric_id)] = at_offset
            elif isinstance(msg, DeleteMetricOp):
                for pending in self._pending_splices.values():
                    pending.pop(msg.metric_id, None)
                for key in [k for k in self._activations if k[1] == msg.metric_id]:
                    del self._activations[key]
        elif isinstance(msg, wire.AssignPartitions):
            self.assigned = set(msg.partitions)
            # Revoked tasks are dropped: the sticky strategy keeps
            # tasks on their worker, so a revoke means another worker
            # now owns the task and rebuilds it from the shipped
            # checkpoint (plus the replayed tail when one exists).
            for tp in list(self.task_processors):
                if tp not in self.assigned:
                    del self.task_processors[tp]
            for tp in list(self._pending_splices):
                if tp not in self.assigned:
                    del self._pending_splices[tp]
        else:
            raise TypeError(f"unexpected control message: {type(msg).__name__}")
        return None

    # -- backfill splice -------------------------------------------------------

    def handle_backfill_install(self, msg: wire.BackfillInstall) -> int | None:
        """Stash a backfill install until the task reaches its cut.

        Deliberately does *not* register the metric in the worker
        catalogue: a crash between the stash and the completion
        broadcast must rebuild the task without the metric (its state
        is not in any stored checkpoint yet), and the coordinator's
        reset re-sends a fresh install for the restored offset.

        Returns the task's frontier when the install is already stale
        (its cut sits behind ``next_offset`` — possible when the sender
        restored from a snapshot that lags this worker, e.g. right
        after a frontend respawn) so data-plane callers can nack it;
        ``None`` otherwise.
        """
        if msg.tp not in self.assigned:
            return None  # raced a rebalance; the new owner gets its own install
        processor = self._processor_for(msg.tp)
        if processor.has_metric(msg.metric.metric_id):
            # Already spliced (a duplicate install after a coordinator
            # reset): determinism makes the existing state identical to
            # what this install would produce — just re-ack.
            self.outbox.append(
                wire.BackfillInstalled(msg.tp, msg.metric.metric_id)
            )
            return None
        if processor.next_offset > msg.at_offset:
            pending = self._pending_splices.get(msg.tp)
            if pending is not None:
                pending.pop(msg.metric.metric_id, None)
            return processor.next_offset
        self._pending_splices.setdefault(msg.tp, {})[
            msg.metric.metric_id
        ] = _PendingSplice(
            at_offset=msg.at_offset,
            metric=msg.metric,
            state=BackfillState(
                metric_id=msg.metric.metric_id,
                state_rows=msg.state_rows,
                distinct_rows=msg.distinct_rows,
                iterator_positions=msg.iterator_positions,
            ),
        )
        self._apply_ready_splices(msg.tp, processor)
        return None

    def _stash_activation(
        self, tp: TopicPartition, metric: MetricDef, at_offset: int
    ) -> None:
        """Queue a zero-state splice registering ``metric`` at its cut."""
        self._pending_splices.setdefault(tp, {})[
            metric.metric_id
        ] = _PendingSplice(at_offset=at_offset, metric=metric, state=None)

    def _apply_ready_splices(
        self, tp: TopicPartition, processor: TaskProcessor
    ) -> int:
        """Apply every stashed splice whose cut the task sits exactly at.

        Returns the number of splices resolved (applied or retired).
        Stale *installs* — the task progressed past the cut before the
        frame landed, possible when work arrives on a channel the
        control pipe is not ordered against — are dropped without
        acking; the coordinator notices the frontier moved and
        re-exports at a later cut. Stale *activations* cannot occur
        (partition offsets are dense and the cut is stashed before any
        replay), but if one ever did, registering immediately keeps the
        metric live rather than silently lost.
        """
        pending = self._pending_splices.get(tp)
        if not pending:
            return 0
        resolved = 0
        for metric_id, splice in list(pending.items()):
            if processor.next_offset == splice.at_offset:
                del pending[metric_id]
                resolved += 1
                if splice.state is None:
                    processor.add_metric(splice.metric)
                else:
                    processor.apply_backfill(splice.metric, splice.state)
                    self.outbox.append(
                        wire.BackfillInstalled(tp, metric_id)
                    )
            elif processor.next_offset > splice.at_offset:
                del pending[metric_id]
                resolved += 1
                if splice.state is None:
                    processor.add_metric(splice.metric)
        if not pending:
            self._pending_splices.pop(tp, None)
        return resolved

    # -- data plane -----------------------------------------------------------

    def handle_work(self, batch: wire.WorkBatch) -> wire.BatchDone:
        """Process one contiguous offset run; build the reply frame.

        A pending splice whose cut offset lands inside the run splits
        it: records below the cut are processed, the splice applies at
        exactly the cut, then the rest of the run proceeds with the
        metric live. Several pending cuts (a backfill install plus
        recovery activations, say) split the run repeatedly, lowest cut
        first.
        """
        telemetry = self.telemetry
        measured = telemetry.enabled
        started = telemetry.now() if measured else 0.0
        if measured and batch.trace is not None:
            # The dispatcher stamped its send time in source-seconds on
            # the system-wide monotonic clock; the delta is how long the
            # frame sat in the socket plus the worker's loop latency.
            for stage, stamp in batch.trace[1]:
                if stage == "sent_ms":
                    wait_ms = max(0.0, started * 1000.0 - stamp)
                    telemetry.observe_ms("worker_queue_wait_ms", wait_ms)
        processor = self._processor_for(batch.tp)
        self._apply_ready_splices(batch.tp, processor)
        answers: list = []
        remaining = batch.records
        while remaining:
            pending = self._pending_splices.get(batch.tp)
            cuts = (
                [
                    s.at_offset
                    for s in pending.values()
                    if s.at_offset <= remaining[-1][0]
                ]
                if pending
                else []
            )
            if not cuts:
                answers += processor.process_batch(remaining)
                break
            cut = min(cuts)
            below = [r for r in remaining if r[0] < cut]
            if below:
                answers += processor.process_batch(below)
            resolved = self._apply_ready_splices(batch.tp, processor)
            remaining = [r for r in remaining if r[0] >= cut]
            if not below and not resolved:
                # The cut is unreachable within this run (it sits in an
                # offset gap the log never minted): process the rest —
                # the splice resolves as stale once the task passes it.
                answers += processor.process_batch(remaining)
                break
        # A cut at exactly the end of this run splices now: it may be
        # the partition's last run for a while, and an install stashed
        # while the run sat in the link would otherwise never ack.
        self._apply_ready_splices(batch.tp, processor)
        self.messages_processed += len(batch.records)
        if measured:
            process_ms = (telemetry.now() - started) * 1000.0
            telemetry.observe_ms("worker_process_batch_ms", process_ms)
            merge_started = telemetry.now()
        reply_from = batch.reply_from
        replies = [
            (offset, answer)
            for (offset, _), answer in zip(batch.records, answers)
            if offset >= reply_from
        ]
        telemetry.counter_add("worker_batches_total")
        telemetry.counter_add("worker_records_total", len(batch.records))
        telemetry.counter_add("worker_replies_total", len(replies))
        done = wire.BatchDone(
            tp=batch.tp,
            next_offset=processor.next_offset,
            processed=len(batch.records),
            replies=replies,
        )
        if measured:
            merge_ms = (telemetry.now() - merge_started) * 1000.0
            telemetry.observe_ms("worker_reply_merge_ms", merge_ms)
            shipped = self._stats_shipped_at
            if shipped is None or started - shipped >= _STATS_SHIP_INTERVAL_S:
                done.stats = encode_snapshot(telemetry.snapshot())
                self._stats_shipped_at = started
        return done

    def checkpoint_offsets(self) -> dict[TopicPartition, int]:
        """Consumed offsets per owned task (message-boundary consistent)."""
        return {
            tp: processor.next_offset
            for tp, processor in sorted(
                self.task_processors.items(), key=lambda item: str(item[0])
            )
        }

    # -- checkpoint shipping ---------------------------------------------------

    def build_checkpoints(
        self, held: dict[TopicPartition, dict[str, int]] | None = None
    ) -> list[wire.TaskCheckpointFrame]:
        """Snapshot every owned task as checkpoint frames.

        ``held`` maps each task to the files the receiver holds and how
        many bytes of each; a frame carries only the bytes past that
        (see :meth:`~repro.engine.task.TaskProcessor.checkpoint`), so a
        steady-state snapshot costs the segment bytes appended since the
        receiver's copy, the reservoir metadata and the new LSM tables —
        flat in the stream's length. Without ``held`` every file ships
        whole. The bytes shipped count into
        ``worker_checkpoint_bytes_total``.
        """
        held = held or {}
        frames: list[wire.TaskCheckpointFrame] = []
        shipped = 0
        for tp, processor in sorted(
            self.task_processors.items(), key=lambda item: str(item[0])
        ):
            checkpoint = processor.checkpoint(held.get(tp))
            shipped += checkpoint.data_bytes()
            frames.append(wire.TaskCheckpointFrame(checkpoint))
        self.telemetry.counter_add("worker_checkpoint_bytes_total", shipped)
        return frames

    def restore_task(self, frame: wire.TaskCheckpointFrame) -> None:
        """Seed a task processor from a (fully materialized) checkpoint.

        The frame must arrive after the control log, so the catalogue
        already knows the stream and metrics; replay of the partition
        tail past ``frame.offset`` then brings the task up to date.

        A catalogue metric *absent* from the checkpoint whose activation
        cut lies past the checkpointed offset was created mid-stream
        after this snapshot: the original incarnation processed the tail
        below the cut without it, so registering it now would fold those
        replayed records in and diverge from the reference. It is
        deferred as a zero-state splice at exactly the cut instead.
        (Control-pipe FIFO guarantees any checkpoint taken after the DDL
        contains the metric, so absence implies the cut is ahead.)
        """
        tp = frame.tp
        stream = self.catalog.stream_of_topic(tp.topic)
        if stream is None:
            raise KeyError(
                f"worker {self.worker_id} got a checkpoint for unknown "
                f"topic {tp.topic!r}"
            )
        checkpoint = frame.checkpoint
        live: list[MetricDef] = []
        deferred: list[tuple[MetricDef, int]] = []
        for metric in self.catalog.metrics_for_topic(tp.topic):
            activation = self._activations.get((tp, metric.metric_id), 0)
            if (
                metric.metric_id not in checkpoint.metric_ids
                and activation > checkpoint.offset
            ):
                deferred.append((metric, activation))
            else:
                live.append(metric)
        processor = TaskProcessor.restore(
            checkpoint,
            stream,
            live,
            reservoir_config=self.config.reservoir,
            lsm_config=self.config.lsm,
        )
        if self.telemetry.enabled:
            processor.telemetry = self.telemetry
        self.task_processors[tp] = processor
        for metric, activation in deferred:
            self._stash_activation(tp, metric, activation)
        self._apply_ready_splices(tp, processor)

    def _processor_for(self, tp: TopicPartition) -> TaskProcessor:
        processor = self.task_processors.get(tp)
        if processor is not None:
            return processor
        stream = self.catalog.stream_of_topic(tp.topic)
        if stream is None:
            raise KeyError(
                f"worker {self.worker_id} got work for unknown topic {tp.topic!r}"
            )
        # Built-from-scratch tasks start at offset 0 and replay the full
        # log, so mid-stream metrics defer to their activation cut just
        # like the restore path above.
        live = []
        deferred = []
        for metric in self.catalog.metrics_for_topic(tp.topic):
            activation = self._activations.get((tp, metric.metric_id), 0)
            if activation > 0:
                deferred.append((metric, activation))
            else:
                live.append(metric)
        processor = TaskProcessor.build(
            tp,
            stream,
            live,
            reservoir_config=self.config.reservoir,
            lsm_config=self.config.lsm,
        )
        if self.telemetry.enabled:
            processor.telemetry = self.telemetry
        self.task_processors[tp] = processor
        for metric, activation in deferred:
            self._stash_activation(tp, metric, activation)
        return processor


def _bind_listener(addr: str) -> socket.socket:
    """Bind the worker's data-socket listener (AF_UNIX, stream).

    A restarted worker rebinds the *same* address — frontends reconnect
    to it after the supervisor announces the restart — so a stale socket
    file from the previous incarnation is unlinked first.
    """
    if os.path.exists(addr):
        os.unlink(addr)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.bind(addr)
    sock.listen(16)
    return sock


def shard_worker_main(
    conn: Connection,
    worker_id: str,
    config: UnitConfig | None,
    listen_addr: str,
) -> None:
    """Worker process entrypoint: decode → dispatch → reply, until told to stop.

    The supervisor's duplex pipe (``conn``) is the control channel:
    DDL replay, assignment, checkpoint requests, restore frames,
    shutdown. The worker listens on an AF_UNIX socket at
    ``listen_addr`` where frontends connect their data channels;
    ``WorkBatch`` frames (and backfill installs) arrive on those
    sockets and each ``BatchDone`` is answered on the socket its batch
    came from. The control channel is drained *completely* before each
    data frame is handled, so a control frame sent before a data frame
    is applied before it: a restarted worker applies its replayed
    control log and ``RestoreTask`` checkpoints before any replayed work
    batch, a rebalanced task's checkpoint lands before its new traffic,
    and DDL lands before the batches sent after it.

    Any exception is reported as a :class:`~repro.shard.wire.WorkerError`
    frame on the control channel before the process exits non-zero, so
    the supervisor can log the cause instead of just observing a dead
    pipe.
    """
    worker = ShardWorker(worker_id, config)
    listener = _bind_listener(listen_addr)
    data_conns: list[Connection] = []

    def drop_data_conn(data_conn: Connection) -> None:
        data_conns.remove(data_conn)
        data_conn.close()

    def drain_control() -> bool:
        """Apply every waiting control frame; False on a shutdown."""
        while conn.poll(0):
            msg = wire.decode(conn.recv_bytes())
            if isinstance(msg, wire.Shutdown):
                return False
            if isinstance(msg, wire.Crash):
                os._exit(17)  # fault injection: die without cleanup
            ack = worker.handle_control(msg)
            if ack is not None:
                conn.send_bytes(wire.encode(ack))
        return True

    parent_pid = os.getppid()
    try:
        while True:
            # The wait times out so the orphan check below runs on an
            # idle worker.
            ready = set(connection.wait([conn, listener, *data_conns], 1.0))
            if os.getppid() != parent_pid:
                # The owning process was killed without cleanup. Pipe
                # EOF cannot signal this: forked siblings inherit each
                # other's pipe ends and keep them open, so reparenting
                # is the only reliable death signal.
                return
            if conn in ready and not drain_control():
                return
            if listener in ready:
                accepted, _ = listener.accept()
                data_conns.append(Connection(accepted.detach()))
            for data_conn in [c for c in data_conns if c in ready]:
                # Only the socket reads/writes may be treated as "the
                # frontend went away" — an OSError raised by batch
                # processing itself (reservoir/LSM I/O) must propagate
                # to the WorkerError reporter below, not silently close
                # a healthy frontend's link.
                while True:
                    try:
                        payload = data_conn.recv_bytes()
                    except (EOFError, OSError):
                        drop_data_conn(data_conn)
                        break
                    # Control sent before this frame is readable by now:
                    # apply it first (DDL, restores, a crash order).
                    if not drain_control():
                        return
                    msg = wire.decode(payload)
                    frame = None  # what this link is owed for ``msg``
                    if isinstance(msg, wire.WorkBatch):
                        frame = wire.encode(worker.handle_work(msg))
                    elif isinstance(msg, wire.BackfillInstall):
                        stale = worker.handle_backfill_install(msg)
                        if stale is not None:
                            # Cut already passed (the frontend restored
                            # from a snapshot behind this task): nack on
                            # the data link so it re-splices higher.
                            frame = wire.encode(wire.BackfillStale(
                                msg.tp, msg.metric.metric_id, stale
                            ))
                    else:
                        raise TypeError(
                            f"unexpected data frame: {type(msg).__name__}"
                        )
                    if frame is not None:
                        try:
                            data_conn.send_bytes(frame)
                        except OSError:
                            drop_data_conn(data_conn)
                            break
                    if not data_conn.poll(0):
                        break
            # Push unsolicited frames (backfill acks) to the supervisor
            # at the end of each pass, whatever channel produced them.
            while worker.outbox:
                frame = wire.encode(worker.outbox[0])
                try:
                    conn.send_bytes(frame)
                except OSError:
                    break  # supervisor gone; orphan check will reap us
                worker.outbox.pop(0)
    except EOFError:
        return  # supervisor went away; nothing left to reply to
    except BaseException:
        try:
            conn.send_bytes(
                wire.encode(wire.WorkerError(traceback.format_exc(limit=8)))
            )
        except OSError:
            pass
        raise
