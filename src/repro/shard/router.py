"""Sharded frontends: the coordinator itself, split across processes.

The process-parallel engine's first incarnation funneled every event
through one coordinator process — fan-out, wire framing and reply merge
capped throughput at roughly the coordinator's per-event cost no matter
how many shard workers ran. This module breaks that ceiling by sharding
the coordinator the same way the engine shards tasks:

- **N frontend processes** (:func:`shard_frontend_main`, brain in
  :class:`FrontendEngine`) each own a *sticky slice of the partition
  space* (assigned with the Figure 7 strategy, one frontend modelled as
  one node). A frontend hosts the partition logs for its slice, computes
  nothing but routing and framing, and ships ``WorkBatch`` frames
  *directly* to the owning shard workers over its own AF_UNIX data
  sockets — the hot path never crosses a shared coordinator loop.
- **A thin client facade** (:class:`ClusterRouter`) that keeps the
  ``RailgunCluster`` API: DDL calls, ``send``/``send_batch``, the same
  :class:`~repro.engine.cluster.Reply` objects. Its per-event work is
  hashing the partitioner key (the same ``partition_for`` the
  single-process bus uses, so placement is identical), framing the event
  to the owning frontend, and merging completed replies.

Determinism: a partition is owned by exactly one frontend and the
router routes in client order over FIFO channels, so every partition's
log order equals the single-process engine's — replies are
byte-identical to ``create_cluster("single")`` (enforced by
``tests/test_batch_equivalence.py``). Per-key ordering holds because a
key hashes to one partition, hence one frontend, hence one worker.

Reply fan-in moves with the data: each frontend matches ``BatchDone``
replies against its own ``(task, offset) → correlation`` map and ships
``(correlation, topic, results)`` triples; the router only counts each
correlation's distinct replied topics against the stream's fan-out —
a merge that is O(replies), not a dispatch loop.

Recovery:

- **Worker crash** — identical contract to ``ParallelCluster``: the
  supervisor restarts the worker, replays the control log and ships
  stored checkpoints; the router then announces ``WorkerRestarted`` to
  every frontend owning one of its tasks, and each frontend seeks those
  tasks back to the checkpointed offset and replays only the
  uncheckpointed tail, with ``reply_from`` (the replied watermark)
  suppressing every reply the client already saw.
- **Frontend crash** — journal-based: the router keeps each frontend's
  ordered control+ingest frame journal and its replied watermarks (they
  ride every ``ReplyBatch``). A respawned frontend gets
  ``RestoreWatermarks`` then the journal verbatim, rebuilding its
  partition logs with identical offsets; it re-dispatches only offsets
  at or past the watermark. Workers treat re-shipped offsets below
  their frontier as replays (state untouched, read-only replies), so
  in-flight requests complete and settled ones are never re-answered —
  at-least-once for the handful of replies that were in flight, with
  the read-only values reflecting post-crash state. The journal is
  in-memory and unbounded for now; checkpoint-aware truncation is a
  named ROADMAP item.

``stats()`` and the checkpoint cadence stay merged at the supervisor:
frontends report per-worker ``(records, replies)`` deltas inside every
``ReplyBatch`` and the router credits them via
:meth:`~repro.shard.supervisor.ShardSupervisor.note_processed`, so
``checkpoint_every`` fires on cluster-wide progress exactly as in
single-frontend mode.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import queue
import shutil
import socket
import tempfile
import threading
import traceback
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.common.clock import ManualClock
from repro.common.errors import EngineError, ReproError
from repro.common.hashing import partition_for
from repro.common.timesource import TimeSource, resolve_time_source
from repro.engine.assignment import (
    PreviousState,
    ProcessorInfo,
    StickyAssignmentStrategy,
)
from repro.engine.catalog import (
    GLOBAL_PARTITIONER,
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
from repro.engine.envelope import EventEnvelope
from repro.engine.processor import ACTIVE_GROUP, UnitConfig
from repro.engine.task import TaskProcessor
from repro.events.event import Event
from repro.messaging.broker import MessageBus
from repro.messaging.consumer import PartitionView
from repro.messaging.durable import (
    DurableBus,
    read_cut,
    resolve_durable_dir,
    write_cut,
)
from repro.messaging.cursor import LogCursor
from repro.messaging.log import TopicPartition
from repro.replay.asof import AsOfResult, seed_processor
from repro.replay.backfill import ReplayError, ShadowReplay
from repro.shard import columnar, wire
from repro.shard.supervisor import ShardSupervisor, _default_context
from repro.telemetry import (
    MetricsRegistry,
    decode_bundle,
    decode_snapshot,
    encode_bundle,
    encode_snapshot,
    merge_snapshots,
)

#: reply entries per ReplyBatch frame (keeps frames under pipe buffers).
REPLY_CHUNK = 512


def _connect(
    addr: str, deadline_s: float = 0.25, time_source: TimeSource | None = None
):
    """Connect a data socket to a worker's listener, with a short grace.

    A restarted worker rebinds its address asynchronously, so the first
    attempts may hit a missing socket file or a refused connection; the
    grace window covers that bind latency and nothing more. Returns
    ``None`` when the worker stays unreachable — the caller retries on
    a later dispatch round, so the frontend loop never stalls long
    enough to delay the router control traffic (e.g. the
    ``WorkerRestarted`` that would resolve the outage) or other
    workers' batches.
    """
    from multiprocessing.connection import Connection

    clock = resolve_time_source(time_source)
    deadline = clock.deadline(deadline_s)
    while True:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(addr)
            return Connection(sock.detach())
        except OSError:
            sock.close()
            if deadline.expired():
                return None
            clock.sleep(0.005)


class FrontendEngine:
    """The in-process brain of one frontend process (testable without fork).

    Owns the sticky partition slice installed by
    :class:`~repro.shard.wire.FrontendAssign`: a private
    :class:`~repro.messaging.broker.MessageBus` holding those
    partitions' logs, one :class:`~repro.messaging.consumer.PartitionView`
    over them, the ``(task, offset) → correlation`` pending map, and the
    per-task replied watermarks. Invariants:

    - **Single writer**: only this frontend appends to its partitions,
      in ingest order, so log offsets are dense and deterministic — a
      journal replay after a crash rebuilds byte-identical logs.
    - **Reply watermark**: ``watermarks[tp]`` is replied-up-to-here;
      dispatch passes it as ``reply_from`` so workers suppress replayed
      replies below it, and offsets below it never re-enter ``pending``.
    - **Credit flow control**: at most ``max_outstanding`` un-acked
      batches per worker keep socket traffic bounded (no cross-pipe
      deadlock), mirroring the supervisor's scheme.
    """

    def __init__(
        self,
        frontend_id: str,
        batch_max: int = 256,
        max_outstanding: int = 2,
        durable_dir: str | None = None,
        durable_fsync: str = "batch",
        durable_segment_bytes: int = 1 << 20,
        time_source: TimeSource | None = None,
        unit_config: UnitConfig | None = None,
    ) -> None:
        self._time = resolve_time_source(time_source)
        self.frontend_id = frontend_id
        self.batch_max = batch_max
        self.max_outstanding = max_outstanding
        self.catalog = Catalog()
        self.durable_dir = durable_dir
        #: ingest frames durably applied behind the consistent cut; on a
        #: respawn this comes back from disk and makes the router's
        #: write-ahead journal replay idempotent (frames below it only
        #: advance the sequence counter — their appends are already in
        #: the reopened logs).
        self._durable_applied = 0
        #: sequence number the next IngestBatch will carry (implicit:
        #: the router sends ingest frames in order, exactly once each).
        self._ingest_seq = 0
        self._ingested_since_sync = 0
        self._durable_dirty = False
        if durable_dir is not None:
            self.bus = DurableBus(
                durable_dir,
                fsync=durable_fsync,
                segment_bytes=durable_segment_bytes,
            )
            self._durable_applied, ends = read_cut(durable_dir)
            self._ingest_seq = self._durable_applied
            for tp in self.bus.all_partitions():
                # Roll every log back to the cut: appends past it came
                # from frames the journal replay will re-deliver.
                log = self.bus.log(tp)
                log.truncate_to(max(ends.get(tp, 0), log.start_offset))
        else:
            self.bus = MessageBus()
        self.view = PartitionView(self.bus, ACTIVE_GROUP)
        #: task -> owning worker id (installed by FrontendAssign).
        self.routes: dict[TopicPartition, str] = {}
        #: worker id -> data-socket address.
        self.addrs: dict[str, str] = {}
        #: worker id -> live data connection.
        self.conns: dict[str, object] = {}
        #: workers whose link failed: a downed worker was (or is being)
        #: restarted with state only up to its checkpoint, so this
        #: frontend must not reconnect — and must not ship it any tail
        #: records — until the router's ``WorkerRestarted`` authorizes
        #: it with the matching seek-back. Reconnecting early would feed
        #: the fresh worker offsets without their history.
        self.down: set[str] = set()
        self.outstanding: dict[str, int] = {}
        #: replied watermark per task (replies below it already reached
        #: the client; replayed work must not repeat them).
        self.watermarks: dict[TopicPartition, int] = {}
        #: shipped-but-unreplied offsets, keyed by (task, offset).
        self.pending: dict[tuple[TopicPartition, int], int] = {}
        self.draining: int | None = None
        self.events_ingested = 0
        self.replies_collected = 0
        #: per-frontend registry; its snapshot (plus the latest worker
        #: snapshots absorbed from ``BatchDone`` frames) piggybacks on
        #: the last chunk of every shipping :meth:`flush`.
        self.telemetry = MetricsRegistry(
            f"frontend:{frontend_id}", time_source=self._time
        )
        self._worker_snapshots: dict[str, bytes] = {}
        #: last telemetry-bundle ship time; bundles ride at most every
        #: 20ms (encoding one is the flush path's only telemetry cost).
        self._stats_shipped_at: float | None = None
        #: span id of the most recent ingest frame; stamped onto
        #: outgoing ``WorkBatch`` frames so worker hop timings chain to
        #: the span the router minted.
        self._active_span: str | None = None
        self._reply_buf: list[tuple[int, str, dict | None]] = []
        self._processed_buf: dict[str, list[int]] = {}
        self._wm_dirty = False
        #: worker-identical processing config — the backfill shadows
        #: must chunk/dedup exactly like the workers they splice into.
        self.unit_config = unit_config if unit_config is not None else UnitConfig()
        #: metric id -> running backfill job (this frontend's half).
        self.backfills: dict[int, FrontendBackfill] = {}
        #: answered log-read pages awaiting the next flush.
        self._records_buf: list[wire.BackfillRecords] = []

    # -- control plane --------------------------------------------------------

    def handle(self, msg: object) -> None:
        """Apply one router frame (control or ingest)."""
        if isinstance(msg, wire.IngestBatch):
            self.ingest(msg)
        elif isinstance(msg, wire.FrontendAssign):
            self.apply_assign(msg)
        elif isinstance(msg, wire.RestoreWatermarks):
            self.restore_watermarks(msg)
        elif isinstance(msg, wire.WorkerRestarted):
            self.worker_restarted(msg)
        elif isinstance(msg, wire.DrainRequest):
            self.draining = msg.request_id
        elif isinstance(msg, wire.TruncateLogs):
            self.truncate_logs(msg)
        elif isinstance(msg, CreateStreamOp):
            self.catalog.apply(msg)
            self._create_topics(msg.stream.name)
        elif isinstance(msg, AddPartitionerOp):
            self.catalog.apply(msg)
            self._create_topics(msg.stream)
        elif isinstance(msg, wire.BackfillStart):
            if msg.metric.metric_id not in self.backfills:
                self.backfills[msg.metric.metric_id] = FrontendBackfill(self, msg)
        elif isinstance(msg, wire.BackfillStop):
            job = self.backfills.pop(msg.metric_id, None)
            if job is not None:
                job.close()
        elif isinstance(msg, wire.BackfillRead):
            self._records_buf.append(self._read_records(msg))
        else:
            raise TypeError(f"unexpected frontend message: {type(msg).__name__}")

    def _read_records(self, msg: wire.BackfillRead) -> wire.BackfillRecords:
        """Serve one page of an owned partition log (the router's as-of
        read path; the router holds no logs of its own)."""
        log = self.bus.log(msg.tp)
        start = getattr(log, "start_offset", 0)
        end = self.bus.end_offset(msg.tp)
        begin = max(msg.begin, start)
        entries: list[tuple[int, Event]] = []
        with LogCursor(self.bus, msg.tp, begin) as cursor:
            for message in cursor.read(msg.max_records):
                value = message.value
                if isinstance(value, EventEnvelope):
                    value = value.event
                entries.append((message.offset, value))
        return wire.BackfillRecords(msg.tp, msg.begin, entries, start, end)

    def step_backfills(self) -> int:
        """Advance every running backfill job one round."""
        work = 0
        for job in self.backfills.values():
            work += job.step()
        return work

    def _create_topics(self, stream_name: str) -> None:
        stream = self.catalog.streams[stream_name]
        for partitioner in stream.partitioners:
            count = 1 if partitioner == GLOBAL_PARTITIONER else stream.partitions
            self.bus.create_topic(topic_name(stream_name, partitioner), count)

    def apply_assign(self, msg: wire.FrontendAssign) -> None:
        """Install the owned slice + task→worker routes; apply seeks.

        Seeks rewind *moved* tasks to their checkpoint offset — never
        forward past the shipped frontier, so a task whose checkpoint
        ran ahead of this frontend's dispatch position (possible right
        after a frontend respawn) keeps every unreplied offset.
        """
        owned: list[TopicPartition] = []
        routes: dict[TopicPartition, str] = {}
        for tp, worker_id, addr in msg.routes:
            routes[tp] = worker_id
            self.addrs[worker_id] = addr
            owned.append(tp)
        moved = {
            tp for tp, worker_id in routes.items()
            if self.routes.get(tp) not in (None, worker_id)
        }
        self.routes = routes
        if moved:
            # A moved task's new worker restored from a checkpoint that
            # may predate an earlier splice: re-replay and re-install
            # (a duplicate install is re-acked without applying).
            for job in self.backfills.values():
                job.forget(moved)
        active = set(routes.values())
        for worker_id in list(self.conns):
            if worker_id not in active:
                # Planned route removal, not a failure: close without
                # quarantining, so a later rebalance that routes tasks
                # back to this (live) worker can simply redial it.
                self._close_conn(worker_id)
        self.view.set_assignment(owned)
        for tp, offset in msg.seeks:
            self.view.seek(tp, min(offset, self.view.position(tp)))

    def restore_watermarks(self, msg: wire.RestoreWatermarks) -> None:
        """Seed replied watermarks after a respawn (before journal replay).

        The view seeks straight to each watermark: offsets below it were
        already answered, so the journal replay only re-dispatches the
        unreplied tail (workers replay-skip anything their state already
        covers and answer read-only). Explicit ``seeks`` override the
        start downwards for tasks whose worker restarted and needs its
        tail re-shipped from the checkpointed offset. ``ingest_base``
        aligns the ingest-frame sequence with the router's pruned
        journal, so the durable skip rule sees the original numbering.
        """
        self._ingest_seq = msg.ingest_base
        for tp, offset in msg.watermarks:
            self.watermarks[tp] = offset
            self.view.seek(tp, offset)
        for tp, offset in msg.seeks:
            self.view.seek(tp, min(offset, self.view.position(tp)))

    def truncate_logs(self, msg: wire.TruncateLogs) -> None:
        """Checkpoint-aware retention on this frontend's durable logs.

        The cut is synced *first*: retention may delete completed
        segments holding records newer than the last recorded cut, and
        the cut's per-log end offsets must never fall below the
        retention start or a later recovery could not roll back to it.
        """
        if self.durable_dir is None:
            return
        self.sync_durable(force=True)
        self.bus.truncate_below(dict(msg.offsets))

    def worker_restarted(self, msg: wire.WorkerRestarted) -> None:
        """Re-link a restarted worker and rewind its tasks for replay.

        Complete frames left in the old socket are salvaged first (they
        are valid pre-crash results and advance the watermark, shrinking
        the replay's reply window); the link is then dropped, credits
        reset (in-flight batches died with the process), and every owned
        task of that worker seeks back to its checkpointed offset.
        """
        worker_id = msg.worker_id
        conn = self.conns.get(worker_id)
        if conn is not None:
            try:
                while conn.poll(0):
                    self.handle_batch_done(
                        worker_id, columnar.decode(conn.recv_bytes())
                    )
            except (EOFError, OSError):
                pass
        self.link_down(worker_id)
        self.down.discard(worker_id)  # the restart re-authorizes the link
        self.addrs[worker_id] = msg.addr
        for tp, offset in msg.seeks:
            if self.routes.get(tp) == worker_id:
                self.view.seek(tp, min(offset, self.view.position(tp)))
        if self.backfills:
            # The fresh worker restored from a checkpoint that may
            # predate an in-flight splice: re-replay its tasks to the
            # restored frontier and re-install there.
            affected = {
                tp for tp, owner in self.routes.items() if owner == worker_id
            }
            for job in self.backfills.values():
                job.forget(affected)

    def _close_conn(self, worker_id: str) -> None:
        conn = self.conns.pop(worker_id, None)
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        self.outstanding[worker_id] = 0

    def link_down(self, worker_id: str) -> None:
        """Drop a *failed* worker link; its outstanding credits died
        with it.

        The worker stays quarantined (no reconnect, no dispatch) until
        the router's ``WorkerRestarted`` arrives with the seek-back; its
        backlog simply accumulates in the logs meanwhile. Planned route
        removals go through :meth:`_close_conn` instead and do not
        quarantine.
        """
        self._close_conn(worker_id)
        self.down.add(worker_id)

    def _link(self, worker_id: str):
        conn = self.conns.get(worker_id)
        if conn is not None:
            return conn
        if worker_id in self.down:
            return None
        addr = self.addrs.get(worker_id)
        if addr is None:
            return None
        conn = _connect(addr, time_source=self._time)
        if conn is None:
            return None
        self.conns[worker_id] = conn
        self.outstanding.setdefault(worker_id, 0)
        return conn

    # -- data plane -----------------------------------------------------------

    def ingest(self, msg: wire.IngestBatch) -> None:
        """Append routed events to the owned partition logs, in order.

        Each ingest frame consumes one sequence number. A frame whose
        sequence falls below the recovered durable cut is a write-ahead
        journal replay of appends the reopened logs already hold — it
        advances the sequence and nothing else.
        """
        seq = self._ingest_seq
        self._ingest_seq = seq + 1
        self.events_ingested += len(msg.entries)
        self.telemetry.counter_add(
            "frontend_events_ingested_total", len(msg.entries)
        )
        if msg.trace is not None:
            self._active_span = msg.trace[0]
        if seq < self._durable_applied:
            return
        log = self.bus.log
        with self.telemetry.time_stage("frontend_ingest_ms"):
            for correlation_id, event, targets in msg.entries:
                for partitioner, partition in targets:
                    tp = TopicPartition(
                        topic_name(msg.stream, partitioner), partition
                    )
                    log(tp).append(correlation_id, event, event.timestamp)
        self._ingested_since_sync += 1

    def sync_durable(self, force: bool = False) -> None:
        """Advance the consistent cut: fsync the logs, then the cut file.

        Ordering is the whole contract — data first, cut second — so the
        cut never describes state the disk does not hold. After the cut
        lands, every received ingest frame is durably applied; the next
        :meth:`flush` reports that count so the router can prune its
        write-ahead journal.
        """
        if self.durable_dir is None:
            return
        if not force and self._ingested_since_sync == 0:
            return
        self._ingested_since_sync = 0
        with self.telemetry.time_stage("frontend_fsync_ms"):
            self.bus.flush()
            ends = {
                tp: self.bus.log(tp).end_offset
                for tp in self.bus.all_partitions()
            }
            write_cut(self.durable_dir, self._ingest_seq, ends)
        if self._ingest_seq > self._durable_applied:
            self._durable_applied = self._ingest_seq
            self._durable_dirty = True

    def dispatch(self) -> int:
        """Ship contiguous offset runs to their owning workers."""
        with self.telemetry.time_stage("frontend_dispatch_ms"):
            return self._dispatch_runs()

    def _dispatch_runs(self) -> int:
        shipped = 0
        pending = self.pending
        telemetry = self.telemetry
        for tp in self.view.assignment():
            worker_id = self.routes.get(tp)
            if worker_id is None:
                continue
            if self.outstanding.get(worker_id, 0) >= self.max_outstanding:
                continue
            conn = self._link(worker_id)
            if conn is None:
                continue
            messages = self.view.poll_one(tp, self.batch_max)
            if not messages:
                continue
            watermark = self.watermarks.get(tp, 0)
            records = []
            for message in messages:
                records.append((message.offset, message.value))
                # Offsets below the watermark are replays whose replies
                # the worker suppresses — tracking them again would leak.
                if message.offset >= watermark:
                    pending[(tp, message.offset)] = message.key
            trace = None
            if telemetry.enabled:
                # Continue the router-minted span; the send timestamp
                # lets the worker attribute its queue wait to this hop.
                trace = (
                    self._active_span or "",
                    (("sent_ms", telemetry.now() * 1000.0),),
                )
            frame = columnar.encode(wire.WorkBatch(tp, watermark, records, trace))
            try:
                conn.send_bytes(frame)
            except OSError:
                # Dead worker: the restart announcement re-seeks this
                # task below the lost records, so the replay covers them.
                self.link_down(worker_id)
                continue
            self.outstanding[worker_id] = self.outstanding.get(worker_id, 0) + 1
            shipped += len(records)
        return shipped

    def handle_batch_done(self, worker_id: str, msg: wire.BatchDone) -> None:
        """Merge one finished batch: replies, watermark, progress."""
        if isinstance(msg, wire.BackfillStale):
            # The worker refused an install whose cut sat behind its
            # frontier (our restored snapshot lagged it): forget the
            # task and only re-splice at or above the reported offset.
            job = self.backfills.get(msg.metric_id)
            if job is not None:
                job.forget({msg.tp})
                job.floor[msg.tp] = msg.next_offset
            return
        if not isinstance(msg, wire.BatchDone):
            raise TypeError(f"unexpected data frame: {type(msg).__name__}")
        self.outstanding[worker_id] = max(0, self.outstanding.get(worker_id, 0) - 1)
        if msg.stats is not None:
            self._worker_snapshots[worker_id] = msg.stats
        tp = msg.tp
        with self.telemetry.time_stage("frontend_reply_merge_ms"):
            for offset, results in msg.replies:
                correlation_id = self.pending.pop((tp, offset), None)
                if correlation_id is None or results is None:
                    continue
                self._reply_buf.append((correlation_id, tp.topic, results))
        self.watermarks[tp] = max(self.watermarks.get(tp, 0), msg.next_offset)
        self._wm_dirty = True
        bucket = self._processed_buf.setdefault(worker_id, [0, 0])
        bucket[0] += msg.processed
        bucket[1] += len(msg.replies)
        self.replies_collected += len(msg.replies)
        self.telemetry.counter_add(
            "frontend_replies_collected_total", len(msg.replies)
        )

    def idle(self) -> bool:
        """True when nothing is in flight or awaiting dispatch."""
        return (
            not any(self.outstanding.values())
            and self.view.lag() == 0
            and not self._reply_buf
        )

    def flush(self, conn) -> None:
        """Ship buffered replies/progress to the router; ack drains."""
        if self._records_buf:
            for page in self._records_buf:
                conn.send_bytes(wire.encode(page))
            self._records_buf = []
        if (
            self._reply_buf or self._wm_dirty or self._processed_buf
            or self._durable_dirty
        ):
            entries = self._reply_buf
            self._reply_buf = []
            processed = tuple(
                (worker_id, counts[0], counts[1])
                for worker_id, counts in self._processed_buf.items()
            )
            self._processed_buf = {}
            watermarks = (
                self._sorted_watermarks() if self._wm_dirty else ()
            )
            self._wm_dirty = False
            self._durable_dirty = False
            chunks = [
                entries[i:i + REPLY_CHUNK]
                for i in range(0, len(entries), REPLY_CHUNK)
            ] or [[]]
            # Watermarks (and the durable cut) ride the LAST chunk: the
            # router snapshots them as replied-up-to-here / prune-up-to-
            # here, so they must never precede reply entries that could
            # still be lost with this process — a crash mid-flush must
            # leave the router's snapshot at or below the replies it
            # actually received. Telemetry rides there too: one bundle
            # of this frontend's snapshot plus the latest raw worker
            # snapshots (forwarded without re-serialising).
            bundle = None
            if self.telemetry.enabled:
                now = self.telemetry.now()
                shipped = self._stats_shipped_at
                if shipped is None or now - shipped >= 0.02:
                    bundle = encode_bundle(
                        [encode_snapshot(self.telemetry.snapshot())]
                        + list(self._worker_snapshots.values())
                    )
                    self._stats_shipped_at = now
            last = len(chunks) - 1
            for index, chunk in enumerate(chunks):
                conn.send_bytes(
                    wire.encode(
                        wire.ReplyBatch(
                            chunk,
                            watermarks if index == last else (),
                            processed if index == last else (),
                            self._durable_applied if index == last else 0,
                            stats=bundle if index == last else None,
                        )
                    )
                )
        if self.draining is not None and self.idle():
            conn.send_bytes(
                wire.encode(
                    wire.DrainAck(self.draining, self._sorted_watermarks())
                )
            )
            self.draining = None

    def _sorted_watermarks(self) -> tuple[tuple[TopicPartition, int], ...]:
        return tuple(
            sorted(self.watermarks.items(), key=lambda pair: str(pair[0]))
        )


class FrontendBackfill:
    """One backfill job's frontend half: shadows + in-line installs.

    In router mode the frontends host the backfill readers — each owns
    its tasks' partition logs *and* their dispatch position, so the
    splice point is decided in the loop thread that also ships the
    work: when a shadow catches the task's
    :meth:`~repro.messaging.consumer.PartitionView.position`, nothing
    past that offset has been dispatched yet, and the
    :class:`~repro.shard.wire.BackfillInstall` sent on the task's data
    link lands (socket-FIFO) between the batches below the cut and the
    ones above it. The worker stashes and splices at exactly that
    offset; its ack flows through the supervisor control pipe to the
    router, which owns completion.

    Recovery mirrors the other topologies: a worker restart or a route
    move calls :meth:`forget` for the affected tasks (the fresh worker
    restored from a checkpoint that may predate the splice), and the
    next :meth:`step` re-replays to the restored frontier and
    re-installs — a duplicate install is re-acked without applying.
    """

    def __init__(self, engine: FrontendEngine, start: wire.BackfillStart) -> None:
        self.engine = engine
        self.metric = start.metric
        self.peers = start.peers
        self.seeds = dict(start.seeds)
        self.stream = engine.catalog.streams[start.metric.stream]
        self.shadows: dict[TopicPartition, ShadowReplay] = {}
        self.installed: set[TopicPartition] = set()
        #: per-task minimum splice offset, raised by BackfillStale nacks
        self.floor: dict[TopicPartition, int] = {}
        self.batch = 512

    def step(self) -> int:
        engine = self.engine
        work = 0
        for tp in engine.view.assignment():
            if tp.topic != self.metric.topic or tp in self.installed:
                continue
            worker_id = engine.routes.get(tp)
            if worker_id is None or worker_id in engine.down:
                continue  # quarantined; WorkerRestarted re-authorizes
            frontier = engine.view.position(tp)
            shadow = self.shadows.get(tp)
            if shadow is not None and shadow.position > frontier:
                # The task was re-seeked below the shadow (worker
                # restart from an older checkpoint): restart the replay.
                shadow.close()
                del self.shadows[tp]
                shadow = None
            if shadow is None:
                shadow = self._make_shadow(tp)
                self.shadows[tp] = shadow
            work += shadow.step(self.batch, stop=frontier)
            if shadow.position != frontier:
                continue
            if frontier < self.floor.get(tp, 0):
                continue  # worker nacked this cut; wait for dispatch to pass it

            conn = engine._link(worker_id)
            if conn is None:
                continue
            state = shadow.export()
            install = wire.BackfillInstall(
                tp,
                frontier,
                self.metric,
                state.state_rows,
                state.distinct_rows,
                state.iterator_positions,
            )
            try:
                conn.send_bytes(wire.encode(install))
            except OSError:
                engine.link_down(worker_id)
                continue
            self.installed.add(tp)
            shadow.close()
            del self.shadows[tp]
            work += 1
        return work

    def _make_shadow(self, tp: TopicPartition) -> ShadowReplay:
        """A shadow from offset 0, or — when retention already reclaimed
        the early segments — seeded from the stored checkpoint the
        router shipped with the start frame."""
        engine = self.engine
        config = engine.unit_config
        try:
            return ShadowReplay(
                engine.bus, tp, self.stream, self.metric,
                reservoir_config=config.reservoir,
                lsm_config=config.lsm,
            )
        except ReplayError:
            checkpoint = self.seeds.get(tp)
            if checkpoint is None:
                raise
            seed_metrics = tuple(
                m for m in self.peers if m.metric_id in checkpoint.metric_ids
            )
            return ShadowReplay(
                engine.bus, tp, self.stream, self.metric,
                reservoir_config=config.reservoir,
                lsm_config=config.lsm,
                seed_checkpoint=checkpoint,
                seed_metrics=seed_metrics,
            )

    def forget(self, tasks: set[TopicPartition]) -> None:
        """Un-install + drop shadows for ``tasks``; they re-replay."""
        for tp in tasks:
            self.installed.discard(tp)
            shadow = self.shadows.pop(tp, None)
            if shadow is not None:
                shadow.close()

    def close(self) -> None:
        """Release every shadow's retention pin; idempotent."""
        for shadow in self.shadows.values():
            shadow.close()
        self.shadows.clear()


def shard_frontend_main(
    conn,
    frontend_id: str,
    batch_max: int = 256,
    max_outstanding: int = 2,
    durable_dir: str | None = None,
    durable_fsync: str = "batch",
    durable_segment_bytes: int = 1 << 20,
    unit_config: UnitConfig | None = None,
) -> None:
    """Frontend process entrypoint: route, dispatch, merge — until stopped.

    One duplex pipe to the router (ingest + control in, replies out) and
    one data socket per routed worker. The router pipe is drained fully
    before worker traffic, so control messages (assignment, worker
    restarts, drains) are applied before the work they govern. With
    ``durable_dir`` the engine hosts disk-backed logs: each loop
    iteration that ingested frames ends with a durable sync (log fsync,
    then the consistent cut), whose applied-frame count rides the next
    ``ReplyBatch`` so the router can prune its write-ahead journal. Any
    exception is reported as a ``WorkerError`` frame before the process
    exits, mirroring the shard worker contract.
    """
    engine = FrontendEngine(
        frontend_id, batch_max, max_outstanding, durable_dir,
        durable_fsync=durable_fsync,
        durable_segment_bytes=durable_segment_bytes,
        unit_config=unit_config,
    )
    parent_pid = os.getppid()
    try:
        while True:
            wait_on = [conn, *engine.conns.values()]
            # A replaying shadow makes progress per loop round, not per
            # inbound frame — keep the loop hot until the stop.
            timeout = 0.01 if engine.backfills else 1.0
            ready = set(multiprocessing.connection.wait(wait_on, timeout))
            if os.getppid() != parent_pid:
                # Router process killed without cleanup (pipe EOF never
                # fires: forked siblings hold each other's pipe ends
                # open); exit instead of squatting as an orphan.
                return
            if conn in ready:
                while True:
                    msg = wire.decode(conn.recv_bytes())
                    if isinstance(msg, wire.Shutdown):
                        engine.sync_durable()
                        return
                    if isinstance(msg, wire.Crash):
                        os._exit(23)  # fault injection: die without cleanup
                    engine.handle(msg)
                    if not conn.poll(0):
                        break
            for worker_id, data_conn in [
                (worker_id, c)
                for worker_id, c in list(engine.conns.items())
                if c in ready
            ]:
                try:
                    while True:
                        engine.handle_batch_done(
                            worker_id, columnar.decode(data_conn.recv_bytes())
                        )
                        if not data_conn.poll(0):
                            break
                except (EOFError, OSError):
                    # Worker died mid-stream; the router announces the
                    # restart and this frontend re-seeks + replays then.
                    engine.link_down(worker_id)
            engine.dispatch()
            engine.step_backfills()
            engine.sync_durable()
            engine.flush(conn)
    except EOFError:
        return  # router went away; nothing left to reply to
    except BaseException:
        try:
            conn.send_bytes(
                wire.encode(wire.WorkerError(traceback.format_exc(limit=8)))
            )
        except OSError:
            pass
        raise


# -- the client-side facade ---------------------------------------------------


@dataclass
class _PendingFanin:
    """A client request awaiting replies from its fanned-out topics."""

    event: Event
    stream: str
    expected: int
    sent_at_ms: int
    results: dict[int, dict[str, Any]] = field(default_factory=dict)
    #: topics that already answered — the de-dup key that makes replayed
    #: replies (worker or frontend recovery) count at most once each.
    replied: set[str] = field(default_factory=set)


@dataclass
class FrontendHandle:
    """One live frontend process and its routing/recovery state."""

    frontend_id: str
    process: multiprocessing.process.BaseProcess
    conn: object
    #: ordered ``(ingest_seq, frame)`` entries (-1 for control frames) —
    #: replayed into a respawn to rebuild byte-identical partition logs.
    #: In-memory mode keeps every frame (the journal IS the durability
    #: story); durable mode prunes ingest frames below the frontend's
    #: reported cut, turning the journal into a bounded write-ahead
    #: buffer (control frames stay: catalogue and routes are in-memory).
    journal: list[tuple[int, bytes]] = field(default_factory=list)
    owned: set[TopicPartition] = field(default_factory=set)
    #: sequence the next IngestBatch frame will carry.
    ingest_seq: int = 0
    #: ingest frames the frontend reported durably applied (prune base).
    durable_seq: int = 0
    restarts: int = 0

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


class RouterBackfill:
    """The router half of one backfill: watch acks, own completion.

    The frontends do the replaying and splicing
    (:class:`FrontendBackfill`); worker acks flow through the
    supervisor control pipes into
    :attr:`~repro.shard.supervisor.ShardSupervisor.backfill_installed`.
    Once every task of the metric's topic acked, completion runs
    checkpoint-then-broadcast — a synchronous with-state checkpoint so
    the stored state already contains the splice, *then* the
    ``CreateMetric`` broadcast into the replayable worker control log
    (the reverse order would let a post-crash restore register the def
    against pre-splice state) — and finally tells the frontends to
    stop, pruning the journaled start frame so respawns stop replaying
    the job.
    """

    def __init__(self, router: "ClusterRouter", metric, start_frame: bytes) -> None:
        self.router = router
        self.metric = metric
        self.start_frame = start_frame
        self.done = False

    def step(self) -> int:
        if self.done:
            return 0
        router = self.router
        metric_id = self.metric.metric_id
        tasks = [
            tp for tp in router._event_tasks() if tp.topic == self.metric.topic
        ]
        acked = router.supervisor.backfill_installed
        if not tasks or any((tp, metric_id) not in acked for tp in tasks):
            return 0
        try:
            router.supervisor.request_checkpoints(with_state=True)
        except EngineError:
            # A worker vanished mid-completion; its restart resets the
            # affected acks and the job keeps running.
            return 0
        router._publish_op(CreateMetricOp(self.metric))
        stop = wire.encode(wire.BackfillStop(metric_id))
        for handle in router._frontends.values():
            handle.journal = [
                entry for entry in handle.journal if entry[1] != self.start_frame
            ]
            try:
                handle.conn.send_bytes(stop)
            except OSError:
                pass  # dead frontend; its respawn never sees the job
        for key in [k for k in acked if k[1] == metric_id]:
            acked.discard(key)
        self.done = True
        return 1

    def reset(self, tasks: set[TopicPartition] | None = None) -> None:
        """Forget acks — all, or just for ``tasks`` — after a worker
        restart or rebalance rebuilt their state from checkpoints that
        may predate the splice. The owning frontends re-install
        autonomously (their ``WorkerRestarted``/``FrontendAssign``
        handling forgets the same tasks)."""
        if self.done:
            return
        acked = self.router.supervisor.backfill_installed
        for tp, metric_id in list(acked):
            if metric_id != self.metric.metric_id:
                continue
            if tasks is None or tp in tasks:
                acked.discard((tp, metric_id))


class ClusterRouter:
    """N frontend processes + W shard workers behind the cluster API.

    ``create_cluster("process", workers=W, frontends=F)`` returns this
    facade for ``F >= 2`` (and the single-coordinator
    :class:`~repro.shard.parallel.ParallelCluster` otherwise); the bench
    harness constructs it directly with ``frontends=1`` to measure the
    router architecture's single-frontend baseline. The client API —
    DDL, ``send``/``send_batch``, ``Reply`` objects, ``stats()`` — is
    shared with ``RailgunCluster``/``ParallelCluster``, and replies are
    byte-identical to both.
    """

    def __init__(
        self,
        workers: int = 2,
        frontends: int = 2,
        unit_config: UnitConfig | None = None,
        tick_ms: int = 1,
        batch_max: int = 256,
        ingest_max: int = 256,
        checkpoint_every: int | None = 2048,
        assignment_strategy: object | None = None,
        frontend_strategy: object | None = None,
        mp_context: multiprocessing.context.BaseContext | None = None,
        durable_dir: str | None = None,
        durable_fsync: str = "batch",
        durable_segment_bytes: int = 1 << 20,
        time_source: TimeSource | None = None,
    ) -> None:
        if frontends <= 0:
            raise EngineError(f"need at least one frontend: {frontends}")
        self._time = resolve_time_source(time_source)
        #: router-side registry, shared with the supervisor; the merged
        #: cluster view (router + frontends + workers) is
        #: :meth:`telemetry`.
        self.metrics = MetricsRegistry("router", time_source=self._time)
        self._span_seq = 0
        #: latest telemetry bundle per frontend (its own snapshot plus
        #: forwarded worker snapshots), piggybacked on ``ReplyBatch``.
        self._frontend_bundles: dict[str, bytes] = {}
        self.clock = ManualClock(start_ms=1)
        self.catalog = Catalog()
        self.tick_ms = tick_ms
        self.batch_max = batch_max
        self.ingest_max = ingest_max
        self.durable_dir = resolve_durable_dir(durable_dir, "router")
        self.durable_fsync = durable_fsync
        self.durable_segment_bytes = durable_segment_bytes
        self._ctx = mp_context if mp_context is not None else _default_context()
        self._socket_dir = tempfile.mkdtemp(prefix="railgun-shard-")
        self.supervisor = ShardSupervisor(
            workers,
            unit_config=unit_config,
            strategy=assignment_strategy,
            time_source=self._time,
            checkpoint_interval=checkpoint_every,
            mp_context=self._ctx,
            listen_dir=self._socket_dir,
            checkpoint_dir=(
                os.path.join(self.durable_dir, "checkpoints")
                if self.durable_dir is not None
                else None
            ),
            telemetry=self.metrics,
        )
        self.supervisor.on_restart = self._on_worker_restart
        self.frontend_strategy = (
            frontend_strategy
            if frontend_strategy is not None
            else StickyAssignmentStrategy(0)
        )
        self._frontends: dict[str, FrontendHandle] = {}
        for index in range(frontends):
            frontend_id = f"fe-{index}"
            self._frontends[frontend_id] = self._spawn_frontend(frontend_id)
        #: task -> owning frontend (sticky across rebalances).
        self._fe_owner: dict[TopicPartition, str] = {}
        #: router-side snapshot of replied watermarks (piggybacked on
        #: every ReplyBatch) — the seed for frontend respawn suppression.
        self._watermarks: dict[TopicPartition, int] = {}
        self.pending: dict[int, _PendingFanin] = {}
        self.completed: dict[int, Reply] = {}
        self._next_correlation = 0
        #: mirror of the other facades' ``bus.messages_published`` (one
        #: per DDL op + one per event per fanned-out topic): auto-minted
        #: ``client-...`` event ids must match ``ParallelCluster``'s for
        #: the same call sequence, or dict-input replies would carry
        #: different event identities across topologies.
        self._published = 0
        self._next_drain = 0
        self._drain_acks: set[tuple[int, str]] = set()
        #: running/completed backfill jobs (router half of each).
        self._backfills: list[RouterBackfill] = []
        #: answered log-read pages, keyed by (task, begin offset).
        self._read_pages: dict[tuple[TopicPartition, int], wire.BackfillRecords] = {}
        self.frontend_errors: list[str] = []
        self.rebalance_count = 0
        #: checkpoint-store version the logs were last truncated against.
        self._truncated_at = 0
        self._closed = False
        self._close_lock = threading.Lock()
        #: thread-safe handoff from other threads (the asyncio front
        #: door) into the thread that owns this router; drained by
        #: ``service_step``. The queue is the ONLY structure touched
        #: from foreign threads — routing, pending state and reply
        #: delivery all stay on the servicing thread.
        self._submissions: queue.SimpleQueue = queue.SimpleQueue()
        #: correlation -> (on_reply, index in the submitted batch);
        #: tracks which completed replies belong to submitted work (as
        #: opposed to direct ``send``/``send_batch`` calls).
        self._service_pending: dict[int, tuple[Any, int]] = {}

    # -- topology -------------------------------------------------------------

    def _spawn_frontend(self, frontend_id: str) -> FrontendHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        frontend_dir = None
        if self.durable_dir is not None:
            frontend_dir = os.path.join(self.durable_dir, "frontends", frontend_id)
            os.makedirs(frontend_dir, exist_ok=True)
        process = self._ctx.Process(
            target=shard_frontend_main,
            args=(
                child_conn, frontend_id, self.batch_max, 2, frontend_dir,
                self.durable_fsync, self.durable_segment_bytes,
                self.supervisor.unit_config,
            ),
            name=f"railgun-{frontend_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return FrontendHandle(frontend_id, process, parent_conn)

    def frontend_ids(self) -> list[str]:
        """Current frontend processes, in spawn order."""
        return list(self._frontends)

    def worker_ids(self) -> list[str]:
        """Current shard workers."""
        return self.supervisor.worker_ids()

    def kill_worker(self, worker_id: str) -> None:
        """SIGKILL a shard worker (fault injection for tests)."""
        self.supervisor.kill_worker(worker_id)

    def kill_frontend(self, frontend_id: str) -> None:
        """SIGKILL a frontend process (fault injection for tests)."""
        handle = self._frontend(frontend_id)
        handle.process.kill()

    def _frontend(self, frontend_id: str) -> FrontendHandle:
        try:
            return self._frontends[frontend_id]
        except KeyError:
            raise EngineError(f"unknown frontend {frontend_id!r}") from None

    def add_worker(self) -> str:
        """Spawn one more shard worker and rebalance onto it.

        The data plane is drained and checkpoints refreshed first, so
        moved tasks restore on the new worker from up-to-date state and
        replay nothing.
        """
        self.drain()
        self._refresh_checkpoints()
        worker_id = self.supervisor.add_worker()
        self._rebalance()
        return worker_id

    def remove_worker(self, worker_id: str) -> None:
        """Retire a worker; its tasks hand state off via the checkpoint
        store and replay only the (empty, post-drain) tail elsewhere."""
        self.drain()
        self._refresh_checkpoints()
        self.supervisor.remove_worker(worker_id)
        self._rebalance()

    def _refresh_checkpoints(self) -> None:
        try:
            self.supervisor.request_checkpoints(with_state=True)
        except EngineError:
            pass  # best effort; stored checkpoints plus replay cover it

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
        op = CreateStreamOp(stream)
        self._publish_op(op)
        self._broadcast_frontends(op)
        self._rebalance()

    def create_metric(self, query_text: str, backfill: bool = False) -> int:
        """Register a metric from a Figure 4 statement; returns metric id."""
        metric = build_metric_def(self.catalog, query_text, backfill)
        activations = tuple(
            sorted(
                ((tp, self._watermarks.get(tp, 0))
                 for tp in self._event_tasks() if tp.topic == metric.topic),
                key=lambda pair: str(pair[0]),
            )
        )
        self._publish_op(CreateMetricOp(metric, activations))
        self._sync_workers()
        return metric.metric_id

    # -- replay & backfill ----------------------------------------------------

    def backfill_metric(self, query_text: str) -> int:
        """Define a metric *after the fact* and materialize it from the logs.

        The metric id is reserved immediately; the owning frontends —
        which host the partition logs — replay each task through a
        shadow and splice it into the worker at the exact dispatch cut
        (ingest never pauses), while a router-side
        :class:`RouterBackfill` job watches the worker acks and runs
        the completion. Only on completion does the ``CreateMetric``
        broadcast reach the worker control log — an incomplete backfill
        does not survive a router restart and must be re-issued. Use
        :meth:`backfill_status` to observe completion.
        """
        metric = build_metric_def(self.catalog, query_text)
        self.catalog.apply(CreateMetricOp(metric))
        peers = tuple(
            m
            for m in self.catalog.metrics_for_topic(metric.topic)
            if m.metric_id != metric.metric_id
        )
        store = self.supervisor.checkpoints
        seeds = tuple(
            (tp, checkpoint)
            for tp in self._event_tasks()
            if tp.topic == metric.topic
            and (checkpoint := store.get(tp)) is not None
        )
        frame = self._broadcast_frontends(
            wire.BackfillStart(metric, peers, seeds)
        )
        self._backfills.append(RouterBackfill(self, metric, frame))
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
        for tp in self._event_tasks():
            if tp.topic != metric.topic:
                continue
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

    def query_as_of(
        self, metric_id: int, as_of: int, batch: int = 256
    ) -> AsOfResult:
        """Time-travel read: the metric's values at event time ``as_of``.

        The router owns no partition logs, so the replay tail is paged
        in from the owning frontends (``BackfillRead`` round-trips);
        the seeding rule is the shared one — a stored checkpoint is
        used when every event it folded sits at or before ``as_of``,
        which is what keeps the replay bounded.
        """
        metric = self.catalog.metrics.get(metric_id)
        if metric is None:
            raise EngineError(f"unknown metric id {metric_id}")
        stream = self.catalog.streams[metric.stream]
        metrics = sorted(
            self.catalog.metrics_for_topic(metric.topic),
            key=lambda m: m.metric_id,
        )
        config = self.supervisor.unit_config
        merged: dict[tuple, dict[str, Any]] = {}
        replayed = 0
        log_records = 0
        seeded = 0
        for tp in self._event_tasks():
            if tp.topic != metric.topic:
                continue
            checkpoint = self.supervisor.checkpoints.get(tp)
            processor, begin = seed_processor(
                tp, stream, metrics, checkpoint, as_of,
                config.reservoir, config.lsm,
            )
            if begin > 0:
                seeded += 1
            position = begin
            done = False
            end_offset = 0
            while not done:
                page = self._fetch_page(tp, position, batch)
                end_offset = page.end_offset
                if position < page.start_offset:
                    raise ReplayError(
                        f"as-of replay for {tp} needs offset {position} "
                        f"but the log starts at {page.start_offset}"
                    )
                if not page.entries:
                    break
                records = []
                for record_offset, event in page.entries:
                    if event.timestamp > as_of:
                        done = True
                        break
                    records.append((record_offset, event))
                if records:
                    processor.process_batch(records)
                    replayed += len(records)
                    position = records[-1][0] + 1
            log_records += end_offset
            if processor.has_metric(metric_id):
                merged.update(processor.metric_values(metric_id))
        return AsOfResult(
            values=merged,
            replayed=replayed,
            log_records=log_records,
            seeded=seeded,
        )

    def _fetch_page(
        self,
        tp: TopicPartition,
        begin: int,
        max_records: int,
        timeout: float = 10.0,
    ) -> wire.BackfillRecords:
        """One ``BackfillRead`` round-trip to the task's owning frontend
        (re-asked across a frontend respawn)."""
        owner = self._fe_owner.get(tp)
        if owner is None:
            raise EngineError(f"partition {tp} has no frontend owner")
        handle = self._frontends[owner]
        key = (tp, begin)
        self._read_pages.pop(key, None)
        request = wire.encode(wire.BackfillRead(tp, begin, max_records))
        asked = handle.restarts
        try:
            handle.conn.send_bytes(request)
        except OSError:
            pass  # respawn detected below; re-asked then
        deadline = self._time.deadline(timeout)
        while True:
            page = self._read_pages.pop(key, None)
            if page is not None:
                return page
            if deadline.expired():
                raise EngineError(
                    f"frontend {owner} did not answer a log read for {tp}"
                )
            self.pump()
            if handle.restarts != asked:
                asked = handle.restarts
                try:
                    handle.conn.send_bytes(request)
                except OSError:
                    pass

    def delete_metric(self, metric_id: int) -> None:
        """Remove a metric cluster-wide."""
        self._publish_op(DeleteMetricOp(metric_id))
        self._sync_workers()

    def _sync_workers(self) -> None:
        """Barrier: every live worker has consumed the control frames
        broadcast so far.

        Worker control rides the supervisor pipes while work batches
        ride the frontends' data sockets — two unordered channels. DDL
        that changes what replies *contain* (a metric appearing or
        vanishing) must therefore round-trip the control pipe before
        returning, or an event dispatched right after the DDL could be
        processed against the old metric set and diverge from the
        single-process reference.
        """
        try:
            self.supervisor.request_checkpoints(with_state=False)
        except EngineError:
            pass  # a worker died mid-barrier; its restart replays the log

    def evolve_schema(self, stream: str, new_fields: object) -> None:
        """Append fields to a stream schema (old chunks stay readable)."""
        self._publish_op(EvolveSchemaOp(stream, _normalize_fields(new_fields)))

    def add_partitioner(self, stream: str, partitioner: str) -> None:
        """Add a top-level partitioner after stream creation (§4)."""
        if validate_new_partitioner(self.catalog, stream, partitioner) is None:
            return
        op = AddPartitionerOp(stream, partitioner)
        self._publish_op(op)
        self._broadcast_frontends(op)
        self._rebalance()

    def _publish_op(self, op: object) -> None:
        """Count and apply one DDL op, then replicate it to every worker
        (the op is its own control frame)."""
        self._published += 1
        self.catalog.apply(op)
        self.supervisor.broadcast_control(op)

    def _broadcast_frontends(self, msg: object) -> bytes:
        frame = wire.encode(msg)
        for handle in self._frontends.values():
            handle.journal.append((-1, frame))
            try:
                handle.conn.send_bytes(frame)
            except OSError:
                pass  # dead frontend; the respawn replays the journal
        return frame

    def _event_tasks(self) -> list[TopicPartition]:
        tasks: list[TopicPartition] = []
        for stream in self.catalog.streams.values():
            for partitioner in stream.partitioners:
                count = 1 if partitioner == GLOBAL_PARTITIONER else stream.partitions
                topic = topic_name(stream.name, partitioner)
                tasks.extend(TopicPartition(topic, i) for i in range(count))
        return sorted(tasks, key=str)

    # -- the data path --------------------------------------------------------

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
                event_id = f"client-{self._published:012d}"
            event = Event(event_id, timestamp, fields)
        metrics = self.metrics
        batch_started = metrics.now()
        correlation = self._route_and_ship(stream, [event])[0]
        metrics.counter_add("engine_batches_in_total")
        metrics.counter_add("engine_events_in_total")
        for _ in range(max_rounds):
            reply = self.completed.pop(correlation, None)
            if reply is not None:
                metrics.counter_add("engine_replies_out_total")
                metrics.observe_since("engine_batch_ms", batch_started)
                return reply
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
        with metrics.time_stage("engine_ingest_ms"):
            events: list[Event] = []
            base_id = self._published
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
            correlations = self._route_and_ship(stream, events)
        metrics.counter_add("engine_batches_in_total")
        metrics.counter_add("engine_events_in_total", len(events))
        outstanding = set(correlations)
        for _ in range(max_rounds):
            if not outstanding:
                break
            self.pump()
            if self.completed:
                outstanding.difference_update(self.completed)
        if outstanding:
            raise EngineError(
                f"{len(outstanding)} of {len(correlations)} batched replies did "
                f"not complete within {max_rounds} pump rounds"
            )
        with metrics.time_stage("engine_reply_ms"):
            replies = [
                self.completed.pop(correlation) for correlation in correlations
            ]
        metrics.counter_add("engine_replies_out_total", len(replies))
        metrics.observe_since("engine_batch_ms", batch_started)
        return replies

    # -- thread-safe submission (the asyncio front door) ----------------------

    def submit_batch(self, stream: str, events: list[Event], on_reply) -> None:
        """Queue a batch for routing from another thread.

        ``on_reply(index, reply)`` fires on the thread running
        :meth:`service_step` once the ``index``-th event's fan-in
        completes; replies may complete (and fire) in any order. A batch
        refused whole before anything is routed fires ``on_reply(None,
        error)`` once instead. May be
        called from any thread — the ingest server's asyncio loop hands
        work to the router's service thread through exactly this hook.
        """
        self._submissions.put(("batch", stream, list(events), on_reply))

    def submit_call(self, fn, on_done) -> None:
        """Queue an arbitrary control-plane call (DDL, stats) from
        another thread; ``on_done(result, error)`` fires on the service
        thread with whichever of the two the call produced."""
        self._submissions.put(("call", fn, None, on_done))

    def submission_backlog(self) -> int:
        """Submissions accepted but not yet routed (queue-depth input
        for admission control)."""
        return self._submissions.qsize()

    def service_outstanding(self) -> int:
        """Submitted work not yet answered: queued submissions plus
        routed correlations whose fan-in has not completed."""
        return len(self._service_pending) + self._submissions.qsize()

    def service_step(self) -> int:
        """One service-thread round: drain submissions, pump, deliver.

        The front-door server runs this in a dedicated thread; the
        blocking wait inside :meth:`pump` (10ms on reply pipes when
        idle) doubles as the loop's pacing, so an idle server costs one
        wakeup per 10ms rather than a spin.
        """
        handled = 0
        while True:
            try:
                kind, a, b, callback = self._submissions.get_nowait()
            except queue.Empty:
                break
            if kind == "batch":
                published = self._published
                try:
                    correlations = self._route_and_ship(a, b)
                except ReproError as exc:
                    if self._published != published:
                        raise
                    # Refused whole before anything was routed (schema
                    # violation, unknown stream): the submitter's
                    # problem, not the service thread's.
                    callback(None, exc)
                    continue
                self.metrics.counter_add("engine_batches_in_total")
                self.metrics.counter_add("engine_events_in_total", len(b))
                for index, correlation in enumerate(correlations):
                    self._service_pending[correlation] = (callback, index)
                handled += len(correlations)
            else:
                try:
                    result = a()
                except Exception as exc:
                    callback(None, exc)
                else:
                    callback(result, None)
                handled += 1
        handled += self.pump()
        if self._service_pending and self.completed:
            for correlation in list(self.completed):
                entry = self._service_pending.pop(correlation, None)
                if entry is None:
                    continue  # a direct send/send_batch owns this reply
                reply = self.completed.pop(correlation)
                callback, index = entry
                self.metrics.counter_add("engine_replies_out_total")
                callback(index, reply)
        return handled

    def _route_and_ship(self, stream: str, events: list[Event]) -> list[int]:
        """Hash, bucket per frontend, frame and ship a run of events.

        The per-event hot path of the router: ``partition_for`` on each
        partitioner key (identical placement to the single-process bus),
        a pending-fanin entry, and one encoded entry per owning
        frontend. Frames are journaled before they are sent, so a
        frontend crash mid-ship loses nothing.
        """
        with self.metrics.time_stage("engine_dispatch_ms"):
            return self._route_and_ship_inner(stream, events)

    def _route_and_ship_inner(self, stream: str, events: list[Event]) -> list[int]:
        span = None
        if self.metrics.enabled:
            # One span per routed run; it rides the IngestBatch frames
            # and the frontends re-stamp it onto their WorkBatches.
            self._span_seq += 1
            span = f"router-{self._span_seq}"
        stream_def = self.catalog.streams.get(stream)
        if stream_def is None:
            raise EngineError(f"unknown stream {stream!r}")
        # Before the first pending entry: a bad batch is rejected whole.
        stream_def.schema().validate_events(events)
        expected = len(stream_def.topics())
        now = self.clock.now()
        partitioner_meta = [
            (
                partitioner,
                1 if partitioner == GLOBAL_PARTITIONER else stream_def.partitions,
                topic_name(stream, partitioner),
            )
            for partitioner in stream_def.partitioners
        ]
        buckets: dict[str, list] = {}
        correlations: list[int] = []
        pending = self.pending
        fe_owner = self._fe_owner
        for event in events:
            correlation = self._next_correlation
            self._next_correlation += 1
            per_frontend: dict[str, list[tuple[str, int]]] = {}
            for partitioner, partitions, topic in partitioner_meta:
                key = (
                    "__global__"
                    if partitioner == GLOBAL_PARTITIONER
                    else event.get(partitioner)
                )
                partition = partition_for(key, partitions)
                owner = fe_owner.get(TopicPartition(topic, partition))
                if owner is None:
                    raise EngineError(
                        f"partition {topic}-{partition} has no frontend owner"
                    )
                per_frontend.setdefault(owner, []).append((partitioner, partition))
            pending[correlation] = _PendingFanin(event, stream, expected, now)
            self._published += expected
            for owner, targets in per_frontend.items():
                buckets.setdefault(owner, []).append(
                    (correlation, event, tuple(targets))
                )
            correlations.append(correlation)
        for frontend_id, entries in buckets.items():
            handle = self._frontends[frontend_id]
            self.metrics.counter_add(
                "router_events_routed_total", len(entries), label=frontend_id
            )
            for start in range(0, len(entries), self.ingest_max):
                frame = wire.encode(
                    wire.IngestBatch(
                        stream,
                        entries[start:start + self.ingest_max],
                        (span, ()) if span is not None else None,
                    )
                )
                handle.journal.append((handle.ingest_seq, frame))
                handle.ingest_seq += 1
                try:
                    handle.conn.send_bytes(frame)
                except OSError:
                    continue  # dead frontend; the respawn replays the journal
                # Keep the reply direction drained while we flood the
                # ingest direction — a full reply pipe would wedge the
                # frontend and, transitively, this send.
                self._drain_replies()
        return correlations

    # -- the world loop -------------------------------------------------------

    def pump(self) -> int:
        """One router round: drain replies, police processes, cadence."""
        self.clock.advance(self.tick_ms)
        with self.metrics.time_stage("engine_collect_ms"):
            handled = self._drain_replies()
            self.supervisor.poll(0.0)
        for job in self._backfills:
            handled += job.step()
        self._truncate_durable_logs()
        self._raise_on_errors()
        self._respawn_dead_frontends()
        if handled == 0:
            # Nothing moved: block briefly on reply traffic instead of
            # spinning — the router must yield the core to its children.
            with self.metrics.time_stage("engine_collect_ms"):
                multiprocessing.connection.wait(
                    [handle.conn for handle in self._frontends.values()], 0.01
                )
                handled += self._drain_replies()
        return handled

    def run_until_quiet(self, max_rounds: int = 20000, quiet_rounds: int = 3) -> int:
        """Pump until no replies move and no request is pending."""
        total = 0
        quiet = 0
        busy_backfill = any(not job.done for job in self._backfills)
        for _ in range(max_rounds):
            handled = self.pump()
            total += handled
            if busy_backfill:
                busy_backfill = any(not job.done for job in self._backfills)
            if handled == 0 and not self.pending and not busy_backfill:
                quiet += 1
                if quiet >= quiet_rounds:
                    return total
            else:
                quiet = 0
        return total

    def drain(self, timeout: float = 30.0) -> None:
        """Quiesce the data plane: every frontend dispatches its backlog
        and waits out its outstanding batches before acking.

        Recovery-aware: a frontend that is mid-replay after a worker
        crash acks only once the replay finished, and a frontend that
        dies while draining is respawned and re-asked.
        """
        request_id = self._next_drain
        self._next_drain += 1
        asked: dict[str, int] = {}
        for frontend_id, handle in self._frontends.items():
            asked[frontend_id] = handle.restarts
            try:
                handle.conn.send_bytes(wire.encode(wire.DrainRequest(request_id)))
            except OSError:
                pass  # respawn detected below; re-asked then
        deadline = self._time.deadline(timeout)
        while True:
            waiting = [
                frontend_id
                for frontend_id in self._frontends
                if (request_id, frontend_id) not in self._drain_acks
            ]
            if not waiting:
                break
            if deadline.expired():
                raise EngineError(f"frontends did not drain: {sorted(waiting)}")
            self.pump()
            for frontend_id in waiting:
                handle = self._frontends[frontend_id]
                if handle.restarts != asked[frontend_id]:
                    asked[frontend_id] = handle.restarts
                    try:
                        handle.conn.send_bytes(
                            wire.encode(wire.DrainRequest(request_id))
                        )
                    except OSError:
                        pass
        self._drain_acks = {
            ack for ack in self._drain_acks if ack[0] != request_id
        }

    def _truncate_durable_logs(self) -> None:
        """Checkpoint-aware retention, fanned out to the log owners.

        Whenever the (persistent) checkpoint store advanced, each
        frontend is told the stored offsets of its owned tasks and
        deletes every segment wholly below them — the on-disk footprint
        stays bounded by the segments above the minimum checkpoint.
        """
        if self.durable_dir is None:
            return
        store = self.supervisor.checkpoints
        if store.stored == self._truncated_at:
            return
        self._truncated_at = store.stored
        offsets = store.offsets()
        for handle in self._frontends.values():
            owned = tuple(
                (tp, offsets[tp])
                for tp in sorted(handle.owned, key=str)
                if offsets.get(tp, 0) > 0
            )
            if not owned:
                continue
            try:
                handle.conn.send_bytes(wire.encode(wire.TruncateLogs(owned)))
            except OSError:
                pass  # dead frontend; its respawn reopens truncated logs

    def _drain_replies(self) -> int:
        handled = 0
        for handle in self._frontends.values():
            conn = handle.conn
            try:
                while conn.poll(0):
                    handled += self._on_frontend_msg(
                        handle, wire.decode(conn.recv_bytes())
                    )
            except (EOFError, OSError):
                continue  # dead frontend; respawned by the next pump
        return handled

    def _on_frontend_msg(self, handle: FrontendHandle, msg: object) -> int:
        if isinstance(msg, wire.ReplyBatch):
            for correlation_id, topic, results in msg.replies:
                self._deliver(correlation_id, topic, results)
            self.metrics.counter_add(
                "router_replies_merged_total",
                len(msg.replies),
                label=handle.frontend_id,
            )
            if msg.stats is not None:
                self._frontend_bundles[handle.frontend_id] = msg.stats
            for tp, offset in msg.watermarks:
                if offset > self._watermarks.get(tp, 0):
                    self._watermarks[tp] = offset
            for worker_id, records, replies in msg.processed:
                self.supervisor.note_processed(worker_id, records, replies)
            if msg.durable_seq > handle.durable_seq:
                # The frontend's consistent cut covers these frames:
                # their appends are fsynced, so the journal's write-
                # ahead copies are dead weight. Control frames stay —
                # catalogue and routes live only in frontend memory.
                handle.durable_seq = msg.durable_seq
                handle.journal = [
                    entry
                    for entry in handle.journal
                    if entry[0] < 0 or entry[0] >= msg.durable_seq
                ]
            return len(msg.replies)
        if isinstance(msg, wire.DrainAck):
            self._drain_acks.add((msg.request_id, handle.frontend_id))
            for tp, offset in msg.watermarks:
                if offset > self._watermarks.get(tp, 0):
                    self._watermarks[tp] = offset
            return 1
        if isinstance(msg, wire.BackfillRecords):
            self._read_pages[(msg.tp, msg.begin)] = msg
            return 1
        if isinstance(msg, wire.WorkerError):
            self.frontend_errors.append(msg.message)
            return 0
        raise EngineError(f"unexpected frontend frame: {type(msg).__name__}")

    def _deliver(
        self, correlation_id: int, topic: str, results: dict | None
    ) -> None:
        """Fan one task reply into its pending request, topic-deduped.

        Replayed replies (worker restarts, frontend journal replays) may
        repeat a topic that already answered; counting topics — not raw
        replies — keeps the fan-in exact for multi-partitioner streams.
        """
        request = self.pending.get(correlation_id)
        if request is None or results is None or topic in request.replied:
            return
        request.replied.add(topic)
        for metric_id, values in results.items():
            request.results[metric_id] = values
        if len(request.replied) < request.expected:
            return
        del self.pending[correlation_id]
        self.completed[correlation_id] = Reply(
            event=request.event,
            stream=request.stream,
            results=request.results,
            latency_ms=self.clock.now() - request.sent_at_ms,
        )

    def _raise_on_errors(self) -> None:
        if self.supervisor.worker_errors:
            raise EngineError(
                "shard worker failed:\n" + self.supervisor.worker_errors[-1]
            )
        if self.frontend_errors:
            raise EngineError(
                "shard frontend failed:\n" + self.frontend_errors[-1]
            )

    # -- rebalance / recovery -------------------------------------------------

    def _rebalance(self) -> None:
        """(Re)shard tasks over workers *and* frontends, stickily.

        Worker-side moves get their checkpoints shipped to the new owner
        first (control pipes are drained before data sockets, so the
        restore always lands before the task's next batch); the per-task
        seek offsets then travel to the owning frontends inside
        ``FrontendAssign``. Journal copies are seek-stripped: a journal
        replay must not rewind tasks to offsets that were only ever
        meaningful at the moment of this rebalance.
        """
        tasks = self._event_tasks()
        if not tasks:
            return
        previous_worker = {
            worker_id: set(handle.assigned)
            for worker_id, handle in self.supervisor.handles.items()
        }
        worker_map = self.supervisor.assign(tasks)
        owner_of: dict[TopicPartition, str] = {}
        seeks: dict[TopicPartition, int] = {}
        for worker_id, owned in worker_map.items():
            for tp in owned:
                owner_of[tp] = worker_id
            for tp in owned - previous_worker.get(worker_id, set()):
                if self.supervisor.ship_checkpoint(worker_id, tp):
                    seeks[tp] = self.supervisor.checkpoints.offset(tp)
                else:
                    seeks[tp] = 0
        previous_fe = {
            frontend_id: set(handle.owned)
            for frontend_id, handle in self._frontends.items()
        }
        assignment = self.frontend_strategy.assign(
            tasks,
            [
                ProcessorInfo(frontend_id, frontend_id)
                for frontend_id in self._frontends
            ],
            PreviousState(active=previous_fe),
        )
        # Frontend ownership is append-only: a task, once owned, NEVER
        # moves — the owner hosts the task's only copy of its partition
        # log and replied watermark, so a move would strand both (the
        # new owner's log restarts at offset 0 and the worker would
        # treat the re-appended tail as replays: silently dropped
        # events). The strategy only places tasks it has never placed
        # before; the frontend count is fixed for the cluster's
        # lifetime, so pinning costs nothing but balance on topic
        # additions.
        placed: dict[TopicPartition, str] = {}
        for frontend_id in self._frontends:
            for tp in assignment.active.get(frontend_id, set()):
                placed[tp] = frontend_id
        for tp in tasks:
            if tp not in self._fe_owner:
                self._fe_owner[tp] = placed[tp]
        for frontend_id, handle in self._frontends.items():
            owned = {
                tp for tp, owner in self._fe_owner.items()
                if owner == frontend_id
            }
            handle.owned = owned
            routes = tuple(
                (tp, owner_of[tp], self.supervisor.worker_addr(owner_of[tp]))
                for tp in sorted(owned, key=str)
            )
            fe_seeks = tuple(
                (tp, seeks[tp]) for tp, _, _ in routes if tp in seeks
            )
            handle.journal.append(
                (-1, wire.encode(wire.FrontendAssign(routes, ())))
            )
            try:
                handle.conn.send_bytes(
                    wire.encode(wire.FrontendAssign(routes, fe_seeks))
                )
            except OSError:
                pass  # dead frontend; the respawn replays the journal
        for job in self._backfills:
            job.reset()
        self.rebalance_count += 1

    def _on_worker_restart(
        self, worker_id: str, tasks: set[TopicPartition]
    ) -> None:
        """Announce a restarted worker to every frontend owning its tasks.

        The supervisor already replayed the control log and shipped the
        stored checkpoints into the fresh process; each frontend then
        reconnects to the worker's (stable) address, rewinds the listed
        tasks to their checkpointed offsets and replays the tail with
        the replied watermark suppressing duplicates.
        """
        addr = self.supervisor.worker_addr(worker_id)
        if addr is None:
            return
        offsets = self.supervisor.checkpoints.offset
        for handle in self._frontends.values():
            # Announce to every frontend, even one with no task of the
            # restarted worker right now: the announcement is what
            # lifts a crash quarantine, and a later rebalance may route
            # this worker's address back to any frontend.
            relevant = sorted(handle.owned & tasks, key=str)
            msg = wire.WorkerRestarted(
                worker_id, addr, tuple((tp, offsets(tp)) for tp in relevant)
            )
            try:
                handle.conn.send_bytes(wire.encode(msg))
            except OSError:
                pass  # dead frontend; the respawn re-seeks via journal + seeks
        for job in self._backfills:
            job.reset(tasks)

    def _respawn_dead_frontends(self) -> None:
        for handle in self._frontends.values():
            if not handle.alive:
                self._respawn_frontend(handle)

    def _respawn_frontend(self, handle: FrontendHandle) -> None:
        """Crash recovery for a frontend: respawn + journal replay.

        Buffered frames from the dead incarnation are salvaged first
        (their replies and watermarks are valid). The fresh process gets
        ``RestoreWatermarks`` (so replayed dispatch suppresses settled
        replies and skips straight to the unreplied tail) and then the
        journal verbatim, rebuilding its partition logs with identical
        offsets. Workers replay-skip everything their state already
        holds, so the only client-visible effect is that replies which
        were in flight at the crash complete read-only.
        """
        try:
            while handle.conn.poll(0):
                self._on_frontend_msg(handle, wire.decode(handle.conn.recv_bytes()))
        except (EOFError, OSError):
            pass
        handle.process.join(timeout=1.0)
        try:
            handle.conn.close()
        except OSError:
            pass
        fresh = self._spawn_frontend(handle.frontend_id)
        handle.process = fresh.process
        handle.conn = fresh.conn
        handle.restarts += 1
        self.metrics.counter_add(
            "router_frontend_restarts_total", label=handle.frontend_id
        )
        watermarks = tuple(
            (tp, self._watermarks.get(tp, 0))
            for tp in sorted(handle.owned, key=str)
        )
        # A task whose worker frontier fell below the replied watermark
        # (a worker restarted from a stale checkpoint, and this frontend
        # died before replaying its tail) must re-ship from the frontier
        # or the gap never reaches the fresh worker's state. Ask the
        # workers for their actual frontiers so only genuinely-behind
        # tasks replay. A task absent from the acks has no processor
        # anywhere — a restarted worker still waiting for its replay —
        # so its frontier is the checkpoint-store offset (zero when no
        # checkpoint exists: full re-ship, which is exactly what a
        # stateless worker needs).
        try:
            offsets = self.supervisor.request_checkpoints()
        except EngineError:
            offsets = {}
        store_offset = self.supervisor.checkpoints.offset
        frontiers = {
            tp: offsets.get(tp, store_offset(tp)) for tp in handle.owned
        }
        seeks = tuple(
            (tp, frontiers[tp])
            for tp in sorted(handle.owned, key=str)
            if frontiers[tp] < self._watermarks.get(tp, 0)
        )
        # ingest_base aligns the fresh engine's frame numbering with the
        # pruned journal: retained ingest frames start exactly at the
        # durable cut the frontend last reported (0 when in-memory).
        handle.conn.send_bytes(
            wire.encode(
                wire.RestoreWatermarks(watermarks, seeks, handle.durable_seq)
            )
        )
        for _seq, frame in handle.journal:
            handle.conn.send_bytes(frame)
            # Keep the reply direction drained mid-replay (same
            # wedge-avoidance as the ingest path).
            self._drain_replies()

    # -- introspection / shutdown ---------------------------------------------

    def total_messages_processed(self) -> int:
        """Messages processed across workers (replays included)."""
        return self.supervisor.total_messages_processed()

    def checkpoint_offsets(self) -> dict[TopicPartition, int]:
        """Consumed offsets per task, straight from the workers."""
        return self.supervisor.request_checkpoints()

    def checkpoint_now(self) -> dict[TopicPartition, int]:
        """Take a full checkpoint of every task, synchronously."""
        return self.supervisor.request_checkpoints(with_state=True)

    def stats(self) -> dict[str, dict[str, dict[str, int]]]:
        """Merged cluster counters: per-worker and per-frontend.

        Worker counters live at the supervisor (fed by
        ``note_processed`` in this mode); frontend counters live here.
        Both halves are thin compat views over the telemetry registry
        (legacy key names, ``router_*``/``supervisor_*`` counters — see
        docs/OBSERVABILITY.md). The invariants tests assert: summed
        ``events_routed`` equals events accepted, summed worker
        ``processed`` equals records processed (replays included).
        """
        metrics = self.metrics
        return {
            "workers": self.supervisor.stats(),
            "frontends": {
                frontend_id: {
                    "events_routed": metrics.counter_value(
                        "router_events_routed_total", frontend_id
                    ),
                    "replies_merged": metrics.counter_value(
                        "router_replies_merged_total", frontend_id
                    ),
                    "restarts": handle.restarts,
                }
                for frontend_id, handle in self._frontends.items()
            },
        }

    def telemetry(self) -> dict:
        """One merged, stable-schema telemetry snapshot of the cluster.

        Router and supervisor share a registry; each frontend ships a
        bundle of its own snapshot plus the latest worker snapshots it
        absorbed, piggybacked on its reply traffic. See
        docs/OBSERVABILITY.md for the schema and the metric catalog.
        """
        snapshots = [self.metrics.snapshot()]
        for blob in self.supervisor.child_snapshots():
            try:
                snapshots.append(decode_snapshot(blob))
            except Exception:
                continue  # observation only: a torn snapshot is skipped
        for bundle in self._frontend_bundles.values():
            try:
                snapshots.extend(decode_bundle(bundle))
            except Exception:
                continue  # torn bundle: skipped, never raises
        return merge_snapshots(snapshots)

    def close(self, drain: bool = True, drain_timeout: float = 10.0) -> None:
        """Stop every frontend and worker process; idempotent.

        Drain-before-close: with ``drain=True`` (the default) the
        router first completes outstanding fan-ins — both direct
        ``send``/``send_batch`` correlations and queued front-door
        submissions — so a server shutting down mid-flight answers
        every accepted request before its processes go away. The drain
        is bounded: ``drain_timeout`` caps it overall, and a stall (no
        progress for ~50 idle rounds, e.g. after an unrecovered crash)
        abandons it early rather than hanging shutdown. A child error
        raised mid-drain likewise downgrades to an immediate teardown —
        close() must always release the process tree, so the supervisor
        shutdown and socket cleanup run even if stopping the frontends
        throws.

        Thread-safe and idempotent: concurrent calls race on one lock
        and every call after the first returns immediately. The caller
        must stop any thread running :meth:`service_step` first — close
        drains on the calling thread.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        if drain:
            deadline = self._time.deadline(drain_timeout)
            stalled = 0
            try:
                while (
                    self.pending
                    or self._service_pending
                    or self._submissions.qsize() > 0
                ):
                    if deadline.expired() or stalled > 50:
                        break
                    stalled = 0 if self.service_step() else stalled + 1
            except EngineError:
                pass  # dead child mid-drain: fall through to teardown
        try:
            for handle in self._frontends.values():
                try:
                    handle.conn.send_bytes(wire.encode(wire.Shutdown()))
                except (OSError, ValueError):
                    pass
            for handle in self._frontends.values():
                handle.process.join(timeout=2.0)
                if handle.alive:
                    handle.process.kill()
                    handle.process.join(timeout=2.0)
                try:
                    handle.conn.close()
                except OSError:
                    pass
        finally:
            self.supervisor.shutdown()
            shutil.rmtree(self._socket_dir, ignore_errors=True)

    def __enter__(self) -> "ClusterRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
