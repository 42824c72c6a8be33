"""A frontend: one slice of the front layer's partition logs and its dispatch.

A :class:`FrontendEngine` owns a sticky slice of the partition space:
its partition logs (one :class:`~repro.engine.envelope.EventEnvelope`
record per event and topic, the record the single-process engine
appends too), a :class:`~repro.messaging.consumer.PartitionView` over
them, the ``(task, offset) → correlation`` pending map and the replied
watermarks. Contiguous offset runs leave as ``WorkBatch`` frames over
AF_UNIX data sockets to the owning workers; their ``BatchDone`` replies
leave as ``ReplyBatch`` entries for the host,
:class:`~repro.shard.cluster.ShardCluster`, which speaks to the engine
in :mod:`repro.shard.wire` messages over a link — a method call in
``ParallelCluster``, a pipe to :func:`shard_frontend_main` in
``ClusterRouter``. :meth:`FrontendEngine.turn` is one loop pass either
way. Invariants:

- **Single writer**: only this frontend appends to its partitions, in
  ingest order, so a journal replay rebuilds byte-identical logs.
- **Reply watermark**: ``watermarks[tp]`` is replied-up-to-here;
  dispatch passes it as ``reply_from`` so workers suppress replayed
  replies below it, and offsets below it never re-enter ``pending``.
- **Credit flow control**: at most ``max_outstanding`` un-acked batches
  per worker (their sum is the ``frontend_outstanding_batches`` gauge).
- **Write-ahead cut** (a child process over its own ``durable_dir``
  only): a loop pass that ingested frames ends in a durable sync (log
  fsync, then the consistent cut), and a respawn rolls every log back to
  the cut before the router's journal replay. An engine over its host's
  bus has no cut: rolling a directory back to a cut nobody wrote would
  empty every log, and an fsync per pass would tax every batch.
"""

from __future__ import annotations

import multiprocessing.connection
import os
import socket
import traceback
from multiprocessing.connection import Connection

from repro.common.timesource import TimeSource, resolve_time_source
from repro.engine.catalog import CATALOG_OPS, GLOBAL_PARTITIONER, Catalog, topic_name
from repro.engine.envelope import EventEnvelope
from repro.engine.processor import UnitConfig
from repro.messaging.broker import MessageBus
from repro.messaging.consumer import PartitionView
from repro.messaging.durable import DurableBus, read_cut, write_cut
from repro.messaging.log import TopicPartition
from repro.replay.asof import read_page
from repro.shard import wire
from repro.shard.backfill import FrontendBackfill
from repro.telemetry import MetricsRegistry, encode_bundle, encode_snapshot

#: reply entries per ReplyBatch frame (keeps frames under pipe buffers).
REPLY_CHUNK = 512

#: records per WorkBatch: the most one dispatch polls from a partition.
BATCH_MAX = 256


def _connect(
    addr: str, deadline_s: float = 0.25, time_source: TimeSource | None = None
):
    """Connect a data socket to a worker's listener, with a short grace
    for a restarted worker rebinding its address; ``None`` when it stays
    unreachable — the caller retries on a later dispatch round, so the
    loop never stalls its host's control traffic or other workers."""
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
    """The brain of one frontend (testable without fork).

    With ``bus`` the engine appends into its host's bus (the in-process
    frontend); otherwise it owns one — disk-backed behind the
    write-ahead cut when ``durable_dir`` is set. With ``telemetry`` it
    records into its host's registry; otherwise into its own, whose
    snapshot travels home (with the latest worker snapshots) inside
    ``ReplyBatch`` bundles.
    """

    def __init__(
        self,
        frontend_id: str,
        max_outstanding: int = 2,
        durable_dir: str | None = None,
        durable_fsync: str = "batch",
        durable_segment_bytes: int = 1 << 20,
        time_source: TimeSource | None = None,
        unit_config: UnitConfig | None = None,
        bus: MessageBus | None = None,
        telemetry: MetricsRegistry | None = None,
    ) -> None:
        self._time = resolve_time_source(time_source)
        self.frontend_id = frontend_id
        self.max_outstanding = max_outstanding
        self.catalog = Catalog()
        #: the write-ahead cut's directory (a frontend over its own logs).
        self.durable_dir = durable_dir if bus is None else None
        #: ingest frames durably applied behind the cut; read back on a
        #: respawn, it makes the journal replay idempotent.
        self._durable_applied = 0
        #: sequence number the next IngestBatch will carry (implicit:
        #: the host sends ingest frames in order, exactly once each).
        self._ingest_seq = 0
        self._ingested_since_sync = 0
        self._durable_dirty = False
        if bus is not None:
            self.bus = bus
        elif self.durable_dir is not None:
            self.bus = DurableBus(
                self.durable_dir,
                fsync=durable_fsync,
                segment_bytes=durable_segment_bytes,
            )
            self._durable_applied, ends = read_cut(self.bus.storage)
            self._ingest_seq = self._durable_applied
            for tp in self.bus.all_partitions():
                # Roll every log back to the cut: appends past it came
                # from frames the journal replay will re-deliver.
                log = self.bus.log(tp)
                log.truncate_to(max(ends.get(tp, 0), log.start_offset))
        else:
            self.bus = MessageBus()
        self.view = PartitionView(self.bus)
        #: task -> owning worker id (installed by FrontendAssign).
        self.routes: dict[TopicPartition, str] = {}
        #: worker id -> data-socket address.
        self.addrs: dict[str, str] = {}
        #: worker id -> live data connection.
        self.conns: dict[str, object] = {}
        #: workers whose link failed: quarantined until the host's
        #: ``WorkerRestarted`` brings the matching seek-back —
        #: reconnecting early would feed the restarted worker offsets
        #: without their history.
        self.down: set[str] = set()
        self.outstanding: dict[str, int] = {}
        #: replied watermark per task (replies below it already reached
        #: the client; replayed work must not repeat them).
        self.watermarks: dict[TopicPartition, int] = {}
        #: shipped-but-unreplied offsets, keyed by (task, offset).
        self.pending: dict[tuple[TopicPartition, int], int] = {}
        self.draining: int | None = None
        self._ships_stats = telemetry is None
        self.telemetry = (
            telemetry
            if telemetry is not None
            else MetricsRegistry(f"frontend:{frontend_id}", time_source=self._time)
        )
        #: latest encoded registry snapshot per worker, from BatchDone.
        self.worker_snapshots: dict[str, bytes] = {}
        #: last telemetry-bundle ship time; bundles ride at most every
        #: 20ms (encoding one is the flush path's only telemetry cost).
        self._stats_shipped_at: float | None = None
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
        """Apply one host frame (control or ingest)."""
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
        elif isinstance(msg, CATALOG_OPS):
            self.catalog.apply(msg)
            for topic, count in self.catalog.event_topics().items():
                self.bus.create_topic(topic, count)
        elif isinstance(msg, wire.BackfillStart):
            if msg.metric.metric_id not in self.backfills:
                self.backfills[msg.metric.metric_id] = FrontendBackfill(self, msg)
        elif isinstance(msg, wire.BackfillStop):
            job = self.backfills.pop(msg.metric_id, None)
            if job is not None:
                job.close()
        elif isinstance(msg, wire.BackfillRead):
            # One page of an owned partition log: the host's as-of read
            # path (the host holds no partition logs of its own).
            page = read_page(self.bus, msg.tp, msg.begin, msg.max_records)
            self._records_buf.append(wire.BackfillRecords(msg.tp, msg.begin, *page))
        else:
            raise TypeError(f"unexpected frontend message: {type(msg).__name__}")

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
        """Seed replied watermarks (a respawn, or a reopened coordinator)
        and seek each task to its watermark — or lower, to an explicit
        seek for a task whose worker must get its tail re-shipped; see
        :class:`~repro.shard.wire.RestoreWatermarks`."""
        self._ingest_seq = msg.ingest_base
        for tp, offset in msg.watermarks:
            self.watermarks[tp] = offset
            self.view.seek(tp, offset)
        for tp, offset in msg.seeks:
            self.view.seek(tp, min(offset, self.view.position(tp)))

    def truncate_logs(self, msg: wire.TruncateLogs) -> None:
        """Checkpoint-aware retention on the durable logs this frontend
        writes.

        A cut is synced *first*: retention may delete completed segments
        holding records newer than the last recorded cut, and the cut's
        per-log end offsets must never fall below the retention start or
        a later recovery could not roll back to it.
        """
        if self.durable_dir is not None:
            self.sync_durable(force=True)
        else:
            self.bus.flush()
        self.bus.truncate_below(dict(msg.offsets))

    def worker_restarted(self, msg: wire.WorkerRestarted) -> None:
        """Re-link a restarted worker and rewind its tasks for replay:
        salvage the complete frames left in the old socket (valid
        pre-crash results), drop the link and its credits, seek the
        worker's tasks back to their checkpointed offsets."""
        worker_id = msg.worker_id
        conn = self.conns.get(worker_id)
        if conn is not None:
            self._absorb(worker_id, conn)
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
        """Drop a *failed* worker link and quarantine the worker (no
        reconnect, no dispatch) until ``WorkerRestarted``; planned route
        removals go through :meth:`_close_conn` and do not quarantine."""
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

        Each target gets the event's :class:`EventEnvelope`, keyed by its
        partitioner value. Each ingest frame consumes one sequence
        number; a frame whose sequence falls below the recovered durable
        cut is a write-ahead journal replay of appends the reopened logs
        already hold — it advances the sequence and nothing else.
        """
        seq = self._ingest_seq
        self._ingest_seq = seq + 1
        self.telemetry.counter_add(
            "frontend_events_ingested_total", len(msg.entries)
        )
        if seq < self._durable_applied:
            return
        stream = msg.stream
        topics = {
            partitioner: topic_name(stream, partitioner)
            for partitioner in self.catalog.streams[stream].partitioners
        }
        fanout = len(topics)
        origin = self.frontend_id
        log = self.bus.log
        appended = 0
        with self.telemetry.time_stage("frontend_ingest_ms"):
            for correlation_id, event, targets in msg.entries:
                envelope = EventEnvelope(
                    stream, event, origin, correlation_id, fanout
                )
                for partitioner, partition in targets:
                    key = (
                        "__global__"
                        if partitioner == GLOBAL_PARTITIONER
                        else event.get(partitioner)
                    )
                    log(TopicPartition(topics[partitioner], partition)).append(
                        key, envelope, event.timestamp
                    )
                appended += len(targets)
        self.bus.messages_published += appended
        self._ingested_since_sync += 1

    def sync_durable(self, force: bool = False) -> None:
        """Advance the consistent cut: fsync the logs, then the cut file.

        Ordering is the whole contract — data first, cut second — so the
        cut never describes state the disk does not hold. After the cut
        lands, every received ingest frame is durably applied; the next
        :meth:`flush` reports that count so the router can prune its
        write-ahead journal. A no-op without a cut.
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
            write_cut(self.bus.storage, self._ingest_seq, ends)
        if self._ingest_seq > self._durable_applied:
            self._durable_applied = self._ingest_seq
            self._durable_dirty = True

    def dispatch(self) -> int:
        """Ship contiguous offset runs to their owning workers."""
        with self.telemetry.time_stage("frontend_dispatch_ms"):
            shipped = self._dispatch_runs()
        self.telemetry.gauge_set(
            "frontend_outstanding_batches", sum(self.outstanding.values())
        )
        return shipped

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
            messages = self.view.poll_one(tp, BATCH_MAX)
            if not messages:
                continue
            watermark = self.watermarks.get(tp, 0)
            records = []
            for message in messages:
                envelope = message.value
                records.append((message.offset, envelope.event))
                # Offsets below the watermark are replays whose replies
                # the worker suppresses — tracking them again would leak.
                if message.offset >= watermark:
                    pending[(tp, message.offset)] = envelope.correlation_id
            trace = None
            if telemetry.enabled:
                # The send stamp lets the worker time its queue wait.
                trace = ("", (("sent_ms", telemetry.now() * 1000.0),))
            frame = wire.encode(wire.WorkBatch(tp, watermark, records, trace))
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
        self.telemetry.gauge_set(
            "frontend_outstanding_batches", sum(self.outstanding.values())
        )
        if msg.stats is not None:
            self.worker_snapshots[worker_id] = msg.stats
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
        self.telemetry.counter_add(
            "frontend_replies_collected_total", len(msg.replies)
        )

    def _absorb(self, worker_id: str, conn) -> bool:
        """Merge every complete frame waiting on a worker link; False
        when the link died."""
        try:
            while conn.poll(0):
                self.handle_batch_done(worker_id, wire.decode(conn.recv_bytes()))
        except (EOFError, OSError):
            return False
        return True

    def idle(self) -> bool:
        """True when nothing is in flight or awaiting dispatch."""
        return (
            not any(self.outstanding.values())
            and self.view.lag() == 0
            and not self._reply_buf
        )

    def turn(self, ready) -> list:
        """One pass of the frontend loop after a wait that found the
        ``ready`` connections: absorb the workers' frames, dispatch, step
        the backfills, sync the cut. Returns the frames owed to the host."""
        for worker_id, conn in list(self.conns.items()):
            if conn in ready and not self._absorb(worker_id, conn):
                # Worker died mid-stream; the host announces the restart
                # and this frontend re-seeks + replays then.
                self.link_down(worker_id)
        self.dispatch()
        for job in self.backfills.values():
            job.step()
        self.sync_durable()
        return self.flush()

    def flush(self) -> list:
        """The frames owed to the host: answered log pages, buffered
        replies and progress, and a drain's ack once idle."""
        out: list = self._records_buf
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
            # host snapshots them as replied-up-to-here / prune-up-to-
            # here, so they must never precede reply entries that could
            # still be lost with this process — a crash mid-flush must
            # leave the host's snapshot at or below the replies it
            # actually received. Telemetry rides there too: one bundle
            # of this frontend's snapshot plus the latest raw worker
            # snapshots (forwarded without re-serialising).
            bundle = None
            if self._ships_stats and self.telemetry.enabled:
                now = self.telemetry.now()
                shipped = self._stats_shipped_at
                if shipped is None or now - shipped >= 0.02:
                    bundle = encode_bundle(
                        [encode_snapshot(self.telemetry.snapshot())]
                        + list(self.worker_snapshots.values())
                    )
                    self._stats_shipped_at = now
            last = len(chunks) - 1
            for index, chunk in enumerate(chunks):
                out.append(
                    wire.ReplyBatch(
                        chunk,
                        watermarks if index == last else (),
                        processed if index == last else (),
                        self._durable_applied if index == last else 0,
                        stats=bundle if index == last else None,
                    )
                )
        if self.draining is not None and self.idle():
            out.append(wire.DrainAck(self.draining, self._sorted_watermarks()))
            self.draining = None
        return out

    def _sorted_watermarks(self) -> tuple[tuple[TopicPartition, int], ...]:
        return tuple(
            sorted(self.watermarks.items(), key=lambda pair: str(pair[0]))
        )


def shard_frontend_main(
    conn,
    frontend_id: str,
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
    ``durable_dir`` the engine hosts disk-backed logs behind its
    write-ahead cut, whose applied-frame count rides the next
    ``ReplyBatch`` so the router can prune its journal. Any exception is
    reported as a ``WorkerError`` frame before the process exits,
    mirroring the shard worker contract.
    """
    engine = FrontendEngine(
        frontend_id, max_outstanding, durable_dir,
        durable_fsync=durable_fsync,
        durable_segment_bytes=durable_segment_bytes,
        unit_config=unit_config,
    )
    parent_pid = os.getppid()
    try:
        while True:
            # A replaying shadow makes progress per loop round, not per
            # inbound frame — keep the loop hot until the stop.
            timeout = 0.01 if engine.backfills else 1.0
            ready = set(
                multiprocessing.connection.wait(
                    [conn, *engine.conns.values()], timeout
                )
            )
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
            for msg in engine.turn(ready):
                conn.send_bytes(wire.encode(msg))
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
