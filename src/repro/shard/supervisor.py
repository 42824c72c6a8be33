"""The shard supervisor: spawn, route, monitor, restart.

The supervisor owns N :mod:`~repro.shard.worker` processes connected by
duplex control pipes. It shards tasks over workers with the engine's
:class:`~repro.engine.assignment.StickyAssignmentStrategy` (each worker
modelled as its own single-processor node) and replays the full control
log into any worker it restarts after a crash. In single-coordinator
mode (:class:`~repro.shard.parallel.ParallelCluster`) it also carries
the data plane: columnar ``WorkBatch`` frames to the owning worker,
columnar ``BatchDone`` replies and stats back, over the same pipes. In
sharded-frontend mode (``listen_dir`` set) the data plane moves to
per-frontend AF_UNIX sockets and the pipes carry control only;
frontends' progress is credited back through
:meth:`ShardSupervisor.note_processed` so per-worker stats and the
checkpoint cadence stay merged here either way.

It is also the cluster's checkpoint authority: a
:class:`CheckpointStore` keeps the latest materialized
:class:`~repro.engine.task.TaskCheckpoint` per task, fed by
``CheckpointAck`` frames — solicited by :meth:`request_checkpoints`,
fired periodically by the ``checkpoint_interval`` cadence, or arriving
late after their request timed out (never dropped: a stored checkpoint
is a stored checkpoint, whoever asked for it). A restarted worker gets
the control log, its assignment, and then one ``RestoreTask`` per owned
task, so recovery replays only the tail past the checkpointed offset.

Flow control is a small credit scheme: at most ``max_outstanding``
un-acked work batches per worker. Combined with the cluster's bounded
batch size this keeps the hot-path pipe traffic strictly below OS
buffer capacity, so neither side blocks on a full pipe (a blocked
supervisor plus a blocked worker would be a classic cross-pipe
deadlock). Checkpoint frames can exceed the buffer, but they only flow
when the peer is guaranteed to be reading: ``RestoreTask`` goes to a
freshly spawned worker draining its setup messages, or after a quiesce
plus checkpoint refresh has emptied both directions; large acks are
absorbed by the supervisor's regular :meth:`poll` drain.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
from dataclasses import dataclass, field
from typing import Callable

from repro.common.errors import EngineError
from repro.common.timesource import TimeSource, resolve_time_source
from repro.engine.assignment import (
    PreviousState,
    ProcessorInfo,
    StickyAssignmentStrategy,
)
from repro.engine.processor import UnitConfig
from repro.engine.task import TASK_CHECKPOINT, TaskCheckpoint
from repro.messaging.log import TopicPartition
from repro.shard import columnar, wire
from repro.shard.worker import shard_worker_main
from repro.telemetry import MetricsRegistry


class CheckpointStore:
    """Latest materialized checkpoint per task.

    Incoming :class:`~repro.shard.wire.TaskCheckpointFrame` payloads may
    be deltas (immutable files the worker knew we already hold are
    omitted); :meth:`ingest` merges them with the previously stored
    files into a fully materialized :class:`TaskCheckpoint`, so restore
    shipping never depends on history. A frame that references a file
    we neither received nor hold is rejected — the previous checkpoint
    stays authoritative, which is exactly the fallback a crash between
    checkpoint request and ack needs.

    With ``durable_dir`` set, every stored checkpoint is also persisted
    to ``<durable_dir>/<task>.ckpt`` (CRC-guarded, written via tmp +
    atomic rename, always fully materialized) and loaded back on
    construction — a restarted coordinator recovers its whole store from
    disk and ships checkpoints into fresh workers without replaying any
    history. A checkpoint that fails its CRC on load is skipped: the
    task simply replays from offset zero, which is correct, just slower.
    """

    _SUFFIX = ".ckpt"

    def __init__(self, durable_dir: str | None = None) -> None:
        self._checkpoints: dict[TopicPartition, TaskCheckpoint] = {}
        self.durable_dir = durable_dir
        self.stored = 0
        self.rejected = 0
        self.loaded = 0
        if durable_dir is not None:
            os.makedirs(durable_dir, exist_ok=True)
            self._load()

    def _load(self) -> None:
        from repro.common import serde

        for name in sorted(os.listdir(self.durable_dir)):
            if not name.endswith(self._SUFFIX):
                continue
            path = os.path.join(self.durable_dir, name)
            with open(path, "rb") as handle:
                data = handle.read()
            try:
                crc, offset = serde.read_u32(data, 0)
                payload, _ = serde.read_bytes(data, offset)
                if serde.crc32_of(payload) != crc:
                    continue  # torn write: replay-from-zero covers the task
                checkpoint, _ = TASK_CHECKPOINT.read(memoryview(payload), 0)
            except Exception:
                continue
            self._checkpoints[checkpoint.tp] = checkpoint
            self.loaded += 1

    def _persist(self, checkpoint: TaskCheckpoint) -> None:
        from repro.common import serde

        payload = bytearray()
        TASK_CHECKPOINT.write(payload, checkpoint)
        framed = bytearray()
        serde.write_u32(framed, serde.crc32_of(payload))
        serde.write_bytes(framed, bytes(payload))
        path = os.path.join(self.durable_dir, f"{checkpoint.tp}{self._SUFFIX}")
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(framed)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        from repro.messaging.segments import fsync_dir

        fsync_dir(self.durable_dir)  # make the rename itself durable

    def __len__(self) -> int:
        return len(self._checkpoints)

    def get(self, tp: TopicPartition) -> TaskCheckpoint | None:
        """The latest materialized checkpoint of a task, if any."""
        return self._checkpoints.get(tp)

    def offset(self, tp: TopicPartition) -> int:
        """Replay start for a task: checkpointed offset, or 0."""
        checkpoint = self._checkpoints.get(tp)
        return checkpoint.offset if checkpoint is not None else 0

    def offsets(self) -> dict[TopicPartition, int]:
        """Stored checkpoint offsets per task (truncation authority)."""
        return {
            tp: checkpoint.offset
            for tp, checkpoint in self._checkpoints.items()
        }

    def known_files(self, tp: TopicPartition) -> tuple[str, ...]:
        """Immutable file names held for a task (delta advertisement)."""
        checkpoint = self._checkpoints.get(tp)
        if checkpoint is None:
            return ()
        return tuple(sorted(checkpoint.transferable_files()))

    def ingest(self, frame: wire.TaskCheckpointFrame) -> bool:
        """Materialize and store one frame; False when rejected."""
        checkpoint = frame.checkpoint
        stored = self._checkpoints.get(checkpoint.tp)
        if stored is not None and checkpoint.offset < stored.offset:
            self.rejected += 1  # late frame older than what we hold
            return False
        reservoir_cache = stored.reservoir_files if stored is not None else {}
        state_cache = stored.state_files if stored is not None else {}
        reservoir_files = dict(checkpoint.reservoir_files)
        for name in checkpoint.reservoir_sealed:
            if name in reservoir_files:
                continue
            cached = reservoir_cache.get(name)
            if cached is None:
                self.rejected += 1
                return False
            reservoir_files[name] = cached
        state_files = dict(checkpoint.state_files)
        for name in checkpoint.state_checkpoint.all_files():
            if name in state_files:
                continue
            cached = state_cache.get(name)
            if cached is None:
                self.rejected += 1
                return False
            state_files[name] = cached
        checkpoint.reservoir_files = reservoir_files
        checkpoint.state_files = state_files
        self._checkpoints[checkpoint.tp] = checkpoint
        self.stored += 1
        if self.durable_dir is not None:
            self._persist(checkpoint)
        return True


def _default_context() -> multiprocessing.context.BaseContext:
    """Fork where available (fast, Linux/CI); spawn elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


@dataclass
class WorkerHandle:
    """One live worker process and its routing state."""

    worker_id: str
    process: multiprocessing.process.BaseProcess
    conn: multiprocessing.connection.Connection
    assigned: set[TopicPartition] = field(default_factory=set)
    outstanding: int = 0
    restarts: int = 0

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


class ShardSupervisor:
    """Spawns and babysits the shard workers of one parallel cluster."""

    def __init__(
        self,
        workers: int = 2,
        unit_config: UnitConfig | None = None,
        strategy: object | None = None,
        max_outstanding: int = 2,
        checkpoint_interval: int | None = None,
        mp_context: multiprocessing.context.BaseContext | None = None,
        listen_dir: str | None = None,
        checkpoint_dir: str | None = None,
        time_source: TimeSource | None = None,
        telemetry: MetricsRegistry | None = None,
    ) -> None:
        if workers <= 0:
            raise EngineError(f"need at least one shard worker: {workers}")
        self._time = resolve_time_source(time_source)
        #: the facade usually passes its own registry so coordinator and
        #: supervisor accounting live in one snapshot; standalone use
        #: gets a private one. Per-worker counters are labeled by
        #: worker id and survive worker removal/restart.
        self.telemetry = (
            telemetry
            if telemetry is not None
            else MetricsRegistry("supervisor", time_source=self._time)
        )
        #: span id minted by the facade for the batch currently being
        #: dispatched; :meth:`submit` stamps it (plus a send timestamp)
        #: onto outgoing ``WorkBatch`` frames so workers attribute their
        #: queue wait to the right span.
        self.active_span: str | None = None
        #: latest encoded registry snapshot per worker, piggybacked on
        #: ``BatchDone`` frames. Replace semantics: a restarted worker's
        #: fresh snapshot supersedes its predecessor's.
        self._worker_snapshots: dict[str, bytes] = {}
        self._ctx = mp_context if mp_context is not None else _default_context()
        #: directory for per-worker AF_UNIX data-socket addresses. Set by
        #: the sharded-frontend router: each worker then listens for
        #: frontend data connections at :meth:`worker_addr`, and the
        #: supervisor pipe carries only the control plane. ``None``
        #: (classic ``ParallelCluster`` mode) keeps work batches on the
        #: supervisor pipe.
        self.listen_dir = listen_dir
        self.unit_config = unit_config if unit_config is not None else UnitConfig()
        self.strategy = (
            strategy if strategy is not None else StickyAssignmentStrategy(0)
        )
        self.max_outstanding = max_outstanding
        #: records processed between automatic with-state checkpoint
        #: requests; None disables the cadence (explicit requests only).
        self.checkpoint_interval = checkpoint_interval
        #: with ``checkpoint_dir``, checkpoints survive this process: the
        #: store persists every frame and reloads them on construction,
        #: so a restarted coordinator recovers without replay-from-zero.
        self.checkpoints = CheckpointStore(checkpoint_dir)
        self._control_log: list[bytes] = []
        self._buffered: list[tuple[object, WorkerHandle]] = []
        self._owners: dict[TopicPartition, str] = {}
        self._next_worker = 0
        self._next_checkpoint_request = 0
        #: fire-and-forget checkpoint requests: request id -> worker ids
        #: whose ack is still expected; acks answering anything else
        #: count as late. Entries are pruned when a worker dies or is
        #: removed, so an interrupted request cannot leak.
        self._inflight_checkpoints: dict[int, set[str]] = {}
        self._records_since_checkpoint = 0
        self.handles: dict[str, WorkerHandle] = {}
        self.restarts = 0
        self.late_checkpoint_acks = 0
        self.worker_errors: list[str] = []
        #: (task, metric_id) pairs whose backfill splice a worker acked;
        #: the cluster-side backfill job consumes and clears these.
        self.backfill_installed: set[tuple[TopicPartition, int]] = set()
        #: cluster hook invoked after a crashed worker was respawned;
        #: receives (worker_id, tasks-to-replay).
        self.on_restart: Callable[[str, set[TopicPartition]], None] | None = None
        for _ in range(workers):
            self.add_worker()

    # -- topology -------------------------------------------------------------

    def add_worker(self) -> str:
        """Spawn one more worker (empty until the next :meth:`assign`).

        A worker added after DDL happened receives the full control log,
        so its catalogue matches its siblings' before any work arrives.
        """
        worker_id = f"shard-{self._next_worker}"
        self._next_worker += 1
        handle = self._spawn(worker_id)
        for frame in self._control_log:
            handle.conn.send_bytes(frame)
        self.handles[worker_id] = handle
        return worker_id

    def remove_worker(self, worker_id: str) -> None:
        """Gracefully retire a worker (call :meth:`assign` afterwards).

        All trace of the handle goes with it: frames parked in the
        internal buffer (e.g. a ``BatchDone`` set aside while a
        checkpoint request drained the pipes) would otherwise be
        delivered by a later :meth:`poll` and mutate a dead handle's
        counters, and stale ``_owners`` entries would keep routing
        :meth:`submit` at a worker that no longer exists.
        """
        handle = self._handle(worker_id)
        self._stop_handle(handle)
        del self.handles[worker_id]
        self._forget_expected_acks(worker_id)
        self._buffered = [
            (msg, owner) for msg, owner in self._buffered if owner is not handle
        ]
        self._owners = {
            tp: owner for tp, owner in self._owners.items() if owner != worker_id
        }

    def kill_worker(self, worker_id: str) -> None:
        """SIGKILL a worker (tests: crash without cleanup)."""
        self._handle(worker_id).process.kill()

    def crash_worker(self, worker_id: str) -> None:
        """Ask a worker to hard-exit at its next message (fault injection)."""
        self._handle(worker_id).conn.send_bytes(wire.encode(wire.Crash()))

    def worker_ids(self) -> list[str]:
        """Current workers, in spawn order."""
        return list(self.handles)

    def _handle(self, worker_id: str) -> WorkerHandle:
        try:
            return self.handles[worker_id]
        except KeyError:
            raise EngineError(f"unknown shard worker {worker_id!r}") from None

    def worker_addr(self, worker_id: str) -> str | None:
        """Data-socket address of a worker (stable across restarts), or
        ``None`` when the supervisor runs without ``listen_dir``."""
        if self.listen_dir is None:
            return None
        return os.path.join(self.listen_dir, f"{worker_id}.sock")

    def _spawn(self, worker_id: str) -> WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=shard_worker_main,
            args=(
                child_conn,
                worker_id,
                self.unit_config,
                self.worker_addr(worker_id),
            ),
            name=f"railgun-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return WorkerHandle(worker_id, process, parent_conn)

    # -- control plane --------------------------------------------------------

    def broadcast_control(self, msg: object) -> None:
        """Send a DDL/schema control message to every worker; log it for
        replay into future restarts."""
        frame = wire.encode(msg)
        self._control_log.append(frame)
        for handle in self.handles.values():
            if handle.alive:
                try:
                    handle.conn.send_bytes(frame)
                except OSError:
                    pass  # dead worker; the restart replays the log

    def send_control(self, worker_id: str, msg: object) -> bool:
        """Send one control frame to one worker, outside the control log.

        For per-worker, per-incarnation traffic (backfill installs):
        the frame must *not* replay into a restarted process — its
        payload is only valid against the state the recipient held when
        it was built. Returns False when the worker is unreachable (the
        caller re-derives and re-sends after the restart).
        """
        handle = self._handle(worker_id)
        if not handle.alive:
            return False
        try:
            handle.conn.send_bytes(wire.encode(msg))
        except OSError:
            return False
        return True

    def assign(self, tasks: list[TopicPartition]) -> dict[str, set[TopicPartition]]:
        """(Re)shard ``tasks`` over the current workers, stickily.

        Only call while quiesced (no outstanding work). Returns the new
        per-worker task sets; the caller diffs against the old ones to
        decide which partitions need a replay into their new owner.
        """
        processors = [
            ProcessorInfo(worker_id, worker_id) for worker_id in self.handles
        ]
        previous = PreviousState(
            active={
                handle.worker_id: set(handle.assigned)
                for handle in self.handles.values()
            }
        )
        assignment = self.strategy.assign(tasks, processors, previous)
        result: dict[str, set[TopicPartition]] = {}
        self._owners.clear()
        for worker_id, handle in self.handles.items():
            owned = set(assignment.active.get(worker_id, set()))
            result[worker_id] = owned
            handle.assigned = owned
            for tp in owned:
                self._owners[tp] = worker_id
            if handle.alive:
                try:
                    handle.conn.send_bytes(
                        wire.encode(
                            wire.AssignPartitions(tuple(sorted(owned, key=str)))
                        )
                    )
                except OSError:
                    pass  # dead worker; the restart resends its assignment
        return result

    def owner_of(self, tp: TopicPartition) -> str | None:
        """Worker currently owning a task."""
        return self._owners.get(tp)

    def _checkpoint_request_for(
        self, request_id: int, handle: WorkerHandle, with_state: bool
    ) -> bytes:
        """Encode one worker's request, advertising files we hold."""
        known: tuple[tuple[TopicPartition, tuple[str, ...]], ...] = ()
        if with_state:
            known = tuple(
                (tp, names)
                for tp in sorted(handle.assigned, key=str)
                if (names := self.checkpoints.known_files(tp))
            )
        return wire.encode(wire.CheckpointRequest(request_id, with_state, known))

    def begin_checkpoint(self) -> int:
        """Fire-and-forget a with-state checkpoint request to every worker.

        The acks arrive through :meth:`poll`, which routes their frames
        into the checkpoint store — no waiting, no quiesce. Returns the
        request id (or -1 when no worker was reachable).
        """
        request_id = self._next_checkpoint_request
        self._next_checkpoint_request += 1
        sent: set[str] = set()
        for handle in self.handles.values():
            if not handle.alive:
                continue
            try:
                handle.conn.send_bytes(
                    self._checkpoint_request_for(request_id, handle, True)
                )
            except OSError:
                continue  # dead worker; the restart reships its state
            sent.add(handle.worker_id)
        if not sent:
            return -1
        self._inflight_checkpoints[request_id] = sent
        return request_id

    def request_checkpoints(
        self, timeout: float = 5.0, with_state: bool = False
    ) -> dict[TopicPartition, int]:
        """Ask every worker for its consumed offsets; merge the acks.

        With ``with_state`` the acks also carry full (delta) checkpoint
        frames, which land in the checkpoint store. Outstanding work is
        allowed: the pipe is FIFO, so each ack reflects every batch
        submitted before the request. ``BatchDone`` frames drained while
        waiting are parked and returned by the next :meth:`poll`.

        A worker that dies during the wait is reaped and restarted
        inside the loop and its ack is no longer waited for — restart +
        checkpointed replay will satisfy whatever the caller needed —
        so a crash costs one reap, not the whole timeout.
        """
        request_id = self._next_checkpoint_request
        self._next_checkpoint_request += 1
        waiting = set()
        for handle in self.handles.values():
            if not handle.alive:
                continue
            try:
                handle.conn.send_bytes(
                    self._checkpoint_request_for(request_id, handle, with_state)
                )
            except OSError:
                continue  # already dead: reaped below, never waited for
            waiting.add(handle.worker_id)
        offsets: dict[TopicPartition, int] = {}
        parked: list[tuple[object, WorkerHandle]] = []
        deadline = self._time.deadline(timeout)
        while waiting and not deadline.expired():
            for msg, handle in self._drain(timeout=0.05):
                if isinstance(msg, wire.CheckpointAck):
                    self._ingest_ack(msg, handle, expected_id=request_id)
                    if msg.request_id == request_id:
                        offsets.update(msg.offsets)
                        waiting.discard(handle.worker_id)
                else:
                    # Parked once, locally: re-buffering into _drain's
                    # source would re-deliver the same frames every
                    # 50 ms iteration.
                    parked.append((msg, handle))
            waiting.difference_update(self._reap_dead())
        self._buffered = parked + self._buffered
        if waiting:
            raise EngineError(f"no checkpoint ack from workers: {sorted(waiting)}")
        return offsets

    def _ingest_ack(
        self,
        msg: wire.CheckpointAck,
        handle: WorkerHandle,
        expected_id: int | None = None,
    ) -> None:
        """Store an ack's checkpoint payload, whatever request it answers.

        A dropped frame would be a lost checkpoint, so payloads are
        routed into the store even when the ack is late; late acks are
        counted per worker (visible in :meth:`stats`).
        """
        for frame in msg.frames:
            self.checkpoints.ingest(frame)
        expected = self._inflight_checkpoints.get(msg.request_id)
        if expected is not None and handle.worker_id in expected:
            expected.discard(handle.worker_id)
            if not expected:
                del self._inflight_checkpoints[msg.request_id]
            self.telemetry.counter_add(
                "supervisor_checkpoint_acks_total", label=handle.worker_id
            )
        elif expected_id is not None and msg.request_id == expected_id:
            self.telemetry.counter_add(
                "supervisor_checkpoint_acks_total", label=handle.worker_id
            )
        else:
            self.telemetry.counter_add(
                "supervisor_checkpoint_acks_late_total", label=handle.worker_id
            )
            self.late_checkpoint_acks += 1

    def _forget_expected_acks(self, worker_id: str) -> None:
        """Stop expecting checkpoint acks from a dead/removed worker —
        its request entries would otherwise never drain."""
        for request_id in list(self._inflight_checkpoints):
            expected = self._inflight_checkpoints[request_id]
            expected.discard(worker_id)
            if not expected:
                del self._inflight_checkpoints[request_id]

    # -- data plane -----------------------------------------------------------

    def can_submit(self, worker_id: str) -> bool:
        """True while the worker has spare outstanding-batch credits."""
        handle = self._handle(worker_id)
        return handle.alive and handle.outstanding < self.max_outstanding

    def submit(
        self,
        tp: TopicPartition,
        records: list,
        reply_from: int,
    ) -> None:
        """Ship one contiguous offset run to the task's owning worker.

        A send into a worker that just died (``is_alive`` lags the
        kernel reaping a SIGKILLed process) is swallowed: the next
        :meth:`poll` restarts the worker and the restart hook replays
        the partition, which re-covers the dropped records.
        """
        worker_id = self.owner_of(tp)
        if worker_id is None:
            raise EngineError(f"task {tp} is not assigned to any worker")
        handle = self._handle(worker_id)
        trace = None
        if self.telemetry.enabled:
            # Stamp the facade's span plus our send time (source-seconds
            # on the shared monotonic clock, in ms); the worker turns
            # the delta into its queue-wait observation.
            trace = (
                self.active_span or "",
                (("sent_ms", self.telemetry.now() * 1000.0),),
            )
        frame = columnar.encode(wire.WorkBatch(tp, reply_from, records, trace))
        try:
            handle.conn.send_bytes(frame)
        except OSError:
            return  # dead worker; _reap_dead restarts + replays
        handle.outstanding += 1

    def outstanding(self) -> int:
        """Un-acked work batches across all workers."""
        return sum(handle.outstanding for handle in self.handles.values())

    def note_processed(self, worker_id: str, records: int, replies: int) -> None:
        """Credit work that bypassed the supervisor pipe (router mode).

        In sharded-frontend mode ``BatchDone`` frames flow over the
        frontend↔worker data sockets, so the supervisor never sees them;
        the router reports the per-worker ``(records, replies)`` deltas
        it merged instead. This keeps two supervisor responsibilities
        whole: the per-worker counters behind :meth:`stats` /
        :meth:`total_messages_processed`, and the checkpoint cadence —
        the credited records advance ``checkpoint_interval`` exactly as
        pipe-borne ``BatchDone`` frames do (the next :meth:`poll` fires
        the with-state request once the interval is crossed). Deltas for
        a worker that died or was retired meanwhile still count toward
        the cluster totals.
        """
        self.telemetry.counter_add(
            "supervisor_worker_records_total", records, label=worker_id
        )
        self.telemetry.counter_add(
            "supervisor_worker_replies_total", replies, label=worker_id
        )
        self._records_since_checkpoint += records

    def poll(self, timeout: float = 0.0) -> list[wire.BatchDone]:
        """Collect finished batches; detect and restart dead workers.

        ``CheckpointAck`` frames arriving here — periodic cadence acks
        and stragglers from a timed-out :meth:`request_checkpoints` —
        have their checkpoint payloads routed into the store (a dropped
        frame would be a lost checkpoint); late ones are counted in
        :meth:`stats`. The poll also drives the checkpoint cadence:
        once ``checkpoint_interval`` records have been processed since
        the last request, a fire-and-forget with-state request goes out.
        """
        done: list[wire.BatchDone] = []
        for msg, handle in self._drain(timeout):
            if isinstance(msg, wire.BatchDone):
                handle.outstanding = max(0, handle.outstanding - 1)
                self.telemetry.counter_add(
                    "supervisor_worker_records_total",
                    msg.processed,
                    label=handle.worker_id,
                )
                self.telemetry.counter_add(
                    "supervisor_worker_replies_total",
                    len(msg.replies),
                    label=handle.worker_id,
                )
                if msg.stats is not None:
                    self._worker_snapshots[handle.worker_id] = msg.stats
                self._records_since_checkpoint += msg.processed
                done.append(msg)
            elif isinstance(msg, wire.CheckpointAck):
                self._ingest_ack(msg, handle)
            elif isinstance(msg, wire.BackfillInstalled):
                self.backfill_installed.add((msg.tp, msg.metric_id))
            elif isinstance(msg, wire.WorkerError):
                self.worker_errors.append(msg.message)
        self._reap_dead()
        self.telemetry.gauge_set(
            "supervisor_outstanding_batches", self.outstanding()
        )
        if (
            self.checkpoint_interval is not None
            and self._records_since_checkpoint >= self.checkpoint_interval
        ):
            self._records_since_checkpoint = 0
            self.begin_checkpoint()
        return done

    def _drain(self, timeout: float) -> list[tuple[object, WorkerHandle]]:
        out = list(self._buffered)
        self._buffered.clear()
        by_conn = {
            handle.conn: handle for handle in self.handles.values()
        }
        ready = multiprocessing.connection.wait(list(by_conn), timeout)
        for conn in ready:
            handle = by_conn[conn]
            try:
                while True:
                    out.append((columnar.decode(conn.recv_bytes()), handle))
                    # Only keep reading while more frames are buffered;
                    # otherwise recv would block.
                    if not conn.poll(0):
                        break
            except (EOFError, OSError):
                continue  # dead worker; _reap_dead restarts it
        return out

    def _reap_dead(self) -> list[str]:
        """Restart dead workers; returns the restarted worker ids."""
        restarted: list[str] = []
        for handle in self.handles.values():
            if handle.alive:
                continue
            self._restart(handle)
            restarted.append(handle.worker_id)
        return restarted

    def ship_checkpoint(self, worker_id: str, tp: TopicPartition) -> bool:
        """Send a task's stored checkpoint into a worker, if we hold one.

        Pipe FIFO guarantees the ``RestoreTask`` lands before any
        subsequent ``WorkBatch``, so the worker seeds the task processor
        from the checkpoint and the tail replay starts from its offset.
        """
        checkpoint = self.checkpoints.get(tp)
        if checkpoint is None:
            return False
        handle = self._handle(worker_id)
        if not handle.alive:
            return False
        try:
            handle.conn.send_bytes(
                wire.encode(wire.RestoreTask(wire.TaskCheckpointFrame(checkpoint)))
            )
        except OSError:
            return False  # dead worker; the restart reships its state
        return True

    def _restart(self, handle: WorkerHandle) -> None:
        """Respawn a dead worker and rebuild its world.

        The fresh process gets the full control log (catalogue), its
        previous assignment, and one ``RestoreTask`` per owned task the
        checkpoint store holds; the cluster's ``on_restart`` hook then
        replays each owned partition's tail — from the checkpointed
        offset where a checkpoint was shipped, from offset zero where
        none exists — so task state is rebuilt deterministically.
        In-flight batches died with the process; the replay covers them
        too.
        """
        handle.process.join(timeout=1.0)
        try:
            handle.conn.close()
        except OSError:
            pass
        self._forget_expected_acks(handle.worker_id)
        fresh = self._spawn(handle.worker_id)
        handle.process = fresh.process
        handle.conn = fresh.conn
        handle.outstanding = 0
        handle.restarts += 1
        self.restarts += 1
        self.telemetry.counter_add(
            "supervisor_worker_restarts_total", label=handle.worker_id
        )
        for frame in self._control_log:
            handle.conn.send_bytes(frame)
        handle.conn.send_bytes(
            wire.encode(
                wire.AssignPartitions(tuple(sorted(handle.assigned, key=str)))
            )
        )
        for tp in sorted(handle.assigned, key=str):
            self.ship_checkpoint(handle.worker_id, tp)
        if self.on_restart is not None:
            self.on_restart(handle.worker_id, set(handle.assigned))

    # -- stats / shutdown -----------------------------------------------------

    def total_messages_processed(self) -> int:
        """Messages processed across workers, retired ones included
        (replays count too)."""
        return self.telemetry.counter_sum("supervisor_worker_records_total")

    def child_snapshots(self) -> list[bytes]:
        """Latest encoded worker registry snapshots, for facade merges."""
        return list(self._worker_snapshots.values())

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-worker counters for tests and benches.

        A thin compat view over the telemetry registry: the legacy key
        names survive, the numbers come from the worker-labeled
        ``supervisor_*_total`` counters (see docs/OBSERVABILITY.md).
        """
        telemetry = self.telemetry
        return {
            worker_id: {
                "processed": telemetry.counter_value(
                    "supervisor_worker_records_total", worker_id
                ),
                "replies_sent": telemetry.counter_value(
                    "supervisor_worker_replies_total", worker_id
                ),
                "restarts": handle.restarts,
                "checkpoint_acks": telemetry.counter_value(
                    "supervisor_checkpoint_acks_total", worker_id
                ),
                "late_checkpoint_acks": telemetry.counter_value(
                    "supervisor_checkpoint_acks_late_total", worker_id
                ),
            }
            for worker_id, handle in self.handles.items()
        }

    def shutdown(self) -> None:
        """Stop every worker; idempotent."""
        for handle in self.handles.values():
            self._stop_handle(handle)
        self.handles.clear()

    def _stop_handle(self, handle: WorkerHandle) -> None:
        if handle.alive:
            try:
                handle.conn.send_bytes(wire.encode(wire.Shutdown()))
            except (OSError, ValueError):
                pass
            handle.process.join(timeout=2.0)
        if handle.alive:
            handle.process.kill()
            handle.process.join(timeout=2.0)
        try:
            handle.conn.close()
        except OSError:
            pass

    def __enter__(self) -> "ShardSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
