"""The shard supervisor: spawn, assign, monitor, restart — control only.

The supervisor owns N :mod:`~repro.shard.worker` processes connected by
duplex control pipes. It shards tasks over workers with the engine's
:class:`~repro.engine.assignment.StickyAssignmentStrategy` (each worker
modelled as its own single-processor node) and replays the full control
log into any worker it restarts after a crash. The pipes carry control
only — spawn/restart, DDL and assignment, ``RestoreTask``, checkpoint
request/ack, ``BackfillInstalled`` and ``WorkerError``. Work batches
never touch them: every worker listens on an AF_UNIX data socket at
:meth:`ShardSupervisor.worker_addr`, where the frontends connect, and
the frontends credit the work back through
:meth:`ShardSupervisor.note_processed` so per-worker counters and the
checkpoint cadence stay merged here.

It is also the cluster's checkpoint authority: a
:class:`CheckpointStore` keeps the latest materialized
:class:`~repro.engine.task.TaskCheckpoint` per task, fed by
``CheckpointTailAck`` frames — solicited by :meth:`request_checkpoints`,
fired periodically by the ``checkpoint_interval`` cadence, or arriving
late after their request timed out (never dropped: a stored checkpoint
is a stored checkpoint, whoever asked for it). A restarted worker gets
the control log, its assignment, and then one ``RestoreTask`` per owned
task, so recovery replays only the tail past the checkpointed offset.
With a durable directory the store persists every checkpoint through a
:class:`~repro.common.storage.FileStorage` — the supervisor itself
opens no file.

Checkpoint frames can exceed a pipe buffer, but they only flow when the
peer is guaranteed to be reading: ``RestoreTask`` goes to a freshly
spawned worker draining its setup messages, or after a quiesce plus
checkpoint refresh has emptied the data plane; large acks are absorbed
by the supervisor's regular :meth:`poll` drain.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import multiprocessing.connection
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.common import serde
from repro.common.errors import EngineError
from repro.common.storage import FileStorage
from repro.common.timesource import TimeSource, resolve_time_source
from repro.engine.assignment import (
    PreviousState,
    ProcessorInfo,
    StickyAssignmentStrategy,
)
from repro.engine.processor import UnitConfig
from repro.engine.task import TASK_CHECKPOINT, TaskCheckpoint
from repro.messaging.log import TopicPartition
from repro.shard import wire
from repro.shard.worker import shard_worker_main
from repro.telemetry import MetricsRegistry


class CheckpointStore:
    """Latest materialized checkpoint per task.

    Incoming :class:`~repro.shard.wire.TaskCheckpointFrame` payloads
    carry only what the store lacked when it advertised :meth:`held`:
    files held whole are left out, and a held segment that grew ships
    its new tail. :meth:`ingest` merges them with the stored files into
    a fully materialized :class:`TaskCheckpoint` — extending the held
    copy of a growing segment in place, so no held file is copied whole
    — and restore shipping never depends on history. A frame that names
    a file we neither received nor hold, or a tail that does not line up
    with our copy, is rejected: the previous checkpoint stays
    authoritative, which is exactly the fallback a crash between
    checkpoint request and ack needs.

    With ``durable_dir`` set, every stored checkpoint is also persisted
    to ``<durable_dir>/<task>.ckpt`` (one CRC frame, written with
    :meth:`~repro.common.storage.StorageBackend.replace` on a
    ``FileStorage``, always fully materialized) and loaded back on
    construction — a restarted coordinator recovers its whole store from
    disk and ships checkpoints into fresh workers without replaying any
    history. A checkpoint that fails its CRC on load is skipped: the
    task simply replays from offset zero, which is correct, just slower.
    """

    _SUFFIX = ".ckpt"

    def __init__(self, durable_dir: str | None = None) -> None:
        self._checkpoints: dict[TopicPartition, TaskCheckpoint] = {}
        self.stored = 0
        self.rejected = 0
        self.loaded = 0
        self._storage = FileStorage(durable_dir) if durable_dir is not None else None
        if self._storage is not None:
            self._load()

    def _load(self) -> None:
        for name in self._storage.list():
            if not name.endswith(self._SUFFIX):
                continue
            try:
                payload, _ = serde.read_frame(self._storage.read_all(name), 0)
                checkpoint, _ = TASK_CHECKPOINT.read(memoryview(payload), 0)
            except Exception:
                continue  # torn write: replay-from-zero covers the task
            files = checkpoint.reservoir_files
            for file_name in files.keys() - checkpoint.reservoir_sealed:
                files[file_name] = bytearray(files[file_name])
            self._checkpoints[checkpoint.tp] = checkpoint
            self.loaded += 1

    def _persist(self, checkpoint: TaskCheckpoint) -> None:
        payload = bytearray()
        TASK_CHECKPOINT.write(payload, checkpoint)
        framed = bytearray()
        serde.write_frame(framed, payload)
        self._storage.replace(f"{checkpoint.tp}{self._SUFFIX}", bytes(framed))

    def __len__(self) -> int:
        return len(self._checkpoints)

    def get(self, tp: TopicPartition) -> TaskCheckpoint | None:
        """The latest materialized checkpoint of a task, if any.

        Its growing segments are snapshots: a later :meth:`ingest`
        extends the store's own copies, never what this returned.
        """
        checkpoint = self._checkpoints.get(tp)
        if checkpoint is None:
            return None
        return dataclasses.replace(
            checkpoint,
            reservoir_files={
                name: bytes(data) if isinstance(data, bytearray) else data
                for name, data in checkpoint.reservoir_files.items()
            },
        )

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

    def held(self, tp: TopicPartition) -> tuple[tuple[str, int], ...]:
        """``(name, size)`` of every file held for a task, in name order:
        the advertisement a worker ships against."""
        checkpoint = self._checkpoints.get(tp)
        if checkpoint is None:
            return ()
        files = {**checkpoint.reservoir_files, **checkpoint.state_files}
        return tuple((name, len(files[name])) for name in sorted(files))

    def ingest(self, frame: wire.TaskCheckpointFrame) -> bool:
        """Materialize and store one frame; False when rejected."""
        checkpoint = frame.checkpoint
        stored = self._checkpoints.get(checkpoint.tp)
        if stored is not None and checkpoint.offset < stored.offset:
            self.rejected += 1  # late frame older than what we hold
            return False
        held_reservoir = stored.reservoir_files if stored is not None else {}
        held_state = stored.state_files if stored is not None else {}
        reservoir_names = checkpoint.reservoir_sealed | checkpoint.reservoir_files.keys()
        state_names = checkpoint.state_checkpoint.all_files()
        bases = checkpoint.file_bases
        if not (
            _lines_up(reservoir_names, checkpoint.reservoir_files, bases, held_reservoir)
            and _lines_up(state_names, checkpoint.state_files, bases, held_state)
        ):
            self.rejected += 1
            return False
        growing = checkpoint.reservoir_files.keys() - checkpoint.reservoir_sealed
        checkpoint.reservoir_files = _merge(
            reservoir_names, checkpoint.reservoir_files, bases, held_reservoir, growing
        )
        checkpoint.state_files = _merge(
            state_names, checkpoint.state_files, bases, held_state, set()
        )
        checkpoint.file_bases = {}
        self._checkpoints[checkpoint.tp] = checkpoint
        self.stored += 1
        if self._storage is not None:
            self._persist(checkpoint)
        return True


def _lines_up(
    names: Iterable[str],
    shipped: dict[str, bytes],
    bases: dict[str, int],
    held: dict[str, bytes | bytearray],
) -> bool:
    """True when every file in ``names`` can be materialized from what
    a frame shipped plus the copies held.

    A file not shipped must be held; one shipped without a base is
    whole. A tail from ``base`` must start within a held copy that can
    grow (a bytearray: sealed copies never do) and agree with its bytes
    past ``base`` — two requests in flight advertise the same size, so a
    later ack may repeat what an earlier one already appended.
    """
    for name in names:
        data = shipped.get(name)
        copy = held.get(name)
        base = bases.get(name, 0)
        if data is None:
            if copy is None:
                return False
        elif base:
            if copy is None or not base <= len(copy) <= base + len(data):
                return False
            if len(copy) < base + len(data) and not isinstance(copy, bytearray):
                return False
            with memoryview(copy) as mine, memoryview(data) as theirs:
                if mine[base:] != theirs[: len(copy) - base]:
                    return False
    return True


def _merge(
    names: Iterable[str],
    shipped: dict[str, bytes],
    bases: dict[str, int],
    held: dict[str, bytes | bytearray],
    growing: set[str],
) -> dict[str, bytes | bytearray]:
    """The materialized file map of a frame :func:`_lines_up` accepted.

    A tail extends its held copy in place; a whole file that can still
    grow (``growing``: the open segments) is kept as a bytearray so the
    next tail can do the same.
    """
    merged: dict[str, bytes | bytearray] = {}
    for name in names:
        data = shipped.get(name)
        if data is None:
            merged[name] = held[name]
        elif base := bases.get(name, 0):
            copy = held[name]
            with memoryview(data) as tail:
                copy.extend(tail[len(copy) - base :])
            merged[name] = copy
        else:
            merged[name] = bytearray(data) if name in growing else data
    return merged


def default_context() -> multiprocessing.context.BaseContext:
    """Fork where available (fast, Linux/CI); spawn elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


@dataclass
class WorkerHandle:
    """One live worker process and its assignment."""

    worker_id: str
    process: multiprocessing.process.BaseProcess
    conn: multiprocessing.connection.Connection
    assigned: set[TopicPartition] = field(default_factory=set)

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


class ShardSupervisor:
    """Spawns and babysits the shard workers of one parallel cluster."""

    def __init__(
        self,
        workers: int = 2,
        unit_config: UnitConfig | None = None,
        checkpoint_interval: int | None = None,
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
        self._ctx = default_context()
        #: directory of the workers' data-socket addresses (removed with
        #: the workers on :meth:`shutdown`).
        self.listen_dir = tempfile.mkdtemp(prefix="railgun-shard-")
        self.unit_config = unit_config if unit_config is not None else UnitConfig()
        self.strategy = StickyAssignmentStrategy(0)
        #: records processed between automatic with-state checkpoint
        #: requests; None disables the cadence (explicit requests only).
        self.checkpoint_interval = checkpoint_interval
        #: with ``checkpoint_dir``, checkpoints survive this process: the
        #: store persists every frame and reloads them on construction,
        #: so a restarted coordinator recovers without replay-from-zero.
        self.checkpoints = CheckpointStore(checkpoint_dir)
        self._control_log: list[bytes] = []
        self._buffered: list[tuple[object, WorkerHandle]] = []
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
        internal buffer while a checkpoint request drained the pipes
        would otherwise be delivered by a later :meth:`poll`.
        """
        handle = self._handle(worker_id)
        self._stop_handle(handle)
        del self.handles[worker_id]
        self._forget_expected_acks(worker_id)
        self._buffered = [
            (msg, owner) for msg, owner in self._buffered if owner is not handle
        ]

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

    def worker_addr(self, worker_id: str) -> str:
        """Data-socket address of a worker (stable across restarts)."""
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
        for worker_id, handle in self.handles.items():
            owned = set(assignment.active.get(worker_id, set()))
            result[worker_id] = owned
            handle.assigned = owned
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

    def _send_checkpoint_requests(self, with_state: bool) -> tuple[int, set[str]]:
        """Send every live worker a fresh checkpoint request, advertising
        the files we hold; returns the request id and who got it (a dead
        worker is reaped later, and its restart reships its state)."""
        request_id = self._next_checkpoint_request
        self._next_checkpoint_request += 1
        sent: set[str] = set()
        for handle in self.handles.values():
            if not handle.alive:
                continue
            held = tuple(
                (tp, files)
                for tp in sorted(handle.assigned, key=str)
                if with_state and (files := self.checkpoints.held(tp))
            )
            request = wire.CheckpointTailRequest(request_id, with_state, held)
            try:
                handle.conn.send_bytes(wire.encode(request))
            except OSError:
                continue
            sent.add(handle.worker_id)
        return request_id, sent

    def begin_checkpoint(self) -> int:
        """Fire-and-forget a with-state checkpoint request to every worker.

        The acks arrive through :meth:`poll`, which routes their frames
        into the checkpoint store — no waiting, no quiesce. Returns the
        request id (or -1 when no worker was reachable).
        """
        request_id, sent = self._send_checkpoint_requests(with_state=True)
        if not sent:
            return -1
        self._inflight_checkpoints[request_id] = sent
        return request_id

    def request_checkpoints(
        self, timeout: float = 5.0, with_state: bool = False
    ) -> dict[TopicPartition, int]:
        """Ask every worker for its consumed offsets; merge the acks.

        With ``with_state`` the acks also carry checkpoint frames for
        the store, holding only what it lacks. Each ack reflects every control frame sent
        before the request and the work processed before it was read;
        frames
        drained while waiting are parked for the next :meth:`poll`. A
        worker that dies during the wait is restarted inside the loop
        and no longer waited for — a crash costs one reap, not the
        whole timeout.
        """
        request_id, waiting = self._send_checkpoint_requests(with_state)
        offsets: dict[TopicPartition, int] = {}
        parked: list[tuple[object, WorkerHandle]] = []
        deadline = self._time.deadline(timeout)
        while waiting and not deadline.expired():
            for msg, handle in self._drain(timeout=0.05):
                if isinstance(msg, wire.CheckpointTailAck):
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
        msg: wire.CheckpointTailAck,
        handle: WorkerHandle,
        expected_id: int | None = None,
    ) -> None:
        """Store an ack's checkpoint payload, whatever request it answers.

        A dropped frame would be a lost checkpoint, so payloads are
        routed into the store even when the ack is late; late acks are
        counted per worker (``supervisor_checkpoint_acks_late_total``),
        and so are the bytes the frames carried
        (``supervisor_checkpoint_bytes_total``).
        """
        shipped = 0
        for frame in msg.frames:
            shipped += frame.checkpoint.data_bytes()
            self.checkpoints.ingest(frame)
        if shipped:
            self.telemetry.counter_add(
                "supervisor_checkpoint_bytes_total", shipped, label=handle.worker_id
            )
        expected = self._inflight_checkpoints.get(msg.request_id)
        late = msg.request_id != expected_id
        if expected is not None and handle.worker_id in expected:
            late = False
            expected.discard(handle.worker_id)
            if not expected:
                del self._inflight_checkpoints[msg.request_id]
        if late:
            self.late_checkpoint_acks += 1
            self.telemetry.counter_add(
                "supervisor_checkpoint_acks_late_total", label=handle.worker_id
            )
        else:
            self.telemetry.counter_add(
                "supervisor_checkpoint_acks_total", label=handle.worker_id
            )

    def _forget_expected_acks(self, worker_id: str) -> None:
        """Stop expecting checkpoint acks from a dead/removed worker —
        its request entries would otherwise never drain."""
        for request_id in list(self._inflight_checkpoints):
            expected = self._inflight_checkpoints[request_id]
            expected.discard(worker_id)
            if not expected:
                del self._inflight_checkpoints[request_id]

    def note_processed(self, worker_id: str, records: int, replies: int) -> None:
        """Credit the work a frontend merged from one worker (the
        ``processed`` deltas of its ``ReplyBatch``es — ``BatchDone``
        frames never cross the supervisor): the per-worker counters
        behind :meth:`total_messages_processed`, and the checkpoint
        cadence :meth:`poll` fires on. Deltas of a worker that died or
        was retired meanwhile still count."""
        self.telemetry.counter_add(
            "supervisor_worker_records_total", records, label=worker_id
        )
        self.telemetry.counter_add(
            "supervisor_worker_replies_total", replies, label=worker_id
        )
        self._records_since_checkpoint += records

    def poll(self, timeout: float = 0.0) -> None:
        """Drain the control pipes; detect and restart dead workers.

        ``CheckpointTailAck`` payloads arriving here — cadence acks and
        stragglers of a timed-out :meth:`request_checkpoints` — land in
        the store (a dropped frame would be a lost checkpoint). The poll
        also drives the cadence: once ``checkpoint_interval`` records
        were credited since the last request, a fire-and-forget
        with-state request goes out.
        """
        for msg, handle in self._drain(timeout):
            if isinstance(msg, wire.CheckpointTailAck):
                self._ingest_ack(msg, handle)
            elif isinstance(msg, wire.BackfillInstalled):
                self.backfill_installed.add((msg.tp, msg.metric_id))
            elif isinstance(msg, wire.WorkerError):
                self.worker_errors.append(msg.message)
        self._reap_dead()
        if (
            self.checkpoint_interval is not None
            and self._records_since_checkpoint >= self.checkpoint_interval
        ):
            self._records_since_checkpoint = 0
            self.begin_checkpoint()

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
                    out.append((wire.decode(conn.recv_bytes()), handle))
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

        The worker drains its control pipe before its data sockets, so
        the ``RestoreTask`` lands before any later ``WorkBatch`` for the
        task: the worker seeds the task processor from the checkpoint
        and the tail replay starts from its offset.
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
        """Respawn a dead worker and rebuild its world: the control log,
        its assignment and one ``RestoreTask`` per owned task the store
        holds; the cluster's ``on_restart`` hook then replays each owned
        partition's tail (in-flight batches died with the process; the
        replay covers them too)."""
        handle.process.join(timeout=1.0)
        try:
            handle.conn.close()
        except OSError:
            pass
        self._forget_expected_acks(handle.worker_id)
        # The dead incarnation's parked splice acks are void (re-spliced).
        self._buffered = [
            (msg, owner) for msg, owner in self._buffered
            if owner is not handle or not isinstance(msg, wire.BackfillInstalled)
        ]
        fresh = self._spawn(handle.worker_id)
        handle.process = fresh.process
        handle.conn = fresh.conn
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

    # -- counters / shutdown --------------------------------------------------

    def total_messages_processed(self) -> int:
        """Messages processed across workers, retired ones included
        (replays count too)."""
        return self.telemetry.counter_sum("supervisor_worker_records_total")

    def shutdown(self) -> None:
        """Stop every worker and remove their socket directory; idempotent."""
        for handle in self.handles.values():
            self._stop_handle(handle)
        self.handles.clear()
        shutil.rmtree(self.listen_dir, ignore_errors=True)

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
