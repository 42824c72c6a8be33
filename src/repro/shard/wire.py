"""The shard wire protocol.

Everything that crosses the process boundary between the
:class:`~repro.shard.supervisor.ShardSupervisor` and its
:class:`~repro.shard.worker.ShardWorker` processes is a framed binary
message built from :mod:`repro.common.serde` primitives — batched work
units, batched replies, and control messages (partition assignment /
rebalance, DDL, schema evolution, checkpointing, shutdown). No pickling:
the frames are self-describing, so a worker restarted from a clean
process reconstructs state purely from the replayed control log plus the
replayed partition tail.

The two hot-path messages, :class:`WorkBatch` and :class:`BatchDone`,
cross every worker link as :mod:`repro.shard.columnar` frames (tags
29/30). Their encoders here (per-message string tables, then per-event,
per-field serde) are only that codec's whole-message fallback and the
reference the bench ladder prices it against.

Routing framing shards the coordinator itself: the client-side
``ClusterRouter`` ships events to N frontend processes as
:class:`IngestBatch` frames (each frontend owns a sticky slice of the
partition space, installed by :class:`FrontendAssign`), and frontends
return merged task replies as :class:`ReplyBatch` frames. Frontend
recovery is journal-based (:class:`RestoreWatermarks` seeds reply
suppression before the router replays its journal); worker recovery is
announced to every frontend with :class:`WorkerRestarted`;
:class:`DrainRequest`/:class:`DrainAck` quiesce the data plane before a
topology change.

Recovery framing ships whole task checkpoints: a
:class:`TaskCheckpointFrame` wraps the engine's
:class:`~repro.engine.task.TaskCheckpoint` (reservoir metadata + files +
sealed set, LSM manifest + files, iterator positions, next offset) so a
worker's state can cross the process boundary in either direction —
worker→supervisor inside a :class:`CheckpointAck`, supervisor→worker as
a :class:`RestoreTask` seeding a fresh process. Frames are delta-aware:
a :class:`CheckpointRequest` advertises the immutable files the
supervisor already holds, and the worker omits those from the frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.common import serde
from repro.common.errors import SerdeError
from repro.engine.catalog import MetricDef, StreamDef
from repro.engine.task import TaskCheckpoint
from repro.events.event import Event
from repro.lsm.db import Checkpoint
from repro.messaging.log import TopicPartition

# Supervisor -> worker.
MSG_CREATE_STREAM = 1
MSG_CREATE_METRIC = 2
MSG_DELETE_METRIC = 3
MSG_EVOLVE_SCHEMA = 4
MSG_ASSIGN = 5
MSG_WORK_BATCH = 6
MSG_CHECKPOINT_REQUEST = 7
MSG_SHUTDOWN = 8
MSG_CRASH = 9
MSG_ADD_PARTITIONER = 10
MSG_RESTORE_TASK = 11

# Worker -> supervisor.
MSG_BATCH_DONE = 16
MSG_CHECKPOINT_ACK = 17
MSG_WORKER_ERROR = 18

# Router -> frontend.
MSG_INGEST_BATCH = 19
MSG_FRONTEND_ASSIGN = 20
MSG_RESTORE_WATERMARKS = 21
MSG_WORKER_RESTARTED = 22
MSG_DRAIN_REQUEST = 23
MSG_TRUNCATE_LOGS = 26

# Frontend -> router.
MSG_REPLY_BATCH = 24
MSG_DRAIN_ACK = 25

# Tags 27 and 28 are retired, not free: they framed the shared-memory
# ring transport's handshake and doorbell, and a peer built before its
# removal must hit "unknown tag", never another message's decoder.
# (Tags 29/30 are the columnar frames in repro.shard.columnar.)

# TCP front door (remote client <-> ingest server). IngestBatch and
# ReplyBatch are reused verbatim on this plane; these frames add the
# connection handshake, admission verdicts and the remote control plane.
MSG_HELLO = 31
MSG_HELLO_ACK = 32
MSG_SERVER_BUSY = 33
MSG_DDL_REQUEST = 34
MSG_DDL_REPLY = 35
MSG_GOODBYE = 36

# Backfill splice: supervisor->worker install + worker->supervisor ack.
MSG_BACKFILL_INSTALL = 37
MSG_BACKFILL_INSTALLED = 38
# Router-mode backfill: router->frontend job control + paged log reads.
MSG_BACKFILL_START = 39
MSG_BACKFILL_STOP = 40
MSG_BACKFILL_READ = 41
MSG_BACKFILL_RECORDS = 42
MSG_BACKFILL_STALE = 43

# Telemetry introspection over the TCP front door.
MSG_STATS_REQUEST = 44
MSG_STATS_REPLY = 45


@dataclass(frozen=True)
class CreateStream:
    """Replicate a stream definition into a worker's catalogue."""

    stream: StreamDef


@dataclass(frozen=True)
class CreateMetric:
    """Register a metric on every task processor of its topic.

    ``activations`` carries the per-task dispatch frontier at DDL time
    (see :class:`repro.engine.catalog.CreateMetricOp`): a worker
    restoring a task from a pre-metric checkpoint defers the metric to
    a zero-state splice at exactly that offset, so a recovery replay
    activates it where the original incarnation did.
    """

    metric: MetricDef
    activations: tuple = ()


@dataclass(frozen=True)
class DeleteMetric:
    """Unregister a metric cluster-wide."""

    metric_id: int


@dataclass(frozen=True)
class EvolveSchema:
    """Append fields to a stream schema (old chunks stay readable)."""

    stream: str
    new_fields: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class AddPartitioner:
    """Add a top-level partitioner to an existing stream (§4)."""

    stream: str
    partitioner: str


@dataclass(frozen=True)
class AssignPartitions:
    """Full replacement of a worker's owned partition set (rebalance)."""

    partitions: tuple[TopicPartition, ...]


@dataclass
class WorkBatch:
    """One contiguous offset run of one partition, shipped for processing.

    ``reply_from`` is the supervisor's replied watermark: the worker
    processes every record (state must replay deterministically after a
    restart) but only returns replies for offsets at or above it, so a
    replayed tail never duplicates a reply the client already saw.
    """

    tp: TopicPartition
    reply_from: int
    records: list[tuple[int, Event]]
    #: Optional trace span ``(span_id, ((hop_name, ms), ...))`` — rides
    #: a telemetry tail appended after the original payload, so frames
    #: without one stay byte-identical to the pre-telemetry encoding
    #: and old frames decode with ``trace=None``.
    trace: tuple | None = None


@dataclass(frozen=True)
class CheckpointRequest:
    """Ask a worker for its per-task consumed offsets — and, with
    ``with_state``, full :class:`TaskCheckpointFrame` payloads.

    ``known_files`` maps each task to the immutable file names the
    supervisor's checkpoint store already holds; the worker strips those
    from its frames so steady-state checkpoints ship only new files.
    """

    request_id: int
    with_state: bool = False
    known_files: tuple[tuple[TopicPartition, tuple[str, ...]], ...] = ()

    def known_files_map(self) -> dict[TopicPartition, frozenset[str]]:
        """The delta-exclusion sets, keyed by task."""
        return {tp: frozenset(names) for tp, names in self.known_files}


@dataclass
class TaskCheckpointFrame:
    """One task's checkpoint crossing the process boundary.

    Wraps the engine's :class:`~repro.engine.task.TaskCheckpoint`; the
    file maps may be partial (delta transfer) — the receiver merges them
    with files it already holds before restoring.
    """

    checkpoint: TaskCheckpoint

    @property
    def tp(self) -> TopicPartition:
        return self.checkpoint.tp

    @property
    def offset(self) -> int:
        return self.checkpoint.offset


@dataclass
class RestoreTask:
    """Seed a worker's task processor from a stored checkpoint.

    Sent before any :class:`WorkBatch` for the task (pipe FIFO), with
    fully materialized file maps: the fresh process holds nothing, so
    delta exclusion never applies in this direction.
    """

    frame: TaskCheckpointFrame


@dataclass(frozen=True)
class Shutdown:
    """Graceful worker exit."""


@dataclass(frozen=True)
class Crash:
    """Fault injection (tests): the worker hard-exits mid-loop."""


@dataclass
class BatchDone:
    """Replies + progress for one :class:`WorkBatch`."""

    tp: TopicPartition
    next_offset: int
    processed: int
    replies: list[tuple[int, dict[int, dict[str, Any]] | None]]
    #: Optional trace span continuing the WorkBatch's: the worker's
    #: per-hop timings ``(span_id, ((hop_name, ms), ...))``.
    trace: tuple | None = None
    #: Optional encoded registry snapshot piggybacking the worker's
    #: telemetry back to its dispatcher (observation only).
    stats: bytes | None = None


@dataclass
class CheckpointAck:
    """Per-task consumed offsets at a consistent message boundary.

    When the request asked ``with_state``, ``frames`` carries one
    (possibly delta) :class:`TaskCheckpointFrame` per owned task.
    """

    request_id: int
    offsets: dict[TopicPartition, int]
    frames: list[TaskCheckpointFrame] = field(default_factory=list)


@dataclass(frozen=True)
class WorkerError:
    """A child-process exception (shard worker *or* frontend), surfaced
    on the control channel before the process dies."""

    message: str


@dataclass
class BackfillInstall:
    """Graft a backfilled metric into one task at an exact offset.

    Carries the shadow replay's exported state
    (:class:`~repro.engine.task.BackfillState` fields, flattened) plus
    the cut offset the export is valid at. The worker applies it the
    moment the task's ``next_offset`` reaches ``at_offset`` — splitting
    a :class:`WorkBatch` mid-run when the cut lands inside one — and
    does *not* register the metric in its catalogue: catalogue
    visibility arrives only with the completion broadcast, after every
    owner spliced.
    """

    tp: TopicPartition
    at_offset: int
    metric: MetricDef
    state_rows: list[tuple[bytes, bytes]]
    distinct_rows: list[tuple[bytes, bytes]]
    iterator_positions: dict[str, tuple[int, int]]


@dataclass(frozen=True)
class BackfillInstalled:
    """Worker ack: the named task spliced the backfilled metric."""

    tp: TopicPartition
    metric_id: int


@dataclass
class BackfillStart:
    """Router -> frontend: shadow-replay every owned task of the
    metric's topic and splice each into its worker at the dispatch cut.

    The frontends host the backfill readers in router mode — they own
    the partition logs *and* the dispatch position, so "shadow caught
    the frontier" and "nothing later was shipped yet" are decided in
    one thread and the install rides the task's own data link in
    order. ``peers`` are the topic's already-live metric defs (the
    frontend catalogue never sees metrics otherwise) and ``seeds`` the
    stored checkpoints to fall back on when retention already
    reclaimed a log's early segments. The frame is journaled while the
    job runs, so a respawned frontend resumes the replay.
    """

    metric: MetricDef
    peers: tuple[MetricDef, ...] = ()
    seeds: tuple[tuple[TopicPartition, TaskCheckpoint], ...] = ()


@dataclass(frozen=True)
class BackfillStop:
    """Router -> frontend: the backfill completed (or was abandoned);
    drop its shadows and bookkeeping."""

    metric_id: int


@dataclass(frozen=True)
class BackfillStale:
    """Worker -> frontend nack on the data link: the install's cut is
    already behind the task (``next_offset`` is the worker's frontier —
    possible when the sender restored from a snapshot that lags the
    worker, e.g. right after a frontend respawn). The frontend forgets
    the install and re-splices at a cut at or above the frontier."""

    tp: TopicPartition
    metric_id: int
    next_offset: int


@dataclass(frozen=True)
class BackfillRead:
    """Router -> frontend: page ``max_records`` log records of an owned
    task starting at ``begin`` (the as-of query's read path — the
    router holds no partition logs of its own)."""

    tp: TopicPartition
    begin: int
    max_records: int


@dataclass
class BackfillRecords:
    """Frontend -> router: one :class:`BackfillRead` page.

    ``entries`` are the ``(offset, event)`` records from ``begin``;
    ``start_offset``/``end_offset`` are the log's current retention
    floor and append frontier, so the reader can detect truncation
    below its position and knows the total replay cost.
    """

    tp: TopicPartition
    begin: int
    entries: list[tuple[int, Event]]
    start_offset: int
    end_offset: int


# -- sharded-frontend routing messages ----------------------------------------


@dataclass
class IngestBatch:
    """A run of client events routed to one frontend process.

    Each entry is ``(correlation_id, event, targets)`` where ``targets``
    lists the ``(partitioner, partition)`` pairs of this event's fan-out
    that land on partitions the receiving frontend owns. The event is
    encoded once per frontend, however many of its fan-out targets that
    frontend owns; the router keys per-key ordering on the fact that a
    given partition is owned by exactly one frontend (sticky ownership),
    so the pipe's FIFO order *is* the partition's log order.
    """

    stream: str
    entries: list[tuple[int, Event, tuple[tuple[str, int], ...]]]
    #: Optional trace span minted at the router's ``send_batch``; the
    #: frontend continues it onto the WorkBatch frames it dispatches.
    trace: tuple | None = None


@dataclass(frozen=True)
class FrontendAssign:
    """Full replacement of a frontend's routing table.

    ``routes`` holds one ``(task, worker_id, worker_addr)`` triple per
    partition the frontend owns: the sticky slice of the key space it
    appends to and dispatches from, plus the data-socket address of the
    shard worker that owns each task. ``seeks`` rewinds the named tasks
    to their checkpointed offsets after a rebalance moved them between
    workers (the frontend replays the tail into the new owner; the reply
    watermark keeps the replay silent).
    """

    routes: tuple[tuple[TopicPartition, str, str], ...]
    seeks: tuple[tuple[TopicPartition, int], ...] = ()


@dataclass(frozen=True)
class RestoreWatermarks:
    """Seed a respawned frontend's replied watermarks (crash recovery).

    Sent before the journal replay: the watermark is the router's
    replied-up-to-here record per task, so the fresh frontend skips
    re-dispatching offsets whose replies the client already saw and
    suppresses (``reply_from``) replayed replies for the rest.
    ``seeks`` lowers the replay start below the watermark for tasks
    whose owning worker has itself restarted — the worker's state may
    only reach its checkpointed offset, so the journal replay must
    re-ship from there to rebuild it (replies stay suppressed up to the
    watermark either way).

    ``ingest_base`` is the sequence number of the first ``IngestBatch``
    the replay will carry (durable frontends only): the router prunes
    ingest frames below the frontend's reported durable cut, so the
    respawned engine numbers replayed frames from the prune point and
    skips re-appending any frame its recovered cut already covers.
    """

    watermarks: tuple[tuple[TopicPartition, int], ...]
    seeks: tuple[tuple[TopicPartition, int], ...] = ()
    ingest_base: int = 0


@dataclass(frozen=True)
class TruncateLogs:
    """Checkpoint-aware retention order, router → durable frontend.

    ``offsets`` carries each owned task's stored checkpoint offset; the
    frontend syncs its durable cut, then deletes every log segment
    wholly below the offset. Never journaled — the deletion already
    happened on disk when a respawned frontend reopens its logs.
    """

    offsets: tuple[tuple[TopicPartition, int], ...]


@dataclass(frozen=True)
class WorkerRestarted:
    """Tell a frontend that a shard worker was restarted.

    The frontend drains any pre-crash frames left in the old data
    socket, reconnects to ``addr`` (the restarted worker listens on the
    same address), zeroes its outstanding-batch credits, and seeks each
    task in ``seeks`` back to its checkpointed offset so only the
    uncheckpointed tail replays.
    """

    worker_id: str
    addr: str
    seeks: tuple[tuple[TopicPartition, int], ...]


@dataclass(frozen=True)
class DrainRequest:
    """Ask a frontend to quiesce: dispatch its backlog, wait for every
    outstanding batch, then answer with a :class:`DrainAck`."""

    request_id: int


@dataclass
class ReplyBatch:
    """Completed task replies and progress, frontend -> router.

    Each reply is ``(correlation_id, topic, results)`` — the topic lets
    the router de-duplicate per-task replies exactly (a replayed reply
    for a topic that already answered must not count toward the fan-in
    a second time). ``watermarks`` carries the frontend's advanced
    replied watermarks (the router snapshots them so a frontend respawn
    can restore suppression), and ``processed`` carries per-worker
    ``(worker_id, records, replies)`` deltas that feed the supervisor's
    merged stats and checkpoint cadence.
    """

    replies: list[tuple[int, str, dict[int, dict[str, Any]] | None]]
    watermarks: tuple[tuple[TopicPartition, int], ...] = ()
    processed: tuple[tuple[str, int, int], ...] = ()
    #: durable frontends: ingest frames fsynced behind a consistent cut
    #: — the router's authority to prune its write-ahead journal.
    durable_seq: int = 0
    #: Optional trace span (last span this frontend completed).
    trace: tuple | None = None
    #: Optional telemetry *bundle* (the frontend's own snapshot plus the
    #: worker snapshots it holds), shipped on the last chunk of a flush.
    stats: bytes | None = None


@dataclass(frozen=True)
class DrainAck:
    """A frontend's answer to :class:`DrainRequest`: no outstanding
    batches, no undispatched backlog; ``watermarks`` is the full
    replied-watermark map at the quiesced point."""

    request_id: int
    watermarks: tuple[tuple[TopicPartition, int], ...]


# -- TCP front door -----------------------------------------------------------


@dataclass(frozen=True)
class Hello:
    """First frame on a front-door connection: who is calling.

    ``tenant`` selects the admission quota (token bucket, in-flight cap,
    latency budget); ``token`` authenticates when the server was
    configured with per-tenant tokens. ``protocol`` lets a future server
    reject clients it cannot speak to instead of mis-parsing them."""

    tenant: str
    token: str = ""
    protocol: int = 1


@dataclass(frozen=True)
class HelloAck:
    """The server's answer to :class:`Hello`.

    On ``ok`` the ack carries the session id (the client's event-id
    mint prefix — unique per connection, so ids never collide across
    clients) and the tenant's effective admission parameters, so a
    client can pace itself without ever seeing a ``ServerBusy``."""

    ok: bool
    session: str = ""
    error: str = ""
    max_in_flight: int = 0
    p50_budget_ms: float = 0.0
    p99_budget_ms: float = 0.0


@dataclass(frozen=True)
class ServerBusy:
    """Explicit load shed: the named correlations were NOT accepted.

    Admission control answers an over-quota or over-depth
    ``IngestBatch`` with this frame instead of buffering it — the
    client sees exactly which correlations to retry (after
    ``retry_after_ms``) and nothing is ever silently dropped."""

    reason: str
    retry_after_ms: int = 0
    correlations: tuple[int, ...] = ()


@dataclass(frozen=True)
class DdlRequest:
    """Remote control plane: one DDL call, client -> server.

    ``op`` names the facade method (``create_stream``,
    ``create_metric``, ``delete_metric``, ``evolve_schema``,
    ``add_partitioner``); the remaining fields are that method's
    arguments flattened into one generic frame — ``name`` is the
    stream, ``text`` the query or partitioner, ``fields`` the schema
    pairs, ``names`` the partitioner list, ``number`` the partition
    count or metric id, ``flag`` the backfill/global-partitioner bool."""

    request_id: int
    op: str
    name: str = ""
    text: str = ""
    fields: tuple[tuple[str, str], ...] = ()
    names: tuple[str, ...] = ()
    number: int = 0
    flag: bool = False


@dataclass(frozen=True)
class DdlReply:
    """Outcome of a :class:`DdlRequest`; ``value`` carries ints the op
    returns (the metric id of ``create_metric``, else 0)."""

    request_id: int
    ok: bool
    value: int = 0
    error: str = ""


@dataclass(frozen=True)
class Goodbye:
    """Clean client hangup: the server may drop connection state
    immediately instead of waiting for the TCP FIN to surface."""


@dataclass(frozen=True)
class StatsRequest:
    """Ask the front door for the cluster's merged telemetry snapshot."""

    request_id: int


@dataclass(frozen=True)
class StatsReply:
    """Answer to :class:`StatsRequest`: the merged snapshot (the same
    dict every facade's ``telemetry()`` returns) as canonical JSON."""

    request_id: int
    payload: bytes


# -- topic partitions ---------------------------------------------------------


def _write_tp(buf: bytearray, tp: TopicPartition) -> None:
    serde.write_str(buf, tp.topic)
    serde.write_varint(buf, tp.partition)


def _read_tp(data: memoryview, offset: int) -> tuple[TopicPartition, int]:
    topic, offset = serde.read_str(data, offset)
    partition, offset = serde.read_varint(data, offset)
    return TopicPartition(topic, partition), offset


# -- field pairs (schema fields as (name, type-name) tuples) ------------------


def _write_field_pairs(buf: bytearray, fields: Sequence[tuple[str, str]]) -> None:
    serde.write_varint(buf, len(fields))
    for name, type_name in fields:
        serde.write_str(buf, name)
        serde.write_str(buf, type_name)


def _read_field_pairs(
    data: memoryview, offset: int
) -> tuple[tuple[tuple[str, str], ...], int]:
    count, offset = serde.read_varint(data, offset)
    fields = []
    for _ in range(count):
        name, offset = serde.read_str(data, offset)
        type_name, offset = serde.read_str(data, offset)
        fields.append((name, type_name))
    return tuple(fields), offset


# -- (task, offset) pair lists (watermarks, seeks) ----------------------------


def _write_offset_pairs(
    buf: bytearray, pairs: Sequence[tuple[TopicPartition, int]]
) -> None:
    serde.write_varint(buf, len(pairs))
    for tp, offset in pairs:
        _write_tp(buf, tp)
        serde.write_varint(buf, offset)


def _read_offset_pairs(
    data: memoryview, offset: int
) -> tuple[tuple[tuple[TopicPartition, int], ...], int]:
    count, offset = serde.read_varint(data, offset)
    pairs = []
    for _ in range(count):
        tp, offset = _read_tp(data, offset)
        value, offset = serde.read_varint(data, offset)
        pairs.append((tp, value))
    return tuple(pairs), offset


# -- raw row pairs (state-store (key, value) byte rows) -----------------------


def _write_row_pairs(
    buf: bytearray, rows: Sequence[tuple[bytes, bytes]]
) -> None:
    serde.write_varint(buf, len(rows))
    for key, value in rows:
        serde.write_bytes(buf, key)
        serde.write_bytes(buf, value)


def _read_row_pairs(
    data: memoryview, offset: int
) -> tuple[list[tuple[bytes, bytes]], int]:
    count, offset = serde.read_varint(data, offset)
    rows: list[tuple[bytes, bytes]] = []
    for _ in range(count):
        key, offset = serde.read_bytes(data, offset)
        value, offset = serde.read_bytes(data, offset)
        rows.append((key, value))
    return rows, offset


def _write_metric_def(buf: bytearray, metric: MetricDef) -> None:
    serde.write_varint(buf, metric.metric_id)
    serde.write_str(buf, metric.query_text)
    serde.write_str(buf, metric.stream)
    serde.write_str(buf, metric.topic)
    serde.write_varint(buf, 1 if metric.backfill else 0)


def _read_metric_def(data: memoryview, offset: int) -> tuple[MetricDef, int]:
    metric_id, offset = serde.read_varint(data, offset)
    query_text, offset = serde.read_str(data, offset)
    stream, offset = serde.read_str(data, offset)
    topic, offset = serde.read_str(data, offset)
    backfill, offset = serde.read_varint(data, offset)
    return MetricDef(metric_id, query_text, stream, topic, bool(backfill)), offset


def _write_event_records(
    buf: bytearray, entries: list[tuple[int, Event]]
) -> None:
    # String table: distinct field names in first-seen order (the
    # WorkBatch layout).
    names: dict[str, int] = {}
    for _, event in entries:
        for name in event:
            if name not in names:
                names[name] = len(names)
    serde.write_str_list(buf, list(names))
    serde.write_varint(buf, len(entries))
    for record_offset, event in entries:
        serde.write_varint(buf, record_offset)
        serde.write_str(buf, event.event_id)
        serde.write_varint(buf, event.timestamp)
        serde.write_varint(buf, event.field_count())
        for name, value in event.items():
            serde.write_varint(buf, names[name])
            serde.write_value(buf, value)


def _read_event_records(
    data: memoryview, offset: int
) -> tuple[list[tuple[int, Event]], int]:
    names, offset = serde.read_str_list(data, offset)
    count, offset = serde.read_varint(data, offset)
    entries: list[tuple[int, Event]] = []
    for _ in range(count):
        record_offset, offset = serde.read_varint(data, offset)
        event_id, offset = serde.read_str(data, offset)
        timestamp, offset = serde.read_varint(data, offset)
        field_count, offset = serde.read_varint(data, offset)
        fields: dict[str, Any] = {}
        for _ in range(field_count):
            name_index, offset = serde.read_varint(data, offset)
            value, offset = serde.read_value(data, offset)
            fields[names[name_index]] = value
        entries.append((record_offset, Event(event_id, timestamp, fields)))
    return entries, offset


# -- task checkpoints ---------------------------------------------------------


def _write_file_map(buf: bytearray, files: Mapping[str, bytes]) -> None:
    serde.write_varint(buf, len(files))
    for name in sorted(files):
        serde.write_str(buf, name)
        serde.write_bytes(buf, files[name])


def _read_file_map(data: memoryview, offset: int) -> tuple[dict[str, bytes], int]:
    count, offset = serde.read_varint(data, offset)
    files: dict[str, bytes] = {}
    for _ in range(count):
        name, offset = serde.read_str(data, offset)
        payload, offset = serde.read_bytes(data, offset)
        files[name] = payload
    return files, offset


def _write_task_checkpoint(buf: bytearray, cp: TaskCheckpoint) -> None:
    _write_tp(buf, cp.tp)
    serde.write_varint(buf, cp.offset)
    serde.write_bytes(buf, cp.reservoir_meta)
    _write_file_map(buf, cp.reservoir_files)
    serde.write_str_list(buf, sorted(cp.reservoir_sealed))
    serde.write_bytes(buf, cp.state_checkpoint.to_bytes())
    _write_file_map(buf, cp.state_files)
    serde.write_varint(buf, len(cp.iterator_positions))
    for key in sorted(cp.iterator_positions):
        chunk_id, index = cp.iterator_positions[key]
        serde.write_str(buf, key)
        serde.write_signed_varint(buf, chunk_id)
        serde.write_signed_varint(buf, index)
    serde.write_varint(buf, len(cp.metric_ids))
    for metric_id in cp.metric_ids:
        serde.write_varint(buf, metric_id)


def _read_task_checkpoint(
    data: memoryview, offset: int
) -> tuple[TaskCheckpoint, int]:
    tp, offset = _read_tp(data, offset)
    next_offset, offset = serde.read_varint(data, offset)
    reservoir_meta, offset = serde.read_bytes(data, offset)
    reservoir_files, offset = _read_file_map(data, offset)
    sealed_names, offset = serde.read_str_list(data, offset)
    state_blob, offset = serde.read_bytes(data, offset)
    state_files, offset = _read_file_map(data, offset)
    position_count, offset = serde.read_varint(data, offset)
    positions: dict[str, tuple[int, int]] = {}
    for _ in range(position_count):
        key, offset = serde.read_str(data, offset)
        chunk_id, offset = serde.read_signed_varint(data, offset)
        index, offset = serde.read_signed_varint(data, offset)
        positions[key] = (chunk_id, index)
    metric_count, offset = serde.read_varint(data, offset)
    metric_ids = []
    for _ in range(metric_count):
        metric_id, offset = serde.read_varint(data, offset)
        metric_ids.append(metric_id)
    checkpoint = TaskCheckpoint(
        tp=tp,
        offset=next_offset,
        reservoir_meta=reservoir_meta,
        reservoir_files=reservoir_files,
        reservoir_sealed=set(sealed_names),
        state_checkpoint=Checkpoint.from_bytes(state_blob),
        state_files=state_files,
        iterator_positions=positions,
        metric_ids=tuple(metric_ids),
    )
    return checkpoint, offset


# -- telemetry tails ----------------------------------------------------------
#
# The four hot frames (WorkBatch/BatchDone/IngestBatch/ReplyBatch)
# carry telemetry as an *optional trailing section*: the original
# decoders read an exact field sequence and ignore trailing bytes, so a
# frame with no tail is byte-identical to the pre-telemetry encoding,
# an old frame decodes with ``trace``/``stats`` of ``None``, and an old
# decoder simply never looks at the tail.


def _write_telemetry_tail(
    buf: bytearray, trace: tuple | None, stats: bytes | None
) -> None:
    if trace is None and stats is None:
        return
    flags = (1 if trace is not None else 0) | (2 if stats is not None else 0)
    buf.append(flags)
    if trace is not None:
        span_id, hops = trace
        serde.write_str(buf, span_id)
        serde.write_varint(buf, len(hops))
        for stage, ms in hops:
            serde.write_str(buf, stage)
            serde.write_f64(buf, ms)
    if stats is not None:
        serde.write_bytes(buf, stats)


def _read_telemetry_tail(
    view: memoryview, offset: int
) -> tuple[tuple | None, bytes | None]:
    if offset >= len(view):
        return None, None
    flags = view[offset]
    offset += 1
    trace: tuple | None = None
    stats: bytes | None = None
    if flags & 1:
        span_id, offset = serde.read_str(view, offset)
        count, offset = serde.read_varint(view, offset)
        hops = []
        for _ in range(count):
            stage, offset = serde.read_str(view, offset)
            ms, offset = serde.read_f64(view, offset)
            hops.append((stage, ms))
        trace = (span_id, tuple(hops))
    if flags & 2:
        blob, offset = serde.read_bytes(view, offset)
        stats = bytes(blob)
    return trace, stats


# -- encoders -----------------------------------------------------------------


def encode(msg: object) -> bytes:
    """Frame a message for the pipe: 1 tag byte + typed payload."""
    buf = bytearray()
    if isinstance(msg, WorkBatch):
        _encode_work_batch(buf, msg)
    elif isinstance(msg, BatchDone):
        _encode_batch_done(buf, msg)
    elif isinstance(msg, CreateStream):
        buf.append(MSG_CREATE_STREAM)
        stream = msg.stream
        serde.write_str(buf, stream.name)
        _write_field_pairs(buf, stream.fields)
        serde.write_str_list(buf, stream.partitioners)
        serde.write_varint(buf, stream.partitions)
    elif isinstance(msg, CreateMetric):
        buf.append(MSG_CREATE_METRIC)
        metric = msg.metric
        serde.write_varint(buf, metric.metric_id)
        serde.write_str(buf, metric.query_text)
        serde.write_str(buf, metric.stream)
        serde.write_str(buf, metric.topic)
        serde.write_varint(buf, 1 if metric.backfill else 0)
        serde.write_varint(buf, len(msg.activations))
        for tp, at_offset in msg.activations:
            _write_tp(buf, tp)
            serde.write_varint(buf, at_offset)
    elif isinstance(msg, DeleteMetric):
        buf.append(MSG_DELETE_METRIC)
        serde.write_varint(buf, msg.metric_id)
    elif isinstance(msg, EvolveSchema):
        buf.append(MSG_EVOLVE_SCHEMA)
        serde.write_str(buf, msg.stream)
        _write_field_pairs(buf, msg.new_fields)
    elif isinstance(msg, AddPartitioner):
        buf.append(MSG_ADD_PARTITIONER)
        serde.write_str(buf, msg.stream)
        serde.write_str(buf, msg.partitioner)
    elif isinstance(msg, AssignPartitions):
        buf.append(MSG_ASSIGN)
        serde.write_varint(buf, len(msg.partitions))
        for tp in msg.partitions:
            _write_tp(buf, tp)
    elif isinstance(msg, CheckpointRequest):
        buf.append(MSG_CHECKPOINT_REQUEST)
        serde.write_varint(buf, msg.request_id)
        buf.append(1 if msg.with_state else 0)
        serde.write_varint(buf, len(msg.known_files))
        for tp, names in msg.known_files:
            _write_tp(buf, tp)
            serde.write_str_list(buf, list(names))
    elif isinstance(msg, RestoreTask):
        buf.append(MSG_RESTORE_TASK)
        _write_task_checkpoint(buf, msg.frame.checkpoint)
    elif isinstance(msg, Shutdown):
        buf.append(MSG_SHUTDOWN)
    elif isinstance(msg, Crash):
        buf.append(MSG_CRASH)
    elif isinstance(msg, CheckpointAck):
        buf.append(MSG_CHECKPOINT_ACK)
        serde.write_varint(buf, msg.request_id)
        serde.write_varint(buf, len(msg.offsets))
        for tp, next_offset in msg.offsets.items():
            _write_tp(buf, tp)
            serde.write_varint(buf, next_offset)
        serde.write_varint(buf, len(msg.frames))
        for frame in msg.frames:
            _write_task_checkpoint(buf, frame.checkpoint)
    elif isinstance(msg, WorkerError):
        buf.append(MSG_WORKER_ERROR)
        serde.write_str(buf, msg.message)
    elif isinstance(msg, BackfillInstall):
        buf.append(MSG_BACKFILL_INSTALL)
        _write_tp(buf, msg.tp)
        serde.write_varint(buf, msg.at_offset)
        metric = msg.metric
        serde.write_varint(buf, metric.metric_id)
        serde.write_str(buf, metric.query_text)
        serde.write_str(buf, metric.stream)
        serde.write_str(buf, metric.topic)
        serde.write_varint(buf, 1 if metric.backfill else 0)
        _write_row_pairs(buf, msg.state_rows)
        _write_row_pairs(buf, msg.distinct_rows)
        serde.write_varint(buf, len(msg.iterator_positions))
        for key in sorted(msg.iterator_positions):
            chunk_id, index = msg.iterator_positions[key]
            serde.write_str(buf, key)
            serde.write_signed_varint(buf, chunk_id)
            serde.write_signed_varint(buf, index)
    elif isinstance(msg, BackfillInstalled):
        buf.append(MSG_BACKFILL_INSTALLED)
        _write_tp(buf, msg.tp)
        serde.write_varint(buf, msg.metric_id)
    elif isinstance(msg, BackfillStart):
        buf.append(MSG_BACKFILL_START)
        _write_metric_def(buf, msg.metric)
        serde.write_varint(buf, len(msg.peers))
        for peer in msg.peers:
            _write_metric_def(buf, peer)
        serde.write_varint(buf, len(msg.seeds))
        for tp, checkpoint in msg.seeds:
            _write_tp(buf, tp)
            _write_task_checkpoint(buf, checkpoint)
    elif isinstance(msg, BackfillStop):
        buf.append(MSG_BACKFILL_STOP)
        serde.write_varint(buf, msg.metric_id)
    elif isinstance(msg, BackfillStale):
        buf.append(MSG_BACKFILL_STALE)
        _write_tp(buf, msg.tp)
        serde.write_varint(buf, msg.metric_id)
        serde.write_varint(buf, msg.next_offset)
    elif isinstance(msg, BackfillRead):
        buf.append(MSG_BACKFILL_READ)
        _write_tp(buf, msg.tp)
        serde.write_varint(buf, msg.begin)
        serde.write_varint(buf, msg.max_records)
    elif isinstance(msg, BackfillRecords):
        buf.append(MSG_BACKFILL_RECORDS)
        _write_tp(buf, msg.tp)
        serde.write_varint(buf, msg.begin)
        serde.write_varint(buf, msg.start_offset)
        serde.write_varint(buf, msg.end_offset)
        _write_event_records(buf, msg.entries)
    elif isinstance(msg, IngestBatch):
        _encode_ingest_batch(buf, msg)
    elif isinstance(msg, FrontendAssign):
        buf.append(MSG_FRONTEND_ASSIGN)
        serde.write_varint(buf, len(msg.routes))
        for tp, worker_id, addr in msg.routes:
            _write_tp(buf, tp)
            serde.write_str(buf, worker_id)
            serde.write_str(buf, addr)
        _write_offset_pairs(buf, msg.seeks)
    elif isinstance(msg, RestoreWatermarks):
        buf.append(MSG_RESTORE_WATERMARKS)
        _write_offset_pairs(buf, msg.watermarks)
        _write_offset_pairs(buf, msg.seeks)
        serde.write_varint(buf, msg.ingest_base)
    elif isinstance(msg, TruncateLogs):
        buf.append(MSG_TRUNCATE_LOGS)
        _write_offset_pairs(buf, msg.offsets)
    elif isinstance(msg, WorkerRestarted):
        buf.append(MSG_WORKER_RESTARTED)
        serde.write_str(buf, msg.worker_id)
        serde.write_str(buf, msg.addr)
        _write_offset_pairs(buf, msg.seeks)
    elif isinstance(msg, DrainRequest):
        buf.append(MSG_DRAIN_REQUEST)
        serde.write_varint(buf, msg.request_id)
    elif isinstance(msg, ReplyBatch):
        _encode_reply_batch(buf, msg)
    elif isinstance(msg, DrainAck):
        buf.append(MSG_DRAIN_ACK)
        serde.write_varint(buf, msg.request_id)
        _write_offset_pairs(buf, msg.watermarks)
    elif isinstance(msg, Hello):
        buf.append(MSG_HELLO)
        serde.write_str(buf, msg.tenant)
        serde.write_str(buf, msg.token)
        serde.write_varint(buf, msg.protocol)
    elif isinstance(msg, HelloAck):
        buf.append(MSG_HELLO_ACK)
        buf.append(1 if msg.ok else 0)
        serde.write_str(buf, msg.session)
        serde.write_str(buf, msg.error)
        serde.write_varint(buf, msg.max_in_flight)
        serde.write_f64(buf, msg.p50_budget_ms)
        serde.write_f64(buf, msg.p99_budget_ms)
    elif isinstance(msg, ServerBusy):
        buf.append(MSG_SERVER_BUSY)
        serde.write_str(buf, msg.reason)
        serde.write_varint(buf, msg.retry_after_ms)
        serde.write_varint(buf, len(msg.correlations))
        for correlation in msg.correlations:
            serde.write_varint(buf, correlation)
    elif isinstance(msg, DdlRequest):
        buf.append(MSG_DDL_REQUEST)
        serde.write_varint(buf, msg.request_id)
        serde.write_str(buf, msg.op)
        serde.write_str(buf, msg.name)
        serde.write_str(buf, msg.text)
        _write_field_pairs(buf, msg.fields)
        serde.write_str_list(buf, list(msg.names))
        serde.write_varint(buf, msg.number)
        buf.append(1 if msg.flag else 0)
    elif isinstance(msg, DdlReply):
        buf.append(MSG_DDL_REPLY)
        serde.write_varint(buf, msg.request_id)
        buf.append(1 if msg.ok else 0)
        serde.write_varint(buf, msg.value)
        serde.write_str(buf, msg.error)
    elif isinstance(msg, Goodbye):
        buf.append(MSG_GOODBYE)
    elif isinstance(msg, StatsRequest):
        buf.append(MSG_STATS_REQUEST)
        serde.write_varint(buf, msg.request_id)
    elif isinstance(msg, StatsReply):
        buf.append(MSG_STATS_REPLY)
        serde.write_varint(buf, msg.request_id)
        serde.write_bytes(buf, msg.payload)
    else:
        raise SerdeError(f"unsupported wire message: {type(msg).__name__}")
    return bytes(buf)


def _encode_work_batch(buf: bytearray, msg: WorkBatch) -> None:
    buf.append(MSG_WORK_BATCH)
    _write_tp(buf, msg.tp)
    serde.write_varint(buf, msg.reply_from)
    # String table: distinct field names in first-seen order.
    names: dict[str, int] = {}
    for _, event in msg.records:
        for name in event:
            if name not in names:
                names[name] = len(names)
    serde.write_str_list(buf, list(names))
    serde.write_varint(buf, len(msg.records))
    for offset, event in msg.records:
        serde.write_varint(buf, offset)
        serde.write_str(buf, event.event_id)
        serde.write_varint(buf, event.timestamp)
        serde.write_varint(buf, event.field_count())
        for name, value in event.items():
            serde.write_varint(buf, names[name])
            serde.write_value(buf, value)
    _write_telemetry_tail(buf, msg.trace, None)


def _encode_batch_done(buf: bytearray, msg: BatchDone) -> None:
    buf.append(MSG_BATCH_DONE)
    _write_tp(buf, msg.tp)
    serde.write_varint(buf, msg.next_offset)
    serde.write_varint(buf, msg.processed)
    # String table: distinct reply column names in first-seen order.
    columns: dict[str, int] = {}
    for _, results in msg.replies:
        if results:
            for values in results.values():
                for column in values:
                    if column not in columns:
                        columns[column] = len(columns)
    serde.write_str_list(buf, list(columns))
    serde.write_varint(buf, len(msg.replies))
    for offset, results in msg.replies:
        serde.write_varint(buf, offset)
        if results is None:
            buf.append(0)
            continue
        buf.append(1)
        serde.write_varint(buf, len(results))
        for metric_id, values in results.items():
            serde.write_varint(buf, metric_id)
            serde.write_varint(buf, len(values))
            for column, value in values.items():
                serde.write_varint(buf, columns[column])
                serde.write_value(buf, value)
    _write_telemetry_tail(buf, msg.trace, msg.stats)


def _encode_ingest_batch(buf: bytearray, msg: IngestBatch) -> None:
    buf.append(MSG_INGEST_BATCH)
    serde.write_str(buf, msg.stream)
    # String table: field names + partitioner names, first-seen order.
    names: dict[str, int] = {}
    for _, event, targets in msg.entries:
        for name in event:
            if name not in names:
                names[name] = len(names)
        for partitioner, _ in targets:
            if partitioner not in names:
                names[partitioner] = len(names)
    serde.write_str_list(buf, list(names))
    serde.write_varint(buf, len(msg.entries))
    for correlation_id, event, targets in msg.entries:
        serde.write_varint(buf, correlation_id)
        serde.write_str(buf, event.event_id)
        serde.write_varint(buf, event.timestamp)
        serde.write_varint(buf, event.field_count())
        for name, value in event.items():
            serde.write_varint(buf, names[name])
            serde.write_value(buf, value)
        serde.write_varint(buf, len(targets))
        for partitioner, partition in targets:
            serde.write_varint(buf, names[partitioner])
            serde.write_varint(buf, partition)
    _write_telemetry_tail(buf, msg.trace, None)


def _encode_reply_batch(buf: bytearray, msg: ReplyBatch) -> None:
    buf.append(MSG_REPLY_BATCH)
    # String table: topics, reply column names and worker ids.
    table: dict[str, int] = {}

    def intern(name: str) -> int:
        if name not in table:
            table[name] = len(table)
        return table[name]

    for _, topic, results in msg.replies:
        intern(topic)
        if results:
            for values in results.values():
                for column in values:
                    intern(column)
    for worker_id, _, _ in msg.processed:
        intern(worker_id)
    serde.write_str_list(buf, list(table))
    serde.write_varint(buf, len(msg.replies))
    for correlation_id, topic, results in msg.replies:
        serde.write_varint(buf, correlation_id)
        serde.write_varint(buf, table[topic])
        if results is None:
            buf.append(0)
            continue
        buf.append(1)
        serde.write_varint(buf, len(results))
        for metric_id, values in results.items():
            serde.write_varint(buf, metric_id)
            serde.write_varint(buf, len(values))
            for column, value in values.items():
                serde.write_varint(buf, table[column])
                serde.write_value(buf, value)
    _write_offset_pairs(buf, msg.watermarks)
    serde.write_varint(buf, len(msg.processed))
    for worker_id, records, replies in msg.processed:
        serde.write_varint(buf, table[worker_id])
        serde.write_varint(buf, records)
        serde.write_varint(buf, replies)
    serde.write_varint(buf, msg.durable_seq)
    _write_telemetry_tail(buf, msg.trace, msg.stats)


# -- decoders -----------------------------------------------------------------


def decode(data: bytes) -> object:
    """Decode one frame produced by :func:`encode`."""
    if not data:
        raise SerdeError("empty wire frame")
    view = memoryview(data)
    tag = view[0]
    offset = 1
    if tag == MSG_WORK_BATCH:
        return _decode_work_batch(view, offset)
    if tag == MSG_BATCH_DONE:
        return _decode_batch_done(view, offset)
    if tag == MSG_CREATE_STREAM:
        name, offset = serde.read_str(view, offset)
        fields, offset = _read_field_pairs(view, offset)
        partitioners, offset = serde.read_str_list(view, offset)
        partitions, offset = serde.read_varint(view, offset)
        return CreateStream(StreamDef(name, fields, tuple(partitioners), partitions))
    if tag == MSG_CREATE_METRIC:
        metric_id, offset = serde.read_varint(view, offset)
        query_text, offset = serde.read_str(view, offset)
        stream, offset = serde.read_str(view, offset)
        topic, offset = serde.read_str(view, offset)
        backfill, offset = serde.read_varint(view, offset)
        count, offset = serde.read_varint(view, offset)
        activations = []
        for _ in range(count):
            tp, offset = _read_tp(view, offset)
            at_offset, offset = serde.read_varint(view, offset)
            activations.append((tp, at_offset))
        return CreateMetric(
            MetricDef(metric_id, query_text, stream, topic, bool(backfill)),
            tuple(activations),
        )
    if tag == MSG_DELETE_METRIC:
        metric_id, offset = serde.read_varint(view, offset)
        return DeleteMetric(metric_id)
    if tag == MSG_EVOLVE_SCHEMA:
        stream, offset = serde.read_str(view, offset)
        new_fields, offset = _read_field_pairs(view, offset)
        return EvolveSchema(stream, new_fields)
    if tag == MSG_ADD_PARTITIONER:
        stream, offset = serde.read_str(view, offset)
        partitioner, offset = serde.read_str(view, offset)
        return AddPartitioner(stream, partitioner)
    if tag == MSG_ASSIGN:
        count, offset = serde.read_varint(view, offset)
        partitions = []
        for _ in range(count):
            tp, offset = _read_tp(view, offset)
            partitions.append(tp)
        return AssignPartitions(tuple(partitions))
    if tag == MSG_CHECKPOINT_REQUEST:
        request_id, offset = serde.read_varint(view, offset)
        with_state = bool(view[offset])
        offset += 1
        known_count, offset = serde.read_varint(view, offset)
        known: list[tuple[TopicPartition, tuple[str, ...]]] = []
        for _ in range(known_count):
            tp, offset = _read_tp(view, offset)
            names, offset = serde.read_str_list(view, offset)
            known.append((tp, tuple(names)))
        return CheckpointRequest(request_id, with_state, tuple(known))
    if tag == MSG_RESTORE_TASK:
        checkpoint, offset = _read_task_checkpoint(view, offset)
        return RestoreTask(TaskCheckpointFrame(checkpoint))
    if tag == MSG_SHUTDOWN:
        return Shutdown()
    if tag == MSG_CRASH:
        return Crash()
    if tag == MSG_CHECKPOINT_ACK:
        request_id, offset = serde.read_varint(view, offset)
        count, offset = serde.read_varint(view, offset)
        offsets: dict[TopicPartition, int] = {}
        for _ in range(count):
            tp, offset = _read_tp(view, offset)
            next_offset, offset = serde.read_varint(view, offset)
            offsets[tp] = next_offset
        frame_count, offset = serde.read_varint(view, offset)
        frames: list[TaskCheckpointFrame] = []
        for _ in range(frame_count):
            checkpoint, offset = _read_task_checkpoint(view, offset)
            frames.append(TaskCheckpointFrame(checkpoint))
        return CheckpointAck(request_id, offsets, frames)
    if tag == MSG_WORKER_ERROR:
        message, offset = serde.read_str(view, offset)
        return WorkerError(message)
    if tag == MSG_BACKFILL_INSTALL:
        tp, offset = _read_tp(view, offset)
        at_offset, offset = serde.read_varint(view, offset)
        metric_id, offset = serde.read_varint(view, offset)
        query_text, offset = serde.read_str(view, offset)
        stream, offset = serde.read_str(view, offset)
        topic, offset = serde.read_str(view, offset)
        backfill, offset = serde.read_varint(view, offset)
        state_rows, offset = _read_row_pairs(view, offset)
        distinct_rows, offset = _read_row_pairs(view, offset)
        position_count, offset = serde.read_varint(view, offset)
        positions: dict[str, tuple[int, int]] = {}
        for _ in range(position_count):
            key, offset = serde.read_str(view, offset)
            chunk_id, offset = serde.read_signed_varint(view, offset)
            index, offset = serde.read_signed_varint(view, offset)
            positions[key] = (chunk_id, index)
        return BackfillInstall(
            tp,
            at_offset,
            MetricDef(metric_id, query_text, stream, topic, bool(backfill)),
            state_rows,
            distinct_rows,
            positions,
        )
    if tag == MSG_BACKFILL_INSTALLED:
        tp, offset = _read_tp(view, offset)
        metric_id, offset = serde.read_varint(view, offset)
        return BackfillInstalled(tp, metric_id)
    if tag == MSG_BACKFILL_START:
        metric, offset = _read_metric_def(view, offset)
        peer_count, offset = serde.read_varint(view, offset)
        peers = []
        for _ in range(peer_count):
            peer, offset = _read_metric_def(view, offset)
            peers.append(peer)
        seed_count, offset = serde.read_varint(view, offset)
        seeds = []
        for _ in range(seed_count):
            tp, offset = _read_tp(view, offset)
            checkpoint, offset = _read_task_checkpoint(view, offset)
            seeds.append((tp, checkpoint))
        return BackfillStart(metric, tuple(peers), tuple(seeds))
    if tag == MSG_BACKFILL_STOP:
        metric_id, offset = serde.read_varint(view, offset)
        return BackfillStop(metric_id)
    if tag == MSG_BACKFILL_STALE:
        tp, offset = _read_tp(view, offset)
        metric_id, offset = serde.read_varint(view, offset)
        next_offset, offset = serde.read_varint(view, offset)
        return BackfillStale(tp, metric_id, next_offset)
    if tag == MSG_BACKFILL_READ:
        tp, offset = _read_tp(view, offset)
        begin, offset = serde.read_varint(view, offset)
        max_records, offset = serde.read_varint(view, offset)
        return BackfillRead(tp, begin, max_records)
    if tag == MSG_BACKFILL_RECORDS:
        tp, offset = _read_tp(view, offset)
        begin, offset = serde.read_varint(view, offset)
        start_offset, offset = serde.read_varint(view, offset)
        end_offset, offset = serde.read_varint(view, offset)
        entries, offset = _read_event_records(view, offset)
        return BackfillRecords(tp, begin, entries, start_offset, end_offset)
    if tag == MSG_INGEST_BATCH:
        return _decode_ingest_batch(view, offset)
    if tag == MSG_FRONTEND_ASSIGN:
        route_count, offset = serde.read_varint(view, offset)
        routes = []
        for _ in range(route_count):
            tp, offset = _read_tp(view, offset)
            worker_id, offset = serde.read_str(view, offset)
            addr, offset = serde.read_str(view, offset)
            routes.append((tp, worker_id, addr))
        seeks, offset = _read_offset_pairs(view, offset)
        return FrontendAssign(tuple(routes), seeks)
    if tag == MSG_RESTORE_WATERMARKS:
        watermarks, offset = _read_offset_pairs(view, offset)
        seeks, offset = _read_offset_pairs(view, offset)
        ingest_base, offset = serde.read_varint(view, offset)
        return RestoreWatermarks(watermarks, seeks, ingest_base)
    if tag == MSG_TRUNCATE_LOGS:
        offsets, offset = _read_offset_pairs(view, offset)
        return TruncateLogs(offsets)
    if tag == MSG_WORKER_RESTARTED:
        worker_id, offset = serde.read_str(view, offset)
        addr, offset = serde.read_str(view, offset)
        seeks, offset = _read_offset_pairs(view, offset)
        return WorkerRestarted(worker_id, addr, seeks)
    if tag == MSG_DRAIN_REQUEST:
        request_id, offset = serde.read_varint(view, offset)
        return DrainRequest(request_id)
    if tag == MSG_REPLY_BATCH:
        return _decode_reply_batch(view, offset)
    if tag == MSG_DRAIN_ACK:
        request_id, offset = serde.read_varint(view, offset)
        watermarks, offset = _read_offset_pairs(view, offset)
        return DrainAck(request_id, watermarks)
    if tag == MSG_HELLO:
        tenant, offset = serde.read_str(view, offset)
        token, offset = serde.read_str(view, offset)
        protocol, offset = serde.read_varint(view, offset)
        return Hello(tenant, token, protocol)
    if tag == MSG_HELLO_ACK:
        ok = bool(view[offset])
        offset += 1
        session, offset = serde.read_str(view, offset)
        error, offset = serde.read_str(view, offset)
        max_in_flight, offset = serde.read_varint(view, offset)
        p50, offset = serde.read_f64(view, offset)
        p99, offset = serde.read_f64(view, offset)
        return HelloAck(ok, session, error, max_in_flight, p50, p99)
    if tag == MSG_SERVER_BUSY:
        reason, offset = serde.read_str(view, offset)
        retry_after_ms, offset = serde.read_varint(view, offset)
        count, offset = serde.read_varint(view, offset)
        correlations = []
        for _ in range(count):
            correlation, offset = serde.read_varint(view, offset)
            correlations.append(correlation)
        return ServerBusy(reason, retry_after_ms, tuple(correlations))
    if tag == MSG_DDL_REQUEST:
        request_id, offset = serde.read_varint(view, offset)
        op, offset = serde.read_str(view, offset)
        name, offset = serde.read_str(view, offset)
        text, offset = serde.read_str(view, offset)
        fields, offset = _read_field_pairs(view, offset)
        names, offset = serde.read_str_list(view, offset)
        number, offset = serde.read_varint(view, offset)
        flag = bool(view[offset])
        offset += 1
        return DdlRequest(
            request_id, op, name, text, fields, tuple(names), number, flag
        )
    if tag == MSG_DDL_REPLY:
        request_id, offset = serde.read_varint(view, offset)
        ok = bool(view[offset])
        offset += 1
        value, offset = serde.read_varint(view, offset)
        error, offset = serde.read_str(view, offset)
        return DdlReply(request_id, ok, value, error)
    if tag == MSG_GOODBYE:
        return Goodbye()
    if tag == MSG_STATS_REQUEST:
        request_id, offset = serde.read_varint(view, offset)
        return StatsRequest(request_id)
    if tag == MSG_STATS_REPLY:
        request_id, offset = serde.read_varint(view, offset)
        payload, offset = serde.read_bytes(view, offset)
        return StatsReply(request_id, bytes(payload))
    raise SerdeError(f"unknown wire message tag {tag}")


def _decode_ingest_batch(view: memoryview, offset: int) -> IngestBatch:
    stream, offset = serde.read_str(view, offset)
    names, offset = serde.read_str_list(view, offset)
    count, offset = serde.read_varint(view, offset)
    entries: list[tuple[int, Event, tuple[tuple[str, int], ...]]] = []
    for _ in range(count):
        correlation_id, offset = serde.read_varint(view, offset)
        event_id, offset = serde.read_str(view, offset)
        timestamp, offset = serde.read_varint(view, offset)
        field_count, offset = serde.read_varint(view, offset)
        fields: dict[str, Any] = {}
        for _ in range(field_count):
            name_index, offset = serde.read_varint(view, offset)
            value, offset = serde.read_value(view, offset)
            fields[names[name_index]] = value
        target_count, offset = serde.read_varint(view, offset)
        targets = []
        for _ in range(target_count):
            name_index, offset = serde.read_varint(view, offset)
            partition, offset = serde.read_varint(view, offset)
            targets.append((names[name_index], partition))
        entries.append(
            (correlation_id, Event(event_id, timestamp, fields), tuple(targets))
        )
    trace, _ = _read_telemetry_tail(view, offset)
    return IngestBatch(stream, entries, trace)


def _decode_reply_batch(view: memoryview, offset: int) -> ReplyBatch:
    table, offset = serde.read_str_list(view, offset)
    count, offset = serde.read_varint(view, offset)
    replies: list[tuple[int, str, dict[int, dict[str, Any]] | None]] = []
    for _ in range(count):
        correlation_id, offset = serde.read_varint(view, offset)
        topic_index, offset = serde.read_varint(view, offset)
        present = view[offset]
        offset += 1
        if not present:
            replies.append((correlation_id, table[topic_index], None))
            continue
        metric_count, offset = serde.read_varint(view, offset)
        results: dict[int, dict[str, Any]] = {}
        for _ in range(metric_count):
            metric_id, offset = serde.read_varint(view, offset)
            column_count, offset = serde.read_varint(view, offset)
            values: dict[str, Any] = {}
            for _ in range(column_count):
                column_index, offset = serde.read_varint(view, offset)
                value, offset = serde.read_value(view, offset)
                values[table[column_index]] = value
            results[metric_id] = values
        replies.append((correlation_id, table[topic_index], results))
    watermarks, offset = _read_offset_pairs(view, offset)
    processed_count, offset = serde.read_varint(view, offset)
    processed = []
    for _ in range(processed_count):
        worker_index, offset = serde.read_varint(view, offset)
        records, offset = serde.read_varint(view, offset)
        reply_count, offset = serde.read_varint(view, offset)
        processed.append((table[worker_index], records, reply_count))
    durable_seq, offset = serde.read_varint(view, offset)
    trace, stats = _read_telemetry_tail(view, offset)
    return ReplyBatch(
        replies, watermarks, tuple(processed), durable_seq, trace, stats
    )


def _decode_work_batch(view: memoryview, offset: int) -> WorkBatch:
    tp, offset = _read_tp(view, offset)
    reply_from, offset = serde.read_varint(view, offset)
    names, offset = serde.read_str_list(view, offset)
    count, offset = serde.read_varint(view, offset)
    records: list[tuple[int, Event]] = []
    for _ in range(count):
        record_offset, offset = serde.read_varint(view, offset)
        event_id, offset = serde.read_str(view, offset)
        timestamp, offset = serde.read_varint(view, offset)
        field_count, offset = serde.read_varint(view, offset)
        fields: dict[str, Any] = {}
        for _ in range(field_count):
            name_index, offset = serde.read_varint(view, offset)
            value, offset = serde.read_value(view, offset)
            fields[names[name_index]] = value
        records.append((record_offset, Event(event_id, timestamp, fields)))
    trace, _ = _read_telemetry_tail(view, offset)
    return WorkBatch(tp, reply_from, records, trace)


def _decode_batch_done(view: memoryview, offset: int) -> BatchDone:
    tp, offset = _read_tp(view, offset)
    next_offset, offset = serde.read_varint(view, offset)
    processed, offset = serde.read_varint(view, offset)
    columns, offset = serde.read_str_list(view, offset)
    count, offset = serde.read_varint(view, offset)
    replies: list[tuple[int, dict[int, dict[str, Any]] | None]] = []
    for _ in range(count):
        reply_offset, offset = serde.read_varint(view, offset)
        present = view[offset]
        offset += 1
        if not present:
            replies.append((reply_offset, None))
            continue
        metric_count, offset = serde.read_varint(view, offset)
        results: dict[int, dict[str, Any]] = {}
        for _ in range(metric_count):
            metric_id, offset = serde.read_varint(view, offset)
            column_count, offset = serde.read_varint(view, offset)
            values: dict[str, Any] = {}
            for _ in range(column_count):
                column_index, offset = serde.read_varint(view, offset)
                value, offset = serde.read_value(view, offset)
                values[columns[column_index]] = value
            results[metric_id] = values
        replies.append((reply_offset, results))
    trace, stats = _read_telemetry_tail(view, offset)
    return BatchDone(tp, next_offset, processed, replies, trace, stats)
