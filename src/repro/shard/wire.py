"""The shard wire protocol: one declarative table of framed messages.

Everything that crosses a process boundary — supervisor/worker pipes,
router/frontend pipes, frontend/worker data sockets, the TCP front
door — is a binary frame: one tag byte, then the message's fields. No
pickling: a worker restarted from a clean process rebuilds its state
purely from the replayed control log plus the replayed partition tail,
so a control record must cross a pipe, a socket and a disk unchanged.

A message is a dataclass plus one row of :data:`TABLE`: tag, class and
the ``(attr, codec)`` fields in byte order, built from
:mod:`repro.common.layout` codecs. :func:`encode` and :func:`decode`
are a lookup and a walk over the row; no other code knows a layout.
Records that other formats store too are declared next to their
dataclasses and only referenced here — the DDL ops (the catalogue's own
``CreateStreamOp`` … ``AddPartitionerOp``, which are also the durable
operations log's records), task checkpoints (also the supervisor's
on-disk store) and task addresses.

The batch frames carry their rows two ways. Between router, frontends
and front-door clients, :class:`IngestBatch`/:class:`ReplyBatch` intern
repeated strings in per-message tables. On the shard links, the
:class:`WorkBatch`, :class:`BatchDone` and :class:`BackfillRecords`
rows carry theirs as columns — :mod:`repro.shard.columnar`'s
``RECORD_COLUMNS`` and ``REPLY_COLUMNS``, field codecs like any other
here.

Recovery framing ships task checkpoints: a :class:`TaskCheckpointFrame`
crosses worker→supervisor inside a :class:`CheckpointTailAck` and
supervisor→worker, fully materialized, as a :class:`RestoreTask`. The
worker ships only the bytes the supervisor lacks: a
:class:`CheckpointTailRequest` advertises the size of every file the
supervisor's store holds, and the ack carries each held file's new
tail. Frontend recovery is journal-based (:class:`RestoreWatermarks`
seeds reply suppression before the router replays its journal);
:class:`WorkerRestarted`, :class:`DrainRequest`/:class:`DrainAck` and
:class:`FrontendAssign` steer the data plane through topology changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from struct import error as StructError
from typing import Any, Mapping

from repro.common import serde
from repro.common.errors import SerdeError
from repro.common.layout import (
    BYTES,
    F64,
    FLAG,
    STR,
    VARINT,
    Codec,
    mapping,
    seq,
    struct,
    tuple_of,
)
from repro.engine.catalog import (
    FIELD_PAIRS,
    METRIC_DEF,
    OP_LAYOUTS,
    AddPartitionerOp,
    CreateMetricOp,
    CreateStreamOp,
    DeleteMetricOp,
    EvolveSchemaOp,
    MetricDef,
)
from repro.engine.task import (
    ITERATOR_POSITIONS,
    TASK_CHECKPOINT,
    TASK_CHECKPOINT_TAILS,
    TaskCheckpoint,
)
from repro.events.event import Event
from repro.messaging.log import OFFSET_PAIRS, TP, TopicPartition
from repro.shard import columnar
from repro.shard.columnar import RECORD_COLUMNS, REPLY_COLUMNS

# Supervisor -> worker.
MSG_CREATE_STREAM = 1
MSG_CREATE_METRIC = 2
MSG_DELETE_METRIC = 3
MSG_EVOLVE_SCHEMA = 4
MSG_ASSIGN = 5
MSG_SHUTDOWN = 8
MSG_CRASH = 9
MSG_ADD_PARTITIONER = 10
MSG_RESTORE_TASK = 11

# Worker -> supervisor.
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

# Frontend <-> worker data sockets: work out, replies back.
MSG_WORK_BATCH = 29
MSG_BATCH_DONE = 30

# Retired tags are not free: a peer built before their removal must hit
# "unknown tag", never another message's decoder. 6 and 16 framed
# WorkBatch/BatchDone with a field per value before the column rows
# took 29/30; 7 and 17 the whole-file checkpoint request and ack; 27
# and 28 the shared-memory ring transport's handshake and doorbell; 42
# BackfillRecords pages before they went columnar.

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
MSG_BACKFILL_STALE = 43
MSG_BACKFILL_RECORDS = 48

# Telemetry introspection over the TCP front door.
MSG_STATS_REQUEST = 44
MSG_STATS_REPLY = 45

# Supervisor <-> worker checkpoints that ship only the bytes the store
# lacks.
MSG_CHECKPOINT_TAIL_REQUEST = 46
MSG_CHECKPOINT_TAIL_ACK = 47


@dataclass(frozen=True)
class AssignPartitions:
    """Full replacement of a worker's owned partition set (rebalance)."""

    partitions: tuple[TopicPartition, ...]


@dataclass
class WorkBatch:
    """One contiguous offset run of one partition, shipped for processing.

    ``reply_from`` is the frontend's replied watermark: the worker
    processes every record (state must replay deterministically after a
    restart) but only returns replies for offsets at or above it, so a
    replayed tail never duplicates a reply the client already saw.
    """

    tp: TopicPartition
    reply_from: int
    records: list[tuple[int, Event]]
    #: Optional trace ``(span_id, ((hop_name, ms), ...))`` — the
    #: dispatcher's ``sent_ms`` stamp under an empty span id; rides
    #: a telemetry tail appended after the original payload, so frames
    #: without one stay byte-identical to the pre-telemetry encoding
    #: and old frames decode with ``trace=None``.
    trace: tuple | None = None


@dataclass(frozen=True)
class CheckpointTailRequest:
    """Ask a worker for its per-task consumed offsets — and, with
    ``with_state``, checkpoint frames holding only what the store lacks.

    ``held`` maps each task to ``(name, size)`` for every file the
    supervisor's checkpoint store holds for it. The worker ships nothing
    for a sealed segment or LSM table held whole, the bytes past
    ``size`` of a segment held in part (the open one keeps growing), and
    every other file whole; the ack is a :class:`CheckpointTailAck`.
    """

    request_id: int
    with_state: bool = False
    held: tuple[tuple[TopicPartition, tuple[tuple[str, int], ...]], ...] = ()

    def held_map(self) -> dict[TopicPartition, dict[str, int]]:
        """Held file sizes, keyed by task."""
        return {tp: dict(files) for tp, files in self.held}


@dataclass
class TaskCheckpointFrame:
    """One task's checkpoint crossing the process boundary.

    Wraps the engine's :class:`~repro.engine.task.TaskCheckpoint`; in a
    :class:`CheckpointTailAck` the file maps may be partial — held files
    left out, held segments shipped as tails from their
    ``file_bases`` — and the receiver merges them with what it holds.
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

    Sent before any :class:`WorkBatch` for the task (control first), with
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
    #: Optional trace ``(span_id, ((hop_name, ms), ...))``; the frame
    #: keeps the field, the worker sends none.
    trace: tuple | None = None
    #: Optional encoded registry snapshot piggybacking the worker's
    #: telemetry back to its dispatcher (observation only).
    stats: bytes | None = None


@dataclass
class CheckpointTailAck:
    """Per-task consumed offsets at a consistent message boundary, the
    answer to a :class:`CheckpointTailRequest`.

    When the request asked ``with_state``, ``frames`` carries one
    :class:`TaskCheckpointFrame` per owned task: it leaves out what the
    store holds and carries each held segment's new tail with the
    offset it starts at.
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
    #: Optional trace (the frame keeps the field, the router sends none).
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
    #: Optional trace (the frame keeps the field, no frontend sends one).
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


# -- record layouts -----------------------------------------------------------
#
# A record carried by more than one message is declared once, next to
# its dataclass (TP and OFFSET_PAIRS in messaging.log, the catalogue
# records and DDL ops in engine.catalog, TASK_CHECKPOINT in engine.task)
# or, for the wire's own, here.

#: raw state-store ``(key, value)`` byte rows.
ROW_PAIRS = seq(tuple_of(BYTES, BYTES), build=list)
CHECKPOINT_FRAME = struct(TaskCheckpointFrame, ("checkpoint", TASK_CHECKPOINT))
CHECKPOINT_TAIL_FRAME = struct(
    TaskCheckpointFrame, ("checkpoint", TASK_CHECKPOINT_TAILS)
)


# -- string-table blocks ------------------------------------------------------
#
# The front-door batch frames intern repeated strings (field names,
# reply columns, topics, worker ids, partitioners) once per message: a
# block is its string table in first-use order, then its rows holding
# table indices.


def _interned(write_rows, read_rows) -> Codec:
    """A block codec from a rows writer/reader taking the table as a
    third argument: the writer assigns indices as it meets strings, so
    the rows go to a side buffer and the finished table ahead of them."""

    def write(buf: bytearray, value) -> None:
        table: dict[str, int] = {}
        rows = bytearray()
        write_rows(rows, value, table)
        serde.write_str_list(buf, list(table))
        buf += rows

    def read(data: memoryview, offset: int):
        table, offset = serde.read_str_list(data, offset)
        return read_rows(data, offset, table)

    return Codec(write, read)


def _write_event(buf: bytearray, event: Event, table: dict[str, int]) -> None:
    serde.write_str(buf, event.event_id)
    serde.write_varint(buf, event.timestamp)
    serde.write_varint(buf, event.field_count())
    for name, value in event.items():
        serde.write_varint(buf, table.setdefault(name, len(table)))
        serde.write_value(buf, value)


def _read_event(data: memoryview, offset: int, table: list[str]) -> tuple[Event, int]:
    event_id, offset = serde.read_str(data, offset)
    timestamp, offset = serde.read_varint(data, offset)
    field_count, offset = serde.read_varint(data, offset)
    fields: dict[str, Any] = {}
    for _ in range(field_count):
        name_index, offset = serde.read_varint(data, offset)
        value, offset = serde.read_value(data, offset)
        fields[table[name_index]] = value
    return Event(event_id, timestamp, fields), offset


def _write_results(
    buf: bytearray,
    results: Mapping[int, Mapping[str, Any]] | None,
    table: dict[str, int],
) -> None:
    if results is None:
        buf.append(0)
        return
    buf.append(1)
    serde.write_varint(buf, len(results))
    for metric_id, values in results.items():
        serde.write_varint(buf, metric_id)
        serde.write_varint(buf, len(values))
        for column, value in values.items():
            serde.write_varint(buf, table.setdefault(column, len(table)))
            serde.write_value(buf, value)


def _read_results(
    data: memoryview, offset: int, table: list[str]
) -> tuple[dict[int, dict[str, Any]] | None, int]:
    present, offset = FLAG.read(data, offset)
    if not present:
        return None, offset
    metric_count, offset = serde.read_varint(data, offset)
    results: dict[int, dict[str, Any]] = {}
    for _ in range(metric_count):
        metric_id, offset = serde.read_varint(data, offset)
        column_count, offset = serde.read_varint(data, offset)
        values: dict[str, Any] = {}
        for _ in range(column_count):
            column_index, offset = serde.read_varint(data, offset)
            value, offset = serde.read_value(data, offset)
            values[table[column_index]] = value
        results[metric_id] = values
    return results, offset


def _write_ingest_entries(buf: bytearray, entries, table: dict[str, int]) -> None:
    serde.write_varint(buf, len(entries))
    for correlation_id, event, targets in entries:
        serde.write_varint(buf, correlation_id)
        _write_event(buf, event, table)
        serde.write_varint(buf, len(targets))
        for partitioner, partition in targets:
            serde.write_varint(buf, table.setdefault(partitioner, len(table)))
            serde.write_varint(buf, partition)


def _read_ingest_entries(data: memoryview, offset: int, table: list[str]):
    count, offset = serde.read_varint(data, offset)
    entries: list[tuple[int, Event, tuple[tuple[str, int], ...]]] = []
    for _ in range(count):
        correlation_id, offset = serde.read_varint(data, offset)
        event, offset = _read_event(data, offset, table)
        target_count, offset = serde.read_varint(data, offset)
        targets = []
        for _ in range(target_count):
            name_index, offset = serde.read_varint(data, offset)
            partition, offset = serde.read_varint(data, offset)
            targets.append((table[name_index], partition))
        entries.append((correlation_id, event, tuple(targets)))
    return entries, offset


def _write_reply_block(buf: bytearray, block, table: dict[str, int]) -> None:
    # Topics, reply columns and worker ids share the table, so the block
    # spans the three ReplyBatch attributes that index into it.
    replies, watermarks, processed = block
    serde.write_varint(buf, len(replies))
    for correlation_id, topic, results in replies:
        serde.write_varint(buf, correlation_id)
        serde.write_varint(buf, table.setdefault(topic, len(table)))
        _write_results(buf, results, table)
    OFFSET_PAIRS.write(buf, watermarks)
    serde.write_varint(buf, len(processed))
    for worker_id, records, reply_count in processed:
        serde.write_varint(buf, table.setdefault(worker_id, len(table)))
        serde.write_varint(buf, records)
        serde.write_varint(buf, reply_count)


def _read_reply_block(data: memoryview, offset: int, table: list[str]):
    count, offset = serde.read_varint(data, offset)
    replies: list[tuple[int, str, dict[int, dict[str, Any]] | None]] = []
    for _ in range(count):
        correlation_id, offset = serde.read_varint(data, offset)
        topic_index, offset = serde.read_varint(data, offset)
        results, offset = _read_results(data, offset, table)
        replies.append((correlation_id, table[topic_index], results))
    watermarks, offset = OFFSET_PAIRS.read(data, offset)
    processed_count, offset = serde.read_varint(data, offset)
    processed = []
    for _ in range(processed_count):
        worker_index, offset = serde.read_varint(data, offset)
        records, offset = serde.read_varint(data, offset)
        reply_count, offset = serde.read_varint(data, offset)
        processed.append((table[worker_index], records, reply_count))
    return (replies, watermarks, tuple(processed)), offset


INGEST_ENTRIES = _interned(_write_ingest_entries, _read_ingest_entries)
REPLY_BLOCK = _interned(_write_reply_block, _read_reply_block)


# -- the telemetry tail -------------------------------------------------------
#
# The four hot frames (WorkBatch/BatchDone/IngestBatch/ReplyBatch) carry
# telemetry as an *optional trailing section*: decoders read an exact
# field sequence and ignore trailing bytes, so a frame with no tail is
# byte-identical to the pre-telemetry encoding, an old frame decodes
# with ``trace``/``stats`` of ``None``, and an old decoder simply never
# looks at the tail.

_TRACE = tuple_of(STR, seq(tuple_of(STR, F64)))


def _write_telemetry_tail(buf: bytearray, tail: tuple) -> None:
    trace, stats = tail if len(tail) == 2 else (tail[0], None)
    if trace is None and stats is None:
        return
    buf.append((1 if trace is not None else 0) | (2 if stats is not None else 0))
    if trace is not None:
        _TRACE.write(buf, trace)
    if stats is not None:
        serde.write_bytes(buf, stats)


def _read_telemetry_tail(data: memoryview, offset: int) -> tuple[tuple, int]:
    trace: tuple | None = None
    stats: bytes | None = None
    if offset < len(data):
        flags = data[offset]
        offset += 1
        if flags & 1:
            trace, offset = _TRACE.read(data, offset)
        if flags & 2:
            stats, offset = serde.read_bytes(data, offset)
    return (trace, stats), offset


#: ``(trace, stats)`` — or ``(trace,)`` for the frames that carry no
#: stats — as the last field of a hot frame; writes nothing when every
#: member is ``None`` and reads ``(None, None)`` at end of frame.
TELEMETRY_TAIL = Codec(_write_telemetry_tail, _read_telemetry_tail)


# -- the wire table -----------------------------------------------------------


class Row:
    """One message's frame: the tag byte, then each ``(attr, codec)``
    field in order — a :func:`~repro.common.layout.struct` of the
    message class behind a tag."""

    def __init__(self, tag: int, cls: type, *fields: tuple) -> None:
        self.tag = tag
        self.cls = cls
        self.fields = fields
        self.codec = struct(cls, *fields)

    def attrs(self) -> tuple[str, ...]:
        """Every attribute the frame carries, in byte order."""
        flat: list[str] = []
        for attr, _ in self.fields:
            flat.extend((attr,) if isinstance(attr, str) else attr)
        return tuple(flat)


#: Every message of the protocol, stated once: ``encode`` and ``decode``
#: are a lookup here plus a walk over the row. The DDL rows are the
#: catalogue's own ops and layouts, the same records the durable
#: operations log stores.
TABLE: tuple[Row, ...] = (
    # Supervisor -> worker (the DDL ops also router -> frontend).
    Row(MSG_CREATE_STREAM, CreateStreamOp, *OP_LAYOUTS[CreateStreamOp]),
    Row(MSG_CREATE_METRIC, CreateMetricOp, *OP_LAYOUTS[CreateMetricOp]),
    Row(MSG_DELETE_METRIC, DeleteMetricOp, *OP_LAYOUTS[DeleteMetricOp]),
    Row(MSG_EVOLVE_SCHEMA, EvolveSchemaOp, *OP_LAYOUTS[EvolveSchemaOp]),
    Row(MSG_ADD_PARTITIONER, AddPartitionerOp, *OP_LAYOUTS[AddPartitionerOp]),
    Row(MSG_ASSIGN, AssignPartitions, ("partitions", seq(TP))),
    Row(MSG_SHUTDOWN, Shutdown),
    Row(MSG_CRASH, Crash),
    Row(MSG_RESTORE_TASK, RestoreTask, ("frame", CHECKPOINT_FRAME)),
    # Worker -> supervisor.
    Row(MSG_WORKER_ERROR, WorkerError, ("message", STR)),
    # Supervisor <-> worker, shipping only what the store lacks.
    Row(
        MSG_CHECKPOINT_TAIL_REQUEST,
        CheckpointTailRequest,
        ("request_id", VARINT),
        ("with_state", FLAG),
        ("held", seq(tuple_of(TP, seq(tuple_of(STR, VARINT))))),
    ),
    Row(
        MSG_CHECKPOINT_TAIL_ACK,
        CheckpointTailAck,
        ("request_id", VARINT),
        ("offsets", mapping(TP, VARINT)),
        ("frames", seq(CHECKPOINT_TAIL_FRAME, build=list)),
    ),
    # Frontend <-> worker data sockets.
    Row(
        MSG_WORK_BATCH,
        WorkBatch,
        ("tp", TP),
        ("reply_from", VARINT),
        ("records", RECORD_COLUMNS),
        (("trace",), TELEMETRY_TAIL),
    ),
    Row(
        MSG_BATCH_DONE,
        BatchDone,
        ("tp", TP),
        ("next_offset", VARINT),
        ("processed", VARINT),
        ("replies", REPLY_COLUMNS),
        (("trace", "stats"), TELEMETRY_TAIL),
    ),
    # Router -> frontend.
    Row(
        MSG_INGEST_BATCH,
        IngestBatch,
        ("stream", STR),
        ("entries", INGEST_ENTRIES),
        (("trace",), TELEMETRY_TAIL),
    ),
    Row(
        MSG_FRONTEND_ASSIGN,
        FrontendAssign,
        ("routes", seq(tuple_of(TP, STR, STR))),
        ("seeks", OFFSET_PAIRS),
    ),
    Row(
        MSG_RESTORE_WATERMARKS,
        RestoreWatermarks,
        ("watermarks", OFFSET_PAIRS),
        ("seeks", OFFSET_PAIRS),
        ("ingest_base", VARINT),
    ),
    Row(
        MSG_WORKER_RESTARTED,
        WorkerRestarted,
        ("worker_id", STR),
        ("addr", STR),
        ("seeks", OFFSET_PAIRS),
    ),
    Row(MSG_DRAIN_REQUEST, DrainRequest, ("request_id", VARINT)),
    Row(MSG_TRUNCATE_LOGS, TruncateLogs, ("offsets", OFFSET_PAIRS)),
    # Frontend -> router.
    Row(
        MSG_REPLY_BATCH,
        ReplyBatch,
        (("replies", "watermarks", "processed"), REPLY_BLOCK),
        ("durable_seq", VARINT),
        (("trace", "stats"), TELEMETRY_TAIL),
    ),
    Row(MSG_DRAIN_ACK, DrainAck, ("request_id", VARINT), ("watermarks", OFFSET_PAIRS)),
    # TCP front door.
    Row(MSG_HELLO, Hello, ("tenant", STR), ("token", STR), ("protocol", VARINT)),
    Row(
        MSG_HELLO_ACK,
        HelloAck,
        ("ok", FLAG),
        ("session", STR),
        ("error", STR),
        ("max_in_flight", VARINT),
        ("p50_budget_ms", F64),
        ("p99_budget_ms", F64),
    ),
    Row(
        MSG_SERVER_BUSY,
        ServerBusy,
        ("reason", STR),
        ("retry_after_ms", VARINT),
        ("correlations", seq(VARINT)),
    ),
    Row(
        MSG_DDL_REQUEST,
        DdlRequest,
        ("request_id", VARINT),
        ("op", STR),
        ("name", STR),
        ("text", STR),
        ("fields", FIELD_PAIRS),
        ("names", seq(STR)),
        ("number", VARINT),
        ("flag", FLAG),
    ),
    Row(
        MSG_DDL_REPLY,
        DdlReply,
        ("request_id", VARINT),
        ("ok", FLAG),
        ("value", VARINT),
        ("error", STR),
    ),
    Row(MSG_GOODBYE, Goodbye),
    Row(MSG_STATS_REQUEST, StatsRequest, ("request_id", VARINT)),
    Row(MSG_STATS_REPLY, StatsReply, ("request_id", VARINT), ("payload", BYTES)),
    # Backfill splice.
    Row(
        MSG_BACKFILL_INSTALL,
        BackfillInstall,
        ("tp", TP),
        ("at_offset", VARINT),
        ("metric", METRIC_DEF),
        ("state_rows", ROW_PAIRS),
        ("distinct_rows", ROW_PAIRS),
        ("iterator_positions", ITERATOR_POSITIONS),
    ),
    Row(MSG_BACKFILL_INSTALLED, BackfillInstalled, ("tp", TP), ("metric_id", VARINT)),
    Row(
        MSG_BACKFILL_START,
        BackfillStart,
        ("metric", METRIC_DEF),
        ("peers", seq(METRIC_DEF)),
        ("seeds", seq(tuple_of(TP, TASK_CHECKPOINT))),
    ),
    Row(MSG_BACKFILL_STOP, BackfillStop, ("metric_id", VARINT)),
    Row(
        MSG_BACKFILL_READ,
        BackfillRead,
        ("tp", TP),
        ("begin", VARINT),
        ("max_records", VARINT),
    ),
    Row(
        MSG_BACKFILL_RECORDS,
        BackfillRecords,
        ("tp", TP),
        ("begin", VARINT),
        ("start_offset", VARINT),
        ("end_offset", VARINT),
        ("entries", RECORD_COLUMNS),
    ),
    Row(
        MSG_BACKFILL_STALE,
        BackfillStale,
        ("tp", TP),
        ("metric_id", VARINT),
        ("next_offset", VARINT),
    ),
)

_BY_CLASS = {row.cls: row for row in TABLE}
_BY_TAG = {row.tag: row for row in TABLE}


def encode(msg: object) -> bytes:
    """Frame a message for the pipe: 1 tag byte + its row's fields."""
    row = _BY_CLASS.get(type(msg))
    if row is None:
        raise SerdeError(f"unsupported wire message: {type(msg).__name__}")
    buf = bytearray((row.tag,))
    row.codec.write(buf, msg)
    return bytes(buf)


def decode(data: bytes) -> object:
    """Decode one frame produced by :func:`encode`.

    Raises :class:`SerdeError` — and nothing else — on bytes that are
    not a frame: a caller holding a connection to the outside (the TCP
    front door) treats that one exception as a protocol violation.
    """
    if not data:
        raise SerdeError("empty wire frame")
    view = memoryview(data)
    row = _BY_TAG.get(view[0])
    if row is None:
        raise SerdeError(f"unknown wire message tag {view[0]}")
    try:
        return row.codec.read(view, 1)[0]
    except (ValueError, IndexError, StructError) as exc:
        # Bad UTF-8 or a value a constructor refuses; a string-table or
        # row index past its table; a packed column past the frame.
        raise SerdeError(f"malformed {row.cls.__name__} frame: {exc}") from exc


# The bench ladder still prices the link codec as ``columnar.encode`` /
# ``decode``: they are these two functions (the column codecs must not
# import this module, which imports them).
columnar.encode = encode
columnar.decode = decode
