"""Durable partition logs and the disk-backed message bus.

The in-memory :class:`~repro.messaging.broker.MessageBus` stands in for
Kafka everywhere in the engine, but its logs die with the process —
Railgun's recovery contract (paper §3.3: rewind to the committed offset,
replay exactly the uncommitted tail) assumes the log outlives the node.
This module closes that gap:

- :class:`DurableLog` is a drop-in :class:`~repro.messaging.log.PartitionLog`
  whose records are also appended to a :class:`~repro.messaging.segments.SegmentedLog`
  on disk (a ``FileStorage`` rooted at the partition's own
  subdirectory). The hot path stays in memory (appends buffer their encoded
  form; reads serve the retained records), the disk is the recovery
  story, and truncation trims both so neither grows without bound.
- :class:`DurableBus` is a drop-in :class:`~repro.messaging.broker.MessageBus`
  hosting :class:`DurableLog` partitions under one directory, plus two
  tiny CRC-framed side logs in that directory's ``FileStorage``
  (:attr:`DurableBus.storage`): ``topics.log`` (topic name and
  partitions — so a reopen recreates the topology) and ``commits.log``
  (group committed offsets — so a reopened consumer resumes where it
  replied). Constructing a ``DurableBus`` over a non-empty directory
  *is* recovery: topics, logs (torn tails truncated), committed offsets
  and ``messages_published`` are all rebuilt from disk.
- :func:`write_cut` / :func:`read_cut` persist a **consistent cut** —
  an applied-frame counter plus per-partition end offsets, written
  atomically (``StorageBackend.replace``: tmp + fsync + rename +
  directory fsync) *after* the log data is fsynced. A
  recovering sharded frontend rolls every log back to the cut
  (:meth:`DurableLog.truncate_to`) and replays its write-ahead journal
  from the cut's frame counter, which makes journal replay idempotent
  without any per-record dedup.

No code here opens a file: every byte goes through
:class:`~repro.common.storage.StorageBackend`, in the one CRC frame of
:func:`repro.common.serde.write_frame`.

Values crossing the durable boundary are encoded with a small tagged
codec (scalars, tuples, :class:`~repro.events.event.Event`, the engine
envelopes and the catalogue DDL ops) built on :mod:`repro.common.serde`
— no pickling, so a reopened log is readable by a fresh process of any
lifetime.
"""

from __future__ import annotations

import os
from typing import Any, Iterable, Mapping

from repro.common import serde
from repro.common.errors import MessagingError, SerdeError
from repro.common.layout import STR, VALUE, VARINT, mapping, struct
from repro.common.storage import FileStorage, StorageBackend
from repro.engine.catalog import (
    METRIC_DEF,
    OP_LAYOUTS,
    AddPartitionerOp,
    CreateMetricOp,
    CreateStreamOp,
    DeleteMetricOp,
    EvolveSchemaOp,
)
from repro.engine.envelope import EventEnvelope, ReplyEnvelope
from repro.events.event import Event
from repro.messaging.broker import MessageBus
from repro.messaging.log import (
    OFFSET_PAIRS,
    TP,
    Message,
    PartitionLog,
    TopicPartition,
)
from repro.messaging.segments import (
    FsyncPolicy,
    SegmentConfig,
    SegmentedLog,
    fsync_policy,
)

#: environment variable the shard clusters consult for a default
#: durable directory (each cluster makes a private subdirectory).
DURABLE_DIR_ENV = "RAILGUN_DURABLE_DIR"

_CUT_FILE = "cut.meta"
_TOPICS_FILE = "topics.log"
_COMMITS_FILE = "commits.log"

# -- the value codec ----------------------------------------------------------
#
# Everything the engine publishes to a bus: scalars and scalar tuples
# (checkpoint announcements), events (frontend slices), the engine
# envelopes (cooperative/parallel event + reply topics) and the DDL ops
# (the operations topic — replaying it is how a reopened coordinator
# rebuilds its catalogue).

_TAG_SCALAR = 0
_TAG_TUPLE = 1
_TAG_EVENT = 2
_TAG_EVENT_ENVELOPE = 3
_TAG_REPLY_ENVELOPE = 4
#: the DDL ops, each stored as its one catalogue layout.
_OP_TAGS = {
    CreateStreamOp: 5,
    DeleteMetricOp: 7,
    EvolveSchemaOp: 8,
    AddPartitionerOp: 9,
    CreateMetricOp: 10,
}
_OP_CODECS = {tag: struct(cls, *OP_LAYOUTS[cls]) for cls, tag in _OP_TAGS.items()}
#: read-only: a ``CreateMetricOp`` as logs written before tag 10 hold
#: it, without its activation cuts (decodes with ``activations=()``).
_OP_CODECS[6] = struct(CreateMetricOp, ("metric", METRIC_DEF))


def _write_event(buf: bytearray, event: Event) -> None:
    serde.write_str(buf, event.event_id)
    serde.write_signed_varint(buf, event.timestamp)
    serde.write_varint(buf, event.field_count())
    for name, value in event.items():
        serde.write_str(buf, name)
        serde.write_value(buf, value)


def _read_event(data: memoryview, offset: int) -> tuple[Event, int]:
    event_id, offset = serde.read_str(data, offset)
    timestamp, offset = serde.read_signed_varint(data, offset)
    count, offset = serde.read_varint(data, offset)
    fields: dict[str, Any] = {}
    for _ in range(count):
        name, offset = serde.read_str(data, offset)
        value, offset = serde.read_value(data, offset)
        fields[name] = value
    return Event(event_id, timestamp, fields), offset


#: reply values ``metric id -> column -> scalar``, names inline.
_RESULTS = mapping(VARINT, mapping(STR, VALUE))


def write_payload(buf: bytearray, value: object) -> None:
    """Append one tagged bus value (key or message value)."""
    if isinstance(value, Event):
        buf.append(_TAG_EVENT)
        _write_event(buf, value)
    elif isinstance(value, EventEnvelope):
        buf.append(_TAG_EVENT_ENVELOPE)
        serde.write_str(buf, value.stream)
        _write_event(buf, value.event)
        serde.write_str(buf, value.origin_node)
        serde.write_varint(buf, value.correlation_id)
        serde.write_varint(buf, value.fanout)
    elif isinstance(value, ReplyEnvelope):
        buf.append(_TAG_REPLY_ENVELOPE)
        serde.write_varint(buf, value.correlation_id)
        serde.write_str(buf, value.event_id)
        TP.write(buf, value.task)
        _RESULTS.write(buf, value.results)
    elif type(value) in _OP_TAGS:
        tag = _OP_TAGS[type(value)]
        buf.append(tag)
        _OP_CODECS[tag].write(buf, value)
    elif isinstance(value, (tuple, list)):
        buf.append(_TAG_TUPLE)
        serde.write_varint(buf, len(value))
        for item in value:
            write_payload(buf, item)
    else:
        buf.append(_TAG_SCALAR)
        try:
            serde.write_value(buf, value)
        except SerdeError:
            raise MessagingError(
                f"value of type {type(value).__name__} cannot be stored in a "
                f"durable log (no codec)"
            ) from None


def read_payload(data: memoryview, offset: int) -> tuple[object, int]:
    """Read one tagged bus value written by :func:`write_payload`."""
    tag = data[offset]
    offset += 1
    if tag == _TAG_SCALAR:
        return serde.read_value(data, offset)
    if tag == _TAG_TUPLE:
        count, offset = serde.read_varint(data, offset)
        items = []
        for _ in range(count):
            item, offset = read_payload(data, offset)
            items.append(item)
        return tuple(items), offset
    if tag == _TAG_EVENT:
        return _read_event(data, offset)
    if tag == _TAG_EVENT_ENVELOPE:
        stream, offset = serde.read_str(data, offset)
        event, offset = _read_event(data, offset)
        origin, offset = serde.read_str(data, offset)
        correlation, offset = serde.read_varint(data, offset)
        fanout, offset = serde.read_varint(data, offset)
        return EventEnvelope(stream, event, origin, correlation, fanout), offset
    if tag == _TAG_REPLY_ENVELOPE:
        correlation, offset = serde.read_varint(data, offset)
        event_id, offset = serde.read_str(data, offset)
        tp, offset = TP.read(data, offset)
        results, offset = _RESULTS.read(data, offset)
        return ReplyEnvelope(correlation, event_id, tp, results), offset
    if tag in _OP_CODECS:
        return _OP_CODECS[tag].read(data, offset)
    raise MessagingError(f"unknown durable payload tag {tag}")


# -- the durable partition log ------------------------------------------------


class DurableLog(PartitionLog):
    """A partition log whose records also live in segment files on disk.

    Appends encode the record once (``svarint timestamp | key | value``)
    into the segment store's buffer and keep the original objects in
    memory, so live reads never touch disk or the codec. Opening a
    ``DurableLog`` over an existing directory replays the segment files
    (torn tail truncated) into memory. :meth:`truncate_below` cuts
    memory exactly where :class:`PartitionLog` does but deletes only the
    segments wholly below the cut: the retention start is the first
    surviving segment's base, and a read between it and the memory cut
    decodes from the segment files.
    """

    def __init__(
        self,
        tp: TopicPartition,
        root: str,
        config: SegmentConfig | None = None,
    ) -> None:
        super().__init__(tp)
        self.segments = SegmentedLog(FileStorage(root), config)
        self._base = self.segments.start_offset
        self._messages = [_decode(*record) for record in self.segments.records(0)]

    def append(self, key: Any, value: Any, timestamp: int) -> int:
        """Append in memory and to the segment buffer; returns the offset."""
        offset = self.end_offset
        buf = bytearray()
        serde.write_signed_varint(buf, timestamp)
        write_payload(buf, key)
        write_payload(buf, value)
        disk_offset = self.segments.append(bytes(buf))
        if disk_offset != offset:
            raise MessagingError(
                f"durable log {self.tp} out of sync: memory at {offset}, "
                f"disk at {disk_offset}"
            )
        self._messages.append(Message(offset, key, value, timestamp))
        return offset

    def read(self, from_offset: int, max_records: int) -> list[Message]:
        """As :meth:`PartitionLog.read`; records below the memory cut
        that disk still retains are decoded from their segments."""
        if from_offset >= self._base or self.start_offset == self._base:
            return super().read(from_offset, max_records)
        below = min(max_records, self._base - max(from_offset, self.start_offset))
        messages = [
            _decode(*record) for record in self.segments.records(from_offset, below)
        ]
        return messages + super().read(self._base, max_records - len(messages))

    @property
    def start_offset(self) -> int:
        return self.segments.start_offset

    def truncate_below(self, offset: int) -> int:
        """Cut memory at ``offset`` (pins and the log end clamp it) and
        delete the segments wholly below the cut; returns the new
        retention start."""
        return self.segments.truncate_below(super().truncate_below(offset))

    def truncate_to(self, end_offset: int) -> None:
        """Roll the tail back so the next append gets ``end_offset``."""
        self.segments.truncate_to(end_offset)
        if end_offset < self.end_offset:
            del self._messages[max(0, end_offset - self._base) :]
            self._base = min(self._base, end_offset)

    def flush(self) -> None:
        """Write out buffered records (fsync per the store's policy)."""
        self.segments.flush()

    def close(self) -> None:
        self.segments.close()


def _decode(offset: int, payload: bytes) -> Message:
    view = memoryview(payload)
    timestamp, at = serde.read_signed_varint(view, 0)
    key, at = read_payload(view, at)
    value, at = read_payload(view, at)
    return Message(offset, key, value, timestamp)


# -- the consistent cut --------------------------------------------------------


def write_cut(
    storage: StorageBackend,
    frames_applied: int,
    ends: Mapping[TopicPartition, int],
) -> None:
    """Atomically persist a consistent cut: applied ingest-frame count +
    per-partition end offsets, as one CRC frame in the bus directory.

    Written *after* the log data it describes is flushed, with
    :meth:`~repro.common.storage.StorageBackend.replace`, so a crash
    leaves either the previous cut or this one — never a torn file.
    Recovery truncates each log back to the recorded end
    (:meth:`DurableLog.truncate_to`) and replays the write-ahead journal
    from ``frames_applied``.
    """
    payload = bytearray()
    serde.write_varint(payload, frames_applied)
    OFFSET_PAIRS.write(payload, sorted(ends.items(), key=lambda pair: str(pair[0])))
    framed = bytearray()
    serde.write_frame(framed, payload)
    storage.replace(_CUT_FILE, bytes(framed))


def read_cut(storage: StorageBackend) -> tuple[int, dict[TopicPartition, int]]:
    """Read the consistent cut; ``(0, {})`` when none was ever written."""
    if not storage.exists(_CUT_FILE):
        return 0, {}
    try:
        payload, _ = serde.read_frame(storage.read_all(_CUT_FILE), 0)
    except SerdeError:
        return 0, {}
    view = memoryview(payload)
    frames_applied, offset = serde.read_varint(view, 0)
    ends, offset = OFFSET_PAIRS.read(view, offset)
    return frames_applied, dict(ends)


# -- the durable bus ----------------------------------------------------------


class DurableBus(MessageBus):
    """A :class:`MessageBus` whose partition logs live on disk.

    Construction over a non-empty ``root`` is recovery: the topic side
    log recreates the topology, every partition's segment files rebuild
    its log (torn tails truncated), the commit side log restores the
    committed offsets, and ``messages_published`` resumes at the total
    record count (so auto-minted ids stay unique across a reopen).
    """

    def __init__(
        self,
        root: str,
        fsync: FsyncPolicy | str = FsyncPolicy.BATCH,
        segment_bytes: int = 1 << 20,
    ) -> None:
        super().__init__()
        self.root = root
        self.config = SegmentConfig(segment_bytes=segment_bytes, fsync=fsync_policy(fsync))
        #: the bus directory: side logs and the cut (partition logs
        #: each get their own namespace, one subdirectory per partition).
        self.storage = FileStorage(root)
        self._commit_buffer: list[bytes] = []
        self.recovered = False
        self._recover_topics()
        self._recover_commits()

    # -- recovery --------------------------------------------------------------

    def _recover_topics(self) -> None:
        for payload in self._side_log(_TOPICS_FILE):
            view = memoryview(payload)
            name, offset = serde.read_str(view, 0)
            # A replication varint follows; nothing reads it.
            partitions, _ = serde.read_varint(view, offset)
            super().create_topic(name, partitions)  # no new meta record
            self.recovered = True
        if self.recovered:
            self.messages_published = sum(
                log.end_offset for log in self._logs.values()
            )

    def _recover_commits(self) -> None:
        for payload in self._side_log(_COMMITS_FILE):
            view = memoryview(payload)
            group, offset = serde.read_str(view, 0)
            tp, offset = TP.read(view, offset)
            committed, offset = serde.read_varint(view, offset)
            self._committed[(group, tp)] = committed  # last record wins

    # -- tiny CRC-framed side logs ----------------------------------------------

    def _side_log(self, name: str) -> list[bytes]:
        """Intact frames of a side log; stops at the first torn record."""
        if not self.storage.exists(name):
            return []
        return [
            payload
            for _start, _end, payload in serde.iter_frames(self.storage.read_all(name))
        ]

    def _append_side_log(self, name: str, payloads: Iterable[bytes]) -> None:
        """Append frames to a side log; synced unless the policy is NEVER."""
        encoded = bytearray()
        for payload in payloads:
            serde.write_frame(encoded, payload)
        if not self.storage.exists(name):
            self.storage.create(name)
        self.storage.append(name, encoded)
        if self.config.fsync is not FsyncPolicy.NEVER:
            self.storage.sync(name)

    # -- topic management ------------------------------------------------------

    def create_topic(self, name: str, partitions: int) -> None:
        existing = self._topics.get(name, 0)
        super().create_topic(name, partitions)
        # Re-creating an already-recovered topic (a reopened coordinator
        # re-running its DDL path) must not duplicate the meta record.
        if partitions > existing:
            payload = bytearray()
            serde.write_str(payload, name)
            serde.write_varint(payload, partitions)
            serde.write_varint(payload, 1)  # replication, kept for the format
            self._append_side_log(_TOPICS_FILE, [payload])

    def _build_log(self, tp: TopicPartition) -> DurableLog:
        return DurableLog(tp, os.path.join(self.root, str(tp)), self.config)

    # -- committed offsets -----------------------------------------------------

    def commit_offset(self, group: str, tp: TopicPartition, offset: int) -> None:
        super().commit_offset(group, tp, offset)
        payload = bytearray()
        serde.write_str(payload, group)
        TP.write(payload, tp)
        serde.write_varint(payload, offset)
        self._commit_buffer.append(bytes(payload))

    # -- durability controls ---------------------------------------------------

    def flush(self) -> None:
        """Write out every log's buffer and the commit side log."""
        for log in self._logs.values():
            log.flush()
        if self._commit_buffer:
            self._append_side_log(_COMMITS_FILE, self._commit_buffer)
            self._commit_buffer.clear()

    def truncate_below(self, offsets: Mapping[TopicPartition, int]) -> None:
        """Checkpoint-aware retention: per task, cut the log at its
        stored checkpoint offset (:meth:`DurableLog.truncate_below`)."""
        for tp, offset in offsets.items():
            log = self._logs.get(tp)
            if log is not None and offset > 0:
                log.truncate_below(offset)

    def close(self) -> None:
        """Flush and release every log; idempotent."""
        self.flush()
        for log in self._logs.values():
            log.close()

    # -- introspection ---------------------------------------------------------

    def all_partitions(self) -> list[TopicPartition]:
        """Every hosted (topic, partition), sorted."""
        return sorted(self._logs, key=str)

    def disk_bytes(self) -> int:
        """Total segment-file bytes across all partitions."""
        return sum(log.segments.disk_bytes() for log in self._logs.values())

    def segment_spans(self) -> dict[TopicPartition, list[tuple[int, int]]]:
        """Per-partition ``(base, end)`` segment spans (for the gate)."""
        return {tp: log.segments.segment_spans() for tp, log in self._logs.items()}


def resolve_durable_dir(explicit: str | None, label: str) -> str | None:
    """The cluster's durable directory: the explicit argument, or a
    fresh private subdirectory of ``$RAILGUN_DURABLE_DIR`` when set.

    The environment hook is how CI runs the whole shard suite durably
    without touching each test; ``None`` (no argument, no environment)
    keeps the in-memory bus.
    """
    if explicit is not None:
        return explicit
    root = os.environ.get(DURABLE_DIR_ENV)
    if not root:
        return None
    import tempfile

    os.makedirs(root, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{label}-", dir=root)
