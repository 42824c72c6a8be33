"""Task processors (paper §4.1).

"Each task processor is designed to share nothing, and work
independently of other task processors": it owns its event reservoir,
its metric state store, and the shared task-plan DAG for all metrics of
its (topic, partition). Checkpoints capture reservoir + state + iterator
positions + the next message offset atomically (taken between messages),
so recovery is: copy data, seek the consumer, replay the tail. A caller
that keeps only the offset (the in-process engine's periodic checkpoint)
runs the same barrier without building the payload.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.common import serde
from repro.common.errors import CheckpointError
from repro.common.layout import (
    BYTES,
    STR,
    SVARINT,
    VARINT,
    Codec,
    mapping,
    seq,
    struct,
    tuple_of,
)
from repro.common.storage import MemoryStorage
from repro.engine.catalog import MetricDef, StreamDef
from repro.events.event import Event
from repro.events.schema import SchemaRegistry
from repro.lsm.db import Checkpoint, LsmConfig, LsmDb
from repro.messaging.log import TP, TopicPartition
from repro.plan.dag import TaskPlan
from repro.reservoir.reservoir import EventReservoir, ReservoirConfig
from repro.state.store import MetricStateStore


@dataclass
class TaskCheckpoint:
    """A consistent snapshot of one task processor."""

    tp: TopicPartition
    offset: int  # next message offset to consume after restore
    reservoir_meta: bytes
    reservoir_files: dict[str, bytes]
    reservoir_sealed: set[str]
    state_checkpoint: Checkpoint
    state_files: dict[str, bytes]
    iterator_positions: dict[str, tuple[int, int]]
    metric_ids: tuple[int, ...]
    #: Where each shipped file's bytes start in the file: a name listed
    #: here carries only its tail past that offset (the receiver holds
    #: the prefix); an unlisted name carries the whole file. Empty on a
    #: materialized checkpoint, and not part of :data:`TASK_CHECKPOINT`.
    file_bases: dict[str, int] = field(default_factory=dict)

    def data_bytes(self) -> int:
        """Transfer size in bytes: the reservoir metadata and every
        file this checkpoint carries."""
        return (
            len(self.reservoir_meta)
            + sum(map(len, self.reservoir_files.values()))
            + sum(map(len, self.state_files.values()))
        )


def _write_lsm_checkpoint(buf: bytearray, checkpoint: Checkpoint) -> None:
    serde.write_bytes(buf, checkpoint.to_bytes())


def _read_lsm_checkpoint(data: memoryview, offset: int) -> tuple[Checkpoint, int]:
    blob, offset = serde.read_bytes(data, offset)
    return Checkpoint.from_bytes(blob), offset


#: immutable files by name, written in name order.
FILE_MAP = mapping(STR, BYTES, sort=True)
#: reservoir iterator cursors ``key -> (chunk_id, index)``; both signed
#: (a cursor parked before the first chunk is ``(-1, -1)``).
ITERATOR_POSITIONS = mapping(STR, tuple_of(SVARINT, SVARINT), sort=True)
_TASK_CHECKPOINT_FIELDS = (
    ("tp", TP),
    ("offset", VARINT),
    ("reservoir_meta", BYTES),
    ("reservoir_files", FILE_MAP),
    ("reservoir_sealed", seq(STR, build=set, sort=True)),
    ("state_checkpoint", Codec(_write_lsm_checkpoint, _read_lsm_checkpoint)),
    ("state_files", FILE_MAP),
    ("iterator_positions", ITERATOR_POSITIONS),
    ("metric_ids", seq(VARINT)),
)
#: The one binary layout of a materialized task checkpoint: what a
#: worker is restored from and what the supervisor's checkpoint store
#: keeps on disk.
TASK_CHECKPOINT = struct(TaskCheckpoint, *_TASK_CHECKPOINT_FIELDS)
#: A checkpoint as a worker ships it: the same fields, then
#: ``file_bases`` — which shipped files are tails, and from where.
TASK_CHECKPOINT_TAILS = struct(
    TaskCheckpoint,
    *_TASK_CHECKPOINT_FIELDS,
    ("file_bases", mapping(STR, VARINT, sort=True)),
)


@dataclass
class BackfillState:
    """A backfilled metric's transferable state (see
    :meth:`TaskProcessor.export_backfill`)."""

    metric_id: int
    state_rows: list[tuple[bytes, bytes]]
    distinct_rows: list[tuple[bytes, bytes]]
    iterator_positions: dict[str, tuple[int, int]]


class TaskProcessor:
    """Computation of all metrics for one (topic, partition)."""

    def __init__(
        self,
        tp: TopicPartition,
        stream: StreamDef,
        reservoir_config: ReservoirConfig | None = None,
        lsm_config: LsmConfig | None = None,
    ) -> None:
        self.tp = tp
        self.stream_name = stream.name
        registry = SchemaRegistry()
        registry.register(stream.schema())
        self._reservoir_config = reservoir_config
        self._lsm_config = lsm_config
        self.reservoir = EventReservoir(
            registry, MemoryStorage(), reservoir_config
        )
        self.state = MetricStateStore(LsmDb(MemoryStorage(), lsm_config))
        self.plan = TaskPlan(self.reservoir, self.state)
        self._metric_defs: dict[int, MetricDef] = {}
        self.next_offset = 0
        self.messages_processed = 0
        self.replays_skipped = 0
        #: The LSM snapshot the latest :meth:`checkpoint` pinned.
        self._pinned_state: Checkpoint | None = None
        #: Optional telemetry registry hook (a shard worker attaches its
        #: own when measurement is on): times reservoir batch appends,
        #: the plan's turns and checkpoints without the engine depending
        #: on the telemetry package.
        self.telemetry = None

    @classmethod
    def build(
        cls,
        tp: TopicPartition,
        stream: StreamDef,
        metrics: Sequence[MetricDef],
        reservoir_config: ReservoirConfig | None = None,
        lsm_config: LsmConfig | None = None,
    ) -> "TaskProcessor":
        """A fresh task processor with ``metrics`` registered in id order.

        Shared by the in-process engine's fresh-start path and the shard
        workers, so both runtimes build byte-identical processors.
        """
        processor = cls(
            tp, stream, reservoir_config=reservoir_config, lsm_config=lsm_config
        )
        for metric in sorted(metrics, key=lambda m: m.metric_id):
            processor.add_metric(metric)
        return processor

    # -- metric management -----------------------------------------------------------

    def add_metric(self, metric: MetricDef) -> None:
        """Register a metric (idempotent on metric id)."""
        if metric.metric_id in self._metric_defs:
            return
        self._metric_defs[metric.metric_id] = metric
        self.plan.add_metric(
            metric.parse(), backfill=metric.backfill, metric_id=metric.metric_id
        )

    def remove_metric(self, metric_id: int) -> None:
        """Unregister a metric."""
        if metric_id in self._metric_defs:
            del self._metric_defs[metric_id]
            self.plan.remove_metric(metric_id)

    def evolve_schema(self, stream: StreamDef) -> None:
        """Register an evolved stream schema with the reservoir registry."""
        self.reservoir.registry.register(stream.schema())

    def metric_ids(self) -> tuple[int, ...]:
        """Registered metric ids, sorted."""
        return tuple(sorted(self._metric_defs))

    def has_metric(self, metric_id: int) -> bool:
        """True when the metric is registered on this processor."""
        return metric_id in self._metric_defs

    def metric_values(self, metric_id: int) -> dict[tuple, dict[str, Any]]:
        """Current per-group results of one registered metric."""
        handle = self.plan._metrics[metric_id]
        agg_specs = [
            (node.agg_index, node.spec.name, node.display_name)
            for node in handle.aggregators
        ]
        return self.state.metric_values(metric_id, agg_specs)

    # -- backfill splice -------------------------------------------------------

    def export_backfill(self, metric_id: int) -> "BackfillState":
        """One metric's graftable state: its rows in both column
        families plus this plan's iterator positions.

        Called on a *shadow* processor that replayed the partition log
        with only this metric registered: reservoir chunking, dedup and
        iterator motion are deterministic functions of the arrival
        sequence, so the shadow's rows and cursor positions are exactly
        what a processor that had the metric from offset 0 would hold.
        """
        state_rows, distinct_rows = self.state.export_metric_rows(metric_id)
        return BackfillState(
            metric_id=metric_id,
            state_rows=state_rows,
            distinct_rows=distinct_rows,
            iterator_positions=self.plan.iterator_positions(),
        )

    def apply_backfill(self, metric: MetricDef, state: "BackfillState") -> None:
        """Splice a backfilled metric into this live processor.

        Must run exactly when ``next_offset`` equals the offset the
        shadow replayed to — then registering the metric, replacing its
        rows wholesale and overwriting its iterator positions leaves the
        processor byte-identical to one that carried the metric from
        offset 0. Share-key collisions are harmless: a shared iterator's
        shadow position equals the live position by the same determinism.
        """
        self.add_metric(metric)
        self.state.import_metric_rows(
            metric.metric_id, state.state_rows, state.distinct_rows
        )
        self.plan.set_iterator_positions(state.iterator_positions)

    # -- the data path ------------------------------------------------------------------

    def process(self, offset: int, event: Event) -> dict[int, dict[str, Any]] | None:
        """Process one message; returns per-metric replies.

        Offsets below ``next_offset`` are replays of messages whose
        effects are already in the restored state (recovery overlap):
        state is **not** mutated again — exactly-once on top of the
        log's at-least-once delivery — but a read-only reply is still
        produced, because the original reply may never have been sent
        (e.g. the active owner failed between processing and replying).
        """
        if offset < self.next_offset:
            self.replays_skipped += 1
            return self.plan.process_event_readonly(event)
        self.next_offset = offset + 1
        self.messages_processed += 1
        result = self.reservoir.append(event)
        if result.stored:
            return self.plan.process_event(result.event)
        # Duplicates / discarded out-of-order events still get a reply
        # with the entity's current values — but must not mutate state.
        return self.plan.process_event_readonly(event)

    def process_batch(
        self, records: Sequence[tuple[int, Event]]
    ) -> list[dict[int, dict[str, Any]] | None]:
        """Process consecutive ``(offset, event)`` messages as a batch.

        Equivalent to calling :meth:`process` per record — same replies,
        same reservoir bytes, same iterator positions — but runs of
        *fresh* messages (non-replay offsets, non-decreasing timestamps
        ahead of the reservoir frontier, unseen event ids) are appended
        through the reservoir's amortized batch path, and a run the
        reservoir stored event for event as itself is handed to the plan
        once (:meth:`TaskPlan.process_run`: each iterator advances once
        per run). Replays, duplicates and out-of-order events fall back
        to the per-event path, which handles them bit-for-bit as before.

        Timestamp-tie semantics (pinned here, mirrored from the
        per-event path): within a tie group the *k*-th event's reply
        window contains tie members ``0..k`` and excludes members
        ``k+1..`` — each event sees everything appended before it plus
        itself, never later arrivals. Tie runs therefore batch through
        the reservoir like strict runs, while each plan turn consumes
        exactly its own event at the evaluation timestamp (``tie_cap=1``).
        A tie that lands exactly on a sealed chunk boundary follows the
        out-of-order policy (rewrite or discard), again matching
        :meth:`process` byte-for-byte via the reservoir's per-event
        append results; such a run takes one plan turn per event.
        """
        replies: list[dict[int, dict[str, Any]] | None] = []
        reservoir = self.reservoir
        plan = self.plan
        index, count = 0, len(records)
        while index < count:
            offset, event = records[index]
            if not self._batchable(offset, event):
                replies.append(self.process(offset, event))
                index += 1
                continue
            # Grow the run while each message stays fresh and in-order
            # (ties allowed: equal timestamps keep the run alive).
            run_end = index + 1
            last_offset, last_ts = offset, event.timestamp
            run_ids = {event.event_id}
            while run_end < count:
                next_offset, next_event = records[run_end]
                if (
                    next_offset <= last_offset
                    or next_event.timestamp < last_ts
                    or next_event.event_id in run_ids
                    or reservoir.has_event_id(next_event.event_id)
                ):
                    break
                run_ids.add(next_event.event_id)
                last_offset, last_ts = next_offset, next_event.timestamp
                run_end += 1
            run = records[index:run_end]
            events = [e for _, e in run]
            telemetry = self.telemetry
            if telemetry is not None:
                started = telemetry.now()
            results = reservoir.append_batch(events)
            if telemetry is not None:
                telemetry.observe_since("worker_reservoir_append_ms", started)
                started = telemetry.now()
            self.next_offset = last_offset + 1
            self.messages_processed += len(run)
            if all(result.event is e for result, e in zip(results, events)):
                replies.extend(plan.process_run(events))
            else:
                for run_event, result in zip(events, results):
                    if result.stored:
                        # In-order events see eval_ts == the stored
                        # event's timestamp on the per-event path (its
                        # own, or the rewrite target for a sealed-boundary
                        # tie); pin it because the batch append already
                        # advanced the reservoir frontier.
                        stored = result.event
                        replies.append(plan.process_event(stored, stored.timestamp, 1))
                    else:
                        # Discarded sealed-boundary tie: reply read-only,
                        # exactly like the per-event path.
                        replies.append(plan.process_event_readonly(run_event))
            if telemetry is not None:
                telemetry.observe_since("worker_plan_ms", started)
            index = run_end
        return replies

    def _batchable(self, offset: int, event: Event) -> bool:
        """True when a message can open a batched fast run."""
        return (
            offset >= self.next_offset
            and event.timestamp > self.reservoir.max_seen_ts
            and not self.reservoir.has_event_id(event.event_id)
        )

    # -- checkpoint / restore --------------------------------------------------------------

    def checkpoint(
        self, held: Mapping[str, int] | None = None, *, barrier_only: bool = False
    ) -> TaskCheckpoint | None:
        """Snapshot reservoir + state + cursors + offset, atomically.

        ``held`` maps each file the receiver already holds to how many
        of its bytes it holds, and the checkpoint ships only the bytes
        past that point: nothing for a sealed reservoir segment held
        whole or for a held LSM table (tables never change), the new
        tail of a segment held in part (``file_bases`` says where each
        tail starts), and every other file whole. A held file is never
        read whole, so a steady-state checkpoint costs the bytes
        appended since the receiver's copy plus the reservoir metadata
        and the new tables — not the open segment again.

        The returned checkpoint carries its file contents, so the LSM
        pin of the checkpoint it supersedes is released here: table
        files compacted away since then are deleted, not kept forever.

        ``barrier_only`` is for a caller that keeps no payload (the
        in-process engine's periodic checkpoint): the same barrier runs
        — state write-back, LSM snapshot, pin rotation — but no payload
        is built (no reservoir metadata, no file read) and the call
        returns None; the offset it stands for is :attr:`next_offset`.

        After the barrier everything alive is frozen out of the cyclic
        collector's reach (``gc.freeze()``): the state a barrier just
        settled would otherwise be re-walked by every full collection.
        Frozen objects are still freed by reference counting; the data
        path makes no reference cycles (``tests/test_gc_gate.py`` pins
        that), so nothing it drops waits on the collector.
        """
        telemetry = self.telemetry
        lsm_stats = self.state.db.stats
        if telemetry is not None:
            started = telemetry.now()
            puts, compactions = lsm_stats.puts, lsm_stats.compactions
        if barrier_only:
            checkpoint = None
            state_cp = self.state.checkpoint()
        else:
            checkpoint = self._full_checkpoint(held or {})
            state_cp = checkpoint.state_checkpoint
        if self._pinned_state is not None:
            self.state.db.release_checkpoint(self._pinned_state)
        self._pinned_state = state_cp
        gc.freeze()
        if telemetry is not None:
            telemetry.observe_since("worker_checkpoint_ms", started)
            telemetry.counter_add(
                "worker_checkpoint_dirty_entries_total", lsm_stats.puts - puts
            )
            telemetry.counter_add(
                "worker_lsm_compactions_total", lsm_stats.compactions - compactions
            )
        return checkpoint

    def _full_checkpoint(self, held: Mapping[str, int]) -> TaskCheckpoint:
        """What :meth:`checkpoint` returns, its LSM snapshot taken here."""
        reservoir_meta = self.reservoir.checkpoint_metadata()
        storage = self.reservoir.storage
        sealed: set[str] = set()
        reservoir_files: dict[str, bytes] = {}
        file_bases: dict[str, int] = {}
        for name in storage.list():
            size = storage.size(name)
            base = held.get(name, 0)
            if base > size:
                base = 0  # the receiver's copy is not a prefix of ours
            if storage.is_sealed(name):
                sealed.add(name)
                if name in held and base == size:
                    continue  # held whole: the sealed list names it
            if base:
                reservoir_files[name] = storage.read(name, base, size - base)
                file_bases[name] = base
            else:
                reservoir_files[name] = storage.read_all(name)
        state_cp = self.state.checkpoint()
        return TaskCheckpoint(
            tp=self.tp,
            offset=self.next_offset,
            reservoir_meta=reservoir_meta,
            reservoir_files=reservoir_files,
            reservoir_sealed=sealed,
            state_checkpoint=state_cp,
            state_files=self.state.export_checkpoint(state_cp, exclude=held.keys()),
            iterator_positions=self.plan.iterator_positions(),
            metric_ids=self.metric_ids(),
            file_bases=file_bases,
        )

    @classmethod
    def restore(
        cls,
        checkpoint: TaskCheckpoint,
        stream: StreamDef,
        metrics: list[MetricDef],
        reservoir_config: ReservoirConfig | None = None,
        lsm_config: LsmConfig | None = None,
        local_files: dict[str, bytes] | None = None,
    ) -> "TaskProcessor":
        """Rebuild a task processor from a checkpoint.

        ``local_files`` supplies file contents the receiving processor
        already holds (stale data), enabling delta transfers: the
        checkpoint may omit those files.
        """
        processor = cls.__new__(cls)
        processor.tp = checkpoint.tp
        processor.stream_name = stream.name
        processor._reservoir_config = reservoir_config
        processor._lsm_config = lsm_config
        processor._metric_defs = {}
        processor.next_offset = checkpoint.offset
        processor.messages_processed = 0
        processor.replays_skipped = 0
        processor._pinned_state = None
        processor.telemetry = None

        merged: dict[str, bytes] = dict(local_files or {})
        merged.update(checkpoint.reservoir_files)
        reservoir_storage = MemoryStorage()
        for name, data in merged.items():
            if name in checkpoint.reservoir_files or name in checkpoint.reservoir_sealed:
                reservoir_storage.create(name)
                reservoir_storage.append(name, data)
                if name in checkpoint.reservoir_sealed:
                    reservoir_storage.seal(name)
        missing = [
            meta_name
            for meta_name in checkpoint.reservoir_sealed
            if not reservoir_storage.exists(meta_name)
        ]
        if missing:
            raise CheckpointError(f"missing reservoir files after transfer: {missing}")
        processor.reservoir = EventReservoir.restore(
            checkpoint.reservoir_meta, reservoir_storage, reservoir_config
        )
        # The stream schema may have evolved past the checkpoint.
        processor.reservoir.registry.register(stream.schema())

        state_files: dict[str, bytes] = {
            name: data
            for name, data in (local_files or {}).items()
            if name in checkpoint.state_checkpoint.all_files()
        }
        state_files.update(checkpoint.state_files)
        processor.state = MetricStateStore.restore(
            checkpoint.state_checkpoint, state_files, config=lsm_config
        )
        processor.plan = TaskPlan(processor.reservoir, processor.state)
        for metric in sorted(metrics, key=lambda m: m.metric_id):
            processor._metric_defs[metric.metric_id] = metric
            processor.plan.add_metric(
                metric.parse(), backfill=False, metric_id=metric.metric_id
            )
        processor.plan.set_iterator_positions(checkpoint.iterator_positions)
        return processor
