"""As-of (time-travel) queries: a metric's values at a past instant.

``as_of_values`` answers "what did this metric read when event time was
``ts``?" without keeping any historical state online: per partition it
rebuilds a shadow processor — from a persisted checkpoint when one
covers only events at or before ``ts``, else from offset 0 — and
replays the log in arrival order, stopping at the first record whose
event timestamp passes ``ts``. Sealed windows fall out naturally: the
shadow's window boundaries are wherever they stood at the stop point.

The checkpoint seed is what makes the replay *bounded*: steady-state
clusters checkpoint continuously, so the tail between the newest usable
checkpoint and the as-of point is short, and
:attr:`AsOfResult.replayed` (asserted strictly below
:attr:`AsOfResult.log_records` in the tests) shows the saving.

Records arrive through a *reader*, ``read(tp, begin, max_records)`` →
:class:`LogPage`: :func:`read_page` over a bus the facade holds, or a
round trip to whichever process owns the partition log — one replay
loop for every topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from repro.engine.catalog import MetricDef, StreamDef
from repro.engine.task import TaskCheckpoint, TaskProcessor
from repro.events.event import Event
from repro.lsm.db import LsmConfig
from repro.messaging.broker import MessageBus
from repro.messaging.cursor import LogCursor
from repro.messaging.log import TopicPartition
from repro.replay.backfill import ReplayError
from repro.reservoir.reservoir import ReservoirConfig


class LogPage(NamedTuple):
    """Up to a page of one partition log's ``(offset, event)`` records,
    plus the offsets the log retains (``start_offset`` rises as
    retention reclaims segments)."""

    entries: list[tuple[int, Event]]
    start_offset: int
    end_offset: int


def read_page(
    bus: MessageBus, tp: TopicPartition, begin: int, max_records: int
) -> LogPage:
    """The events of ``tp`` from ``begin`` (clamped to the retained
    start), unwrapped from their envelopes."""
    with LogCursor(bus, tp, begin) as cursor:
        entries = [
            (message.offset, message.value.event)
            for message in cursor.read(max_records)
        ]
    start = getattr(bus.log(tp), "start_offset", 0)
    return LogPage(entries, start, bus.end_offset(tp))


@dataclass
class AsOfResult:
    """A time-travel read: values + how much log it cost to answer."""

    values: dict[tuple, dict[str, Any]]
    #: log records actually replayed across partitions
    replayed: int
    #: total log records that existed (the unbounded-replay cost)
    log_records: int
    #: partitions whose replay was seeded from a checkpoint
    seeded: int = 0


def as_of_values(
    read: Callable[[TopicPartition, int, int], LogPage],
    tps: Sequence[TopicPartition],
    stream: StreamDef,
    metrics: Sequence[MetricDef],
    metric_id: int,
    as_of: int,
    *,
    checkpoints: Mapping[TopicPartition, TaskCheckpoint] | None = None,
    reservoir_config: ReservoirConfig | None = None,
    lsm_config: LsmConfig | None = None,
    batch: int = 256,
) -> AsOfResult:
    """The queried metric's per-group values as of event time ``as_of``.

    ``read`` pages each partition log in (see :class:`LogPage`);
    ``metrics`` is the catalog's metric list for the topic (the shadow
    must register every metric a seeding checkpoint's state contains);
    ``checkpoints`` offers each partition's newest persisted checkpoint.
    Raises :class:`~repro.replay.backfill.ReplayError` when retention
    already reclaimed records the replay needs.
    """
    merged: dict[tuple, dict[str, Any]] = {}
    replayed = 0
    log_records = 0
    seeded = 0
    sorted_metrics = sorted(metrics, key=lambda m: m.metric_id)
    for tp in tps:
        processor, position = seed_processor(
            tp, stream, sorted_metrics,
            (checkpoints or {}).get(tp), as_of,
            reservoir_config, lsm_config,
        )
        if position > 0:
            seeded += 1
        while True:
            page = read(tp, position, batch)
            if position < page.start_offset:
                raise ReplayError(
                    f"as-of replay for {tp} needs offset {position} "
                    f"but the log starts at {page.start_offset}"
                )
            records = []
            for offset, event in page.entries:
                if event.timestamp > as_of:
                    break
                records.append((offset, event))
            if records:
                processor.process_batch(records)
                replayed += len(records)
                position = records[-1][0] + 1
            if len(records) < len(page.entries) or not page.entries:
                break
        log_records += page.end_offset
        if processor.has_metric(metric_id):
            merged.update(processor.metric_values(metric_id))
    return AsOfResult(
        values=merged, replayed=replayed, log_records=log_records, seeded=seeded
    )


def seed_processor(
    tp: TopicPartition,
    stream: StreamDef,
    metrics: Sequence[MetricDef],
    checkpoint: TaskCheckpoint | None,
    as_of: int,
    reservoir_config: ReservoirConfig | None,
    lsm_config: LsmConfig | None,
) -> tuple[TaskProcessor, int]:
    """A shadow processor + the offset its replay starts at.

    A checkpoint is usable only when every event it contains sits at or
    before the as-of instant (its reservoir's event-time frontier tells
    us) — otherwise it already folded in the future we are rewinding
    past, and the replay must start from offset 0.
    """
    if checkpoint is not None and checkpoint.offset > 0:
        seed_metrics = [
            m for m in metrics if m.metric_id in checkpoint.metric_ids
        ]
        processor = TaskProcessor.restore(
            checkpoint,
            stream,
            seed_metrics,
            reservoir_config=reservoir_config,
            lsm_config=lsm_config,
        )
        if processor.reservoir.max_seen_ts <= as_of:
            return processor, checkpoint.offset
    return (
        TaskProcessor.build(
            tp,
            stream,
            list(metrics),
            reservoir_config=reservoir_config,
            lsm_config=lsm_config,
        ),
        0,
    )
