"""Shadow replay: materializing a late-defined metric from the log.

A :class:`ShadowReplay` is the reader half of a backfill: a private
:class:`~repro.engine.task.TaskProcessor` containing (at least) the new
metric, fed the partition log's ``(offset, event)`` records in arrival
order through a retention-pinning :class:`~repro.messaging.cursor.LogCursor`.
Because reservoir chunking, dedup, out-of-order policy and iterator
motion are deterministic functions of the arrival sequence, a shadow
that replayed ``[0, k)`` holds *exactly* the metric state a processor
that carried the metric from offset 0 would hold at offset ``k`` — so
its exported rows + iterator positions can be grafted into the live
processor the moment the live processor sits at offset ``k``
(:meth:`~repro.engine.task.TaskProcessor.apply_backfill`).

Two seeding modes:

- **offset 0** (log complete): bit-exact, always used while the log
  still starts at 0;
- **nearest persisted checkpoint** (history truncated below the
  checkpoint): the shadow restores the checkpoint, registers the new
  metric with reservoir-window priming, and replays the tail. Values
  are window-correct, but float folds may differ in last-bit rounding
  from a metric defined at offset 0 — the trade for bounded replay
  after retention already reclaimed early segments.

:class:`ShadowSet` is the loop every backfill driver runs over its
shadows — chase the target's frontier, restart when the target was
rebuilt below the shadow — whatever carries the exported state to the
target afterwards.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable

from repro.common.errors import EngineError
from repro.engine.catalog import CreateMetricOp, MetricDef, StreamDef
from repro.engine.task import BackfillState, TaskCheckpoint, TaskProcessor
from repro.lsm.db import LsmConfig
from repro.messaging.broker import MessageBus
from repro.messaging.cursor import LogCursor
from repro.messaging.log import TopicPartition
from repro.reservoir.reservoir import ReservoirConfig


class ReplayError(EngineError):
    """Replay/backfill cannot proceed (e.g. history gone, no seed)."""


class ShadowReplay:
    """One partition's backfill reader + shadow processor.

    ``seed_checkpoint`` is only used once retention reclaimed the log's
    first records; the shadow then restores it with those of
    ``seed_metrics`` (the topic's other metrics) its state holds.
    """

    def __init__(
        self,
        bus: MessageBus,
        tp: TopicPartition,
        stream: StreamDef,
        metric: MetricDef,
        *,
        reservoir_config: ReservoirConfig | None = None,
        lsm_config: LsmConfig | None = None,
        seed_checkpoint: TaskCheckpoint | None = None,
        seed_metrics: Iterable[MetricDef] = (),
    ) -> None:
        self.tp = tp
        self.metric = metric
        self.replayed = 0
        start = bus.log(tp).start_offset
        if start == 0:
            self.processor = TaskProcessor.build(
                tp,
                stream,
                [metric],
                reservoir_config=reservoir_config,
                lsm_config=lsm_config,
            )
            begin = 0
        elif seed_checkpoint is not None and seed_checkpoint.offset >= start:
            self.processor = TaskProcessor.restore(
                seed_checkpoint,
                stream,
                [
                    m for m in seed_metrics
                    if m.metric_id in seed_checkpoint.metric_ids
                    and m.metric_id != metric.metric_id
                ],
                reservoir_config=reservoir_config,
                lsm_config=lsm_config,
            )
            # Window priming from the restored reservoir stands in for
            # the truncated prefix of the log.
            self.processor.add_metric(dataclasses.replace(metric, backfill=True))
            begin = seed_checkpoint.offset
        else:
            raise ReplayError(
                f"cannot backfill {tp}: log starts at {start} and no "
                f"checkpoint at or above it was offered"
            )
        self.cursor = LogCursor(bus, tp, begin)

    @property
    def position(self) -> int:
        """Next log offset the shadow will consume."""
        return self.cursor.position

    def lag(self) -> int:
        """Records between the shadow and the live log end."""
        return self.cursor.lag()

    def step(self, max_records: int = 256, stop: int | None = None) -> int:
        """Replay up to ``max_records`` records (never past ``stop``);
        returns how many log records were consumed."""
        limit = max_records
        if stop is not None:
            limit = min(limit, stop - self.position)
            if limit <= 0:
                return 0
        messages = self.cursor.read(limit)
        records = [(message.offset, message.value.event) for message in messages]
        if records:
            self.processor.process_batch(records)
        self.replayed += len(messages)
        return len(messages)

    def run_to(self, stop: int, max_records: int = 256) -> None:
        """Replay until the shadow sits exactly at ``stop``."""
        while self.position < stop:
            if self.step(max_records, stop=stop) == 0:
                raise ReplayError(
                    f"shadow for {self.tp} stalled at {self.position} "
                    f"before reaching {stop}"
                )

    def export(self) -> BackfillState:
        """The graftable state at the shadow's current offset."""
        return self.processor.export_backfill(self.metric.metric_id)

    def close(self) -> None:
        """Release the retention pin; idempotent."""
        self.cursor.close()


class ShadowSet:
    """The shadows of one backfill, each chasing its target's frontier.

    A target — a task processor, or the task a shard worker runs — sits
    at a frontier offset; its shadow replays toward it and is graftable
    exactly when it sits there too. A target rebuilt *below* its shadow
    (a restart from an older checkpoint, a rebalance onto a fresh
    holder) restarts the replay. Keys are the driver's own (one per
    task, or per holder of a task).
    """

    def __init__(self) -> None:
        self._shadows: dict[object, ShadowReplay] = {}

    def chase(
        self,
        key: object,
        frontier: int,
        batch: int,
        open_shadow: Callable[[], ShadowReplay],
    ) -> tuple[int, ShadowReplay | None]:
        """Replay ``key``'s shadow up to ``batch`` records toward
        ``frontier`` (opening it with ``open_shadow`` when there is
        none); returns the records consumed and, once it sits exactly
        at the frontier, the shadow."""
        shadow = self._shadows.get(key)
        if shadow is not None and shadow.position > frontier:
            shadow.close()
            shadow = None
        if shadow is None:
            shadow = self._shadows[key] = open_shadow()
        work = shadow.step(batch, stop=frontier)
        return work, shadow if shadow.position == frontier else None

    def drop(self, key: object) -> None:
        """Close and forget ``key``'s shadow, if any."""
        shadow = self._shadows.pop(key, None)
        if shadow is not None:
            shadow.close()

    def close(self) -> None:
        """Release every shadow's retention pin; idempotent."""
        for shadow in self._shadows.values():
            shadow.close()
        self._shadows.clear()


class CooperativeBackfill:
    """Backfill driver for the step-driven ``single`` cluster.

    One shadow per (processor unit, partition) holding the metric's
    topic — actives and replicas splice independently, each at its own
    consumption frontier. The cooperative loop is the atomicity story:
    :meth:`step` runs from ``pump()`` while no unit is mid-batch, so
    "shadow position == processor offset" is an exact splice point, and
    ingest between pumps proceeds untouched. Completion publishes the
    ``CreateMetricOp`` to the operations topic, so units discovering the
    metric later (fresh task builds, new nodes) register it normally.
    """

    def __init__(self, cluster, metric: MetricDef, batch: int = 256) -> None:
        self.cluster = cluster
        self.metric = metric
        self.batch = batch
        self.stream = cluster.catalog.streams[metric.stream]
        self.shadows = ShadowSet()
        self.done = False

    def step(self) -> int:
        """Advance every shadow toward its target frontier; splice the
        ones that caught up. Returns records replayed this step."""
        if self.done:
            return 0
        work = 0
        targets: list[tuple[str, TopicPartition, object]] = []
        for node in self.cluster.alive_nodes():
            for unit in node.units:
                for tp, processor in unit.task_processors.items():
                    if tp.topic == self.metric.topic:
                        targets.append((unit.unit_id, tp, processor))
        config = self.cluster.unit_config
        for unit_id, tp, processor in targets:
            if processor.has_metric(self.metric.metric_id):
                continue
            replayed, shadow = self.shadows.chase(
                (unit_id, tp), processor.next_offset, self.batch,
                lambda: ShadowReplay(
                    self.cluster.bus, tp, self.stream, self.metric,
                    reservoir_config=config.reservoir,
                    lsm_config=config.lsm,
                ),
            )
            work += replayed
            if shadow is not None:
                processor.apply_backfill(self.metric, shadow.export())
                self.shadows.drop((unit_id, tp))
        if targets and all(
            processor.has_metric(self.metric.metric_id)
            for _, _, processor in targets
        ):
            # Every live holder is spliced: make the metric durable and
            # visible to late joiners via the operations topic (the
            # catalog re-apply is a setdefault no-op).
            self.cluster._publish_op(CreateMetricOp(self.metric))
            self.done = True
            self.close()
            work += 1
        return work

    def close(self) -> None:
        self.shadows.close()
