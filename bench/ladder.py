"""The ladder: direct, timed calls into single public functions.

Each rung feeds a public function the workload's own post-prefill events
(in ``RUNG_BATCH``-event batches, median microseconds per event) with
nothing else on the path, so a change to one layer moves one rung. The
rungs that sit on a workload's blocking path are also measured in place
by the wrapped run (``bench/trace.py``); the ladder prices the leaves
that are called too often to wrap, and the layers no workload reaches
yet (durable log, columnar codec) so later issues have a before.
"""

from __future__ import annotations

import os
import shutil
import time
from statistics import median

from repro.aggregates.registry import create_aggregator
from repro.common.storage import MemoryStorage
from repro.engine import create_cluster
from repro.engine.catalog import MetricDef, StreamDef, topic_name
from repro.engine.envelope import EventEnvelope
from repro.engine.processor import UnitConfig
from repro.engine.task import TaskProcessor
from repro.events.event import Event
from repro.lsm.db import LsmDb
from repro.messaging.durable import DurableLog
from repro.messaging.log import PartitionLog, TopicPartition
from repro.messaging.segments import FsyncPolicy, SegmentConfig
from repro.server import framing
from repro.server.admission import AdmissionController, TenantQuota
from repro.shard import columnar, wire
from repro.state.store import MetricStateStore, encode_group_key

from bench.workloads import PARTITIONS, STREAM, SUM1, Workload

RUNG_BATCH = 256
RESTORES = 3
_FRAUD3_AGGREGATORS = ("sum", "count", "avg", "max", "min", "stddev")
_TP = TopicPartition(topic_name(STREAM, "cardId"), 0)


def _batches(events):
    return [events[i:i + RUNG_BATCH] for i in range(0, len(events), RUNG_BATCH)]


def _timed_us(function, argument) -> float:
    started = time.perf_counter_ns()
    function(argument)
    return (time.perf_counter_ns() - started) / 1e3


def _us_per_item(function, batches) -> float:
    """Median over batches of one call's wall time per item."""
    return median(_timed_us(function, batch) / len(batch) for batch in batches)


def definitions(workload: Workload) -> tuple[StreamDef, list[MetricDef]]:
    """The catalogue entries the workload's DDL produces."""
    stream = StreamDef(STREAM, tuple(workload.schema.items()), ("cardId",), PARTITIONS)
    metrics = [
        MetricDef(index, query, STREAM, _TP.topic)
        for index, query in enumerate(workload.metrics)
    ]
    return stream, metrics


def live_processors(cluster) -> list[TaskProcessor]:
    """The task processors of an in-process cluster (none for a parallel one)."""
    return [
        processor
        for node in getattr(cluster, "nodes", {}).values()
        for unit in node.units
        for processor in unit.task_processors.values()
    ]


# -- rungs ------------------------------------------------------------------


def _events_and_aggregates(batches) -> dict[str, float]:
    raw = [[(e.event_id, e.timestamp, e.fields) for e in batch] for batch in batches]
    pairs = [[(e["amount"], e) for e in batch] for batch in batches]
    aggregators = [create_aggregator(name) for name in _FRAUD3_AGGREGATORS]

    def fold(batch):
        for aggregator in aggregators:
            aggregator.update_batch(batch, ())

    return {
        "events.materialise_us": _us_per_item(
            lambda batch: [Event(i, t, f) for i, t, f in batch], raw
        ),
        "aggregates.update_batch_us": _us_per_item(fold, pairs),
    }


def _lsm(batches) -> dict[str, float]:
    db = LsmDb(MemoryStorage())
    rows = [
        [
            (MetricStateStore.state_key(0, 0, encode_group_key((e["cardId"], e.event_id))),
             b"\x00" * 24)
            for e in batch
        ]
        for batch in batches
    ]

    def put(batch):
        for key, value in batch:
            db.put(key, value)

    def get(batch):
        for key, _ in batch:
            db.get(key)

    return {"lsm.put_us": _us_per_item(put, rows), "lsm.get_us": _us_per_item(get, rows)}


def _messaging(batches, scratch: str) -> dict[str, float]:
    envelopes = [
        [EventEnvelope(STREAM, e, "node-0", i, 1) for i, e in enumerate(batch)]
        for batch in batches
    ]

    def appender(log):
        def append(batch):
            for envelope in batch:
                log.append(envelope.event["cardId"], envelope, envelope.event.timestamp)
        return append

    out = {"messaging.log.append_us": _us_per_item(appender(PartitionLog(_TP)), envelopes)}
    root = os.path.join(scratch, f"durable-{os.getpid()}")
    config = SegmentConfig(fsync=FsyncPolicy.BATCH)
    try:
        log = DurableLog(_TP, root, config=config)
        try:
            out["messaging.durable.append_us"] = _us_per_item(appender(log), envelopes)
        finally:
            log.close()
        started = time.perf_counter_ns()
        reopened = DurableLog(_TP, root, config=config)
        out["messaging.durable.reopen_ms"] = (time.perf_counter_ns() - started) / 1e6
        reopened.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return out


def _codecs(batches, results) -> dict[str, float]:
    """Work and reply frames as the shard layer ships them, both codecs."""
    work = [
        wire.WorkBatch(_TP, 0, [(offset, e) for offset, e in enumerate(batch)])
        for batch in batches
    ]
    done = [
        wire.BatchDone(
            _TP, len(batch), len(batch),
            [(offset, results[offset % len(results)]) for offset in range(len(batch))],
        )
        for batch in batches
    ]
    out = {}
    for label, codec in (("wire", wire), ("columnar", columnar)):
        for kind, messages in (("work", work), ("done", done)):
            frames = [codec.encode(message) for message in messages]
            out[f"shard.{label}.encode_{kind}_us"] = median(
                _timed_us(codec.encode, message) / RUNG_BATCH for message in messages
            )
            out[f"shard.{label}.decode_{kind}_us"] = median(
                _timed_us(codec.decode, frame) / RUNG_BATCH for frame in frames
            )
            if kind == "work":
                out[f"shard.{label}.work_bytes_per_event"] = (
                    sum(map(len, frames)) / (RUNG_BATCH * len(frames))
                )
    out["server.framing.frame_us"] = median(
        _timed_us(framing.frame, frame) for frame in map(wire.encode, work)
    )
    return out


def _admission(calls: int) -> dict[str, float]:
    controller = AdmissionController(
        default_quota=TenantQuota(
            events_per_sec=1e12, burst=10**12, max_in_flight=10**9
        )
    )

    def trip(_):
        if not controller.admit("bench", 4).ok:
            raise RuntimeError("ladder admission refused")
        controller.complete("bench", 4, 1.0)

    return {"server.admission.admit_us": _us_per_item(
        lambda batch: [trip(item) for item in batch], [range(calls)] * 8
    )}


def _checkpoint(workload: Workload, processor: TaskProcessor, configs) -> dict[str, float]:
    """One ``checkpoint()`` of a processor with unflushed state (a second
    call would find the LSM already flushed), then restores from it."""
    stream, metrics = definitions(workload)
    started = time.perf_counter_ns()
    checkpoint = processor.checkpoint()
    checkpoint_ms = (time.perf_counter_ns() - started) / 1e6
    restore_us = median(
        _timed_us(
            lambda cp: TaskProcessor.restore(
                cp, stream, metrics,
                reservoir_config=configs.reservoir, lsm_config=configs.lsm,
            ),
            checkpoint,
        )
        for _ in range(RESTORES)
    )
    return {
        "engine.task.checkpoint_ms": checkpoint_ms,
        "engine.task.restore_ms": restore_us / 1e3,
        "engine.task.checkpoint_bytes": float(checkpoint.data_bytes()),
    }


def _reservoir_counts(processors) -> dict[str, float]:
    """Counters of the live reservoirs; they repeat exactly for a seed."""
    stats = [p.reservoir.stats for p in processors]
    cache = [p.reservoir.cache.stats for p in processors]
    arrived = sum(s.appended + s.duplicates + s.ooo_discarded for s in stats)
    requests = sum(c.hits + c.demand_misses for c in cache)
    lags = []
    for processor in processors:
        chunk_of = {name: pos[0] for name, pos in processor.plan.iterator_positions().items()}
        head = max(chunk_of.values())
        lags.append(head - min(chunk_of.values()))
    return {
        "reservoir.chunks_closed": float(sum(s.chunks_closed for s in stats)),
        "reservoir.demand_chunk_loads": float(sum(s.demand_chunk_loads for s in stats)),
        "reservoir.prefetch_chunk_loads": float(sum(s.prefetch_chunk_loads for s in stats)),
        "reservoir.cache_hit_ratio": sum(c.hits for c in cache) / requests if requests else 0.0,
        "reservoir.memory_chunks": float(sum(p.reservoir.memory_chunk_count for p in processors)),
        "reservoir.tail_lag_chunks": sum(lags) / len(lags),
        "reservoir.slow_path_frac": sum(
            s.duplicates + s.ooo_discarded + s.ooo_rewritten + s.ooo_inserts for s in stats
        ) / arrived if arrived else 0.0,
        "lsm.flushes": float(sum(p.state.db.stats.flushes for p in processors)),
        "lsm.compactions": float(sum(p.state.db.stats.compactions for p in processors)),
    }


def direct_trip_us(prefill_events, trip_events, trip_size: int) -> float:
    """Median time of the front door's trips sent straight to
    ``RailgunCluster.send_batch`` in this process: the engine's share of
    a trip, so the rest of the trip is the server's."""
    cluster = create_cluster("single")
    try:
        cluster.create_stream(
            STREAM, ["cardId"], partitions=PARTITIONS,
            schema={"cardId": "string", "amount": "float"},
        )
        cluster.create_metric(SUM1[0])
        for batch in _batches(prefill_events):
            cluster.send_batch(STREAM, batch)
        samples = []
        for start in range(0, len(trip_events) - trip_size + 1, trip_size):
            trip = trip_events[start:start + trip_size]
            samples.append(_timed_us(lambda t: cluster.send_batch(STREAM, t), trip))
        return median(samples)
    finally:
        cluster.close()


def run(workload: Workload, events, results, cluster, scratch: str) -> dict[str, float]:
    """Every ladder rung for one workload.

    ``events`` are fresh post-prefill events, ``results`` reply result
    dicts to build reply frames from, ``cluster`` the workload's own
    cluster after its phases (or None when it lives in another process).
    """
    batches = _batches(events)
    out = {}
    out.update(_events_and_aggregates(batches))
    out.update(_lsm(batches))
    out.update(_messaging(batches, scratch))
    out.update(_codecs(batches, results))
    out.update(_admission(RUNG_BATCH))
    processors = live_processors(cluster)
    if processors:
        out.update(_reservoir_counts(processors))
        biggest = max(processors, key=lambda p: p.reservoir.total_events)
        out.update(_checkpoint(workload, biggest, cluster.unit_config))
    else:
        # the state lives in other processes: price a checkpoint on a
        # local processor fed one partition's share of the prefill
        stream, metrics = definitions(workload)
        local = TaskProcessor.build(_TP, stream, metrics)
        share = events[:max(RUNG_BATCH, workload.prefill // PARTITIONS)]
        for offset, batch in enumerate(_batches(share)):
            local.process_batch(
                [(offset * RUNG_BATCH + i, e) for i, e in enumerate(batch)]
            )
        out.update(_reservoir_counts([local]))
        out.update(_checkpoint(workload, local, UnitConfig()))
    return out
