"""Micro-benchmark harness for the ingestion hot path.

Times the batched reservoir append loop (in order and in tie groups),
the reservoir chunk codec (``reservoir_chunk_codec_{narrow,wide}``:
serialize + deserialize of 512-event chunks), the aggregate inner
loops, the state store (``state_apply_resident`` vs
``state_apply_evicting``, ``state_checkpoint_writeback``,
``state_checkpoint_steady_{4k,32k}``, ``state_checkpoint_mixed``), the
task-processor ingestion path and the frontend fan-out, the worker-link
batch codec (``codec_{work_batch,batch_done}_columnar``), the
``IngestBatch``/``ReplyBatch`` codec round of a front-door trip
(``codec_trip_ingest_reply``), plus
the end-to-end engine ingest in single-process,
process-parallel (``engine_ingest_process_{1,4}w``) and
sharded-frontend (``engine_ingest_process_{1,2,4}f``: N frontend
processes over 2 workers) and durable (``engine_ingest_process_durable``:
disk-backed bus, batch fsync) execution, the TCP front door
(``server_ingest_async_{1,64}c``: closed-loop clients through the
asyncio ingest server over a served sharded cluster;
``server_trip_sync_single``: the blocking client's 4-event request/reply
trips against a served single-process cluster, with the same events
through in-process ``send_batch`` as its own reference), the durable-log
family
(``log_append_fsync_{never,batch,always}`` append cost per fsync policy,
``durable_recovery_reopen`` segment-scan recovery time) and the
crash-recovery family (``recovery_from_zero`` vs
``recovery_from_checkpoint``: time-to-recover and events replayed after
a worker kill), and emits a machine-readable JSON report so CI and
future PRs can track the perf trajectory::

    {bench_name: {"events_per_sec": float, "p50_us": float, "p99_us": float}}

The recovery benches add ``recovery_ms`` and ``events_replayed`` keys;
a baseline may declare ``_recovery_floors`` requiring the checkpointed
variant to replay strictly fewer events and recover a minimum factor
faster than from-zero.

Latency percentiles are per-event microseconds derived from per-slice
wall times (a slice is one batch).

Run as a module::

    PYTHONPATH=src python -m repro.bench.perf --out BENCH_micro.json

CI gating::

    python -m repro.bench.perf --baseline benchmarks/baseline_micro.json \
        --tolerance 0.2

``--baseline`` fails the run when a bench's throughput drops more than
``--tolerance`` below the checked-in floor. A baseline may also declare
``_speedup_floors`` — required throughput ratios between measured
benches, each with a
``min_cpus`` guard: the multi-process floors only assert on hosts with
enough cores for the workers to actually run in parallel (a 1-core
container time-slices them, which measures scheduling, not scaling).
``--select SUBSTR`` runs the matching subset (the CI parallel-engine
smoke uses it); baseline floors for unmeasured benches are then skipped.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time
from typing import Callable, Sequence

from repro.aggregates.basic import AvgAggregator, CountAggregator, SumAggregator
from repro.aggregates.minmax import MaxAggregator, MinAggregator
from repro.common.compression import codec_by_name
from repro.engine.catalog import MetricDef, StreamDef
from repro.engine.cluster import RailgunCluster
from repro.engine.task import TaskProcessor
from repro.events.event import Event
from repro.events.generators import FraudWorkload, fraud_schema
from repro.events.schema import FieldType, Schema, SchemaField, SchemaRegistry
from repro.lsm.db import Checkpoint
from repro.messaging.log import TopicPartition
from repro.reservoir.chunk import Chunk
from repro.reservoir.reservoir import EventReservoir, ReservoirConfig
from repro.shard import wire
from repro.shard.parallel import ParallelCluster
from repro.shard.router import ClusterRouter
from repro.state.store import MetricStateStore, encode_group_key

_FIELDS = [
    SchemaField("cardId", FieldType.STRING),
    SchemaField("amount", FieldType.FLOAT),
]


def _registry() -> SchemaRegistry:
    registry = SchemaRegistry()
    registry.register(Schema(list(_FIELDS)))
    return registry


def _events(count: int) -> list[Event]:
    """Fresh, strictly in-order events (the ingestion steady state)."""
    return [
        Event(f"e{i}", i + 1, {"cardId": f"c{i % 100}", "amount": float(i % 97)})
        for i in range(count)
    ]


def _tie_events(count: int, group: int = 8) -> list[Event]:
    """In-order events arriving in equal-timestamp tie groups.

    The tie-heavy shape is the worst case the batched reservoir path
    used to hand back to per-event ``append()``; since the slab path
    learned ties, this bench tracks the win.
    """
    return [
        Event(
            f"t{i}", 1 + i // group,
            {"cardId": f"c{i % 100}", "amount": float(i % 97)},
        )
        for i in range(count)
    ]


def _reservoir_config() -> ReservoirConfig:
    # codec "none" isolates the append-path bookkeeping this harness
    # tracks from the (shared, chunk-size-amortized) compression cost.
    return ReservoirConfig(chunk_max_events=256, codec="none")


def _percentiles_us(samples_us: Sequence[float]) -> tuple[float, float]:
    """Exact (p50, p99) of per-event latencies in microseconds."""
    ordered = sorted(samples_us)
    if not ordered:
        return (0.0, 0.0)
    last = len(ordered) - 1
    p50 = ordered[min(last, int(0.50 * len(ordered)))]
    p99 = ordered[min(last, int(0.99 * len(ordered)))]
    return (p50, p99)


def _measure_slices(
    slices: Sequence[Sequence[Event]],
    run_slice: Callable[[Sequence[Event]], None],
    prepare: Callable[[Sequence[Event]], None] | None = None,
) -> dict[str, float]:
    """Time ``run_slice`` per slice; report throughput + per-event tails.

    ``prepare`` runs before each slice, off the clock.
    """
    samples_us: list[float] = []
    total_events = 0
    clock = time.perf_counter
    started = clock()
    for chunk in slices:
        if prepare is not None:
            prepare_start = clock()
            prepare(chunk)
            started += clock() - prepare_start
        slice_start = clock()
        run_slice(chunk)
        elapsed = clock() - slice_start
        total_events += len(chunk)
        samples_us.append(elapsed * 1e6 / max(1, len(chunk)))
    total = clock() - started
    p50, p99 = _percentiles_us(samples_us)
    return {
        "events_per_sec": total_events / total if total > 0 else 0.0,
        "p50_us": p50,
        "p99_us": p99,
    }


def _slices(events: list[Event], batch_size: int) -> list[list[Event]]:
    return [events[i:i + batch_size] for i in range(0, len(events), batch_size)]


# -- reservoir append ---------------------------------------------------------


def bench_reservoir_append_batch(events: list[Event], batch_size: int) -> dict[str, float]:
    reservoir = EventReservoir(_registry(), config=_reservoir_config())
    return _measure_slices(_slices(events, batch_size), reservoir.append_batch)


def bench_reservoir_append_ties_batch(
    events: list[Event], batch_size: int
) -> dict[str, float]:
    ties = _tie_events(len(events))
    reservoir = EventReservoir(_registry(), config=_reservoir_config())
    return _measure_slices(_slices(ties, batch_size), reservoir.append_batch)


# -- reservoir chunk codec ----------------------------------------------------


def _bench_chunk_codec(registry: SchemaRegistry, events: list[Event]) -> dict[str, float]:
    """Serialize + deserialize per 512-event chunk: what sealing a chunk
    and loading it back costs, with the reservoir's default codec."""
    schema = registry.current()
    config = ReservoirConfig()
    codec = codec_by_name(config.codec)

    def run_slice(slab: list[Event]) -> None:
        chunk = Chunk(0, schema.schema_id)
        chunk.events = slab
        Chunk.deserialize(chunk.serialize(schema, codec), registry.get)

    return _measure_slices(_slices(events, config.chunk_max_events), run_slice)


def bench_reservoir_chunk_codec_narrow(events: list[Event], batch_size: int) -> dict[str, float]:
    return _bench_chunk_codec(_registry(), events)


def bench_reservoir_chunk_codec_wide(events: list[Event], batch_size: int) -> dict[str, float]:
    """32-field events, the shape ``bench/``'s ``shard_wide`` stores."""
    registry = SchemaRegistry()
    registry.register(fraud_schema(32))
    return _bench_chunk_codec(registry, FraudWorkload(total_fields=32).take(len(events)))


# -- aggregate inner loops ----------------------------------------------------


def _aggregators():
    return [
        CountAggregator(),
        SumAggregator(),
        AvgAggregator(),
        MaxAggregator(),
        MinAggregator(),
    ]


def bench_aggregate_update_batch(events: list[Event], batch_size: int) -> dict[str, float]:
    aggregators = _aggregators()

    def run_slice(chunk: Sequence[Event]) -> None:
        pairs = [(event.get("amount"), event) for event in chunk]
        for aggregator in aggregators:
            aggregator.update_batch(pairs, ())

    return _measure_slices(_slices(events, batch_size), run_slice)


# -- state store (resident set, eviction, checkpoint write-back) --------------

#: group keys the state benches fold into, visited round-robin
_STATE_KEYS = [encode_group_key((f"c{i}",)) for i in range(4096)]


def _fold_sums(
    store: MetricStateStore, chunk: Sequence[Event], keys: Sequence[bytes] = _STATE_KEYS
) -> None:
    """One ``sum`` fold per event through ``MetricStateStore.apply``."""
    apply = store.apply
    for event in chunk:
        apply(
            0, 0, "sum", keys[event.timestamp % len(keys)],
            [(event.get("amount"), event)], (),
        )


def _bench_state_apply(
    events: list[Event], batch_size: int, resident_cap: int | None
) -> dict[str, float]:
    store = MetricStateStore(resident_cap=resident_cap)
    return _measure_slices(
        _slices(events, batch_size), lambda chunk: _fold_sums(store, chunk)
    )


def bench_state_apply_resident(events: list[Event], batch_size: int) -> dict[str, float]:
    """Every key fits the resident set: a dict hit and a fold per apply."""
    return _bench_state_apply(events, batch_size, None)


def bench_state_apply_evicting(events: list[Event], batch_size: int) -> dict[str, float]:
    """A cap below the key count under round-robin access: every apply
    misses, evicts a dirty entry (encode + LSM put) and loads one back
    (LSM get + decode) — what each apply cost before the resident set."""
    return _bench_state_apply(events, batch_size, len(_STATE_KEYS) // 4)


#: the six aggregations of ``bench/workloads.py``'s FRAUD3 metrics, as
#: ``(metric_id, agg_index, name)``
_FRAUD3_AGGREGATIONS = (
    (0, 0, "sum"), (0, 1, "count"), (1, 0, "avg"),
    (1, 1, "max"), (2, 0, "min"), (2, 1, "stdDev"),
)


def _fold_fraud3(
    store: MetricStateStore, chunk: Sequence[Event], keys: Sequence[bytes] = _STATE_KEYS
) -> None:
    """The six FRAUD3 folds per event into one group key (``count(*)``
    folds the constant the plan feeds it)."""
    apply = store.apply
    for event in chunk:
        key = keys[event.timestamp % len(keys)]
        amount, star = [(event.get("amount"), event)], [(True, event)]
        for metric_id, agg_index, name in _FRAUD3_AGGREGATIONS:
            apply(metric_id, agg_index, name, key, star if name == "count" else amount, ())


def _bench_state_checkpoint(
    store: MetricStateStore,
    slices: Sequence[Sequence[Event]],
    keys: Sequence[bytes],
    fold: Callable[..., None] = _fold_sums,
) -> dict[str, float]:
    """``checkpoint()`` alone: each slice first runs ``fold`` over its
    events off the clock (by default one ``sum`` entry per event, so
    ``events_per_sec`` = dirty entries/s), then times the sorted bulk
    write-back plus the LSM snapshot. Each checkpoint releases the pin
    of the one before, as a task does."""
    pinned: list[Checkpoint] = []

    def run_slice(chunk: Sequence[Event]) -> None:
        pinned.append(store.checkpoint())
        if len(pinned) > 1:
            store.db.release_checkpoint(pinned.pop(0))

    return _measure_slices(
        slices, run_slice, prepare=lambda chunk: fold(store, chunk, keys)
    )


def bench_state_checkpoint_writeback(
    events: list[Event], batch_size: int
) -> dict[str, float]:
    """From an empty store: the first checkpoints write new keys."""
    return _bench_state_checkpoint(
        MetricStateStore(), _slices(events, batch_size), _STATE_KEYS
    )


def bench_state_checkpoint_mixed(
    events: list[Event], batch_size: int
) -> dict[str, float]:
    """As ``state_checkpoint_writeback``, with the six aggregations the
    bench's FRAUD3 metrics keep per group (six entries per event): what
    the count/avg/min/max/stdDev state encoders add to a checkpoint."""
    return _bench_state_checkpoint(
        MetricStateStore(), _slices(events, batch_size), _STATE_KEYS, _fold_fraud3
    )


#: entries each steady-state checkpoint dirties
_STEADY_DIRTY = 512


def _bench_state_checkpoint_steady(
    events: list[Event], store_entries: int
) -> dict[str, float]:
    """Checkpoints of ``_STEADY_DIRTY`` dirty entries over a store that
    already holds ``store_entries`` checkpointed ones (visited
    round-robin): what a checkpoint costs per dirty entry as the state
    behind it grows. The 4k/32k pair is the "cost follows what changed,
    not what is stored" gate."""
    keys = [encode_group_key((f"c{i}",)) for i in range(store_entries)]
    store = MetricStateStore()
    _fold_sums(store, _events(store_entries), keys)
    store.db.release_checkpoint(store.checkpoint())
    return _bench_state_checkpoint(store, _slices(events, _STEADY_DIRTY), keys)


def bench_state_checkpoint_steady_4k(events: list[Event], batch_size: int) -> dict[str, float]:
    return _bench_state_checkpoint_steady(events, 4_096)


def bench_state_checkpoint_steady_32k(events: list[Event], batch_size: int) -> dict[str, float]:
    return _bench_state_checkpoint_steady(events, 32_768)


# -- task-processor ingestion (reservoir + plan + state) ----------------------


_SUM_COUNT = (
    "SELECT sum(amount), count(*) FROM tx GROUP BY cardId OVER sliding 5 minutes",
)
#: ``bench/workloads.py``'s FRAUD3: three sliding windows (one shared
#: head iterator, three tails), six aggregations, one group-by field
_FRAUD3 = _SUM_COUNT + (
    "SELECT avg(amount), max(amount) FROM tx GROUP BY cardId OVER sliding 1 minutes",
    "SELECT min(amount), stddev(amount) FROM tx GROUP BY cardId OVER sliding 20 minutes",
)
#: events per ``process_batch`` call in ``task_ingest_fraud3`` (a
#: dispatcher's ``BATCH_MAX``)
_PLAN_BATCH = 256


def _task_processor(queries: tuple[str, ...] = _SUM_COUNT) -> TaskProcessor:
    stream = StreamDef(
        "tx", tuple((f.name, f.field_type.value) for f in _FIELDS), ("cardId",), 1
    )
    processor = TaskProcessor(
        TopicPartition("tx.cardId", 0), stream, reservoir_config=_reservoir_config()
    )
    for metric_id, query in enumerate(queries):
        processor.add_metric(MetricDef(metric_id, query, "tx", "tx.cardId", False))
    return processor


def bench_task_ingest_batch(events: list[Event], batch_size: int) -> dict[str, float]:
    processor = _task_processor()
    offsets = iter(range(len(events)))

    def run_slice(chunk: Sequence[Event]) -> None:
        processor.process_batch([(next(offsets), event) for event in chunk])

    return _measure_slices(_slices(events, batch_size), run_slice)


def bench_task_ingest_fraud3(events: list[Event], batch_size: int) -> dict[str, float]:
    """``process_batch`` over FRAUD3 in in-order 256-event batches, the
    events 100 ms of event time apart so every window fills and expires
    (about one exit per window per event once full): the plan's rung,
    which one sum/count leaf cannot show."""
    processor = _task_processor(_FRAUD3)
    spaced = [Event(e.event_id, 100 * e.timestamp, e.fields) for e in events]
    offsets = iter(range(len(spaced)))

    def run_slice(chunk: Sequence[Event]) -> None:
        processor.process_batch([(next(offsets), event) for event in chunk])

    return _measure_slices(_slices(spaced, _PLAN_BATCH), run_slice)


# -- frontend fan-out ---------------------------------------------------------


def _frontend_cluster() -> RailgunCluster:
    cluster = RailgunCluster(nodes=1, processor_units=1)
    cluster.create_stream(
        "tx", ["cardId"], partitions=2,
        schema={"cardId": "string", "amount": "float"},
    )
    cluster.run_until_quiet(max_rounds=50)
    return cluster


def bench_frontend_send_batch(events: list[Event], batch_size: int) -> dict[str, float]:
    frontend = _frontend_cluster().nodes["node-0"].frontend

    def run_slice(chunk: Sequence[Event]) -> None:
        frontend.send_batch("tx", chunk)

    return _measure_slices(_slices(events, batch_size), run_slice)


# -- worker-link batch codec ---------------------------------------------------

#: events per codec batch: the dispatchers' ``BATCH_MAX``
_CODEC_BATCH = 256
_CODEC_TP = TopicPartition("tx.cardId", 0)


def _work_records(events: list[Event]) -> list[list]:
    """``WorkBatch.records`` lists: 2-field events, then 32-field ones."""
    half = len(events) // 2
    wide = FraudWorkload(total_fields=32).take(len(events) - half)
    return _slices(list(enumerate(events[:half] + wide)), _CODEC_BATCH)


def _done_replies(events: list[Event]) -> list[list]:
    """``BatchDone.replies`` lists: one two-column metric per reply, then
    eight four-column metrics (32 values) per reply."""
    columns = ("sum(amount)", "count(*)", "avg(amount)", "max(amount)")
    half = len(events) // 2
    replies = []
    for offset, event in enumerate(events):
        metrics, width = (1, 2) if offset < half else (8, 4)
        values = {
            # floats in the even columns, ints in the odd ones
            column: offset if index & 1 else event["amount"] + index
            for index, column in enumerate(columns[:width])
        }
        replies.append((offset, {metric_id: values for metric_id in range(metrics)}))
    return _slices(replies, _CODEC_BATCH)


def _bench_codec(build, slices: list[list]) -> dict[str, float]:
    """Encode + decode round trips of one message per slice."""

    def run_slice(chunk: list) -> None:
        wire.decode(wire.encode(build(chunk)))

    return _measure_slices(slices, run_slice)


def _work_batch(records: list) -> wire.WorkBatch:
    return wire.WorkBatch(_CODEC_TP, 0, records)


def _batch_done(replies: list) -> wire.BatchDone:
    return wire.BatchDone(_CODEC_TP, replies[-1][0] + 1, len(replies), replies)


def bench_codec_work_batch_columnar(events: list[Event], batch_size: int) -> dict[str, float]:
    """What every worker link pays per shipped event (encode + decode)."""
    return _bench_codec(_work_batch, _work_records(events))


def bench_codec_batch_done_columnar(events: list[Event], batch_size: int) -> dict[str, float]:
    return _bench_codec(_batch_done, _done_replies(events))


def bench_codec_trip_ingest_reply(events: list[Event], batch_size: int) -> dict[str, float]:
    """The codec share of a front-door trip: a ``_TRIP_EVENTS``-event
    ``IngestBatch`` and its ``ReplyBatch``, each encoded and decoded
    once — client and server between them do exactly that per trip."""

    def run_slice(chunk: list[Event]) -> None:
        ingest = wire.decode(
            wire.encode(wire.IngestBatch("tx", [(c, e, ()) for c, e in enumerate(chunk)]))
        )
        replies = [
            (c, "tx", {0: {"sum(amount)": event["amount"], "count(*)": c}})
            for c, event, _ in ingest.entries
        ]
        wire.decode(wire.encode(wire.ReplyBatch(replies)))

    return _measure_slices(_slices(events, _TRIP_EVENTS), run_slice)


# -- end-to-end engine ingest (single-process vs process-parallel) ------------

#: mirrored stream/metric used by every engine e2e bench
_ENGINE_STREAM = dict(
    partitions=4, schema={"cardId": "string", "amount": "float"}
)
_ENGINE_METRIC = (
    "SELECT sum(amount), count(*) FROM tx GROUP BY cardId "
    "OVER sliding 5 minutes"
)


def _single_cluster() -> RailgunCluster:
    cluster = RailgunCluster(nodes=1, processor_units=2)
    cluster.create_stream("tx", ["cardId"], **_ENGINE_STREAM)
    cluster.create_metric(_ENGINE_METRIC)
    cluster.run_until_quiet(max_rounds=50)
    return cluster


def bench_engine_ingest_single_process(
    events: list[Event], batch_size: int
) -> dict[str, float]:
    """Batched client→reply ingest through the cooperative cluster."""
    cluster = _single_cluster()

    def run_slice(chunk: Sequence[Event]) -> None:
        cluster.send_batch("tx", chunk, max_rounds=200_000)

    return _measure_slices(_slices(events, batch_size), run_slice)


def _stage_histograms(cluster) -> dict[str, dict[str, float]]:
    """Per-stage histogram summaries from the cluster's merged telemetry
    snapshot, keyed by metric name; empty when telemetry is disabled."""
    stages: dict[str, dict[str, float]] = {}
    for name, hist in cluster.telemetry().get("histograms", {}).items():
        stages[name] = {
            key: hist[key]
            for key in ("count", "sum_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms")
            if key in hist
        }
    return stages


def _bench_engine_ingest_process(
    events: list[Event], batch_size: int, workers: int
) -> dict[str, float]:
    # Cadence off: these benches gate pure ingest scaling against the
    # PR-2 floors; periodic checkpoint cost is the recovery family's
    # axis, not this one's.
    with ParallelCluster(workers=workers, checkpoint_every=None) as cluster:
        cluster.create_stream("tx", ["cardId"], **_ENGINE_STREAM)
        cluster.create_metric(_ENGINE_METRIC)

        def run_slice(chunk: Sequence[Event]) -> None:
            cluster.send_batch("tx", chunk)

        result = _measure_slices(_slices(events, batch_size), run_slice)
        result["stages"] = _stage_histograms(cluster)
        return result


def bench_engine_ingest_process_1w(events: list[Event], batch_size: int) -> dict[str, float]:
    return _bench_engine_ingest_process(events, batch_size, workers=1)


def bench_engine_ingest_process_4w(events: list[Event], batch_size: int) -> dict[str, float]:
    return _bench_engine_ingest_process(events, batch_size, workers=4)


def _bench_engine_ingest_frontends(
    events: list[Event], batch_size: int, frontends: int
) -> dict[str, float]:
    """Batched ingest through the sharded-frontend topology.

    Workers are held at 2 across the family so the only variable is the
    frontend count: the 1f run measures the router architecture with a
    single frontend process (the coordinator ceiling relocated into one
    child), and the 2f/4f runs measure how far sharding the coordinator
    raises it. The CI floor requires 2f >= 1.4x 1f on >=4-core hosts.
    """
    with ClusterRouter(
        workers=2, frontends=frontends, checkpoint_every=None
    ) as cluster:
        cluster.create_stream("tx", ["cardId"], **_ENGINE_STREAM)
        cluster.create_metric(_ENGINE_METRIC)

        def run_slice(chunk: Sequence[Event]) -> None:
            cluster.send_batch("tx", chunk)

        result = _measure_slices(_slices(events, batch_size), run_slice)
        result["stages"] = _stage_histograms(cluster)
        return result


def bench_engine_ingest_process_1f(events: list[Event], batch_size: int) -> dict[str, float]:
    return _bench_engine_ingest_frontends(events, batch_size, frontends=1)


def bench_engine_ingest_process_2f(events: list[Event], batch_size: int) -> dict[str, float]:
    return _bench_engine_ingest_frontends(events, batch_size, frontends=2)


def bench_engine_ingest_process_4f(events: list[Event], batch_size: int) -> dict[str, float]:
    return _bench_engine_ingest_frontends(events, batch_size, frontends=4)


# -- TCP front door (asyncio server, N concurrent connections) ----------------


#: Events per closed-loop round trip in the server benches. Small on
#: purpose: the family's axis is round-trip *latency* vs connection
#: *pipelining*, so the per-trip batch must not amortize the trip away.
_SERVER_CHUNK = 16

#: Event budget for the serialized 1c run (~1k events/s when
#: latency-bound; throughput stabilizes within a few hundred trips).
_SERVER_1C_EVENTS = 4_000


def _bench_server_ingest_async(
    events: list[Event], batch_size: int, clients: int
) -> dict[str, float]:
    """Closed-loop ingest through the asyncio front door over TCP.

    A served sharded cluster (2 workers, 2 frontends) takes
    ``clients`` concurrent connections, the event stream striped across
    them; every client sends a ``_SERVER_CHUNK``-event batch and awaits
    the replies before sending the next (closed loop — the harness
    ``batch_size`` is deliberately not used here, the fixed small trip
    is the bench's axis). One connection measures the per-round-trip
    ceiling (frame + admission + dispatch + fan-in, serialized); many
    connections measure how far the router's pipelined service loop
    overlaps those trips. The CI floor requires 64c >= 2x 1c on
    >=4-core hosts.
    """
    import asyncio

    from repro.server.admission import AdmissionController, TenantQuota
    from repro.server.client import AsyncRailgunClient
    from repro.server.server import serve_cluster

    del batch_size
    if clients == 1:
        events = events[:_SERVER_1C_EVENTS]

    # Admission sized out of the way: this bench measures the data
    # path, not the shed path (test_server_frontdoor.py covers that).
    admission = AdmissionController(
        default_quota=TenantQuota(
            events_per_sec=1e9, burst=1 << 20, max_in_flight=1 << 20,
        ),
        max_in_flight=1 << 20,
    )
    with ClusterRouter(workers=2, frontends=2, checkpoint_every=None) as cluster:
        cluster.create_stream("tx", ["cardId"], **_ENGINE_STREAM)
        cluster.create_metric(_ENGINE_METRIC)
        handle = serve_cluster(cluster, admission=admission)
        host, port = handle.address
        try:
            shares = [events[i::clients] for i in range(clients)]

            async def one_client(share: list[Event]) -> list[float]:
                samples: list[float] = []
                async with AsyncRailgunClient(host, port) as client:
                    for chunk in _slices(share, _SERVER_CHUNK):
                        started = time.perf_counter()
                        await client.send_batch("tx", chunk)
                        elapsed = time.perf_counter() - started
                        samples.append(elapsed * 1e6 / max(1, len(chunk)))
                return samples

            async def run_all() -> list[list[float]]:
                return await asyncio.gather(
                    *(one_client(share) for share in shares)
                )

            started = time.perf_counter()
            per_client = asyncio.run(run_all())
            total = time.perf_counter() - started
        finally:
            handle.stop()
    samples = [sample for client in per_client for sample in client]
    p50, p99 = _percentiles_us(samples)
    return {
        "events_per_sec": len(events) / total if total > 0 else 0.0,
        "p50_us": p50,
        "p99_us": p99,
    }


def bench_server_ingest_async_1c(events: list[Event], batch_size: int) -> dict[str, float]:
    return _bench_server_ingest_async(events, batch_size, clients=1)


def bench_server_ingest_async_64c(events: list[Event], batch_size: int) -> dict[str, float]:
    return _bench_server_ingest_async(events, batch_size, clients=64)


#: Events per trip and event budget of ``server_trip_sync_single``: the
#: per-request shape ``bench/``'s ``frontdoor_trips`` workload measures.
_TRIP_EVENTS = 4
_TRIP_BUDGET = 8_000


def bench_server_trip_sync_single(
    events: list[Event], batch_size: int
) -> dict[str, float]:
    """Closed-loop request/reply trips: blocking client → served ``single``.

    One :class:`RailgunClient` sends a ``_TRIP_EVENTS``-event batch and
    waits for its replies before the next — a caller that scores each
    request. Server and client share this process (and its GIL); what
    the entry prices is the front door's own work per trip: two frames
    each way, admission, the loop's wake-ups. The same events then go
    through an identical cluster's in-process ``send_batch``, so the
    entry reports how much of a trip is front door
    (``overhead_frac`` = 1 − in-process time / trip time).
    """
    from repro.server.client import RailgunClient
    from repro.server.server import serve_cluster

    del batch_size
    trips = _slices(events[:_TRIP_BUDGET], _TRIP_EVENTS)

    direct_cluster = _single_cluster()
    direct = _measure_slices(
        trips, lambda chunk: direct_cluster.send_batch("tx", chunk)
    )
    direct_cluster.close()

    cluster = _single_cluster()
    handle = serve_cluster(cluster)
    try:
        with RailgunClient(*handle.address) as client:
            result = _measure_slices(
                trips, lambda chunk: client.send_batch("tx", chunk)
            )
    finally:
        handle.stop()
        cluster.close()
    result["direct_events_per_sec"] = direct["events_per_sec"]
    result["overhead_frac"] = (
        1.0 - result["events_per_sec"] / direct["events_per_sec"]
    )
    return result


# -- durable segmented log (fsync policies + recovery reopen) -----------------


def _bench_log_append(events: list[Event], batch_size: int, fsync: str) -> dict[str, float]:
    """Append throughput of one durable partition log under a policy.

    Events flow through the same codec + CRC framing the durable bus
    uses, so this measures the real per-record durability tax:
    ``never`` = encode + buffered write, ``batch`` = plus one fsync per
    flush threshold, ``always`` = one fsync per record (the paper's
    ack=all analogue; orders of magnitude slower on real disks, so it
    gets a reduced event budget).
    """
    import shutil
    import tempfile

    from repro.messaging.durable import DurableLog
    from repro.messaging.segments import SegmentConfig, fsync_policy

    if fsync == "always":
        events = events[: min(len(events), 2000)]
    root = tempfile.mkdtemp(prefix="railgun-bench-log-")
    try:
        log = DurableLog(
            TopicPartition("bench", 0),
            root,
            config=SegmentConfig(fsync=fsync_policy(fsync)),
        )

        def run_slice(chunk: Sequence[Event]) -> None:
            append = log.append
            for event in chunk:
                append(event.event_id, event, event.timestamp)

        result = _measure_slices(_slices(events, batch_size), run_slice)
        log.close()
        return result
    finally:
        shutil.rmtree(root, ignore_errors=True)


def bench_log_append_fsync_never(events: list[Event], batch_size: int) -> dict[str, float]:
    return _bench_log_append(events, batch_size, "never")


def bench_log_append_fsync_batch(events: list[Event], batch_size: int) -> dict[str, float]:
    return _bench_log_append(events, batch_size, "batch")


def bench_log_append_fsync_always(events: list[Event], batch_size: int) -> dict[str, float]:
    return _bench_log_append(events, batch_size, "always")


def bench_durable_recovery_reopen(events: list[Event], batch_size: int) -> dict[str, float]:
    """Time reopening a durable log: the segment scan + decode that a
    crashed frontend (or reopened coordinator) pays before serving.

    ``events_per_sec`` is records recovered per second of reopen time;
    ``recovery_ms`` is the wall time of one reopen.
    """
    import shutil
    import tempfile
    import time as _time

    from repro.messaging.durable import DurableLog

    root = tempfile.mkdtemp(prefix="railgun-bench-reopen-")
    try:
        tp = TopicPartition("bench", 0)
        log = DurableLog(tp, root)
        for event in events:
            log.append(event.event_id, event, event.timestamp)
        log.close()
        samples: list[float] = []
        for _ in range(3):
            started = _time.perf_counter()
            reopened = DurableLog(tp, root)
            samples.append(_time.perf_counter() - started)
            assert reopened.end_offset == len(events)
            reopened.close()
        best = min(samples)
        per_event_us = best * 1e6 / max(1, len(events))
        return {
            "events_per_sec": len(events) / best if best > 0 else 0.0,
            "p50_us": per_event_us,
            "p99_us": per_event_us,
            "recovery_ms": best * 1e3,
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def bench_engine_ingest_process_durable(
    events: list[Event], batch_size: int
) -> dict[str, float]:
    """End-to-end process-mode ingest over a durable (batch-fsync) bus.

    The comparison partner is ``engine_ingest_process_1w`` (same
    topology, in-memory bus); the baseline's ``_speedup_floors`` entry
    requires the durable variant to stay within 2x of it.
    """
    import shutil
    import tempfile

    root = tempfile.mkdtemp(prefix="railgun-bench-durable-")
    try:
        with ParallelCluster(
            workers=1, checkpoint_every=None, durable_dir=root
        ) as cluster:
            cluster.create_stream("tx", ["cardId"], **_ENGINE_STREAM)
            cluster.create_metric(_ENGINE_METRIC)

            def run_slice(chunk: Sequence[Event]) -> None:
                cluster.send_batch("tx", chunk)

            result = _measure_slices(_slices(events, batch_size), run_slice)
            result["stages"] = _stage_histograms(cluster)
            return result
    finally:
        shutil.rmtree(root, ignore_errors=True)


# -- crash recovery (from-zero vs from-checkpoint) ----------------------------

#: events ingested before the crash in the recovery benches; the
#: checkpointed variant snapshots after 7/8 of them, so it replays 1/8
#: of the history while the from-zero variant replays all of it.
_RECOVERY_EVENTS = 6_000


def _bench_recovery(events: list[Event], checkpoint: bool) -> dict[str, float]:
    """Kill a worker and time restart + replay until the cluster is quiet.

    Reports the harness's standard throughput shape — ``events_per_sec``
    is history size over time-to-recover, so the from-checkpoint /
    from-zero ratio is exactly the recovery speedup — plus two extra
    keys CI tracks: ``recovery_ms`` (wall time) and ``events_replayed``
    (records reprocessed during recovery; bounded replay means strictly
    fewer than from-zero).
    """
    events = events[:_RECOVERY_EVENTS]
    split = (len(events) * 7) // 8
    with ParallelCluster(workers=2, checkpoint_every=None) as cluster:
        cluster.create_stream("tx", ["cardId"], **_ENGINE_STREAM)
        cluster.create_metric(_ENGINE_METRIC)
        cluster.send_batch("tx", events[:split])
        if checkpoint:
            cluster.checkpoint_now()
        cluster.send_batch("tx", events[split:])
        processed_before = cluster.total_messages_processed()
        victim = cluster.worker_ids()[0]
        started = time.perf_counter()
        cluster.kill_worker(victim)
        deadline = started + 120.0
        while not cluster.supervisor.restarts:
            if time.perf_counter() > deadline:
                raise RuntimeError(
                    "recovery bench: worker restart not detected within 120s"
                )
            cluster.pump()
        cluster.run_until_quiet()
        recovery_s = time.perf_counter() - started
        replayed = cluster.total_messages_processed() - processed_before
    per_event_us = recovery_s * 1e6 / max(1, replayed)
    return {
        "events_per_sec": len(events) / recovery_s,
        "p50_us": per_event_us,
        "p99_us": per_event_us,
        "recovery_ms": recovery_s * 1e3,
        "events_replayed": float(replayed),
    }


def bench_recovery_from_zero(events: list[Event], batch_size: int) -> dict[str, float]:
    return _bench_recovery(events, checkpoint=False)


def bench_recovery_from_checkpoint(events: list[Event], batch_size: int) -> dict[str, float]:
    return _bench_recovery(events, checkpoint=True)


BENCHES: dict[str, Callable[[list[Event], int], dict[str, float]]] = {
    "reservoir_append_batch": bench_reservoir_append_batch,
    "reservoir_append_ties_batch": bench_reservoir_append_ties_batch,
    "reservoir_chunk_codec_narrow": bench_reservoir_chunk_codec_narrow,
    "reservoir_chunk_codec_wide": bench_reservoir_chunk_codec_wide,
    "aggregate_update_batch": bench_aggregate_update_batch,
    "state_apply_resident": bench_state_apply_resident,
    "state_apply_evicting": bench_state_apply_evicting,
    "state_checkpoint_writeback": bench_state_checkpoint_writeback,
    "state_checkpoint_steady_4k": bench_state_checkpoint_steady_4k,
    "state_checkpoint_steady_32k": bench_state_checkpoint_steady_32k,
    "state_checkpoint_mixed": bench_state_checkpoint_mixed,
    "task_ingest_batch": bench_task_ingest_batch,
    "task_ingest_fraud3": bench_task_ingest_fraud3,
    "frontend_send_batch": bench_frontend_send_batch,
    "codec_work_batch_columnar": bench_codec_work_batch_columnar,
    "codec_batch_done_columnar": bench_codec_batch_done_columnar,
    "codec_trip_ingest_reply": bench_codec_trip_ingest_reply,
    "engine_ingest_single_process": bench_engine_ingest_single_process,
    "engine_ingest_process_1w": bench_engine_ingest_process_1w,
    "engine_ingest_process_4w": bench_engine_ingest_process_4w,
    "engine_ingest_process_1f": bench_engine_ingest_process_1f,
    "engine_ingest_process_2f": bench_engine_ingest_process_2f,
    "engine_ingest_process_4f": bench_engine_ingest_process_4f,
    "engine_ingest_process_durable": bench_engine_ingest_process_durable,
    "server_ingest_async_1c": bench_server_ingest_async_1c,
    "server_ingest_async_64c": bench_server_ingest_async_64c,
    "server_trip_sync_single": bench_server_trip_sync_single,
    "log_append_fsync_never": bench_log_append_fsync_never,
    "log_append_fsync_batch": bench_log_append_fsync_batch,
    "log_append_fsync_always": bench_log_append_fsync_always,
    "durable_recovery_reopen": bench_durable_recovery_reopen,
    "recovery_from_zero": bench_recovery_from_zero,
    "recovery_from_checkpoint": bench_recovery_from_checkpoint,
}

#: e2e + disk-touching benches: heavier per event (whole cluster, or an
#: fsync, per run), so they get a capped event budget and skip the
#: generic warmup pass.
ENGINE_BENCHES = frozenset(
    name
    for name in BENCHES
    if name.startswith(
        ("engine_ingest", "server_", "recovery_", "log_append", "durable_")
    )
)


def run_benches(
    event_count: int = 100_000,
    batch_size: int = 512,
    warmup: bool = True,
    engine_event_count: int = 20_000,
    select: str | None = None,
) -> dict[str, dict[str, float]]:
    """Run every (or the selected subset of) bench; returns the report."""
    events = _events(event_count)
    engine_events = events[:engine_event_count]
    results: dict[str, dict[str, float]] = {}
    try:
        for name, bench in BENCHES.items():
            if select is not None and select not in name:
                continue
            # The event pool and whatever earlier entries left alive are
            # the harness's heap, not the engine's garbage, and the
            # process-topology entries fork their workers from it: a
            # full collection walking it (0.1-0.6 s, in this process or
            # a child, the more the later the entry ran) would land
            # inside timed batches. Frozen objects are never scanned.
            gc.collect()
            gc.freeze()
            if name in ENGINE_BENCHES:
                results[name] = bench(engine_events, batch_size)
                continue
            if warmup:
                bench(_events(min(event_count, 2 * batch_size)), batch_size)
            results[name] = bench(events, batch_size)
    finally:
        gc.unfreeze()  # callers in a longer-lived process get their heap back
    return results


def check_baseline(
    results: dict[str, dict[str, float]],
    baseline: dict[str, dict[str, float]],
    tolerance: float,
    require_all: bool = True,
) -> list[str]:
    """Regression messages for benches slower than baseline - tolerance.

    ``require_all=False`` (a ``--select`` run) tolerates registered
    benches the selection left out; a name that is not in
    :data:`BENCHES` fails either way — a deleted or renamed bench must
    not switch its gate off.
    """
    failures = []
    for name, floor in baseline.items():
        if name.startswith("_"):
            continue  # annotation keys like "_comment", "_speedup_floors"
        current = results.get(name)
        if current is None:
            if name not in BENCHES:
                failures.append(f"{name}: not a registered bench")
            elif require_all:
                failures.append(f"{name}: present in baseline but not measured")
            continue
        allowed = floor["events_per_sec"] * (1.0 - tolerance)
        if current["events_per_sec"] < allowed:
            failures.append(
                f"{name}: {current['events_per_sec']:,.0f} events/s is below "
                f"{allowed:,.0f} (baseline {floor['events_per_sec']:,.0f} "
                f"- {tolerance:.0%} tolerance)"
            )
    return failures


def _floor_measured(
    bench: str,
    over: str,
    results: dict[str, dict[str, float]],
    failures: list[str],
    skips: list[str],
) -> bool:
    """True when both sides of a floor were measured; else file why not.

    A registered bench this run did not select is a skip; a name that is
    not in :data:`BENCHES` at all is a failure whatever the selection.
    """
    missing = [name for name in (bench, over) if name not in results]
    if not missing:
        return True
    unknown = [name for name in missing if name not in BENCHES]
    if unknown:
        failures.append(
            f"{bench}/{over}: {', '.join(unknown)}: not a registered bench"
        )
    else:
        skips.append(f"{bench}/{over}: not measured in this run")
    return False


def check_speedup_floors(
    results: dict[str, dict[str, float]],
    floors: Sequence[dict],
    cpu_count: int | None = None,
) -> tuple[list[str], list[str]]:
    """Enforce baseline ``_speedup_floors``; returns (failures, skips).

    Each floor requires ``results[bench] >= min_ratio * results[over]``.
    A floor with ``min_cpus`` only asserts when the host has that many
    cores — a multi-process engine cannot out-run a single process on a
    single core, where the workers merely time-slice it. Skipped floors
    are reported, never silently dropped; a floor naming an
    unregistered bench fails.
    """
    if cpu_count is None:
        cpu_count = os.cpu_count() or 1
    failures: list[str] = []
    skips: list[str] = []
    for floor in floors:
        bench, over = floor["bench"], floor["over"]
        min_ratio = float(floor["min_ratio"])
        min_cpus = int(floor.get("min_cpus", 1))
        if not _floor_measured(bench, over, results, failures, skips):
            continue
        ratio = results[bench]["events_per_sec"] / results[over]["events_per_sec"]
        if cpu_count < min_cpus:
            skips.append(
                f"{bench}/{over}: measured {ratio:.2f}x but host has "
                f"{cpu_count} cpu(s) < required {min_cpus}; floor of "
                f"{min_ratio:.2f}x only asserts on parallel hardware"
            )
            continue
        if ratio < min_ratio:
            failures.append(
                f"{bench} is only {ratio:.2f}x {over} "
                f"(required {min_ratio:.2f}x at >= {min_cpus} cpus)"
            )
    return failures, skips


def check_recovery_floors(
    results: dict[str, dict[str, float]],
    floors: Sequence[dict],
) -> tuple[list[str], list[str]]:
    """Enforce baseline ``_recovery_floors``; returns (failures, skips).

    Each floor compares a checkpointed-recovery bench against its
    from-zero counterpart: it must replay **strictly fewer** events
    (that's the whole point of checkpoint shipping — the count is
    deterministic, so no tolerance) and recover at least
    ``min_time_ratio`` times faster on wall time.
    """
    failures: list[str] = []
    skips: list[str] = []
    for floor in floors:
        bench, over = floor["bench"], floor["over"]
        min_time_ratio = float(floor.get("min_time_ratio", 1.0))
        if not _floor_measured(bench, over, results, failures, skips):
            continue
        if (
            "events_replayed" not in results[bench]
            or "events_replayed" not in results[over]
        ):
            failures.append(
                f"{bench}/{over}: _recovery_floors entry names a bench "
                f"without recovery metrics (recovery_ms/events_replayed)"
            )
            continue
        replayed = results[bench]["events_replayed"]
        replayed_over = results[over]["events_replayed"]
        if replayed >= replayed_over:
            failures.append(
                f"{bench} replayed {replayed:,.0f} events, not strictly fewer "
                f"than {over}'s {replayed_over:,.0f}"
            )
        time_ratio = results[over]["recovery_ms"] / results[bench]["recovery_ms"]
        if time_ratio < min_time_ratio:
            failures.append(
                f"{bench} recovered only {time_ratio:.2f}x faster than {over} "
                f"({results[bench]['recovery_ms']:,.0f} ms vs "
                f"{results[over]['recovery_ms']:,.0f} ms; required "
                f"{min_time_ratio:.2f}x)"
            )
    return failures, skips


#: The four stage histograms that decompose ``engine_batch_ms``.
ENGINE_STAGE_PARTS = (
    "engine_ingest_ms",
    "engine_dispatch_ms",
    "engine_collect_ms",
    "engine_reply_ms",
)


def check_telemetry_decomposition(
    results: dict[str, dict[str, float]],
    bench: str = "engine_ingest_process_1w",
    tolerance: float = 0.10,
) -> list[str]:
    """Require the per-stage telemetry histograms to decompose the
    end-to-end batch time: sum(stage sums) within ``tolerance`` of
    ``engine_batch_ms``'s sum on the 1w topology. Skips silently when
    the bench didn't run or telemetry was disabled."""
    current = results.get(bench)
    if not current:
        return []
    stages = current.get("stages") or {}
    total = stages.get("engine_batch_ms", {}).get("sum_ms", 0.0)
    if total <= 0.0:
        return []
    part_sum = sum(
        stages.get(part, {}).get("sum_ms", 0.0) for part in ENGINE_STAGE_PARTS
    )
    if abs(part_sum - total) > tolerance * total:
        return [
            f"{bench}: stage histograms sum to {part_sum:,.1f}ms but "
            f"engine_batch_ms measured {total:,.1f}ms "
            f"(off by more than {tolerance:.0%})"
        ]
    return []


def check_telemetry_overhead(
    event_count: int = 40_000,
    batch_size: int = 512,
    runs: int = 4,
    max_overhead: float = 0.05,
    cpu_count: int | None = None,
) -> tuple[list[str], float | None]:
    """Measure telemetry's cost on ``engine_ingest_process_4w``.

    Runs ``runs`` interleaved off/on pairs with ``$RAILGUN_TELEMETRY=0``
    and ``=1`` (registries resolve the knob at construction, and worker
    processes inherit the env), comparing best-of per side — best-of
    sheds scheduler noise, and interleaving keeps slow drift on a busy
    host from landing entirely on one side. Fails when the enabled side
    is more than ``max_overhead`` slower. Returns
    ``(failures, measured_overhead)``.

    Like the speedup floors, the gate only asserts on parallel
    hardware: on a 1–3 cpu host six processes time-slice the cores and
    run-to-run variance dwarfs the budget, so the check is skipped
    (``overhead`` comes back ``None``) rather than reporting noise.
    """
    from repro.telemetry import TELEMETRY_ENV

    if cpu_count is None:
        cpu_count = os.cpu_count() or 1
    if cpu_count < 4:
        return [], None

    events = _events(event_count)

    def measure(value: str) -> float:
        saved = os.environ.get(TELEMETRY_ENV)
        os.environ[TELEMETRY_ENV] = value
        try:
            return bench_engine_ingest_process_4w(
                events, batch_size
            )["events_per_sec"]
        finally:
            if saved is None:
                os.environ.pop(TELEMETRY_ENV, None)
            else:
                os.environ[TELEMETRY_ENV] = saved

    disabled = enabled = 0.0
    for _ in range(runs):
        disabled = max(disabled, measure("0"))
        enabled = max(enabled, measure("1"))
    overhead = (disabled - enabled) / disabled if disabled > 0 else 0.0
    if overhead > max_overhead:
        return (
            [
                f"telemetry overhead on engine_ingest_process_4w is "
                f"{overhead:.1%} ({enabled:,.0f} vs {disabled:,.0f} events/s); "
                f"budget is {max_overhead:.0%}"
            ],
            overhead,
        )
    return [], overhead


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_micro.json", help="output JSON path")
    parser.add_argument("--events", type=int, default=100_000)
    parser.add_argument("--batch-size", type=int, default=512)
    parser.add_argument(
        "--engine-events", type=int, default=20_000,
        help="event budget for the end-to-end engine ingest benches",
    )
    parser.add_argument("--no-warmup", action="store_true")
    parser.add_argument(
        "--select", default=None,
        help="only run benches whose name contains this substring",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="baseline JSON to gate events_per_sec against",
    )
    parser.add_argument("--tolerance", type=float, default=0.2)
    parser.add_argument(
        "--check-telemetry-overhead", action="store_true",
        help="paired engine_ingest_process_4w runs with RAILGUN_TELEMETRY "
             "0 vs 1; fails when telemetry costs more than the budget",
    )
    parser.add_argument(
        "--max-telemetry-overhead", type=float, default=0.05,
        help="telemetry overhead budget as a fraction (default 0.05)",
    )
    args = parser.parse_args(argv)

    results = run_benches(
        event_count=args.events,
        batch_size=args.batch_size,
        warmup=not args.no_warmup,
        engine_event_count=args.engine_events,
        select=args.select,
    )
    if not results:
        print(
            f"no benches matched --select {args.select!r}; known benches: "
            + ", ".join(sorted(BENCHES)),
            file=sys.stderr,
        )
        return 1
    cpu_count = os.cpu_count() or 1
    report: dict[str, object] = dict(results)
    # platform.node() can legitimately return "" (some containers);
    # fall back so a floor-gating skip in CI logs is always
    # attributable to a concrete host + core count.
    hostname = platform.node() or f"unknown-host-{cpu_count}cpu"
    report["_host"] = {"cpu_count": cpu_count, "hostname": hostname}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    width = max(len(name) for name in results)
    for name, stats in sorted(results.items()):
        print(
            f"{name.ljust(width)}  {stats['events_per_sec']:>12,.0f} events/s"
            f"  p50 {stats['p50_us']:>8.2f}us  p99 {stats['p99_us']:>8.2f}us"
        )
    for name, stats in sorted(results.items()):
        if "overhead_frac" in stats:
            print(
                f"{name}: {stats['overhead_frac']:.0%} of a trip is front door "
                f"(in-process {stats['direct_events_per_sec']:,.0f} events/s)"
            )
    failures: list[str] = []
    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        failures.extend(
            check_baseline(
                results, baseline, args.tolerance,
                require_all=args.select is None,
            )
        )
        floor_failures, floor_skips = check_speedup_floors(
            results, baseline.get("_speedup_floors", []), cpu_count
        )
        failures.extend(floor_failures)
        for skip in floor_skips:
            print(f"SPEEDUP FLOOR SKIPPED: {skip}", file=sys.stderr)
        recovery_failures, recovery_skips = check_recovery_floors(
            results, baseline.get("_recovery_floors", [])
        )
        failures.extend(recovery_failures)
        for skip in recovery_skips:
            print(f"RECOVERY FLOOR SKIPPED: {skip}", file=sys.stderr)
    failures.extend(check_telemetry_decomposition(results))
    if args.check_telemetry_overhead:
        overhead_failures, overhead = check_telemetry_overhead(
            event_count=min(2 * args.engine_events, args.events),
            batch_size=args.batch_size,
            max_overhead=args.max_telemetry_overhead,
        )
        failures.extend(overhead_failures)
        if overhead is None:
            print(
                "telemetry overhead: skipped — "
                f"{os.cpu_count() or 1} cpu(s) < 4; the off/on comparison "
                "only asserts on parallel hardware"
            )
        else:
            print(
                f"telemetry overhead (engine_ingest_process_4w): {overhead:+.1%}"
            )
    for failure in failures:
        print(f"PERF REGRESSION: {failure}", file=sys.stderr)
    print(f"wrote {args.out}")
    return 2 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
