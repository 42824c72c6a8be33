"""Retention: memory that tracks the window, not the stream.

Two rules keep what no reader can ask for again out of memory:

- the reservoir's chunk cache drops every chunk below the lowest live
  iterator whenever a chunk closes (random reads reload from storage);
- a partition log truncates below a cut no reader will ask for again,
  and a ``single`` cluster's bus holds no reply or checkpoint record
  to cut at all.

Neither may change a reply; these tests pin the retention contract and
the memory it saves.
"""

from __future__ import annotations

import gc
import os
import random
import tracemalloc

import pytest

from repro.common.errors import EngineError
from repro.engine import create_cluster
from repro.engine.catalog import (
    OPERATIONS_TOPIC,
    CreateStreamOp,
    MetricDef,
    StreamDef,
    topic_name,
)
from repro.engine.envelope import ReplyEnvelope
from repro.engine.task import TaskProcessor
from repro.events.event import Event
from repro.messaging.durable import DurableBus, DurableLog
from repro.messaging.log import PartitionLog, TopicPartition
from repro.messaging.segments import FsyncPolicy, SegmentConfig
from repro.reservoir.reservoir import ReservoirConfig
from repro.server.client import RailgunClient

SCHEMA = {"cardId": "string", "amount": "float"}
SUM1 = "SELECT sum(amount), count(*) FROM tx GROUP BY cardId OVER sliding 5 minutes"


# -- the log retention contract ------------------------------------------------


def _memory_log(tmp_path) -> PartitionLog:
    return PartitionLog(TopicPartition("t", 0))


def _durable_log(tmp_path) -> PartitionLog:
    config = SegmentConfig(
        segment_bytes=256, flush_bytes=64, index_interval=4,
        fsync=FsyncPolicy.NEVER,
    )
    return DurableLog(TopicPartition("t", 0), str(tmp_path / "log"), config=config)


@pytest.fixture(params=[_memory_log, _durable_log], ids=["memory", "durable"])
def log(request, tmp_path):
    log = request.param(tmp_path)
    for i in range(100):
        assert log.append(None, ("v", i), i) == i
    yield log
    if isinstance(log, DurableLog):
        log.close()


class TestLogRetentionContract:
    """Every partition log keeps the same retention contract. Memory is
    cut exactly; the retention start (what reads clamp to) is the cut
    in memory and the first surviving segment on disk."""

    def test_cut_keeps_offsets_absolute_and_clamps_reads(self, log):
        start = log.truncate_below(40)
        assert start == log.start_offset <= 40
        assert (log.end_offset, len(log)) == (100, 60)
        assert [m.offset for m in log.read(0, 3)] == [start, start + 1, start + 2]
        first = max(38, start)
        assert [m.value for m in log.read(38, 4)] == [
            ("v", i) for i in range(first, first + 4)
        ]
        assert log.read(99, 5)[0].value == ("v", 99)
        assert log.append(None, ("v", 100), 100) == 100
        assert log.read(100, 1)[0].value == ("v", 100)

    def test_pins_clamp_the_cut(self, log):
        first = log.pin(30)
        second = log.pin(55)
        assert log.pinned_floor == 30
        assert log.truncate_below(80) <= 30
        assert len(log) == 70
        log.advance_pin(first, 60)
        log.advance_pin(first, 10)  # pins never move backward
        assert log.pinned_floor == 55
        log.truncate_below(80)
        assert len(log) == 45
        log.unpin(second)
        log.unpin(second)  # idempotent
        log.truncate_below(80)
        assert len(log) == 40
        log.unpin(first)
        assert log.pinned_floor is None
        log.truncate_below(80)
        assert len(log) == 20
        # A pin below the retention start holds the start, not less.
        log.pin(0)
        assert log.pinned_floor == log.start_offset

    def test_cut_past_the_end_clamps_to_the_end(self, log):
        start = log.truncate_below(10_000)
        assert start == log.start_offset <= 100
        assert (log.end_offset, len(log)) == (100, 0)
        assert [m.offset for m in log.read(0, 200)] == list(range(start, 100))
        assert log.append(None, ("v", 100), 100) == 100

    def test_a_cut_never_moves_the_start_back(self, log):
        start = log.truncate_below(50)
        assert log.truncate_below(20) == start
        assert len(log) == 50


def test_memory_cut_is_exact():
    log = _memory_log(None)
    for i in range(10):
        log.append(None, i, i)
    assert log.truncate_below(4) == log.start_offset == 4
    assert log.read(0, 2)[0].offset == 4


def test_durable_cut_deletes_only_whole_segments(tmp_path):
    log = _durable_log(tmp_path)
    for i in range(100):
        log.append(None, ("v", i), i)
    log.flush()
    spans = log.segments.segment_spans()
    cut = spans[2][0] + 1  # inside the third segment
    assert log.truncate_below(cut) == spans[2][0]
    assert log.segments.segment_spans()[0] == spans[2]
    assert len(log) == 100 - cut
    # The record below the memory cut is read back from its segment.
    assert log.read(spans[2][0], 2)[0].value == ("v", spans[2][0])
    log.close()
    # A reopen holds the surviving segments; offsets stay absolute.
    reopened = _durable_log(tmp_path)
    assert reopened.start_offset == spans[2][0]
    assert reopened.end_offset == 100
    assert reopened.read(cut, 1)[0].value == ("v", cut)
    reopened.close()


# -- what a served single keeps on its bus --------------------------------------


@pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
def test_served_single_publishes_only_ops_and_events(durable, tmp_path):
    # Replies reach their frontend in process and checkpoints keep no
    # announcement, so the bus of a served ``single`` holds the DDL ops
    # and the fanned-out events only: no record grows per reply.
    root = str(tmp_path / "single") if durable else None
    cluster = create_cluster("single", durable_dir=root, serve="tcp://127.0.0.1:0")
    host, port = cluster.server.address
    sent = 0
    with RailgunClient(host, port, tenant="retention") as client:
        client.create_stream("tx", ["cardId"], partitions=4, schema=SCHEMA)
        metric = client.create_metric(SUM1)
        for batch in range(6):
            replies = client.send_batch(
                "tx",
                [{"cardId": f"c{i % 7}", "amount": float(i)} for i in range(48)],
                timestamp=batch + 1,
            )
            sent += len(replies)
    assert replies[-1].value(metric, "count(*)") == 6 * 7  # c5, 7 per batch
    published = cluster.bus.messages_published
    assert published == 2 + sent  # two DDL ops, one record per event
    assert not cluster.bus.has_topic("__checkpoints")
    assert not any(cluster.bus.has_topic(f"__reply.{node}") for node in cluster.nodes)
    cluster.close()
    assert cluster.server is None
    if not durable:
        return
    assert sorted(os.listdir(root)) == [
        "__operations-0", "commits.log", "topics.log",
        "tx.cardId-0", "tx.cardId-1", "tx.cardId-2", "tx.cardId-3",
    ]
    reopened = create_cluster("single", durable_dir=root)
    try:
        # The reopen mints the next client id exactly where the closed
        # cluster stopped.
        assert reopened.bus.messages_published == published
        # No pump round runs: the event is minted and published, and its
        # request is left pending.
        with pytest.raises(EngineError):
            reopened.send("tx", {"cardId": "c1", "amount": 5.0}, max_rounds=0)
        (request,) = reopened.nodes["node-0"].frontend.pending.values()
        assert request.event.event_id == f"client-{published:012d}"
    finally:
        reopened.close()


def test_reopens_a_directory_with_reply_and_checkpoint_topics(tmp_path):
    # Directories written before replies left the bus hold a
    # ``__reply.<node>`` topic of reply records and a ``__checkpoints``
    # topic of announcement tuples. They still open; nothing reads
    # those records, and no request or reply appears from them.
    root = str(tmp_path / "old")
    bus = DurableBus(root)
    bus.create_topic(OPERATIONS_TOPIC, partitions=1)
    bus.create_topic("__checkpoints", partitions=1)
    bus.create_topic("__reply.node-0", partitions=1)
    stream = StreamDef("tx", tuple(SCHEMA.items()), ("cardId",), partitions=2)
    bus.create_topic("tx.cardId", partitions=2)
    bus.publish(OPERATIONS_TOPIC, None, CreateStreamOp(stream), 1)
    tp = TopicPartition("tx.cardId", 0)
    for correlation in range(3):
        bus.publish(
            "__reply.node-0", None,
            ReplyEnvelope(correlation, f"client-{correlation:012d}", tp,
                          {0: {"count(*)": correlation + 1}}),
            2,
        )
    bus.publish("__checkpoints", str(tp), ("node-0/pu0", "node-0", str(tp), 3), 3)
    total = bus.messages_published
    assert total == 5
    bus.close()
    cluster = create_cluster("single", durable_dir=root)
    try:
        assert cluster.bus.messages_published == total
        cluster.run_until_quiet()
        frontend = cluster.nodes["node-0"].frontend
        assert not frontend.pending
        assert not frontend.inbox
        assert not frontend.completed
        assert cluster.bus.messages_published == total
    finally:
        cluster.close()


# -- the reservoir chunk cache ---------------------------------------------------

WIDE_FIELDS = 32
WIDE_STREAM = StreamDef(
    "tx",
    (("cardId", "string"), ("amount", "float"))
    + tuple((f"f{i:02d}", "int") for i in range(WIDE_FIELDS - 2)),
    ("cardId",),
    partitions=1,
)
WIDE_TP = TopicPartition(topic_name("tx", "cardId"), 0)
#: 200 ms apart, so the 5-minute window holds 1 500 events: it spans at
#: most four 512-event chunks.
SPACING_MS = 200
WINDOW_CHUNKS = 4


def _wide_event(i: int) -> Event:
    fields = {"cardId": f"c{i % 13}", "amount": float(i % 17)}
    fields.update((f"f{k:02d}", i * k) for k in range(WIDE_FIELDS - 2))
    return Event(f"e{i}", 1_000 + i * SPACING_MS, fields)


def _wide_processor(events: int) -> tuple[TaskProcessor, list[Event]]:
    processor = TaskProcessor(WIDE_TP, WIDE_STREAM, ReservoirConfig())
    processor.add_metric(MetricDef(0, SUM1, "tx", WIDE_TP.topic))
    sent = [_wide_event(i) for i in range(events)]
    for start in range(0, events, 256):
        processor.process_batch(
            [(offset, sent[offset]) for offset in range(start, min(start + 256, events))]
        )
    return processor, sent


class TestChunkCacheTracksTheWindow:
    def test_cache_holds_the_window_not_the_stream(self):
        processor, _ = _wide_processor(16_384)
        reservoir = processor.reservoir
        assert reservoir.stats.chunks_closed >= 30
        # Before the rule the cache kept every chunk ever closed.
        assert len(reservoir.cache) <= WINDOW_CHUNKS + 2
        stats = reservoir.cache.stats
        assert stats.passed_drops >= reservoir.stats.chunks_closed - WINDOW_CHUNKS - 2
        assert stats.evictions == 0  # drops are not capacity evictions

    def test_read_range_reloads_dropped_history(self):
        processor, sent = _wide_processor(16_384)
        reservoir = processor.reservoir
        assert 0 not in reservoir.cache
        loads = reservoir.stats.demand_chunk_loads
        lower, upper = sent[100].timestamp, sent[2_000].timestamp
        got = reservoir.read_range(lower, upper)
        assert got == [e for e in sent if lower < e.timestamp <= upper]
        assert reservoir.stats.demand_chunk_loads > loads

    def test_dropped_unused_prefetch_counts_as_wasted(self):
        from repro.reservoir.cache import ChunkCache

        cache = ChunkCache(8)
        cache.put_prefetch(3, ["a"])
        cache.put_demand(4, ["b"])
        cache.get(4)
        cache.drop_below(5)
        assert len(cache) == 0
        assert (cache.stats.passed_drops, cache.stats.prefetch_wasted) == (2, 1)
        assert cache.stats.evictions == 0


# -- retained memory -------------------------------------------------------------

#: Retained bytes per event of a default ``single`` cluster (sum1
#: metric, 256-event batches). Measured on CPython 3.11: 1 430-1 500
#: B/event while reply topics kept every reply, 730-810 B/event once
#: replies stopped being retained (what remains is mostly the event
#: topics, which ``single`` replays from offset 0). The bound sits
#: midway.
RETAINED_BYTES_PER_EVENT = 1_100


def test_single_retained_memory_per_event():
    cluster = create_cluster("single")
    cluster.create_stream("tx", ["cardId"], partitions=4, schema=SCHEMA)
    cluster.create_metric(SUM1)
    rng = random.Random(7)

    def send(events: int) -> None:
        for _ in range(events // 256):
            cluster.send_batch(
                "tx",
                [
                    {"cardId": f"card-{rng.randrange(512)}",
                     "amount": round(rng.random() * 100, 2)}
                    for _ in range(256)
                ],
            )

    send(8_192)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        send(16_384)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown / 16_384 < RETAINED_BYTES_PER_EVENT
