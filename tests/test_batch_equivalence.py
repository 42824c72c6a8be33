"""Batch vs per-event equivalence.

The batched ingestion fast paths (``Frontend.send_batch``,
``EventReservoir.append_batch``, ``TaskProcessor.process_batch``,
``Aggregator.update_batch``) must be observably identical to the
per-event paths: same replies, same aggregate outputs, same chunk
layouts (byte-for-byte storage files and checkpoint metadata), same
iterator positions — including mid-batch chunk rolls, schema-change
rolls, duplicates, replays and out-of-order arrivals.
"""

from __future__ import annotations

import random

import pytest

from repro.aggregates.base import MemoryAuxStore
from repro.aggregates.registry import AGGREGATOR_NAMES, create_aggregator
from repro.engine.catalog import MetricDef, StreamDef
from repro.engine.cluster import RailgunCluster
from repro.engine.task import TaskProcessor
from repro.events.event import Event
from repro.events.schema import FieldType, Schema, SchemaField, SchemaRegistry
from repro.messaging.log import TopicPartition
from repro.reservoir.reservoir import (
    EventReservoir,
    OutOfOrderPolicy,
    ReservoirConfig,
)
from repro.state import store as state_store

FIELDS = [
    SchemaField("cardId", FieldType.STRING),
    SchemaField("amount", FieldType.FLOAT),
]


def make_registry() -> SchemaRegistry:
    registry = SchemaRegistry()
    registry.register(Schema(list(FIELDS)))
    return registry


def clean_events(count: int, start_ts: int = 1) -> list[Event]:
    return [
        Event(
            f"e{i}", start_ts + i, {"cardId": f"c{i % 7}", "amount": float(i % 13)}
        )
        for i in range(count)
    ]


def messy_events(count: int, seed: int) -> list[Event]:
    """In-order runs spiked with duplicates, ties and late arrivals."""
    rng = random.Random(seed)
    events = []
    ts = 0
    for i in range(count):
        ts += rng.choice([0, 1, 2, 5, 40])
        event_ts = max(0, ts - rng.choice([0, 0, 0, 0, 3, 500]))
        if i and rng.random() < 0.03:
            event_id = f"e{rng.randrange(i)}"  # duplicate of an earlier id
        else:
            event_id = f"e{i}"
        events.append(
            Event(event_id, event_ts,
                  {"cardId": f"c{i % 5}", "amount": float(i % 11)})
        )
    return events


def assert_reservoirs_identical(a: EventReservoir, b: EventReservoir) -> None:
    """Byte-identical persisted layout, metadata and counters."""
    assert a.checkpoint_metadata() == b.checkpoint_metadata()
    assert sorted(a.storage.list()) == sorted(b.storage.list())
    for name in a.storage.list():
        assert a.storage.read_all(name) == b.storage.read_all(name), name
        assert a.storage.is_sealed(name) == b.storage.is_sealed(name), name
    assert vars(a.stats) == vars(b.stats)


def append_in_slices(reservoir: EventReservoir, events, seed: int):
    """Drive append_batch with randomly-sized slices; returns all results."""
    rng = random.Random(seed)
    results = []
    index = 0
    while index < len(events):
        size = rng.randrange(1, 128)
        results.extend(reservoir.append_batch(events[index:index + size]))
        index += size
    return results


class TestReservoirEquivalence:
    def config(self, **overrides) -> ReservoirConfig:
        defaults = dict(chunk_max_events=32, file_max_chunks=4)
        defaults.update(overrides)
        return ReservoirConfig(**defaults)

    def run_both(self, events, seed=1, **config_overrides):
        per_event = EventReservoir(make_registry(), config=self.config(**config_overrides))
        batched = EventReservoir(make_registry(), config=self.config(**config_overrides))
        results_a = [per_event.append(event) for event in events]
        results_b = append_in_slices(batched, events, seed)
        assert results_a == results_b
        assert_reservoirs_identical(per_event, batched)
        return per_event, batched

    def test_clean_in_order_stream(self):
        self.run_both(clean_events(3000))

    def test_mid_batch_chunk_roll_and_file_seal(self):
        # 3000 events / 32-event chunks / 4-chunk files: every batch
        # rolls chunks and seals segment files mid-run.
        per_event, _ = self.run_both(clean_events(3000))
        assert per_event.stats.chunks_closed > 50
        assert per_event.stats.files_sealed > 10

    def test_messy_stream_rewrite_policy(self):
        self.run_both(messy_events(4000, seed=3))

    def test_messy_stream_discard_policy(self):
        self.run_both(
            messy_events(4000, seed=4), ooo_policy=OutOfOrderPolicy.DISCARD
        )

    def test_schema_change_rolls_open_chunk(self):
        events_v1 = clean_events(50)
        events_v2 = [
            Event(f"n{i}", 1000 + i,
                  {"cardId": "c", "amount": 1.0, "country": "PT"})
            for i in range(50)
        ]
        evolved = Schema(list(FIELDS) + [SchemaField("country", FieldType.STRING)])

        per_event = EventReservoir(make_registry(), config=self.config())
        batched = EventReservoir(make_registry(), config=self.config())
        results_a = [per_event.append(event) for event in events_v1]
        results_b = batched.append_batch(events_v1)
        per_event.registry.register(evolved)
        batched.registry.register(evolved)
        results_a += [per_event.append(event) for event in events_v2]
        results_b += batched.append_batch(events_v2)
        assert results_a == results_b
        assert_reservoirs_identical(per_event, batched)

    def test_iterator_emissions_and_positions(self):
        events = clean_events(500)
        per_event = EventReservoir(make_registry(), config=self.config())
        batched = EventReservoir(make_registry(), config=self.config())
        cursor_a = per_event.new_iterator()
        cursor_b = batched.new_iterator()
        emitted_a, emitted_b = [], []
        for i in range(0, len(events), 100):
            chunk = events[i:i + 100]
            for event in chunk:
                per_event.append(event)
                emitted_a.extend(cursor_a.advance_upto(event.timestamp))
            batched.append_batch(chunk)
            for event in chunk:
                emitted_b.extend(cursor_b.advance_upto(event.timestamp))
        assert emitted_a == emitted_b == events
        assert cursor_a.position == cursor_b.position

    def test_horizon_ahead_of_frontier_rewrites(self):
        # Tie groups wider than a chunk: rewritten events seal chunks
        # whose last_ts runs AHEAD of max_seen_ts, so later fresh events
        # can sit below the closed horizon and must be rewritten on the
        # batched path exactly as append() rewrites them.
        events = [
            Event(f"h{i}", 5 + i // 6, {"cardId": "c0", "amount": 1.0})
            for i in range(200)
        ]
        per_event, _ = self.run_both(
            events, chunk_max_events=4, file_max_chunks=4
        )
        assert per_event.stats.ooo_rewritten > 0

    def test_empty_batch_is_noop(self):
        reservoir = EventReservoir(make_registry(), config=self.config())
        assert reservoir.append_batch([]) == []
        assert reservoir.total_events == 0


def aggregator_pairs(count: int, seed: int, with_strings: bool):
    """(value, event) pairs with Nones and mixed magnitudes."""
    rng = random.Random(seed)
    pairs = []
    for i in range(count):
        if rng.random() < 0.15:
            value = None
        elif with_strings:
            value = f"v{rng.randrange(9)}"
        else:
            value = rng.choice([rng.uniform(-1e6, 1e6), rng.randrange(1000), 0.5])
        pairs.append((value, Event(f"a{i}", i + 1, {"amount": 0.0})))
    return pairs


class TestAggregatorEquivalence:
    @pytest.mark.parametrize("name", AGGREGATOR_NAMES)
    def test_update_batch_matches_per_event(self, name):
        with_strings = name in ("count", "last", "prev", "countDistinct")
        pairs = aggregator_pairs(600, seed=hash(name) % 1000, with_strings=with_strings)
        enters = pairs
        exits = pairs[:250]  # every evicted pair was previously added

        loop = create_aggregator(name.lower())
        batch = create_aggregator(name.lower())
        for aggregator in (loop, batch):
            if aggregator.needs_aux:
                aggregator.bind_aux(MemoryAuxStore())

        for value, event in enters:
            loop.add(value, event)
        for value, event in exits:
            loop.evict(value, event)
        batch.update_batch(enters, ())
        batch.update_batch((), exits)
        assert loop.state_to_bytes() == batch.state_to_bytes()
        assert loop.result() == batch.result()

    @pytest.mark.parametrize("name", ["sum", "avg", "count", "max", "min"])
    def test_interleaved_folds_bit_identical(self, name):
        """exits-then-enters per call, in call order — float-exact."""
        pairs = aggregator_pairs(400, seed=11, with_strings=False)
        loop = create_aggregator(name)
        batch = create_aggregator(name)
        window: list = []
        position = 0
        while position < len(pairs):
            enters = pairs[position:position + 37]
            exits = window[:13]
            window = window[13:] + enters
            for value, event in exits:
                loop.evict(value, event)
            for value, event in enters:
                loop.add(value, event)
            batch.update_batch(enters, exits)
            assert loop.state_to_bytes() == batch.state_to_bytes()
            position += 37

    def test_minmax_late_arrivals(self):
        rng = random.Random(23)
        entries = [
            (float(rng.randrange(100)), Event(f"m{i}", rng.randrange(1, 50), {}))
            for i in range(200)
        ]
        loop = create_aggregator("max")
        batch = create_aggregator("max")
        for value, event in entries:
            loop.add(value, event)
        batch.update_batch(entries, ())
        assert loop.state_to_bytes() == batch.state_to_bytes()


def make_task_processor(chunk_max=32, **reservoir_overrides) -> TaskProcessor:
    stream = StreamDef(
        "tx", tuple((f.name, f.field_type.value) for f in FIELDS), ("cardId",), 1
    )
    processor = TaskProcessor(
        TopicPartition("tx.cardId", 0),
        stream,
        reservoir_config=ReservoirConfig(
            chunk_max_events=chunk_max, file_max_chunks=4, **reservoir_overrides
        ),
    )
    processor.add_metric(
        MetricDef(
            0,
            "SELECT sum(amount), count(*), avg(amount) FROM tx "
            "GROUP BY cardId OVER sliding 1 minutes",
            "tx", "tx.cardId", False,
        )
    )
    processor.add_metric(
        MetricDef(
            1,
            "SELECT max(amount), min(amount) FROM tx OVER sliding 30 seconds",
            "tx", "tx.cardId", False,
        )
    )
    return processor


def assert_task_processors_identical(a: TaskProcessor, b: TaskProcessor) -> None:
    assert a.next_offset == b.next_offset
    assert a.messages_processed == b.messages_processed
    assert a.replays_skipped == b.replays_skipped
    assert a.plan.iterator_positions() == b.plan.iterator_positions()
    assert_reservoirs_identical(a.reservoir, b.reservoir)


class TestTaskProcessorEquivalence:
    def run_both(self, records, seed=1, chunk_max=32, **reservoir_overrides):
        per_event = make_task_processor(chunk_max, **reservoir_overrides)
        batched = make_task_processor(chunk_max, **reservoir_overrides)
        replies_a = [per_event.process(offset, event) for offset, event in records]
        rng = random.Random(seed)
        replies_b = []
        index = 0
        while index < len(records):
            size = rng.randrange(1, 80)
            replies_b.extend(batched.process_batch(records[index:index + size]))
            index += size
        assert replies_a == replies_b
        assert_task_processors_identical(per_event, batched)
        return per_event, batched

    def test_clean_stream_with_chunk_rolls(self):
        records = list(enumerate(clean_events(2000)))
        per_event, _ = self.run_both(records, chunk_max=16)
        assert per_event.reservoir.stats.chunks_closed > 100

    def test_messy_stream_with_replays(self):
        records = list(enumerate(messy_events(2000, seed=7)))
        # Replays: repeat earlier offsets mid-stream (recovery overlap).
        records.insert(500, records[490])
        records.insert(1200, records[1100])
        self.run_both(records, seed=8)

    def test_messy_stream_under_resident_eviction(self, monkeypatch):
        # 5 cards x 3 aggregations + 2 global ones compete for 8 resident
        # slots, so nearly every event evicts (write-back, later reload):
        # replies and state rows depend on neither the cap nor the path.
        records = list(enumerate(messy_events(1500, seed=11)))
        roomy = make_task_processor()
        expected = [roomy.process(offset, event) for offset, event in records]
        assert roomy.state.db.stats.puts == 0

        monkeypatch.setattr(state_store, "RESIDENT_CAP", 8)
        per_event, batched = make_task_processor(), make_task_processor()
        assert [per_event.process(o, e) for o, e in records] == expected
        replies = []
        for start in range(0, len(records), 64):
            replies.extend(batched.process_batch(records[start:start + 64]))
        assert replies == expected
        assert len(batched.state._resident) == 8
        assert batched.state.db.stats.puts > len(records)  # evictions happened
        for metric_id in (0, 1):
            rows = roomy.state.export_metric_rows(metric_id)
            assert per_event.state.export_metric_rows(metric_id) == rows
            assert batched.state.export_metric_rows(metric_id) == rows

    def test_timestamp_ties_batch_in_runs(self):
        # Tie semantics: member k's reply window holds members 0..k and
        # excludes k+1.. — replies must match the per-event interleaving
        # even though whole tie groups now ride the batched fast path.
        events = [
            Event(f"t{i}", 10 + i // 3, {"cardId": f"c{i % 2}", "amount": 1.0})
            for i in range(300)
        ]
        self.run_both(list(enumerate(events)))

    def test_timestamp_ties_stay_on_fast_path(self):
        # The point of the tie batching: an all-ties stream must not
        # fall back to per-event reservoir probing on every message.
        events = [
            Event(f"t{i}", 10 + i // 4, {"cardId": "c0", "amount": 1.0})
            for i in range(200)
        ]
        processor = make_task_processor()
        processor.process_batch(list(enumerate(events)))
        # Per-event fallback would route every tied message through
        # Reservoir.append; the batched path hands tie groups to
        # append_batch which resolves in-run ties internally.
        assert processor.reservoir.stats.appended == 200

    def test_timestamp_ties_on_sealed_chunk_boundary_rewrite(self):
        # A tie landing exactly where the previous chunk sealed follows
        # the out-of-order rewrite policy on both paths (chunk_max=4 with
        # grace 0 seals mid-tie-group constantly).
        events = [
            Event(f"t{i}", 5 + i // 6, {"cardId": "c0", "amount": float(i % 5)})
            for i in range(400)
        ]
        per_event, _ = self.run_both(list(enumerate(events)), chunk_max=4)
        assert per_event.reservoir.stats.ooo_rewritten > 0

    def test_timestamp_ties_on_sealed_chunk_boundary_discard(self):
        events = [
            Event(f"t{i}", 5 + i // 6, {"cardId": "c0", "amount": float(i % 5)})
            for i in range(400)
        ]
        per_event, _ = self.run_both(
            list(enumerate(events)), chunk_max=4,
            ooo_policy=OutOfOrderPolicy.DISCARD,
        )
        assert per_event.reservoir.stats.ooo_discarded > 0

    def test_timestamp_ties_across_chunk_rolls(self):
        events = [
            Event(f"t{i}", 5 + i // 5, {"cardId": f"c{i % 3}", "amount": 2.0})
            for i in range(400)
        ]
        self.run_both(list(enumerate(events)), chunk_max=8)

    def test_messy_stream_with_ties_and_replays(self):
        records = list(enumerate(messy_events(3000, seed=29)))
        records.insert(700, records[690])
        self.run_both(records, seed=30)

    def test_schema_evolution_mid_stream(self):
        per_event = make_task_processor()
        batched = make_task_processor()
        first = list(enumerate(clean_events(100)))
        evolved = StreamDef(
            "tx",
            tuple((f.name, f.field_type.value) for f in FIELDS)
            + (("country", "string"),),
            ("cardId",), 1,
        )
        second = [
            (100 + i,
             Event(f"s{i}", 2000 + i,
                   {"cardId": "c1", "amount": 2.0, "country": "PT"}))
            for i in range(100)
        ]
        replies_a = [per_event.process(o, e) for o, e in first]
        replies_b = batched.process_batch(first)
        per_event.evolve_schema(evolved)
        batched.evolve_schema(evolved)
        replies_a += [per_event.process(o, e) for o, e in second]
        replies_b += batched.process_batch(second)
        assert replies_a == replies_b
        assert_task_processors_identical(per_event, batched)


class TestClusterSendBatchEquivalence:
    def build_cluster(self) -> RailgunCluster:
        cluster = RailgunCluster(nodes=2, processor_units=2)
        cluster.create_stream(
            "tx", ["cardId"], partitions=2,
            schema={"cardId": "string", "amount": "float"},
        )
        cluster.create_metric(
            "SELECT sum(amount), count(*) FROM tx GROUP BY cardId "
            "OVER sliding 5 minutes"
        )
        cluster.run_until_quiet()
        return cluster

    def test_batch_replies_match_per_event_replies(self):
        events = [
            Event(f"b{i}", 1000 + i, {"cardId": f"c{i % 3}", "amount": float(i)})
            for i in range(30)
        ]
        one_by_one = self.build_cluster()
        batched = self.build_cluster()
        replies_a = [one_by_one.send("tx", event=event) for event in events]
        replies_b = batched.send_batch("tx", events, node_id="node-0")
        assert [r.results for r in replies_a] == [r.results for r in replies_b]
        assert [r.event for r in replies_a] == [r.event for r in replies_b]

    def test_tcp_front_door_matches_per_event_replies(self):
        # The front door is held to the same bar as every other plane:
        # replies fetched over TCP through the asyncio server (framed
        # wire serde, admission control, reply fan-out and all) are
        # byte-identical to create_cluster("single") driving the same
        # events — including ties and a duplicate id.
        from repro.engine.cluster import create_cluster
        from repro.server.client import RailgunClient

        events = [
            Event(f"b{i}", 1000 + i // 2, {"cardId": f"c{i % 3}", "amount": float(i)})
            for i in range(40)
        ]
        events.append(events[7])  # duplicate id: replies read-only
        single = create_cluster("single", nodes=2, processor_units=2)
        single.create_stream(
            "tx", ["cardId"], partitions=2,
            schema={"cardId": "string", "amount": "float"},
        )
        single.create_metric(
            "SELECT sum(amount), count(*) FROM tx GROUP BY cardId "
            "OVER sliding 5 minutes"
        )
        single.run_until_quiet()
        replies_a = [single.send("tx", event=event) for event in events]
        served = create_cluster(
            "single", nodes=2, processor_units=2, serve="tcp://127.0.0.1:0"
        )
        try:
            host, port = served.server.address
            with RailgunClient(host, port) as client:
                client.create_stream(
                    "tx", ["cardId"], partitions=2,
                    schema={"cardId": "string", "amount": "float"},
                )
                client.create_metric(
                    "SELECT sum(amount), count(*) FROM tx GROUP BY cardId "
                    "OVER sliding 5 minutes"
                )
                replies_b = client.send_batch("tx", events)
        finally:
            served.close()
        assert [r.results for r in replies_a] == [r.results for r in replies_b]
        assert [r.event for r in replies_a] == [r.event for r in replies_b]

    def test_durable_sharded_frontend_mode_matches_per_event_replies(
        self, tmp_path
    ):
        # The durability acceptance bar: the sharded topology over a
        # disk-backed bus (frontends host durable segment logs, the
        # supervisor persists its checkpoint store) must still produce
        # byte-identical replies to create_cluster("single") — the
        # codec, the segment framing and the consistent-cut sync are
        # invisible to reply values.
        from repro.engine.cluster import create_cluster

        events = [
            Event(f"b{i}", 1000 + i // 2, {"cardId": f"c{i % 3}", "amount": float(i)})
            for i in range(40)
        ]
        events.append(events[7])  # duplicate id: replies read-only
        single = create_cluster("single", nodes=2, processor_units=2)
        single.create_stream(
            "tx", ["cardId"], partitions=2,
            schema={"cardId": "string", "amount": "float"},
        )
        single.create_metric(
            "SELECT sum(amount), count(*) FROM tx GROUP BY cardId "
            "OVER sliding 5 minutes"
        )
        single.run_until_quiet()
        replies_a = [single.send("tx", event=event) for event in events]
        with create_cluster(
            "process", workers=2, frontends=2,
            durable_dir=str(tmp_path / "cluster"),
        ) as durable:
            durable.create_stream(
                "tx", ["cardId"], partitions=2,
                schema={"cardId": "string", "amount": "float"},
            )
            durable.create_metric(
                "SELECT sum(amount), count(*) FROM tx GROUP BY cardId "
                "OVER sliding 5 minutes"
            )
            replies_b = durable.send_batch("tx", events)
            processed = durable.total_messages_processed()
        assert [r.results for r in replies_a] == [r.results for r in replies_b]
        assert [r.event for r in replies_a] == [r.event for r in replies_b]
        assert processed == len(events) == single.total_messages_processed()

    def test_telemetry_toggle_never_changes_replies(self, monkeypatch):
        # Telemetry is observation-only: the same event stream through
        # the process-parallel engine with $RAILGUN_TELEMETRY=0 and =1
        # (traces, snapshot piggybacks and all) yields byte-identical
        # reply values. The env var is resolved at registry
        # construction and inherited by worker processes, so each
        # cluster is built fresh under its toggle.
        from repro.shard.parallel import ParallelCluster

        events = [
            Event(f"b{i}", 1000 + i // 2, {"cardId": f"c{i % 3}", "amount": float(i)})
            for i in range(40)
        ]
        events.append(events[7])  # duplicate id: replies read-only
        replies = {}
        for toggle in ("0", "1"):
            monkeypatch.setenv("RAILGUN_TELEMETRY", toggle)
            with ParallelCluster(workers=2) as cluster:
                cluster.create_stream(
                    "tx", ["cardId"], partitions=2,
                    schema={"cardId": "string", "amount": "float"},
                )
                cluster.create_metric(
                    "SELECT sum(amount), count(*) FROM tx GROUP BY cardId "
                    "OVER sliding 5 minutes"
                )
                replies[toggle] = cluster.send_batch("tx", events)
                if toggle == "0":
                    assert cluster.telemetry()["histograms"] == {}
                else:
                    assert cluster.telemetry()["histograms"]
        off, on = replies["0"], replies["1"]
        assert [r.results for r in off] == [r.results for r in on]
        assert [r.event for r in off] == [r.event for r in on]
