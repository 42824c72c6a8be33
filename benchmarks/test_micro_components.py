"""Micro-benchmarks of the hot-path components.

These are the costs the simulation's service models abstract; measuring
them keeps the cost model honest and catches performance regressions in
the real implementations.
"""

import random

from repro.aggregates import MaxAggregator, StdDevAggregator, SumAggregator
from repro.baselines.hopping import HoppingWindowEngine
from repro.common.percentiles import LatencyRecorder
from repro.common.timesource import MINUTES
from repro.events.event import Event
from repro.events.schema import FieldType, Schema, SchemaField, SchemaRegistry
from repro.lsm.db import LsmDb
from repro.plan.dag import TaskPlan
from repro.query.expressions import parse_expression
from repro.query.parser import parse_query
from repro.reservoir.reservoir import EventReservoir, ReservoirConfig
from repro.state.store import MetricStateStore


def _schema_registry():
    registry = SchemaRegistry()
    registry.register(
        Schema(
            [
                SchemaField("cardId", FieldType.STRING),
                SchemaField("amount", FieldType.FLOAT),
            ]
        )
    )
    return registry


def test_reservoir_append_throughput(benchmark):
    reservoir = EventReservoir(_schema_registry(), config=ReservoirConfig(chunk_max_events=256))
    events = iter(
        Event(f"e{i}", i * 10, {"cardId": f"c{i % 100}", "amount": 1.0})
        for i in range(2_000_000)
    )
    benchmark(lambda: reservoir.append(next(events)))


def test_plan_process_event(benchmark):
    reservoir = EventReservoir(_schema_registry(), config=ReservoirConfig(chunk_max_events=256))
    plan = TaskPlan(reservoir, MetricStateStore())
    plan.add_metric(
        parse_query("SELECT sum(amount), count(*) FROM s GROUP BY cardId OVER sliding 5 minutes")
    )
    counter = iter(range(2_000_000))

    def one_event():
        i = next(counter)
        event = Event(f"p{i}", i * 10, {"cardId": f"c{i % 50}", "amount": 2.0})
        result = reservoir.append(event)
        return plan.process_event(result.event)

    benchmark(one_event)


def test_lsm_put_get(benchmark):
    db = LsmDb()
    rng = random.Random(1)
    counter = iter(range(5_000_000))

    def one_op():
        i = next(counter)
        key = f"k{rng.randrange(5000):06d}".encode()
        if i % 2:
            db.put(key, b"value")
        else:
            db.get(key)

    benchmark(one_op)


def test_reservoir_append_batch_throughput(benchmark):
    reservoir = EventReservoir(
        _schema_registry(), config=ReservoirConfig(chunk_max_events=256)
    )
    counter = iter(range(0, 2_000_000_000, 512))

    def one_batch():
        base = next(counter)
        reservoir.append_batch(
            [
                Event(f"b{base + i}", base + i + 1,
                      {"cardId": f"c{i % 100}", "amount": 1.0})
                for i in range(512)
            ]
        )

    benchmark(one_batch)


def test_aggregator_updates(benchmark):
    aggs = [SumAggregator(), MaxAggregator(), StdDevAggregator()]
    counter = iter(range(10_000_000))

    def one_update():
        i = next(counter)
        event = Event(f"a{i}", i, {})
        for agg in aggs:
            agg.add(float(i % 1000), event)

    benchmark(one_update)


def test_aggregator_update_batch(benchmark):
    aggs = [SumAggregator(), MaxAggregator(), StdDevAggregator()]
    counter = iter(range(0, 2_000_000_000, 256))

    def one_batch():
        base = next(counter)
        pairs = [
            (float((base + i) % 1000), Event(f"ab{base + i}", base + i, {}))
            for i in range(256)
        ]
        for agg in aggs:
            agg.update_batch(pairs, ())

    benchmark(one_batch)


def test_hopping_engine_event(benchmark):
    engine = HoppingWindowEngine(60 * MINUTES, 1 * MINUTES)
    counter = iter(range(10_000_000))

    def one_event():
        i = next(counter)
        engine.on_event(f"c{i % 100}", i * 100, 1.0)

    benchmark(one_event)


def test_expression_evaluation(benchmark):
    expr = parse_expression("amount > 10 && (channel == 'ecom' || amount * 2 > 50)")
    event = Event("x", 0, {"amount": 30.0, "channel": "pos"})
    benchmark(lambda: expr.matches(event))


def test_latency_recorder(benchmark):
    recorder = LatencyRecorder()
    rng = random.Random(2)
    benchmark(lambda: recorder.record(rng.lognormvariate(1.0, 0.5)))


def test_query_parse(benchmark):
    text = (
        "SELECT sum(amount), avg(amount), countDistinct(city) FROM payments "
        "WHERE amount > 0 GROUP BY cardId OVER sliding 30 minutes delayed by 5 seconds"
    )
    benchmark(lambda: parse_query(text))
