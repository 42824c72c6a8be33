"""Figure 9a (§5.2a) — window size is irrelevant to Railgun's latency.

The same metric as §5.1 at 500 ev/s, with the window size swept from 5
minutes to 7 days. Because every window uses exactly two iterators and
the reservoir pages chunks through the cache regardless of span, the
latency distribution must be flat across sizes — variation at the very
top percentiles comes from Kafka, not Railgun (§5.2.1: "in some runs we
have 150ms in 99.99 percentile, while in others 75ms").

The experiment also runs the *real* reservoir at each window size (a
scaled-down trace) and reports its in-memory footprint, demonstrating
the mechanism behind the flat curve: memory does not grow with span.
"""

from __future__ import annotations

import random

from repro.bench.report import (
    ascii_chart,
    check_expectations,
    format_percentile_table,
    format_table,
)
from repro.common.percentiles import PERCENTILE_GRID
from repro.common.timesource import DAYS, HOURS, MINUTES
from repro.events.event import Event
from repro.events.schema import FieldType, Schema, SchemaField, SchemaRegistry
from repro.plan.dag import TaskPlan
from repro.query.parser import parse_query
from repro.reservoir.reservoir import EventReservoir, ReservoirConfig
from repro.sim import (
    GcConfig,
    KafkaConfig,
    KafkaModel,
    PipelineConfig,
    RailgunServiceConfig,
    RailgunServiceModel,
    simulate_pipeline,
)
from repro.state.store import MetricStateStore

RATE = 500.0
SLO_MS = 250.0

WINDOW_SIZES = {
    "5min": 5 * MINUTES,
    "30min": 30 * MINUTES,
    "1h": 1 * HOURS,
    "2h": 2 * HOURS,
    "3h": 3 * HOURS,
    "1day": 1 * DAYS,
    "7days": 7 * DAYS,
}


def _memory_footprint(window_ms: int, events: int = 4000) -> dict[str, int]:
    """Run the real reservoir + plan; report in-memory chunk counts.

    The event-time step is scaled so the trace spans multiple windows
    even for the 7-day case, forcing both iterators to move.
    """
    registry = SchemaRegistry()
    registry.register(
        Schema([SchemaField("cardId", FieldType.STRING), SchemaField("amount", FieldType.FLOAT)])
    )
    config = ReservoirConfig(chunk_max_events=128, cache_capacity=8)
    reservoir = EventReservoir(registry, config=config)
    plan = TaskPlan(reservoir, MetricStateStore())
    window_text = f"sliding {window_ms} ms"
    plan.add_metric(
        parse_query(f"SELECT sum(amount) FROM s GROUP BY cardId OVER {window_text}")
    )
    step = max(1, (3 * window_ms) // events)
    rng = random.Random(5)
    for index in range(events):
        event = Event(
            f"e{index}", index * step,
            {"cardId": f"c{rng.randrange(50)}", "amount": 1.0},
        )
        result = reservoir.append(event)
        plan.process_event(result.event)
    return {
        "stored_events": reservoir.total_events,
        "memory_chunks": reservoir.memory_chunk_count,
        "cached_chunks": len(reservoir.cache._entries),
        "iterators": reservoir.iterator_count,
    }


def run(fast: bool = True) -> dict:
    """Simulate latency per window size + measure real memory."""
    duration_s = 300.0 if fast else 1800.0
    warmup_s = 20.0 if fast else 300.0
    series: dict[str, dict[float, float]] = {}
    for index, (label, _window_ms) in enumerate(WINDOW_SIZES.items()):
        # The Railgun service model is window-size independent by
        # construction (two iterators, same state keys); runs differ
        # only by seed — exactly the paper's claim under test.
        pipeline = PipelineConfig(
            rate_ev_s=RATE, duration_s=duration_s, warmup_s=warmup_s,
            processors=1, seed=300 + index,
        )
        kafka = KafkaModel(
            KafkaConfig(), random.Random(900 + index), total_partitions=11, brokers=1
        )
        result = simulate_pipeline(
            pipeline,
            lambda rng: RailgunServiceModel(RailgunServiceConfig(state_keys=1), rng),
            kafka,
            gc_config=GcConfig(alloc_per_event_bytes=600e3, minor_pause_median_ms=6.0),
        )
        series[label] = result.recorder.percentiles(PERCENTILE_GRID)

    memory = {
        label: _memory_footprint(window_ms, events=2000 if fast else 8000)
        for label, window_ms in WINDOW_SIZES.items()
    }

    p999 = [values[99.9] for values in series.values()]
    p50 = [values[50.0] for values in series.values()]
    chunks = [m["memory_chunks"] for m in memory.values()]
    checks = [
        ("all window sizes meet <250ms @ 99.9%", max(p999) < SLO_MS),
        (
            "p50 flat across sizes (max/min < 1.5x)",
            max(p50) / min(p50) < 1.5,
        ),
        (
            "p99.9 within the paper's Kafka-noise band (max/min < 4x)",
            max(p999) / min(p999) < 4.0,
        ),
        (
            "real reservoir memory chunks do not grow with window size",
            max(chunks) - min(chunks) <= 1,
        ),
        (
            "every size uses exactly 2 iterators (head + tail)",
            all(m["iterators"] == 2 for m in memory.values()),
        ),
    ]
    return {"series": series, "memory": memory, "checks": checks, "rate": RATE}


def render(result: dict) -> str:
    grid = [p for p in PERCENTILE_GRID if p >= 50.0]
    chart = {
        name: [values[p] for p in grid] for name, values in result["series"].items()
    }
    memory_rows = [
        [label, m["stored_events"], m["memory_chunks"], m["cached_chunks"], m["iterators"]]
        for label, m in result["memory"].items()
    ]
    lines = [
        f"Figure 9a (§5.2a) — latency vs window size at {result['rate']:.0f} ev/s",
        format_percentile_table(result["series"], grid),
        "",
        ascii_chart(chart, [f"p{p:g}" for p in grid]),
        "",
        "real reservoir footprint (mechanism behind the flat curve):",
        format_table(
            ["window", "stored events", "in-mem chunks", "cache entries", "iterators"],
            memory_rows,
        ),
        "",
        "paper expectation: distributions overlap for 5min..7days; top",
        "percentiles vary with Kafka noise only (75-150ms @ 99.99%).",
    ]
    lines += check_expectations(result["checks"])
    return "\n".join(lines)


if __name__ == "__main__":
    print(render(run(fast=True)))
