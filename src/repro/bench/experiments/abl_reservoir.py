"""Ablation (§4.1.1) — reservoir chunk size, compression and prefetch.

Real measurements on the actual reservoir:

- chunk size sweep: append + window-iteration throughput and I/O ops;
- codec sweep (none / zlib levels): bytes on disk vs (de)serialization
  cost — the paper compresses "aggressively" because events replicate
  across task processors;
- prefetch on/off: demand-miss counts seen by a long-window tail.
"""

from __future__ import annotations

import random
import time

from repro.bench.report import check_expectations, drop_column, format_table
from repro.events.event import Event
from repro.events.schema import FieldType, Schema, SchemaField, SchemaRegistry
from repro.reservoir.reservoir import EventReservoir, ReservoirConfig


def _registry() -> SchemaRegistry:
    registry = SchemaRegistry()
    registry.register(
        Schema(
            [
                SchemaField("cardId", FieldType.STRING),
                SchemaField("amount", FieldType.FLOAT),
                SchemaField("merchantId", FieldType.STRING),
            ]
        )
    )
    return registry


def _events(count: int, seed: int = 3) -> list[Event]:
    rng = random.Random(seed)
    return [
        Event(
            f"e{i}",
            i * 20,
            {
                "cardId": f"c{rng.randrange(500):04d}",
                "amount": round(rng.uniform(1, 500), 2),
                "merchantId": f"m{rng.randrange(50):03d}",
            },
        )
        for i in range(count)
    ]


def _run_config(events: list[Event], config: ReservoirConfig, window_ms: int) -> dict[str, float]:
    reservoir = EventReservoir(_registry(), config=config)
    head = reservoir.new_iterator(0, "head")
    tail = reservoir.new_iterator(window_ms, "tail")
    started = time.perf_counter()
    for event in events:
        reservoir.append(event)
        head.advance_upto(event.timestamp)
        tail.advance_upto(event.timestamp - window_ms)
    elapsed = time.perf_counter() - started
    disk_bytes = sum(reservoir.storage.size(name) for name in reservoir.storage.list())
    return {
        "events_per_sec": len(events) / elapsed,
        "disk_bytes": float(disk_bytes),
        "io_appends": float(reservoir.storage.stats.appends),
        "demand_misses": float(reservoir.cache.stats.demand_misses),
        "prefetch_loads": float(reservoir.cache.stats.prefetch_loads),
    }


def run(fast: bool = True) -> dict:
    count = 6000 if fast else 30_000
    events = _events(count)
    window_ms = count * 20 // 4  # tail stays busy

    chunk_sizes = [64, 256, 1024]
    by_chunk = {
        size: _run_config(events, ReservoirConfig(chunk_max_events=size, cache_capacity=16), window_ms)
        for size in chunk_sizes
    }
    codecs = ["none", "zlib:1", "zlib:6", "zlib:9"]
    by_codec = {
        codec: _run_config(
            events,
            ReservoirConfig(chunk_max_events=256, cache_capacity=16, codec=codec),
            window_ms,
        )
        for codec in codecs
    }
    prefetch = {
        enabled: _run_config(
            events,
            ReservoirConfig(chunk_max_events=128, cache_capacity=4, prefetch=enabled),
            window_ms,
        )
        for enabled in (True, False)
    }

    checks = [
        (
            "larger chunks -> fewer I/O appends",
            by_chunk[1024]["io_appends"] < by_chunk[64]["io_appends"],
        ),
        (
            "compression shrinks disk bytes (zlib:6 < 70% of none)",
            by_codec["zlib:6"]["disk_bytes"] < 0.7 * by_codec["none"]["disk_bytes"],
        ),
        (
            "aggressive zlib:9 is no larger than zlib:1",
            by_codec["zlib:9"]["disk_bytes"] <= by_codec["zlib:1"]["disk_bytes"],
        ),
        (
            "prefetch eliminates demand misses on sequential tails",
            prefetch[True]["demand_misses"] * 5 < max(prefetch[False]["demand_misses"], 1),
        ),
    ]
    return {
        "by_chunk": by_chunk,
        "by_codec": by_codec,
        "prefetch": prefetch,
        "checks": checks,
    }


def render(result: dict, rates: bool = True) -> str:
    """The report; ``rates=False`` leaves out the wall-clock ``ev/s``
    columns, so the tracked file holds only counts that repeat exactly."""
    chunk_headers = ["chunk events", "ev/s", "io appends", "disk bytes"]
    codec_headers = ["codec", "ev/s", "disk bytes"]
    chunk_rows = [
        [size, f"{m['events_per_sec']:,.0f}", int(m["io_appends"]), int(m["disk_bytes"])]
        for size, m in result["by_chunk"].items()
    ]
    codec_rows = [
        [codec, f"{m['events_per_sec']:,.0f}", int(m["disk_bytes"])]
        for codec, m in result["by_codec"].items()
    ]
    prefetch_rows = [
        ["on" if enabled else "off", int(m["demand_misses"]), int(m["prefetch_loads"])]
        for enabled, m in result["prefetch"].items()
    ]
    if not rates:
        chunk_headers, chunk_rows = drop_column(chunk_headers, chunk_rows, 1)
        codec_headers, codec_rows = drop_column(codec_headers, codec_rows, 1)
    lines = [
        "Ablation (§4.1.1) — reservoir chunk size / codec / prefetch",
        "chunk size sweep:",
        format_table(chunk_headers, chunk_rows),
        "",
        "codec sweep (chunk=256):",
        format_table(codec_headers, codec_rows),
        "",
        "prefetch (cache=4 chunks, busy tail):",
        format_table(["prefetch", "demand misses", "prefetch loads"], prefetch_rows),
    ]
    lines += check_expectations(result["checks"])
    return "\n".join(lines)


if __name__ == "__main__":
    print(render(run(fast=True)))
