"""Ablation (§4.1.3) — state-store (LSM) behaviour.

Real measurements on the embedded LSM store:

- put/get throughput under a fraud-like keyed update mix;
- memtable size sweep: write amplification (flushes + compactions);
- checkpoint cost: the paper's claim that checkpoints are cheap because
  "only a small amount of data needs to be written to disk at a given
  time" — measured as bytes written at checkpoint versus total data.
"""

from __future__ import annotations

import random
import time

from repro.bench.report import check_expectations, drop_column, format_table
from repro.lsm.db import LsmConfig, LsmDb


def _mixed_workload(db: LsmDb, operations: int, seed: int) -> dict[str, float]:
    rng = random.Random(seed)
    started = time.perf_counter()
    for index in range(operations):
        key = f"card-{rng.randrange(2000):06d}".encode()
        if rng.random() < 0.5:
            db.put(key, f"state-{index}".encode())
        else:
            db.get(key)
    elapsed = time.perf_counter() - started
    return {
        "ops_per_sec": operations / elapsed,
        "flushes": float(db.stats.flushes),
        "compactions": float(db.stats.compactions),
        "bloom_skips": float(db.stats.bloom_skips),
        "sstable_reads": float(db.stats.sstable_reads),
    }


def run(fast: bool = True) -> dict:
    operations = 8000 if fast else 50_000

    memtable_sizes = [8 * 1024, 64 * 1024, 512 * 1024]
    by_memtable = {}
    for size in memtable_sizes:
        db = LsmDb(config=LsmConfig(memtable_flush_bytes=size))
        by_memtable[size] = _mixed_workload(db, operations, seed=5)

    # Checkpoint cost: fill a store, checkpoint, write a little more,
    # checkpoint again; the second checkpoint should be cheap.
    db = LsmDb(config=LsmConfig(memtable_flush_bytes=32 * 1024))
    rng = random.Random(9)
    for index in range(operations // 2):
        db.put(f"k{rng.randrange(3000):06d}".encode(), f"v{index}".encode())
    appended_before = db.storage.stats.appended_bytes
    first = db.checkpoint()
    first_cost = db.storage.stats.appended_bytes - appended_before
    for index in range(50):
        db.put(f"k{rng.randrange(3000):06d}".encode(), f"w{index}".encode())
    appended_before = db.storage.stats.appended_bytes
    second = db.checkpoint()
    second_cost = db.storage.stats.appended_bytes - appended_before
    total_bytes = sum(db.storage.size(name) for name in db.storage.list())
    db.release_checkpoint(first)
    db.release_checkpoint(second)

    checks = [
        (
            "smaller memtables flush (and compact) more",
            by_memtable[8 * 1024]["flushes"] > by_memtable[512 * 1024]["flushes"],
        ),
        (
            "bloom filters skip most table probes",
            all(
                m["bloom_skips"] >= m["sstable_reads"] * 0.2
                for m in by_memtable.values()
                if m["sstable_reads"] > 0
            ),
        ),
        (
            "incremental checkpoint writes a small fraction of the data",
            second_cost < 0.2 * max(total_bytes, 1),
        ),
    ]
    return {
        "by_memtable": by_memtable,
        "checkpoint": {
            "first_cost": first_cost,
            "second_cost": second_cost,
            "total_bytes": total_bytes,
        },
        "checks": checks,
    }


def render(result: dict, rates: bool = True) -> str:
    """The report; ``rates=False`` leaves out the wall-clock ``ops/s``
    column, so the tracked file holds only counts that repeat exactly."""
    headers = ["memtable", "ops/s", "flushes", "compactions", "bloom skips"]
    rows = [
        [
            f"{size // 1024}KB",
            f"{m['ops_per_sec']:,.0f}",
            int(m["flushes"]),
            int(m["compactions"]),
            int(m["bloom_skips"]),
        ]
        for size, m in result["by_memtable"].items()
    ]
    if not rates:
        headers, rows = drop_column(headers, rows, 1)
    cp = result["checkpoint"]
    lines = [
        "Ablation (§4.1.3) — LSM state store",
        format_table(headers, rows),
        "",
        f"checkpoint cost: initial={cp['first_cost']}B, "
        f"incremental={cp['second_cost']}B of {cp['total_bytes']}B total",
        "",
        "expectation: checkpoints stay cheap (only recent data flushes).",
    ]
    lines += check_expectations(result["checks"])
    return "\n".join(lines)


if __name__ == "__main__":
    print(render(run(fast=True)))
