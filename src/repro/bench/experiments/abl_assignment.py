"""Ablation (§4.2) — sticky, replica-aware assignment vs round-robin.

Runs the *real* cluster twice through the same failure script (load,
kill a node, recover, revive) with (a) the Figure 7 sticky strategy and
(b) a naive round-robin assignor, and compares the recovery bill: task
copies moved to processors with no prior data, bytes transferred, and
promotions (replica-to-active handovers needing zero copy).
"""

from __future__ import annotations

from repro.bench.report import check_expectations, format_table
from repro.engine.assignment import (
    Assignment,
    PreviousState,
    ProcessorInfo,
    StickyAssignmentStrategy,
    round_robin_task_strategy,
)
from repro.engine.cluster import RailgunCluster
from repro.engine.processor import UnitConfig
from repro.events.generators import FraudWorkload


class _RoundRobinAdapter:
    """Round-robin baseline behind the cluster's strategy interface."""

    def __init__(self, replication_factor: int) -> None:
        self.replication_factor = replication_factor

    def assign(self, tasks, processors, previous=None) -> Assignment:
        return round_robin_task_strategy(
            tasks, processors, previous, replication_factor=self.replication_factor
        )


def _run_scenario(strategy: object | None, events: int) -> dict[str, float]:
    cluster = RailgunCluster(
        nodes=3,
        processor_units=2,
        replication_factor=1,
        unit_config=UnitConfig(checkpoint_interval=50),
        assignment_strategy=strategy,
    )
    workload = FraudWorkload(cards=200, merchants=50, events_per_second=100, total_fields=16)
    schema = workload.schema
    cluster.create_stream(
        "payments", partitioners=["cardId"], partitions=6, schema=schema
    )
    cluster.create_metric(
        "SELECT sum(amount), count(*) FROM payments GROUP BY cardId OVER sliding 5 minutes"
    )
    for event in workload.take(events):
        cluster.send("payments", event=event)
    baseline = dict(cluster.recovery_stats())

    cluster.fail_node("node-1")
    cluster.run_until_quiet()
    for event in workload.take(events // 4):
        cluster.send("payments", event=event)
    cluster.revive_node("node-1")
    cluster.run_until_quiet()
    for event in workload.take(events // 4):
        cluster.send("payments", event=event)

    stats = cluster.recovery_stats()
    return {
        "bytes_transferred": stats["bytes_transferred"] - baseline["bytes_transferred"],
        "recoveries": stats["recoveries"] - baseline["recoveries"],
        "delta_recoveries": stats["delta_recoveries"] - baseline["delta_recoveries"],
        "promotions": stats["promotions"] - baseline["promotions"],
        "rebalances": cluster.rebalance_count,
    }


def _strategy_movement_comparison() -> dict[str, int]:
    """Pure-strategy comparison: copies moved on a single node loss."""
    from repro.messaging.log import TopicPartition

    tasks = [TopicPartition("t", i) for i in range(24)]
    processors = [
        ProcessorInfo(f"n{n}/p{p}", f"n{n}") for n in range(4) for p in range(2)
    ]
    sticky = StickyAssignmentStrategy(replication_factor=1)
    first = sticky.assign(tasks, processors, PreviousState())
    survivors = [p for p in processors if p.node_id != "n0"]
    previous = PreviousState(
        active=dict(first.active), replica=dict(first.replica), stale={}
    )
    sticky_moves = sticky.assign(tasks, survivors, previous).moved_from(previous)
    rr_moves = round_robin_task_strategy(
        tasks, survivors, previous, replication_factor=1
    ).moved_from(previous)
    # Copies that MUST move: everything the dead node held.
    dead_copies = sum(
        len(first.active.get(p.processor_id, set()))
        + len(first.replica.get(p.processor_id, set()))
        for p in processors
        if p.node_id == "n0"
    )
    return {
        "sticky_moves": sticky_moves,
        "round_robin_moves": rr_moves,
        "unavoidable": dead_copies,
    }


def run(fast: bool = True) -> dict:
    events = 120 if fast else 600
    sticky = _run_scenario(None, events)
    round_robin = _run_scenario(_RoundRobinAdapter(1), events)
    movement = _strategy_movement_comparison()

    checks = [
        (
            "sticky transfers fewer recovery bytes than round-robin",
            sticky["bytes_transferred"] <= round_robin["bytes_transferred"],
        ),
        (
            "sticky needs fewer cold recoveries",
            sticky["recoveries"] <= round_robin["recoveries"],
        ),
        (
            "pure strategy: sticky moves fewer copies than round-robin",
            movement["sticky_moves"] < movement["round_robin_moves"],
        ),
        (
            "pure strategy: sticky within 1.5x of the unavoidable minimum",
            movement["sticky_moves"] <= 1.5 * movement["unavoidable"],
        ),
    ]
    return {
        "sticky": sticky,
        "round_robin": round_robin,
        "movement": movement,
        "checks": checks,
    }


def render(result: dict) -> str:
    keys = ["bytes_transferred", "recoveries", "delta_recoveries", "promotions", "rebalances"]
    rows = [
        [key, result["sticky"][key], result["round_robin"][key]] for key in keys
    ]
    lines = [
        "Ablation (§4.2) — sticky (Figure 7) vs round-robin assignment",
        format_table(["metric (failure script)", "sticky", "round-robin"], rows),
        "",
        "pure-strategy movement on one node loss (24 tasks, RF=1): "
        f"sticky={result['movement']['sticky_moves']} copies, "
        f"round-robin={result['movement']['round_robin_moves']} copies, "
        f"unavoidable minimum={result['movement']['unavoidable']}",
        "",
        "expectation: stickiness minimizes data shuffling (§4.2 goal 1).",
    ]
    lines += check_expectations(result["checks"])
    return "\n".join(lines)


if __name__ == "__main__":
    print(render(run(fast=True)))
