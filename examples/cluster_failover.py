"""Fault tolerance: replica promotion, sticky recovery, sharded frontends.

Part 1 — the cooperative cluster (§4.2): a 3-node cluster with
replication factor 1 loses a node mid-stream. Kafka-style heartbeat
expiry detects the failure; the Figure 7 strategy promotes replicas
(zero-copy recovery) and re-replicates; window state survives — the
per-card counters keep their pre-failure contents. When the node comes
back, its stale on-disk data makes re-assignment cheap (delta recovery).

Part 2 — the multi-frontend process topology
(``create_cluster("process", workers=2, frontends=2)``): traffic flows
through two frontend processes; we SIGKILL one frontend *and* one shard
worker mid-stream and keep sending. The router respawns the frontend
from its journal, the supervisor restarts the worker from its
checkpoints, and the example asserts the recovered reply counts: every
event answered exactly once, per-key counters unbroken across both
crashes (see docs/ARCHITECTURE.md for the recovery state machines).

Run with::

    python examples/cluster_failover.py
"""

from repro.engine import RailgunCluster, create_cluster
from repro.engine.processor import UnitConfig


def main() -> None:
    cluster = RailgunCluster(
        nodes=3,
        processor_units=2,
        replication_factor=1,
        brokers=3,
        unit_config=UnitConfig(checkpoint_interval=20),
    )
    cluster.create_stream(
        "payments",
        partitioners=["cardId"],
        partitions=6,
        schema=[("cardId", "string"), ("amount", "float")],
    )
    metric = cluster.create_metric(
        "SELECT sum(amount), count(*) FROM payments "
        "GROUP BY cardId OVER sliding 10 minutes"
    )

    second = 1000
    print("phase 1: baseline traffic over 3 nodes")
    for index in range(60):
        reply = cluster.send(
            "payments",
            {"cardId": f"card-{index % 5}", "amount": 10.0},
            timestamp=index * second,
        )
    print(f"  card-0 sum before failure: {reply.value(metric, 'sum(amount)')}")

    victim = cluster.assignment_snapshot()["payments.cardId-0"]["active"][0]
    victim_node = victim.split("/")[0]
    print(f"\nphase 2: killing {victim_node} (owns payments.cardId-0)")
    cluster.fail_node(victim_node)
    cluster.run_until_quiet()

    print("phase 3: traffic continues — state survived the failure")
    for index in range(60, 80):
        reply = cluster.send(
            "payments",
            {"cardId": f"card-{index % 5}", "amount": 10.0},
            timestamp=index * second,
        )
    print(f"  card-0 sum after failover: {reply.value(metric, 'sum(amount)')}")

    stats = cluster.recovery_stats()
    print("\nrecovery bill:")
    print(f"  replica promotions (zero copy): {stats['promotions']}")
    print(f"  data recoveries:                {stats['recoveries']}")
    print(f"  bytes transferred:              {stats['bytes_transferred']}")

    print(f"\nphase 4: reviving {victim_node} — stale data makes rejoin cheap")
    cluster.revive_node(victim_node)
    cluster.run_until_quiet()
    stats = cluster.recovery_stats()
    print(f"  delta recoveries after revival: {stats['delta_recoveries']}")
    for task, owners in sorted(cluster.assignment_snapshot().items()):
        print(f"  {task:24s} active={owners['active'][0]} replicas={owners['replicas']}")


def sharded_frontend_failover() -> None:
    """Part 2: crash a frontend process *and* a worker process mid-stream."""
    second = 1000
    card_count = 5
    with create_cluster("process", workers=2, frontends=2) as cluster:
        cluster.create_stream(
            "payments",
            partitioners=["cardId"],
            partitions=6,
            schema=[("cardId", "string"), ("amount", "float")],
        )
        metric = cluster.create_metric(
            "SELECT sum(amount), count(*) FROM payments "
            "GROUP BY cardId OVER sliding 10 minutes"
        )

        def send_phase(start: int, count: int) -> list:
            return cluster.send_batch(
                "payments",
                [
                    {"cardId": f"card-{index % card_count}", "amount": 10.0}
                    for index in range(start, start + count)
                ],
            )

        print("\nphase 5: sharded frontends — traffic over 2 frontend processes")
        replies = send_phase(0, 60)
        per_frontend = cluster.metrics.counter_labels("router_events_routed_total")
        print(f"  events per frontend: {per_frontend}")
        assert sum(per_frontend.values()) == 60

        victim_frontend = cluster.frontend_ids()[0]
        victim_worker = cluster.worker_ids()[0]
        print(f"\nphase 6: killing {victim_frontend} AND {victim_worker} mid-stream")
        cluster.kill_frontend(victim_frontend)
        cluster.kill_worker(victim_worker)
        replies += send_phase(60, 40)

        # Recovered reply counts: every event answered exactly once, and
        # the per-card counters carried straight through both crashes.
        assert len(replies) == 100
        per_card = {}
        for reply in replies:
            card = reply.event.get("cardId")
            per_card[card] = per_card.get(card, 0) + 1
            assert reply.value(metric, "count(*)") == per_card[card]
        metrics = cluster.metrics
        merged = sum(metrics.counter_labels("router_replies_merged_total").values())
        assert merged == len(replies), (merged, len(replies))
        restarts = metrics.counter_value("router_frontend_restarts_total", victim_frontend)
        print(f"  replies recovered: {merged}/100, "
              f"frontend restarts: {restarts}, "
              f"worker restarts: {cluster.supervisor.restarts}")
        final = replies[-1]
        print(f"  {final.event.get('cardId')} count after both crashes: "
              f"{final.value(metric, 'count(*)')} "
              f"(sum {final.value(metric, 'sum(amount)')})")


if __name__ == "__main__":
    main()
    sharded_frontend_failover()
