"""Example 1 from the paper: card and merchant profiles (Q1 + Q2).

Two metrics with different group-bys over the same stream:

    Q1: SELECT sum(amount), count(*) FROM payments
        GROUP BY cardId [RANGE 5 MINUTES]
    Q2: SELECT avg(amount) FROM payments
        GROUP BY merchantId [RANGE 5 MINUTES]

The stream gets one topic per partitioner (card and merchant); the
front-end fans each event out to both (Figure 3 step 2), and the reply
collates both profiles. This example runs the synthetic fraud workload
(103 fields, Zipf entities) through a 2-node cluster.

Run with::

    python examples/merchant_profiles.py
"""

from repro.engine import RailgunCluster
from repro.events.generators import FraudWorkload


def main() -> None:
    workload = FraudWorkload(
        cards=500, merchants=40, events_per_second=100.0, seed=11
    )
    cluster = RailgunCluster(nodes=2, processor_units=2)
    cluster.create_stream(
        "payments",
        partitioners=["cardId", "merchantId"],
        partitions=4,
        schema=workload.schema,
    )
    q1 = cluster.create_metric(
        "SELECT sum(amount), count(*) FROM payments "
        "GROUP BY cardId OVER sliding 5 minutes"
    )
    q2 = cluster.create_metric(
        "SELECT avg(amount) FROM payments GROUP BY merchantId OVER sliding 5 minutes"
    )

    print("feeding 300 synthetic payment events (103 fields each)...\n")
    last_reply = None
    for event in workload.take(300):
        last_reply = cluster.send("payments", event=event)

    event = last_reply.event
    print("last event:", event.event_id)
    print(f"  card     {event['cardId']}:")
    print(f"    5-min spend: {last_reply.value(q1, 'sum(amount)'):.2f}")
    print(f"    5-min count: {last_reply.value(q1, 'count(*)')}")
    print(f"  merchant {event['merchantId']}:")
    avg = last_reply.value(q2, "avg(amount)")
    print(f"    5-min avg ticket: {avg:.2f}" if avg is not None else "    (no data)")

    print("\ntask assignment across the cluster (topic card + topic merchant):")
    for task, owners in cluster.assignment_snapshot().items():
        print(f"  {task:28s} active={owners['active'][0]} replicas={owners['replicas']}")


if __name__ == "__main__":
    main()
