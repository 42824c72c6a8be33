"""The front door under load: 200 async clients, quotas, latency budgets.

One served cluster, many tenants. Three things are visible when it
runs:

1. **Multiplexing** — hundreds of concurrent TCP connections funnel
   into a single cluster through the asyncio ingest server, every
   batch answered.
2. **Admission control** — the ``greedy`` tenant's quota is a fraction
   of the ``steady`` tenants' and its overflow is answered with
   explicit ``ServerBusy`` frames (counted, retried, never silently
   dropped); the steady tenants' traffic is untouched.
3. **Latency budgets** — the server tracks observed p50/p99 per tenant
   against each tenant's declared budget and reports both.

Run with::

    PYTHONPATH=src python examples/many_clients.py
    PYTHONPATH=src python examples/many_clients.py --clients 64 --events 20

The flags keep CI soaks (64 connections) and local demos (200) on the
same script.
"""

from __future__ import annotations

import argparse
import asyncio

from repro.engine.cluster import create_cluster
from repro.server.admission import (
    AdmissionController,
    LatencyBudget,
    TenantQuota,
)
from repro.server.client import AsyncRailgunClient, ServerBusyError


async def steady_client(host, port, tenant, events, results):
    """A well-behaved tenant: batches within quota, retries on busy."""
    async with AsyncRailgunClient(host, port, tenant=tenant) as client:
        replies = await client.send_batch(
            "payments",
            [
                {"cardId": f"{tenant}-card-{i % 3}", "amount": float(i)}
                for i in range(events)
            ],
            timestamp=1_000,
            busy_retries=50,
        )
        results[tenant] = results.get(tenant, 0) + len(replies)


async def greedy_client(host, port, events, results):
    """A tenant that ignores its quota and eats ServerBusy for it."""
    async with AsyncRailgunClient(host, port, tenant="greedy") as client:
        accepted = shed = 0
        for start in range(0, events, 10):
            batch = [
                {"cardId": "greedy-card", "amount": 1.0}
                for _ in range(min(10, events - start))
            ]
            try:
                replies = await client.send_batch(
                    "payments", batch, timestamp=1_000
                )
                accepted += len(replies)
            except ServerBusyError as busy:
                shed += len(busy.correlations)
        results["greedy-accepted"] = results.get("greedy-accepted", 0) + accepted
        results["greedy-shed"] = results.get("greedy-shed", 0) + shed


async def drive(host, port, clients, events):
    results: dict[str, int] = {}
    tasks = []
    for n in range(clients):
        if n % 10 == 0:  # every tenth connection belongs to the greedy tenant
            tasks.append(greedy_client(host, port, events, results))
        else:
            tasks.append(
                steady_client(host, port, f"steady-{n % 8}", events, results)
            )
    await asyncio.gather(*tasks)
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=200)
    parser.add_argument("--events", type=int, default=40,
                        help="events per client")
    args = parser.parse_args()

    admission = AdmissionController(
        quotas={
            # Enough burst for every steady client of the tenant at once.
            "greedy": TenantQuota(
                events_per_sec=200.0,
                burst=30,
                budget=LatencyBudget(p50_ms=100.0, p99_ms=1_000.0),
            ),
        },
        default_quota=TenantQuota(
            events_per_sec=500_000.0,
            burst=65_536,
            max_in_flight=65_536,
            budget=LatencyBudget(p50_ms=100.0, p99_ms=1_000.0),
        ),
        max_connections=2_048,
        max_in_flight=1 << 20,
    )
    cluster = create_cluster("single", processor_units=2)
    cluster.create_stream(
        "payments",
        partitioners=["cardId"],
        partitions=4,
        schema=[("cardId", "string"), ("amount", "float")],
    )
    cluster.create_metric(
        "SELECT sum(amount), count(*) FROM payments GROUP BY cardId "
        "OVER sliding 5 minutes"
    )
    from repro.server.server import serve_cluster

    handle = serve_cluster(cluster, admission=admission)
    host, port = handle.address
    print(f"serving on tcp://{host}:{port} — "
          f"{args.clients} clients x {args.events} events\n")
    try:
        results = asyncio.run(drive(host, port, args.clients, args.events))
    finally:
        stats = handle.stats()
        handle.stop()
        cluster.close()

    steady_total = sum(
        count for tenant, count in results.items() if tenant.startswith("steady")
    )
    print(f"steady tenants: {steady_total} events accepted "
          f"(every batch answered)")
    print(f"greedy tenant:  {results.get('greedy-accepted', 0)} accepted, "
          f"{results.get('greedy-shed', 0)} shed with explicit ServerBusy")
    print(f"server counters: {stats['server']['busy_frames']} busy frames, "
          f"{stats['admission']['shed_batches']} shed batches\n")

    print(f"{'tenant':>12} {'p50 obs':>9} {'p50 budget':>11} "
          f"{'p99 obs':>9} {'p99 budget':>11}  within")
    for tenant, t in sorted(stats["admission"]["tenants"].items()):
        ok = "yes" if (t["within_p50_budget"] and t["within_p99_budget"]) else "NO"
        print(
            f"{tenant:>12} {t['observed_p50_ms']:>8.1f}m {t['budget_p50_ms']:>10.0f}m "
            f"{t['observed_p99_ms']:>8.1f}m {t['budget_p99_ms']:>10.0f}m  {ok}"
        )

    expected_steady = (args.clients - (args.clients + 9) // 10) * args.events
    assert steady_total == expected_steady, "a steady batch went unanswered"
    greedy_seen = results.get("greedy-accepted", 0) + results.get("greedy-shed", 0)
    assert greedy_seen == ((args.clients + 9) // 10) * args.events, (
        "greedy events must all be accounted for: accepted or shed, no drops"
    )
    print("\nevery event accounted for: accepted or explicitly shed")


if __name__ == "__main__":
    main()
