"""Cluster-wide exactness: every aggregator, random workload, vs oracle.

The A in MAD: whatever happens inside the cluster — chunk closures,
multi-partition routing, checkpoints — per-event replies must equal a
brute-force recomputation over the full history.
"""

import math
import random
import statistics

import pytest

from repro.common.timesource import MINUTES
from repro.engine import RailgunCluster
from repro.engine.processor import UnitConfig

WINDOW_MS = 5 * MINUTES


@pytest.fixture(scope="module")
def run():
    """One shared random run; individual tests check different metrics."""
    cluster = RailgunCluster(
        nodes=2,
        processor_units=2,
        replication_factor=1,
        unit_config=UnitConfig(checkpoint_interval=25),
    )
    cluster.create_stream(
        "payments",
        partitioners=["cardId"],
        partitions=4,
        schema=[("cardId", "string"), ("amount", "float"), ("city", "string")],
    )
    metrics = {
        "sum": cluster.create_metric(
            "SELECT sum(amount) FROM payments GROUP BY cardId OVER sliding 5 minutes"
        ),
        "avg": cluster.create_metric(
            "SELECT avg(amount) FROM payments GROUP BY cardId OVER sliding 5 minutes"
        ),
        "minmax": cluster.create_metric(
            "SELECT min(amount), max(amount) FROM payments GROUP BY cardId OVER sliding 5 minutes"
        ),
        "stddev": cluster.create_metric(
            "SELECT stdDev(amount) FROM payments GROUP BY cardId OVER sliding 5 minutes"
        ),
        "distinct": cluster.create_metric(
            "SELECT countDistinct(city) FROM payments GROUP BY cardId OVER sliding 5 minutes"
        ),
        "lastprev": cluster.create_metric(
            "SELECT last(amount), prev(amount) FROM payments GROUP BY cardId OVER sliding 5 minutes"
        ),
    }
    rng = random.Random(99)
    history = []
    observations = []
    ts = 0
    for i in range(120):
        ts += rng.randrange(5_000, 45_000)
        card = f"c{rng.randrange(3)}"
        amount = float(rng.randrange(1, 100))
        city = f"city{rng.randrange(4)}"
        reply = cluster.send(
            "payments",
            {"cardId": card, "amount": amount, "city": city},
            timestamp=ts,
        )
        history.append((ts, card, amount, city))
        window = [
            (t, c, a, ci) for t, c, a, ci in history
            if c == card and t > ts - WINDOW_MS
        ]
        observations.append((reply, window))
    return metrics, observations


class TestClusterExactness:
    def test_sum(self, run):
        metrics, observations = run
        for reply, window in observations:
            expected = sum(a for _, _, a, _ in window)
            assert reply.value(metrics["sum"], "sum(amount)") == pytest.approx(expected)

    def test_avg(self, run):
        metrics, observations = run
        for reply, window in observations:
            expected = sum(a for _, _, a, _ in window) / len(window)
            assert reply.value(metrics["avg"], "avg(amount)") == pytest.approx(expected)

    def test_min_max(self, run):
        metrics, observations = run
        for reply, window in observations:
            amounts = [a for _, _, a, _ in window]
            assert reply.value(metrics["minmax"], "min(amount)") == min(amounts)
            assert reply.value(metrics["minmax"], "max(amount)") == max(amounts)

    def test_stddev(self, run):
        metrics, observations = run
        for reply, window in observations:
            amounts = [a for _, _, a, _ in window]
            got = reply.value(metrics["stddev"], "stdDev(amount)")
            if len(amounts) < 2:
                assert got is None
            else:
                assert got == pytest.approx(statistics.stdev(amounts), rel=1e-6)

    def test_count_distinct(self, run):
        metrics, observations = run
        for reply, window in observations:
            cities = {ci for _, _, _, ci in window}
            assert reply.value(metrics["distinct"], "countDistinct(city)") == len(cities)

    def test_last_prev(self, run):
        metrics, observations = run
        for reply, window in observations:
            ordered = sorted(window)
            assert reply.value(metrics["lastprev"], "last(amount)") == ordered[-1][2]
            expected_prev = ordered[-2][2] if len(ordered) > 1 else None
            assert reply.value(metrics["lastprev"], "prev(amount)") == expected_prev
