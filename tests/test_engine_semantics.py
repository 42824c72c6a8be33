"""Engine delivery semantics: exactly-once, out-of-order, checkpoints."""

import pytest

from repro.engine import RailgunCluster
from repro.engine.processor import UnitConfig
from repro.reservoir.reservoir import OutOfOrderPolicy, ReservoirConfig


def _cluster(**reservoir_kwargs):
    config = UnitConfig(
        checkpoint_interval=10,
        reservoir=ReservoirConfig(chunk_max_events=8, **reservoir_kwargs),
    )
    cluster = RailgunCluster(nodes=1, processor_units=1, unit_config=config)
    cluster.create_stream(
        "s", partitioners=["k"], partitions=2,
        schema=[("k", "string"), ("v", "float")],
    )
    metric = cluster.create_metric(
        "SELECT count(*), sum(v) FROM s GROUP BY k OVER sliding 10 minutes"
    )
    return cluster, metric


class TestExactlyOnce:
    def test_client_retry_not_double_counted(self):
        cluster, metric = _cluster()
        first = cluster.send("s", {"k": "a", "v": 1.0}, timestamp=1_000,
                             event_id="retry-me")
        retry = cluster.send("s", {"k": "a", "v": 1.0}, timestamp=1_000,
                             event_id="retry-me")
        assert first.value(metric, "count(*)") == 1
        # The retry still gets a reply, but state is unchanged.
        assert retry.value(metric, "count(*)") == 1
        assert retry.value(metric, "sum(v)") == 1.0

    def test_distinct_events_counted(self):
        cluster, metric = _cluster()
        cluster.send("s", {"k": "a", "v": 1.0}, timestamp=1_000, event_id="e1")
        reply = cluster.send("s", {"k": "a", "v": 1.0}, timestamp=2_000,
                             event_id="e2")
        assert reply.value(metric, "count(*)") == 2


class TestOutOfOrderAtClusterLevel:
    def test_rewrite_policy_keeps_event(self):
        cluster, metric = _cluster(ooo_policy=OutOfOrderPolicy.REWRITE)
        for i in range(20):
            cluster.send("s", {"k": "a", "v": 1.0}, timestamp=(i + 1) * 1_000)
        # Far in the past: chunk long closed -> rewritten, still counted.
        reply = cluster.send("s", {"k": "a", "v": 1.0}, timestamp=500)
        assert reply.value(metric, "count(*)") == 21

    def test_discard_policy_drops_event_but_replies(self):
        cluster, metric = _cluster(ooo_policy=OutOfOrderPolicy.DISCARD)
        for i in range(20):
            cluster.send("s", {"k": "a", "v": 1.0}, timestamp=(i + 1) * 1_000)
        reply = cluster.send("s", {"k": "a", "v": 1.0}, timestamp=500)
        assert reply.value(metric, "count(*)") == 20  # dropped, not counted

    def test_slightly_late_event_enters_window(self):
        cluster, metric = _cluster()
        cluster.send("s", {"k": "a", "v": 1.0}, timestamp=10_000)
        cluster.send("s", {"k": "a", "v": 1.0}, timestamp=12_000)
        # Late but within the open chunk's range: inserted in order.
        reply = cluster.send("s", {"k": "a", "v": 1.0}, timestamp=11_000)
        assert reply.value(metric, "count(*)") == 3


class TestCheckpointsInCluster:
    def test_periodic_checkpoints_counted(self):
        cluster, _ = _cluster()
        for i in range(30):
            cluster.send("s", {"k": f"k{i}", "v": 1.0}, timestamp=(i + 1) * 1_000)
        assert cluster.recovery_stats()["checkpoints_taken"] > 0

    def test_replicas_track_actives(self):
        config = UnitConfig(checkpoint_interval=10)
        cluster = RailgunCluster(
            nodes=2, processor_units=1, replication_factor=1,
            unit_config=config,
        )
        cluster.create_stream(
            "s", partitioners=["k"], partitions=2,
            schema=[("k", "string"), ("v", "float")],
        )
        cluster.create_metric(
            "SELECT count(*) FROM s GROUP BY k OVER sliding 10 minutes"
        )
        for i in range(20):
            cluster.send("s", {"k": f"k{i % 3}", "v": 1.0},
                         timestamp=(i + 1) * 1_000)
        cluster.run_until_quiet()
        # Every task processor exists twice (active + replica) and the
        # replica's offset equals the active's.
        offsets: dict[str, list[int]] = {}
        for node in cluster.alive_nodes():
            for unit in node.units:
                for tp, processor in unit.task_processors.items():
                    offsets.setdefault(str(tp), []).append(processor.next_offset)
        for tp, values in offsets.items():
            assert len(values) == 2, f"{tp} not replicated"
            assert values[0] == values[1], f"{tp} replica lags"
