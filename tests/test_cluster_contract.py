"""The shard-cluster contract: every process topology passes the same suite.

``create_cluster("process")`` has two transports under one front layer
(:class:`~repro.shard.cluster.ShardCluster`): the coordinator pipes of
``ParallelCluster`` (``process``) and the sharded frontends of
``ClusterRouter`` (``process-2f``). Each case here runs on both and
holds them to the same bar — replies byte-identical to the per-event
single-process engine, through worker crashes mid-batch, checkpointed
tail replay and rebalances. Topology-specific behaviour (frontend
journals, coordinator restart from disk, supervisor internals) stays in
``test_sharded_frontends.py``, ``test_durable_recovery.py`` and
``test_shard_runtime.py``.
"""

from __future__ import annotations

import pytest

from repro.common.errors import EngineError
from repro.common.timesource import default_time_source
from repro.engine.cluster import RailgunCluster, create_cluster
from repro.events.event import Event
from repro.shard.cluster import ShardCluster
from repro.shard.parallel import ParallelCluster
from repro.shard.router import ClusterRouter

STREAM_KW = dict(partitions=4, schema={"cardId": "string", "amount": "float"})
METRIC = (
    "SELECT sum(amount), count(*), avg(amount) FROM tx GROUP BY cardId "
    "OVER sliding 5 minutes"
)
TOPOLOGIES = {"process": {}, "process-2f": {"frontends": 2}}


@pytest.fixture(params=sorted(TOPOLOGIES))
def topology(request):
    return request.param


def open_cluster(topology, workers=2, metric=METRIC, **kwargs):
    cluster = create_cluster(
        "process", workers=workers, **TOPOLOGIES[topology], **kwargs
    )
    cluster.create_stream("tx", ["cardId"], **STREAM_KW)
    cluster.create_metric(metric)
    return cluster


def make_events(count, prefix="e", start_ts=1000):
    return [
        Event(
            f"{prefix}{i}", start_ts + i,
            {"cardId": f"c{i % 5}", "amount": float(i % 17)},
        )
        for i in range(count)
    ]


def single_process_results(events, metric=METRIC):
    """Ground truth: the cooperative engine, one event at a time."""
    cluster = RailgunCluster(nodes=1, processor_units=2)
    cluster.create_stream("tx", ["cardId"], **STREAM_KW)
    cluster.create_metric(metric)
    cluster.run_until_quiet()
    return [cluster.send("tx", event=event).results for event in events]


def pump_until(cluster, condition, timeout=30.0):
    return default_time_source().wait_until(
        lambda: (cluster.pump(), condition())[1], timeout=timeout, poll=0.0
    )


def worker_counter(cluster, name):
    return cluster.metrics.counter_labels(f"supervisor_worker_{name}_total")


def test_replies_and_counters_match_single_process(topology):
    events = make_events(120)
    expected = single_process_results(events)
    with open_cluster(topology) as cluster:
        replies = cluster.send_batch("tx", events)
        assert [r.results for r in replies] == expected
        assert [r.event for r in replies] == events
        # Same aggregate counts: every event processed and replied once.
        assert cluster.total_messages_processed() == len(events)
        assert sum(worker_counter(cluster, "records").values()) == len(events)
        assert sum(worker_counter(cluster, "replies").values()) == len(events)
        counters = cluster.telemetry()["counters"]
        assert counters["engine_events_in_total"] == len(events)
        assert counters["engine_replies_out_total"] == len(events)


def test_single_event_send_and_field_mapping(topology):
    with open_cluster(
        topology, workers=1,
        metric="SELECT count(*) FROM tx GROUP BY cardId OVER sliding 1 minutes",
    ) as cluster:
        first = cluster.send("tx", fields={"cardId": "c1", "amount": 1.0})
        second = cluster.send("tx", fields={"cardId": "c1", "amount": 2.0})
        assert first.value(0, "count(*)") == 1
        assert second.value(0, "count(*)") == 2


def test_batch_matches_per_event_replies_with_ties_and_duplicates(topology):
    # Held to the same bar as the batched single-process path:
    # byte-identical reply values and aggregate counts, with timestamp
    # ties and a duplicate id (its reply is read-only).
    events = [
        Event(f"b{i}", 1000 + i // 2, {"cardId": f"c{i % 3}", "amount": float(i)})
        for i in range(40)
    ]
    events.append(events[7])
    one_by_one = RailgunCluster(nodes=2, processor_units=2)
    one_by_one.create_stream("tx", ["cardId"], **STREAM_KW)
    one_by_one.create_metric(METRIC)
    one_by_one.run_until_quiet()
    expected = [one_by_one.send("tx", event=event) for event in events]
    with open_cluster(topology) as cluster:
        replies = cluster.send_batch("tx", events)
        processed = cluster.total_messages_processed()
    assert [r.results for r in replies] == [r.results for r in expected]
    assert [r.event for r in replies] == [r.event for r in expected]
    assert processed == len(events) == one_by_one.total_messages_processed()


def test_worker_crash_mid_batch_replays_uncommitted(topology):
    """Kill a worker with batches in flight: replies stay byte-identical
    and none is duplicated."""
    events = make_events(300)
    expected = single_process_results(events)
    with open_cluster(topology) as cluster:
        # Ship everything up front, then crash a worker while its
        # batches are in flight: the fan-out is out, half the replies
        # are not.
        correlations = cluster._ship("tx", events)
        victim = cluster.worker_ids()[0]
        # The victim must have acknowledged work of its own before it
        # dies: only then does its replay count a record twice.
        assert pump_until(
            cluster,
            lambda: len(cluster.completed) >= 80
            and worker_counter(cluster, "records").get(victim, 0) > 0,
        )
        cluster.kill_worker(victim)
        pump_until(cluster, lambda: len(cluster.completed) >= len(events))
        results = [cluster.completed.pop(c).results for c in correlations]
        assert results == expected
        # The uncheckpointed tail replayed; its count reaches the
        # supervisor with the next completions.
        assert pump_until(
            cluster,
            lambda: cluster.supervisor.restarts >= 1
            and cluster.total_messages_processed() > len(events),
        )
        assert cluster.supervisor.restarts == 1
        # ... but no client reply was duplicated, and nothing leaked:
        # replayed offsets below the watermark never re-enter a
        # pending map (their replies are suppressed).
        cluster.run_until_quiet()
        assert not cluster.completed
        assert not cluster.pending
        assert cluster._idle()


def test_crash_after_checkpoint_replays_exactly_the_tail(topology):
    """N events, checkpoint at C, crash → exactly the victim's N-C
    uncheckpointed records replay, and replies stay byte-identical."""
    events = make_events(120)
    probe = Event("probe", 9000, {"cardId": "c1", "amount": 2.0})
    expected = single_process_results(events + [probe])
    with open_cluster(topology, checkpoint_every=None) as cluster:
        results = [r.results for r in cluster.send_batch("tx", events[:90])]
        offsets = cluster.checkpoint_now()
        assert sum(offsets.values()) == 90
        store = cluster.supervisor.checkpoints
        assert all(store.offset(tp) == offset for tp, offset in offsets.items())
        results += [r.results for r in cluster.send_batch("tx", events[90:])]
        processed = cluster.total_messages_processed()
        assert processed == len(events)
        victim = cluster.worker_ids()[0]
        tail = sum(
            cluster._watermarks.get(tp, 0) - offsets.get(tp, 0)
            for tp in cluster.supervisor.handles[victim].assigned
        )
        assert tail > 0
        cluster.kill_worker(victim)
        assert pump_until(
            cluster, lambda: cluster.total_messages_processed() - processed >= tail
        )
        cluster.run_until_quiet()
        cluster._quiesce()
        assert cluster.supervisor.restarts == 1
        # Recovery replayed exactly the uncheckpointed tail ...
        assert cluster.total_messages_processed() - processed == tail
        # ... without duplicating a single client reply.
        assert not cluster.completed and not cluster.pending
        results.append(cluster.send("tx", event=probe).results)
        assert results == expected


def test_rebalance_mid_stream_grow_and_shrink(topology):
    events = make_events(200)
    expected = single_process_results(events)
    with open_cluster(topology, workers=1) as cluster:
        results = [r.results for r in cluster.send_batch("tx", events[:80])]
        grown = cluster.add_worker()
        results += [r.results for r in cluster.send_batch("tx", events[80:150])]
        cluster.remove_worker(grown)
        results += [r.results for r in cluster.send_batch("tx", events[150:])]
        assert results == expected
        assert cluster.rebalance_count >= 3


def test_factory_dispatches_on_execution_and_frontends(topology):
    facade = {"process": ParallelCluster, "process-2f": ClusterRouter}[topology]
    with create_cluster("process", workers=1, **TOPOLOGIES[topology]) as cluster:
        assert isinstance(cluster, facade)
    # ``transport`` is no keyword of either process topology.
    with pytest.raises(ValueError, match="'transport'"):
        create_cluster("process", transport="shm", **TOPOLOGIES[topology])
    assert isinstance(create_cluster("single", nodes=1, processor_units=1), RailgunCluster)
    with pytest.raises(EngineError):
        create_cluster("threads")
    with pytest.raises(EngineError):
        ClusterRouter(workers=1, frontends=0)
    for frontends in (0, -2):
        with pytest.raises(EngineError, match="at least one frontend"):
            create_cluster("process", workers=1, frontends=frontends)


def test_shared_api_is_defined_once():
    """The facades keep only their transport: no public name of the
    shared core is redefined by either, except ``ParallelCluster``'s
    ``send_batch`` — the core's own function, bound in the facade's
    ``__dict__`` where ``bench/trace.py`` patches it."""
    shared = {name for name in vars(ShardCluster) if not name.startswith("_")}
    shared |= {"__enter__", "__exit__"}
    assert {"send", "send_batch", "create_metric", "telemetry", "close"} <= shared
    for facade in (ParallelCluster, ClusterRouter):
        redefined = shared & set(vars(facade)) - {"send_batch"}
        assert not redefined, (facade.__name__, sorted(redefined))
    assert "send_batch" not in vars(ClusterRouter)
    assert vars(ParallelCluster)["send_batch"] is vars(ShardCluster)["send_batch"]
