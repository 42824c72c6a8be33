"""The shard-cluster contract: every process topology passes the same suite.

``create_cluster("process")`` is one front layer
(:class:`~repro.shard.cluster.ShardCluster`) over two frontend links:
``ParallelCluster``'s in-process frontend (``process``) and
``ClusterRouter``'s frontend processes (``process-2f``). Each case here
runs on both and
holds them to the same bar — replies byte-identical to the per-event
single-process engine, through worker crashes mid-batch, checkpointed
tail replay and rebalances. The client surface all three facades share
(:class:`~repro.engine.cluster.ClusterFacade`: DDL, backfill, ``send``)
is held to ``single``'s replies and errors on ``single`` too.
Topology-specific behaviour (frontend
journals, coordinator restart from disk, supervisor internals) stays in
``test_sharded_frontends.py``, ``test_durable_recovery.py`` and
``test_shard_runtime.py``.
"""

from __future__ import annotations

import pytest

from repro.common.errors import EngineError
from repro.common.timesource import default_time_source
from repro.engine.cluster import ClusterFacade, RailgunCluster, create_cluster
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


def test_timestamp_past_i64_crosses_the_link(topology):
    # ``Event`` takes any non-negative int timestamp; the worker link
    # ships one past 2**63 in a tagged timestamp column.
    events = make_events(6, start_ts=2**63 + 10)
    expected = single_process_results(events)
    with open_cluster(topology) as cluster:
        replies = cluster.send_batch("tx", events)
        assert [r.results for r in replies] == expected
        assert [r.event.timestamp for r in replies] == [e.timestamp for e in events]


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


def test_metric_created_between_two_batches(topology):
    """Work rides the frontends' data sockets, unordered against the
    control pipes: only the worker barrier after metric DDL keeps the
    next batch from being processed against the old metric set."""
    second = "SELECT count(*) FROM tx GROUP BY cardId OVER sliding 1 minutes"
    events = make_events(160)
    reference = RailgunCluster(nodes=1, processor_units=2)
    reference.create_stream("tx", ["cardId"], **STREAM_KW)
    reference.create_metric(METRIC)
    reference.run_until_quiet()
    expected = [reference.send("tx", event=e).results for e in events[:80]]
    reference.create_metric(second)
    reference.run_until_quiet()
    expected += [reference.send("tx", event=e).results for e in events[80:]]
    with open_cluster(topology) as cluster:
        results = [r.results for r in cluster.send_batch("tx", events[:80])]
        cluster.create_metric(second)
        results += [r.results for r in cluster.send_batch("tx", events[80:])]
    assert results == expected


def test_backfill_survives_a_worker_killed_mid_backfill(topology):
    """A worker dies while a backfill is splicing into it: its restart
    restores before any replayed batch and re-derives the installs, so
    live replies stay byte-identical and the backfilled values equal a
    metric defined at genesis on the single-process engine."""
    late = "SELECT max(amount), count(*) FROM tx GROUP BY cardId OVER sliding 5 minutes"
    events = make_events(200)
    reference = RailgunCluster(nodes=1, processor_units=2)
    reference.create_stream("tx", ["cardId"], **STREAM_KW)
    reference.create_metric(METRIC)
    late_id = reference.create_metric(late)
    reference.run_until_quiet()
    expected = [reference.send("tx", event=e).results[0] for e in events]
    with open_cluster(topology) as cluster:
        results = [r.results[0] for r in cluster.send_batch("tx", events[:100])]
        assert cluster.backfill_metric(late) == late_id
        cluster.pump()  # the frontends open their shadows
        cluster.kill_worker(cluster.worker_ids()[0])
        results += [r.results[0] for r in cluster.send_batch("tx", events[100:])]
        assert pump_until(
            cluster, lambda: cluster.backfill_status(late_id) == "complete"
        )
        cluster.run_until_quiet()
        assert cluster.supervisor.restarts == 1
        assert results == expected
        assert cluster.metric_values(late_id) == reference.metric_values(late_id)


def ddl_midstream(cluster, send):
    """The client surface driven between batches: every DDL call's
    outcome (value or exception type) and every batch's replies."""
    outcomes = []

    def attempt(call, *args, **kwargs):
        try:
            outcomes.append(("ok", call(*args, **kwargs)))
        except Exception as exc:
            outcomes.append(("raised", type(exc).__name__))

    def batch(prefix, count, **extra):
        events = [
            Event(
                f"{prefix}{i}", 1000 * len(outcomes) + i,
                {"cardId": f"c{i % 3}", "merchant": f"m{i % 2}",
                 "amount": float(i), **extra},
            )
            for i in range(count)
        ]
        outcomes.append(("replies", [reply.results for reply in send(events)]))

    cluster.create_stream(
        "tx", ["cardId"], partitions=2, with_global_partitioner=True,
        schema={"cardId": "string", "merchant": "string", "amount": "float"},
    )
    attempt(cluster.create_metric, METRIC)
    attempt(cluster.create_metric, "SELECT count(*) FROM tx OVER sliding 5 minutes")
    batch("a", 12)
    attempt(cluster.create_stream, "tx", ["cardId"], schema={"cardId": "string"})
    attempt(cluster.create_metric, "SELECT count(*) FROM ghost GROUP BY x OVER sliding 1 minutes")
    attempt(cluster.add_partitioner, "ghost", "merchant")
    attempt(cluster.add_partitioner, "tx", "undeclared")
    attempt(cluster.add_partitioner, "tx", "merchant")
    attempt(cluster.add_partitioner, "tx", "merchant")  # a repeat is a no-op
    attempt(
        cluster.create_metric,
        "SELECT sum(amount), count(*) FROM tx GROUP BY merchant OVER sliding 5 minutes",
    )
    batch("b", 12)  # replies from the cardId, merchant and global topics
    attempt(cluster.evolve_schema, "tx", {"channel": "string"})
    attempt(
        cluster.create_metric,
        "SELECT count(*) FROM tx WHERE channel == 'pos' GROUP BY cardId "
        "OVER sliding 5 minutes",
    )
    batch("c", 12, channel="pos")
    attempt(cluster.delete_metric, 0)
    batch("d", 12, channel="web")
    attempt(cluster.backfill_status, 999)
    attempt(cluster.metric_values, 999)
    return outcomes


@pytest.mark.parametrize("facade", ["single", "process", "process-2f"])
def test_ddl_midstream_matches_single(facade):
    """DDL between batches — duplicate and unknown streams, a global
    partitioner, ``add_partitioner`` (a repeat is a no-op), schema
    evolution, ``delete_metric``, an unknown backfill id — replies and
    raises on every facade exactly as on ``single`` driven one event at
    a time."""
    reference = RailgunCluster(nodes=1, processor_units=2)
    expected = ddl_midstream(
        reference,
        lambda events: [reference.send("tx", event=event) for event in events],
    )
    assert ("ok", "unknown") in expected
    assert expected.count(("raised", "EngineError")) >= 4
    if facade == "single":
        cluster = create_cluster("single", nodes=2, processor_units=2)
    else:
        cluster = create_cluster("process", workers=2, **TOPOLOGIES[facade])
    with cluster:
        outcomes = ddl_midstream(
            cluster, lambda events: cluster.send_batch("tx", events)
        )
    assert outcomes == expected


def test_factory_dispatches_on_execution_and_frontends(topology):
    facade = {"process": ParallelCluster, "process-2f": ClusterRouter}[topology]
    with create_cluster("process", workers=1, **TOPOLOGIES[topology]) as cluster:
        assert isinstance(cluster, facade)
    # ``transport`` is no keyword of either process topology, and
    # neither is a knob that became a constant.
    for keyword in ("transport", "tick_ms", "batch_max", "mp_context",
                    "assignment_strategy", "ingest_max", "frontend_strategy"):
        with pytest.raises(ValueError, match=f"'{keyword}'"):
            create_cluster("process", **{keyword: None}, **TOPOLOGIES[topology])
    for keyword in ("tick_ms", "session_timeout_ms"):
        with pytest.raises(ValueError, match=f"'{keyword}'"):
            create_cluster("single", **{keyword: 1})
    assert isinstance(create_cluster("single", nodes=1, processor_units=1), RailgunCluster)
    with pytest.raises(EngineError):
        create_cluster("threads")
    with pytest.raises(EngineError):
        ClusterRouter(workers=1, frontends=0)
    for frontends in (0, -2):
        with pytest.raises(EngineError, match="at least one frontend"):
            create_cluster("process", workers=1, frontends=frontends)


def test_shared_api_is_defined_once():
    """The facades keep only their transport. No facade redefines a
    name of the shared client surface (``ClusterFacade``), and no
    process facade a public name of the shard core — except
    ``ParallelCluster``'s ``send_batch``: the core's own function, bound
    in the facade's ``__dict__`` where ``bench/trace.py`` patches it
    (each facade keeps its own ``send_batch``)."""
    surface = {name for name, value in vars(ClusterFacade).items() if callable(value)}
    assert {
        "create_stream", "create_metric", "delete_metric", "evolve_schema",
        "add_partitioner", "backfill_metric", "backfill_status", "send",
        "pump", "_metric", "__enter__", "__exit__",
    } <= surface
    assert "send_batch" not in surface
    for facade in (RailgunCluster, ShardCluster, ParallelCluster, ClusterRouter):
        redefined = surface & set(vars(facade))
        assert not redefined, (facade.__name__, sorted(redefined))
    shared = {name for name in vars(ShardCluster) if not name.startswith("_")}
    assert {"send_batch", "telemetry", "close"} <= shared
    for facade in (ParallelCluster, ClusterRouter):
        redefined = shared & set(vars(facade)) - {"send_batch"}
        assert not redefined, (facade.__name__, sorted(redefined))
    assert "send_batch" not in vars(ClusterRouter)
    assert vars(ParallelCluster)["send_batch"] is vars(ShardCluster)["send_batch"]
    assert "send_batch" in vars(RailgunCluster)
