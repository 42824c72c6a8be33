"""Sharded-frontend runtime tests: wire, FrontendEngine, ClusterRouter.

The multi-frontend topology must uphold the cross-frontend invariants
documented in docs/ARCHITECTURE.md:

- **Per-key ordering**: a key hashes to one partition, hence one sticky
  frontend, hence one worker — its replies observe its events in client
  order even with frontends racing each other.
- **Byte-identical replies** to the single-process engine for any input
  (the per-partition log order is the client order restricted to that
  partition, same as one coordinator would produce).
- **Merged counters**: per-worker counters keep flowing into the
  supervisor (via ``note_processed``) and per-frontend counters sum to
  the cluster totals.
- **Failure isolation**: a crashed frontend is respawned from its
  journal without disturbing the other frontends' streams.

Worker crashes, checkpointed replay and rebalances are held to the same
bar on both process topologies in ``tests/test_cluster_contract.py``.
"""

from __future__ import annotations

import socket
from multiprocessing.connection import Connection

from repro.engine.cluster import RailgunCluster, create_cluster
from repro.events.event import Event
from repro.messaging.log import TopicPartition
from repro.shard import wire
from repro.shard.frontend import FrontendEngine
from repro.shard.parallel import ParallelCluster
from repro.shard.router import ClusterRouter

STREAM_KW = dict(partitions=4, schema={"cardId": "string", "amount": "float"})
METRIC = (
    "SELECT sum(amount), count(*), avg(amount) FROM tx GROUP BY cardId "
    "OVER sliding 5 minutes"
)


def make_events(count, prefix="e", start_ts=1000):
    return [
        Event(
            f"{prefix}{i}", start_ts + i,
            {"cardId": f"c{i % 5}", "amount": float(i % 17)},
        )
        for i in range(count)
    ]


def single_process_results(events, metrics=(METRIC,)):
    """Ground truth: the cooperative engine, one event at a time."""
    cluster = RailgunCluster(nodes=1, processor_units=2)
    cluster.create_stream("tx", ["cardId"], **STREAM_KW)
    for metric in metrics:
        cluster.create_metric(metric)
    cluster.run_until_quiet()
    return [cluster.send("tx", event=event).results for event in events]


def make_router(workers=2, frontends=2, **kwargs) -> ClusterRouter:
    cluster = ClusterRouter(workers=workers, frontends=frontends, **kwargs)
    cluster.create_stream("tx", ["cardId"], **STREAM_KW)
    cluster.create_metric(METRIC)
    return cluster


# -- wire protocol ------------------------------------------------------------


class TestRoutingWire:
    def roundtrip(self, msg):
        return wire.decode(wire.encode(msg))

    def test_ingest_batch_roundtrip(self):
        entries = [
            (7, Event("a", 5, {"cardId": "c1", "amount": 2.5}), (("cardId", 3),)),
            (8, Event("b", 6, {"cardId": None, "amount": -1}),
             (("cardId", 0), ("__global__", 0))),
            (9, Event("ç🚂", 7, {"amount": 1e-9, "blob": b"\x00\xff"}), ()),
        ]
        decoded = self.roundtrip(wire.IngestBatch("tx", entries))
        assert decoded.stream == "tx"
        assert decoded.entries == entries
        # Field insertion order survives the string-table interning.
        assert decoded.entries[2][1].field_names() == ["amount", "blob"]

    def test_reply_batch_roundtrip(self):
        tp = TopicPartition("tx.cardId", 2)
        msg = wire.ReplyBatch(
            replies=[
                (4, "tx.cardId", {0: {"sum(amount)": 1.5, "count(*)": 2}}),
                (5, "tx.cardId", None),
                (6, "tx.__global__", {1: {"max(amount)": None}}),
            ],
            watermarks=((tp, 9),),
            processed=(("shard-0", 12, 7), ("shard-1", 3, 3)),
        )
        decoded = self.roundtrip(msg)
        assert decoded.replies == msg.replies
        assert decoded.watermarks == msg.watermarks
        assert decoded.processed == msg.processed


# -- FrontendEngine (in-process) ----------------------------------------------


class TestFrontendEngine:
    def engine_with_stream(self):
        engine = FrontendEngine("fe-0")
        from repro.engine.catalog import CreateStreamOp, StreamDef

        stream = StreamDef(
            "tx", (("cardId", "string"), ("amount", "float")), ("cardId",), 4
        )
        engine.handle(CreateStreamOp(stream))
        return engine

    def test_ingest_appends_in_order(self):
        engine = self.engine_with_stream()
        tp = TopicPartition("tx.cardId", 1)
        events = make_events(5)
        engine.handle(
            wire.IngestBatch(
                "tx",
                [(i, event, (("cardId", 1),)) for i, event in enumerate(events)],
            )
        )
        # The single-process engine's record: the envelope keyed by the
        # partitioner value, carrying the correlation and the fan-out.
        records = engine.bus.log(tp).read(0, 10)
        assert [m.value.event for m in records] == events
        assert [m.value.correlation_id for m in records] == [0, 1, 2, 3, 4]
        assert [m.key for m in records] == [e.get("cardId") for e in events]
        assert {(m.value.stream, m.value.fanout) for m in records} == {("tx", 1)}
        assert engine.telemetry.counter_value("frontend_events_ingested_total") == 5

    def test_outstanding_gauge_follows_the_credits(self):
        """``frontend_outstanding_batches`` is the engine's credit
        count: one after dispatching a run to a (socketpair) worker,
        zero once its BatchDone is merged."""
        engine = self.engine_with_stream()
        tp = TopicPartition("tx.cardId", 1)
        engine.apply_assign(
            wire.FrontendAssign(((tp, "shard-0", "/unused.sock"),))
        )
        worker_end, frontend_end = socket.socketpair()
        worker = Connection(worker_end.detach())
        engine.conns["shard-0"] = Connection(frontend_end.detach())
        engine.outstanding["shard-0"] = 0
        events = make_events(3)
        engine.handle(
            wire.IngestBatch(
                "tx", [(i, e, (("cardId", 1),)) for i, e in enumerate(events)]
            )
        )

        def gauge():
            return engine.telemetry.snapshot()["gauges"][
                "frontend_outstanding_batches"
            ]

        try:
            assert engine.dispatch() == 3
            assert gauge() == 1
            batch = wire.decode(worker.recv_bytes())
            assert [offset for offset, _ in batch.records] == [0, 1, 2]
            engine.handle_batch_done(
                "shard-0",
                wire.BatchDone(
                    tp, 3, 3,
                    [(offset, {0: {"count(*)": offset + 1}})
                     for offset, _ in batch.records],
                ),
            )
            assert gauge() == 0
            (reply,) = engine.flush()
            assert [c for c, _, _ in reply.replies] == [0, 1, 2]
        finally:
            worker.close()
            engine._close_conn("shard-0")

    def test_downed_worker_is_not_redialed_until_restart_message(self):
        """The recovery invariant behind byte-identical replies: after a
        link failure the frontend must wait for WorkerRestarted (which
        carries the seek-back) before reconnecting — dialing the fresh
        worker early would feed it tail offsets without their history."""
        engine = self.engine_with_stream()
        tp = TopicPartition("tx.cardId", 1)
        engine.apply_assign(
            wire.FrontendAssign(((tp, "shard-0", "/nonexistent.sock"),))
        )
        engine.link_down("shard-0")
        assert engine._link("shard-0") is None  # quarantined, no dial
        engine.worker_restarted(wire.WorkerRestarted("shard-0", "/x.sock", ()))
        assert "shard-0" not in engine.down  # re-authorized

    def test_planned_route_removal_does_not_quarantine(self):
        """A rebalance that drops a live worker from this frontend's
        routes must not quarantine it: a later rebalance may route
        tasks back, and only a crash (which guarantees a future
        WorkerRestarted) justifies refusing to redial."""
        engine = self.engine_with_stream()
        tp0 = TopicPartition("tx.cardId", 0)
        tp1 = TopicPartition("tx.cardId", 1)
        engine.apply_assign(
            wire.FrontendAssign(
                ((tp0, "shard-0", "/s0.sock"), (tp1, "shard-1", "/s1.sock"))
            )
        )
        # All of shard-0's tasks move away (planned, worker stays up).
        engine.apply_assign(
            wire.FrontendAssign(
                ((tp0, "shard-1", "/s1.sock"), (tp1, "shard-1", "/s1.sock"))
            )
        )
        assert "shard-0" not in engine.down
        # ... and a failure does quarantine until the restart message.
        engine.link_down("shard-1")
        assert "shard-1" in engine.down

    def test_restore_watermarks_seeds_suppression_and_seeks(self):
        engine = self.engine_with_stream()
        tp = TopicPartition("tx.cardId", 1)
        engine.handle(
            wire.IngestBatch(
                "tx",
                [(i, e, (("cardId", 1),)) for i, e in enumerate(make_events(10))],
            )
        )
        engine.handle(wire.RestoreWatermarks(((tp, 7),), ((tp, 3),)))
        assert engine.watermarks[tp] == 7
        # The seek overrides the watermark position downwards only.
        assert engine.view.position(tp) == 3


# -- ClusterRouter ------------------------------------------------------------


class TestClusterRouterEquivalence:
    def test_each_frontend_routes_and_merges_its_share(self):
        """Per-frontend counters sum to the cluster totals: every event
        routed once and replied once, and both frontends carried
        traffic."""
        events = make_events(120)
        with make_router(workers=2, frontends=2) as cluster:
            cluster.send_batch("tx", events)
            routed = cluster.metrics.counter_labels("router_events_routed_total")
            merged = cluster.metrics.counter_labels("router_replies_merged_total")
        assert sorted(routed) == sorted(merged) == ["fe-0", "fe-1"]
        assert sum(routed.values()) == sum(merged.values()) == len(events)
        assert all(count > 0 for count in routed.values())

    def test_per_key_reply_ordering_under_two_frontends(self):
        """Each key's replies observe its events in client order: the
        per-key count(*) is exactly 1, 2, 3, ... however the frontends
        interleave."""
        events = [
            Event(f"k{i}", 1000 + i // 8, {"cardId": f"c{i % 8}", "amount": 1.0})
            for i in range(160)
        ]
        with ClusterRouter(workers=2, frontends=2) as cluster:
            cluster.create_stream("tx", ["cardId"], partitions=8,
                                  schema={"cardId": "string", "amount": "float"})
            metric = cluster.create_metric(
                "SELECT count(*) FROM tx GROUP BY cardId OVER sliding 60 minutes"
            )
            replies = cluster.send_batch("tx", events)
            seen: dict[str, int] = {}
            for event, reply in zip(events, replies):
                key = event.get("cardId")
                seen[key] = seen.get(key, 0) + 1
                assert reply.value(metric, "count(*)") == seen[key]

    def test_auto_event_ids_match_parallel_cluster(self):
        """Dict (non-Event) inputs get ``client-...`` ids minted from
        the same published-message arithmetic as ParallelCluster, so the
        same call sequence yields identical event identities whichever
        topology serves it — ``single`` included: its bus carries no
        reply or checkpoint record that would shift the count, even
        past its periodic checkpoints."""
        def ids(cluster):
            cluster.create_stream("tx", ["cardId"], **STREAM_KW)
            cluster.create_metric(METRIC)
            minted = [
                r.event.event_id
                for r in cluster.send_batch(
                    "tx",
                    [{"cardId": "c1", "amount": 1.0},
                     {"cardId": "c2", "amount": 2.0}],
                )
            ]
            minted.append(
                cluster.send("tx", fields={"cardId": "c1", "amount": 3.0})
                .event.event_id
            )
            for i in range(250):
                cluster.send("tx", fields={"cardId": f"c{i % 5}", "amount": 1.0})
            minted.append(
                cluster.send("tx", fields={"cardId": "c1", "amount": 3.0})
                .event.event_id
            )
            return minted

        with ParallelCluster(workers=1) as parallel:
            expected = ids(parallel)
        assert expected == [f"client-{n:012d}" for n in (2, 3, 4, 255)]
        with ClusterRouter(workers=1, frontends=2) as sharded:
            assert ids(sharded) == expected
        single = create_cluster("single")
        try:
            assert ids(single) == expected
        finally:
            single.close()

    def test_multi_partitioner_fanin_across_frontends(self):
        """An event fanning out to two topics may span two frontends;
        the router's topic-level fan-in must still assemble one reply."""
        events = make_events(60)
        cooperative = RailgunCluster(nodes=1, processor_units=2)
        cooperative.create_stream(
            "tx", ["cardId"], with_global_partitioner=True, **STREAM_KW
        )
        cooperative.create_metric(METRIC)
        global_metric = cooperative.create_metric(
            "SELECT count(*) FROM tx OVER sliding 5 minutes"
        )
        cooperative.run_until_quiet()
        expected = [cooperative.send("tx", event=e).results for e in events]
        with ClusterRouter(workers=2, frontends=2) as cluster:
            cluster.create_stream(
                "tx", ["cardId"], with_global_partitioner=True, **STREAM_KW
            )
            cluster.create_metric(METRIC)
            assert cluster.create_metric(
                "SELECT count(*) FROM tx OVER sliding 5 minutes"
            ) == global_metric
            replies = cluster.send_batch("tx", events)
            assert [r.results for r in replies] == expected

    def test_frontend_ownership_is_pinned_across_ddl(self):
        """A second create_stream must never move an existing partition
        between frontends: the owner holds the task's only log copy and
        watermark, so a move would strand both and silently drop the
        moved partition's history (regression: replies diverged from
        single mode after mid-stream DDL)."""
        events = [
            Event(f"p{i}", 1000 + i, {"k": f"g{i % 3}", "amount": 1.0})
            for i in range(30)
        ]
        single = RailgunCluster(nodes=1, processor_units=2)
        single.create_stream("m", ["k"], partitions=1,
                             schema={"k": "string", "amount": "float"})
        metric = single.create_metric(
            "SELECT count(*) FROM m GROUP BY k OVER sliding 60 minutes"
        )
        single.run_until_quiet()
        expected = [single.send("m", event=e).results for e in events[:15]]
        single.create_stream("a", ["k"], partitions=1,
                             schema={"k": "string", "amount": "float"})
        single.run_until_quiet()
        expected += [single.send("m", event=e).results for e in events[15:]]
        with ClusterRouter(workers=2, frontends=2) as cluster:
            cluster.create_stream("m", ["k"], partitions=1,
                                  schema={"k": "string", "amount": "float"})
            assert cluster.create_metric(
                "SELECT count(*) FROM m GROUP BY k OVER sliding 60 minutes"
            ) == metric
            owners_before = dict(cluster._fe_owner)
            results = [r.results for r in cluster.send_batch("m", events[:15])]
            cluster.create_stream("a", ["k"], partitions=1,
                                  schema={"k": "string", "amount": "float"})
            for tp, owner in owners_before.items():
                assert cluster._fe_owner[tp] == owner  # pinned, never moved
            results += [r.results for r in cluster.send_batch("m", events[15:])]
            assert results == expected


class TestClusterRouterFailures:
    def test_frontend_crash_recovers_from_journal(self):
        """Kill one frontend mid-stream: its journal replay completes
        every in-flight request; settled replies are not re-answered."""
        events = make_events(240)
        expected = single_process_results(events)
        with make_router(workers=2, frontends=2) as cluster:
            results = [r.results for r in cluster.send_batch("tx", events[:120])]
            victim = cluster.frontend_ids()[0]
            cluster.kill_frontend(victim)
            results += [r.results for r in cluster.send_batch("tx", events[120:])]
            assert results == expected
            assert cluster._frontends[victim].restarts == 1
            # Every request completed exactly once.
            assert not cluster.pending and not cluster.completed

    def test_frontend_crash_does_not_disturb_other_frontends_streams(self):
        """Failure isolation: the surviving frontend's watermarks and
        counters advance monotonically through its peer's crash and the
        recovered reply counts cover every event."""
        events = make_events(200)
        with make_router(workers=2, frontends=2) as cluster:
            cluster.send_batch("tx", events[:100])
            victim, survivor = cluster.frontend_ids()
            survivor_tasks = cluster._frontends[survivor].owned
            survivor_wm = {
                tp: cluster._watermarks.get(tp, 0) for tp in survivor_tasks
            }
            merged = cluster.metrics.counter_labels("router_replies_merged_total")
            survivor_merged = merged[survivor]
            cluster.kill_frontend(victim)
            replies = cluster.send_batch("tx", events[100:])
            assert len(replies) == 100
            restarts = cluster.metrics.counter_labels(
                "router_frontend_restarts_total"
            )
            assert restarts == {victim: 1}
            # The survivor's streams moved forward, never backward.
            for tp in survivor_tasks:
                assert cluster._watermarks.get(tp, 0) >= survivor_wm[tp]
            merged = cluster.metrics.counter_labels("router_replies_merged_total")
            assert merged[survivor] >= survivor_merged
            # Recovered reply counts: all 200 events answered once.
            assert sum(merged.values()) == len(events)

    def test_fault_injected_frontend_crash_is_equivalent(self):
        events = make_events(150)
        expected = single_process_results(events)
        with make_router(workers=2, frontends=2) as cluster:
            results = [r.results for r in cluster.send_batch("tx", events[:70])]
            handle = cluster._frontends[cluster.frontend_ids()[1]]
            handle.conn.send_bytes(wire.encode(wire.Crash()))
            results += [r.results for r in cluster.send_batch("tx", events[70:])]
            assert results == expected
            assert handle.restarts == 1

    def test_drain_quiesces_both_frontends(self):
        events = make_events(80)
        with make_router(workers=2, frontends=2) as cluster:
            cluster.send_batch("tx", events)
            cluster.drain()
            offsets = cluster.checkpoint_offsets()
            assert sum(offsets.values()) == len(events)


def test_add_partitioner_router_regression():
    """``ClusterRouter.add_partitioner`` used to NameError on the
    (unimported) ``validate_new_partitioner`` helper."""
    cluster = create_cluster("process", workers=2, frontends=2)
    try:
        cluster.create_stream(
            "tx", ["cardId"], partitions=2,
            schema={"cardId": "string", "region": "string", "amount": "float"},
        )
        cluster.add_partitioner("tx", "region")
        reply = cluster.send(
            "tx", {"cardId": "c1", "region": "eu", "amount": 5.0}
        )
        assert reply.results == {}
    finally:
        cluster.close()
