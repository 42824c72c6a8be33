"""The unified telemetry plane (repro.telemetry).

Four claims, each proved here:

- the registry records *exact* values under ``DeterministicTimeSource``
  (stage timings are virtual-clock deltas, not wall-clock noise);
- snapshots merge losslessly — counters sum, same-process snapshots
  dedup by ``seq``, histogram percentiles are computed over the union
  of buckets, never averaged;
- the wire telemetry tail is strictly additive: a frame without a
  trace encodes byte-identically to the pre-telemetry format, and an
  old frame (no tail) decodes with ``trace``/``stats`` of ``None``;
- spans and snapshots actually cross process boundaries — over the
  serde-framed pipe *and* the shared-memory ring — and surface in the
  one merged dict every facade's ``telemetry()`` returns.

The companion observation-only proof (byte-identical replies with
telemetry on and off) lives in tests/test_batch_equivalence.py.
"""

from __future__ import annotations

import re

import pytest

from repro.common.timesource import DeterministicTimeSource
from repro.events.event import Event
from repro.messaging.log import TopicPartition
from repro.shard import columnar, wire
from repro.telemetry import (
    METRICS,
    MetricsRegistry,
    StageLaps,
    decode_bundle,
    decode_snapshot,
    encode_bundle,
    encode_snapshot,
    merge_snapshots,
    to_prometheus,
)


def make_registry(enabled: bool = True):
    ts = DeterministicTimeSource()
    return MetricsRegistry("t", time_source=ts, enabled=enabled), ts


class TestRegistryDeterministic:
    def test_counters_values_labels_and_sum(self):
        reg, _ = make_registry()
        reg.counter_add("engine_events_in_total", 3)
        reg.counter_add("engine_events_in_total")
        reg.counter_add("router_events_routed_total", 5, label="fe-0")
        reg.counter_add("router_events_routed_total", 7, label="fe-1")
        assert reg.counter_value("engine_events_in_total") == 4
        assert reg.counter_value("router_events_routed_total", "fe-0") == 5
        assert reg.counter_sum("router_events_routed_total") == 12
        assert reg.counter_labels("router_events_routed_total") == {
            "fe-0": 5, "fe-1": 7,
        }

    def test_gauge_keeps_last_write(self):
        reg, _ = make_registry()
        reg.gauge_set("supervisor_outstanding_batches", 4)
        reg.gauge_set("supervisor_outstanding_batches", 1)
        assert reg.snapshot()["gauges"] == {"supervisor_outstanding_batches": 1}

    def test_time_stage_records_exact_virtual_delta(self):
        reg, ts = make_registry()
        with reg.time_stage("engine_batch_ms"):
            ts.advance(0.005)
        hist = reg.snapshot()["histograms"]["engine_batch_ms"]
        assert hist["count"] == 1
        assert hist["sum_ms"] == pytest.approx(5.0)
        assert hist["max_ms"] == pytest.approx(5.0)

    def test_observe_since_pairs_with_now(self):
        reg, ts = make_registry()
        started = reg.now()
        ts.advance(0.25)
        reg.observe_since("engine_collect_ms", started)
        hist = reg.snapshot()["histograms"]["engine_collect_ms"]
        assert hist["count"] == 1
        assert hist["sum_ms"] == pytest.approx(250.0)

    def test_stage_laps_tile_the_span_exactly(self):
        # Each lap opens where the previous closed: the stages sum to
        # the whole with no gap for a slow step to hide in.
        reg, ts = make_registry()
        laps = StageLaps(reg)
        for stage, seconds in (
            ("engine_ingest_ms", 0.003),
            ("engine_dispatch_ms", 0.011),
            ("engine_collect_ms", 0.007),
            ("engine_dispatch_ms", 0.002),
            ("engine_reply_ms", 0.001),
        ):
            ts.advance(seconds)
            laps.lap(stage)
        ts.advance(0.5)  # after the last lap: in no stage, not in the total
        laps.total("engine_batch_ms")
        hists = reg.snapshot()["histograms"]
        assert hists["engine_dispatch_ms"]["count"] == 2
        parts = sum(
            hists[name]["sum_ms"]
            for name in (
                "engine_ingest_ms", "engine_dispatch_ms",
                "engine_collect_ms", "engine_reply_ms",
            )
        )
        assert parts == pytest.approx(hists["engine_batch_ms"]["sum_ms"])
        assert parts == pytest.approx(24.0)

    def test_negative_samples_clamp_to_zero(self):
        # Cross-process monotonic deltas can go fractionally negative.
        reg, _ = make_registry()
        reg.observe_ms("worker_queue_wait_ms", -3.0)
        hist = reg.snapshot()["histograms"]["worker_queue_wait_ms"]
        assert hist["count"] == 1
        assert hist["min_ms"] == 0.0
        assert hist["sum_ms"] == 0.0

    def test_disabled_registry_keeps_counters_drops_histograms(self):
        # Counters are core accounting, so they stay on; the
        # measurement plane (histograms, time_stage) goes quiet.
        reg, ts = make_registry(enabled=False)
        reg.counter_add("engine_events_in_total", 2)
        reg.observe_ms("engine_batch_ms", 1.0)
        with reg.time_stage("engine_batch_ms"):
            ts.advance(0.01)
        reg.record_hops((("worker_queue_wait_ms", 1.0),))
        snap = reg.snapshot()
        assert snap["counters"] == {"engine_events_in_total": 2}
        assert snap["histograms"] == {}

    def test_record_hops_drops_names_outside_the_catalog(self):
        reg, _ = make_registry()
        reg.record_hops((
            ("worker_queue_wait_ms", 2.0),
            ("totally_made_up_ms", 9.0),
            ("engine_events_in_total", 1.0),  # counter, not a histogram
        ))
        assert set(reg.snapshot()["histograms"]) == {"worker_queue_wait_ms"}


class TestSnapshotsAndMerge:
    def test_snapshot_roundtrips_through_wire_encoding(self):
        reg, ts = make_registry()
        reg.counter_add("worker_records_total", 11)
        with reg.time_stage("worker_process_batch_ms"):
            ts.advance(0.002)
        snap = reg.snapshot()
        assert decode_snapshot(encode_snapshot(snap)) == snap

    def test_bundle_roundtrips_several_snapshots(self):
        a, _ = make_registry()
        b, _ = make_registry()
        a.counter_add("frontend_events_ingested_total", 1)
        b.counter_add("worker_records_total", 2)
        parts = [encode_snapshot(a.snapshot()), encode_snapshot(b.snapshot())]
        decoded = decode_bundle(encode_bundle(parts))
        assert [d["counters"] for d in decoded] == [
            {"frontend_events_ingested_total": 1},
            {"worker_records_total": 2},
        ]

    def test_merge_dedups_same_process_by_seq(self):
        # The same worker snapshot can arrive via several frontends;
        # only the freshest copy counts, so nothing double-counts.
        reg, _ = make_registry()
        reg.counter_add("worker_records_total", 5)
        stale = reg.snapshot()
        reg.counter_add("worker_records_total", 5)
        fresh = reg.snapshot()
        merged = merge_snapshots([stale, fresh, stale])
        assert merged["counters"]["worker_records_total"] == 10
        assert merged["processes"] == ["t"]

    def test_merge_sums_counters_across_processes(self):
        a = MetricsRegistry("worker:a", enabled=True)
        b = MetricsRegistry("worker:b", enabled=True)
        a.counter_add("worker_records_total", 3)
        b.counter_add("worker_records_total", 4)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"]["worker_records_total"] == 7
        assert merged["processes"] == ["worker:a", "worker:b"]

    def test_merged_percentiles_come_from_the_union_of_buckets(self):
        # 10 fast samples on one process, 10 slow on another: the
        # merged p50/p99 must straddle both populations (bucket merge),
        # not average two per-process percentiles.
        a = MetricsRegistry("worker:a", enabled=True)
        b = MetricsRegistry("worker:b", enabled=True)
        for _ in range(10):
            a.observe_ms("worker_process_batch_ms", 1.0)
            b.observe_ms("worker_process_batch_ms", 100.0)
        hist = merge_snapshots([a.snapshot(), b.snapshot()])[
            "histograms"]["worker_process_batch_ms"]
        assert hist["count"] == 20
        assert hist["sum_ms"] == pytest.approx(1010.0)
        assert hist["p50_ms"] == pytest.approx(1.0, rel=0.05)
        assert hist["p99_ms"] == pytest.approx(100.0, rel=0.05)
        assert hist["min_ms"] == pytest.approx(1.0, rel=0.05)
        assert hist["max_ms"] == pytest.approx(100.0, rel=0.05)

    def test_merged_schema_is_stable(self):
        reg, _ = make_registry()
        merged = merge_snapshots([reg.snapshot()])
        assert set(merged) == {
            "schema", "processes", "counters", "gauges", "histograms",
        }

    def test_to_prometheus_exposes_help_types_and_quantiles(self):
        reg, ts = make_registry()
        reg.counter_add("engine_events_in_total", 3)
        reg.counter_add("router_events_routed_total", 2, label="fe-0")
        with reg.time_stage("engine_batch_ms"):
            ts.advance(0.004)
        text = to_prometheus(merge_snapshots([reg.snapshot()]))
        assert "# TYPE engine_events_in_total counter" in text
        assert "engine_events_in_total 3" in text
        assert 'router_events_routed_total{label="fe-0"} 2' in text
        assert "# TYPE engine_batch_ms summary" in text
        assert "engine_batch_ms_count 1" in text
        assert 'engine_batch_ms{quantile="0.99"}' in text

    def test_catalog_names_follow_the_convention(self):
        # <subsystem>_<noun>_<unit> snake_case: counters end _total,
        # histograms end _ms (tools/check_telemetry.py enforces that
        # call sites stay inside this catalog).
        for name, (kind, unit, stage, help_) in METRICS.items():
            assert re.fullmatch(r"[a-z][a-z0-9_]*", name), name
            if kind == "counter":
                assert name.endswith("_total"), name
            if kind == "histogram":
                assert name.endswith("_ms"), name
                assert unit == "ms", name
            assert help_, name


class TestWireTelemetryTail:
    TP = TopicPartition("tx-p", 1)
    TRACE = ("span-7", (("engine_dispatch_ms", 1.5), ("worker_queue_wait_ms", 0.25)))

    def frames(self):
        records = [(4, Event("e1", 1000, {"cardId": "c1", "amount": 2.0}))]
        return [
            wire.WorkBatch(self.TP, 0, records),
            wire.BatchDone(self.TP, 5, 1, [(4, {0: {"sum": 2.0}})]),
            wire.IngestBatch("tx", [(9, records[0][1], (("h", 1),))]),
            wire.ReplyBatch([(9, "tx-p", {0: {"sum": 2.0}})],
                            watermarks=((self.TP, 5),),
                            processed=(("w0", 1, 1),)),
        ]

    def test_traceless_frames_stay_byte_identical(self):
        # The tail is strictly appended: a frame with no telemetry
        # encodes to exactly the pre-telemetry bytes (old decoders keep
        # working), and the traced encoding extends it without touching
        # the original payload.
        for frame in self.frames():
            plain = wire.encode(frame)
            frame.trace = self.TRACE
            traced = wire.encode(frame)
            assert traced[:len(plain)] == plain, type(frame).__name__
            assert len(traced) > len(plain), type(frame).__name__

    def test_old_frames_decode_with_none_telemetry(self):
        for frame in self.frames():
            decoded = wire.decode(wire.encode(frame))
            assert decoded.trace is None, type(frame).__name__
            if hasattr(decoded, "stats"):
                assert decoded.stats is None, type(frame).__name__

    def test_trace_and_stats_roundtrip(self):
        for frame in self.frames():
            frame.trace = self.TRACE
            if hasattr(frame, "stats"):
                frame.stats = b'{"process":"worker:w0"}'
            decoded = wire.decode(wire.encode(frame))
            assert decoded.trace == self.TRACE, type(frame).__name__
            if hasattr(frame, "stats"):
                assert decoded.stats == b'{"process":"worker:w0"}'

    def test_columnar_frames_carry_the_same_tail(self):
        # Every worker link ships the columnar encodings; they follow
        # the identical append-only tail contract.
        work, done = self.frames()[:2]
        for frame in (work, done):
            plain = columnar.encode(frame)
            frame.trace = self.TRACE
            if hasattr(frame, "stats"):
                frame.stats = b"{}"
            traced = columnar.encode(frame)
            assert traced[:len(plain)] == plain
            decoded = columnar.decode(traced)
            assert decoded.trace == self.TRACE
            assert columnar.decode(plain).trace is None

    def test_stats_request_reply_roundtrip(self):
        req = wire.decode(wire.encode(wire.StatsRequest(17)))
        assert req == wire.StatsRequest(17)
        reply = wire.decode(wire.encode(wire.StatsReply(17, b'{"schema":1}')))
        assert reply.request_id == 17
        assert bytes(reply.payload) == b'{"schema":1}'


def ingest_forty(cluster) -> int:
    cluster.create_stream(
        "tx", ["cardId"], partitions=2,
        schema={"cardId": "string", "amount": "float"},
    )
    cluster.create_metric(
        "SELECT sum(amount), count(*) FROM tx GROUP BY cardId "
        "OVER sliding 5 minutes"
    )
    events = [
        Event(f"b{i}", 1000 + i // 2, {"cardId": f"c{i % 3}", "amount": float(i)})
        for i in range(40)
    ]
    replies = cluster.send_batch("tx", events)
    assert len(replies) == len(events)
    return len(events)


class TestClusterTelemetry:
    def test_worker_spans_and_snapshots_cross_the_wire(self, monkeypatch):
        from repro.shard.parallel import ParallelCluster

        monkeypatch.setenv("RAILGUN_TELEMETRY", "1")
        with ParallelCluster(workers=2) as cluster:
            count = ingest_forty(cluster)
            merged = cluster.telemetry()
        assert set(merged) == {
            "schema", "processes", "counters", "gauges", "histograms",
        }
        # Worker processes surface by name: their snapshots rode the
        # BatchDone frames home.
        assert any(p.startswith("worker:") for p in merged["processes"])
        counters = merged["counters"]
        assert counters["engine_events_in_total"] == count
        assert counters["engine_replies_out_total"] == count
        histograms = merged["histograms"]
        # The trace span's hop timings landed in the coordinator-side
        # registry (queue wait is measured from the WorkBatch's send
        # stamp, across the process boundary).
        assert histograms["worker_queue_wait_ms"]["count"] > 0
        assert histograms["worker_process_batch_ms"]["count"] > 0
        assert histograms["engine_batch_ms"]["count"] > 0
        # Per-worker progress is labelled counters in the same snapshot.
        assert sum(
            value for name, value in counters.items()
            if name.startswith("supervisor_worker_records_total[")
        ) == count

    def test_router_frontends_ship_bundles(self, monkeypatch):
        from repro.engine.cluster import create_cluster

        monkeypatch.setenv("RAILGUN_TELEMETRY", "1")
        with create_cluster("process", workers=2, frontends=2) as cluster:
            count = ingest_forty(cluster)
            merged = cluster.telemetry()
        assert any(p.startswith("frontend:") for p in merged["processes"])
        assert any(p.startswith("worker:") for p in merged["processes"])
        counters = merged["counters"]
        assert counters["engine_events_in_total"] == count
        assert counters["engine_replies_out_total"] == count
        assert merged["histograms"]["frontend_ingest_ms"]["count"] > 0
        assert sum(
            value for name, value in counters.items()
            if name.startswith("router_events_routed_total[")
        ) == count

    def test_single_facade_merges_one_process(self, monkeypatch):
        from repro.engine.cluster import create_cluster

        monkeypatch.setenv("RAILGUN_TELEMETRY", "1")
        cluster = create_cluster("single", nodes=2, processor_units=2)
        count = ingest_forty(cluster)
        merged = cluster.telemetry()
        assert merged["processes"] == ["engine"]
        assert merged["counters"]["engine_events_in_total"] == count
        assert merged["counters"]["engine_replies_out_total"] == count
        assert merged["histograms"]["engine_batch_ms"]["count"] >= 1

    def test_telemetry_disabled_still_counts_but_never_times(
        self, monkeypatch
    ):
        from repro.engine.cluster import create_cluster

        monkeypatch.setenv("RAILGUN_TELEMETRY", "0")
        cluster = create_cluster("single", nodes=2, processor_units=2)
        count = ingest_forty(cluster)
        merged = cluster.telemetry()
        assert merged["counters"]["engine_events_in_total"] == count
        assert merged["histograms"] == {}


class TestFrontDoorStats:
    def test_client_stats_returns_the_merged_cluster_snapshot(
        self, monkeypatch
    ):
        from repro.engine.cluster import create_cluster
        from repro.server.client import RailgunClient

        monkeypatch.setenv("RAILGUN_TELEMETRY", "1")
        served = create_cluster(
            "single", nodes=2, processor_units=2, serve="tcp://127.0.0.1:0"
        )
        try:
            host, port = served.server.address
            with RailgunClient(host, port) as client:
                client.create_stream(
                    "tx", ["cardId"], partitions=2,
                    schema={"cardId": "string", "amount": "float"},
                )
                client.create_metric(
                    "SELECT sum(amount), count(*) FROM tx GROUP BY cardId "
                    "OVER sliding 5 minutes"
                )
                events = [
                    Event(f"b{i}", 1000 + i,
                          {"cardId": f"c{i % 3}", "amount": float(i)})
                    for i in range(8)
                ]
                client.send_batch("tx", events)
                merged = client.stats()
            legacy = served.server.stats()
        finally:
            served.close()
        assert set(merged) >= {
            "schema", "processes", "counters", "gauges", "histograms",
        }
        # The server folds its own registry into the cluster's merge.
        assert "server" in merged["processes"]
        assert "engine" in merged["processes"]
        counters = merged["counters"]
        assert counters["engine_events_in_total"] == 8
        assert counters["server_stats_requests_total"] == 1
        assert counters["server_frames_in_total"] > 0
        assert merged["histograms"]["server_request_ms"]["count"] >= 1
        assert merged["gauges"]["server_connections_open"] >= 0
        # And the legacy stats() view reads the same registry (it can
        # only have moved forward: the client's Goodbye frame lands
        # after the snapshot was taken).
        assert legacy["server"]["frames_in"] >= counters["server_frames_in_total"]

    def test_cluster_call_histogram_is_exact_under_virtual_time(
        self, monkeypatch
    ):
        """``server_cluster_call_ms`` is the loop thread's time inside
        the facade, ``server_request_ms`` the whole handling of the
        frame: their difference is the server's own share."""
        from types import SimpleNamespace

        from repro.engine.frontend import Reply
        from repro.server.admission import AdmissionController
        from repro.server.client import RailgunClient
        from repro.server.server import serve_cluster

        monkeypatch.setenv("RAILGUN_TELEMETRY", "1")
        ts = DeterministicTimeSource()

        class SlowAdmission(AdmissionController):
            def admit(self, tenant, events, queue_depth=0):
                ts.advance(0.002)
                return super().admit(tenant, events, queue_depth)

        class SevenMsCluster:
            bus = SimpleNamespace(messages_published=0)

            def send_batch(self, stream, events):
                ts.advance(0.007)
                return [Reply(e, stream, {0: {"n": 1}}, 0) for e in events]

        handle = serve_cluster(
            SevenMsCluster(), admission=SlowAdmission(time_source=ts),
            time_source=ts,
        )
        try:
            with RailgunClient(*handle.address) as client:
                for _ in range(3):
                    client.send_batch(
                        "tx", [{"k": "a"}, {"k": "b"}], timestamp=1
                    )
            hist = handle.server.metrics.snapshot()["histograms"]
        finally:
            handle.stop()
        assert hist["server_cluster_call_ms"]["count"] == 3
        assert hist["server_cluster_call_ms"]["sum_ms"] == pytest.approx(21.0)
        assert hist["server_cluster_call_ms"]["max_ms"] == pytest.approx(7.0)
        assert hist["server_admission_wait_ms"]["sum_ms"] == pytest.approx(6.0)
        # One observation per batch, not per reply, on a blocking facade.
        assert hist["server_request_ms"]["count"] == 3
        assert hist["server_request_ms"]["sum_ms"] == pytest.approx(27.0)
