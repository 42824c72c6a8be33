"""Replay & backfill: after-the-fact metrics, as-of reads, consistent cuts.

The engine's determinism basis — replaying ``[0, k)`` yields exactly
what a from-genesis processor holds at ``k`` — is what makes an
after-the-fact metric well-defined at all. The property pinned here is
its observable form: a metric *backfilled* mid-stream (materialized by
replaying the partition log behind the live writer, then spliced into
the live tasks at their exact consumption offsets while ingest keeps
running) is indistinguishable from the same metric defined before the
first event — on every topology, over messy traffic
(duplicates, timestamp ties, late arrivals).

Also covered: the as-of read path (checkpoint seed keeps the replay
strictly below full-log cost), the reader-cursor retention pins that
keep checkpoint truncation from deleting unreplayed segments, and the
consistent-cut export/import migration of a durable deployment.
"""

from __future__ import annotations

import random

import pytest

from repro.common.errors import EngineError
from repro.engine.cluster import create_cluster
from repro.events.event import Event
from repro.messaging.cursor import LogCursor
from repro.messaging.durable import DurableBus
from repro.messaging.log import TopicPartition
from repro.query.parser import parse_query
from repro.replay import ReplayError, export_cut, import_cut

QUERY = (
    "SELECT avg(amount), count(*) FROM tx GROUP BY c "
    "OVER sliding 5 minutes"
)
SCHEMA = {"c": "string", "amount": "float"}


def messy_events(count: int, seed: int) -> list[Event]:
    """Deterministic messy traffic: duplicates, ties, late arrivals."""
    rng = random.Random(seed)
    events = []
    ts = 1_000
    for i in range(count):
        ts += rng.choice([0, 0, 50, 100, 400])
        event_ts = max(1, ts - rng.choice([0, 0, 0, 700]))
        if i and rng.random() < 0.05:
            event_id = f"e{rng.randrange(i)}"  # duplicate of an earlier id
        else:
            event_id = f"e{i}"
        events.append(
            Event(event_id, event_ts,
                  {"c": f"c{i % 5}", "amount": float(i % 11)})
        )
    return events


def ordered_events(count: int) -> list[Event]:
    """Strictly increasing timestamps (prefix == as-of semantics)."""
    return [
        Event(f"e{i}", 1_000 + i * 100,
              {"c": f"c{i % 4}", "amount": float(i % 7)})
        for i in range(count)
    ]


def make_cluster(topology: str, durable_dir=None):
    if topology == "single":
        return create_cluster("single", durable_dir=durable_dir)
    kwargs = dict(workers=2, durable_dir=durable_dir)
    if topology == "process-2f":
        kwargs["frontends"] = 2
    return create_cluster("process", **kwargs)


def settle_backfill(cluster, metric_id: int, max_rounds: int = 2_000) -> str:
    """Pump until the backfill splices everywhere (bounded)."""
    for _ in range(max_rounds):
        if cluster.backfill_status(metric_id) == "complete":
            break
        cluster.pump()
    cluster.run_until_quiet()
    return cluster.backfill_status(metric_id)


class TestBackfillEquivalence:
    """The acceptance property, on every topology: reference cluster
    defines the metric at offset 0; target cluster defines it mid-stream
    via ``backfill_metric`` while ingest continues — the materialized
    values must be identical."""

    @pytest.mark.parametrize("topology", ["single", "process", "process-2f"])
    def test_backfilled_equals_defined_at_genesis(self, topology, tmp_path):
        events = messy_events(120, seed=7)
        split = 60
        durable = topology != "single"
        ref = make_cluster(
            topology, durable_dir=str(tmp_path / "ref") if durable else None
        )
        target = make_cluster(
            topology, durable_dir=str(tmp_path / "target") if durable else None
        )
        try:
            for cluster in (ref, target):
                cluster.create_stream(
                    "tx", ["c"], partitions=2, schema=SCHEMA
                )
            ref_id = ref.create_metric(QUERY)
            ref.send_batch("tx", events[:split])
            target.send_batch("tx", events[:split])
            target_id = target.backfill_metric(QUERY)
            # Ingest never pauses: the second half flows while the
            # replay races the live writer from behind.
            ref.send_batch("tx", events[split:])
            target.send_batch("tx", events[split:])
            ref.run_until_quiet()
            status = settle_backfill(target, target_id)
            assert status == "complete", status
            want = ref.metric_values(ref_id)
            got = target.metric_values(target_id)
            assert want, "reference produced no values"
            assert got == want
        finally:
            ref.close()
            target.close()

    def test_status_lifecycle_and_unknown_id(self, tmp_path):
        cluster = make_cluster("process", durable_dir=str(tmp_path / "d"))
        try:
            cluster.create_stream("tx", ["c"], partitions=2, schema=SCHEMA)
            cluster.send_batch("tx", ordered_events(40))
            metric_id = cluster.backfill_metric(QUERY)
            assert settle_backfill(cluster, metric_id) == "complete"
            assert cluster.backfill_status(metric_id + 999) == "unknown"
        finally:
            cluster.close()


class TestAsOf:
    def test_replay_is_bounded_by_checkpoint_seed(self, tmp_path):
        """A mid-stream checkpoint makes the as-of replay strictly
        cheaper than reprocessing the whole log."""
        cluster = make_cluster("process", durable_dir=str(tmp_path / "d"))
        try:
            cluster.create_stream("tx", ["c"], partitions=2, schema=SCHEMA)
            metric_id = cluster.create_metric(QUERY)
            events = ordered_events(150)
            cluster.send_batch("tx", events[:100])
            cluster.run_until_quiet()
            cluster.checkpoint_now()
            cluster.send_batch("tx", events[100:])
            cluster.run_until_quiet()
            result = cluster.query_as_of(metric_id, events[129].timestamp)
            assert result.values
            assert result.seeded >= 1
            assert 0 < result.replayed < result.log_records
        finally:
            cluster.close()

    def test_as_of_matches_a_cluster_stopped_at_that_instant(self):
        """Time travel is exact: the as-of view at event k's timestamp
        equals a live cluster that only ever ingested events[:k+1]."""
        events = ordered_events(80)
        stop = 49
        full = make_cluster("single")
        prefix = make_cluster("single")
        try:
            for cluster in (full, prefix):
                cluster.create_stream(
                    "tx", ["c"], partitions=2, schema=SCHEMA
                )
            full_id = full.create_metric(QUERY)
            prefix_id = prefix.create_metric(QUERY)
            full.send_batch("tx", events)
            prefix.send_batch("tx", events[: stop + 1])
            full.run_until_quiet()
            prefix.run_until_quiet()
            result = full.query_as_of(full_id, events[stop].timestamp)
            assert result.values == prefix.metric_values(prefix_id)
            assert result.values
        finally:
            full.close()
            prefix.close()

    def test_as_of_parses_but_is_rejected_as_ddl(self):
        query = parse_query(f"{QUERY} AS OF 123456")
        assert query.as_of == 123456
        assert "AS OF 123456" in query.describe()
        cluster = make_cluster("single")
        try:
            cluster.create_stream("tx", ["c"], partitions=2, schema=SCHEMA)
            with pytest.raises(EngineError, match="AS OF"):
                cluster.create_metric(f"{QUERY} AS OF 123456")
        finally:
            cluster.close()


class TestCursorRetentionPinning:
    """The reader-cursor / retention-pin contract on a durable log:
    while a backfill cursor is behind, checkpoint truncation clamps to
    its position; as it reads, reclamation resumes behind it; closing
    releases everything."""

    def _bus(self, tmp_path) -> tuple[DurableBus, TopicPartition]:
        bus = DurableBus(str(tmp_path / "bus"), segment_bytes=512)
        bus.create_topic("t", partitions=1)
        tp = TopicPartition("t", 0)
        for i in range(400):
            bus.log(tp).append(key=None, value=f"v{i}" * 8, timestamp=i)
        bus.flush()
        return bus, tp

    def test_open_cursor_pins_unreplayed_segments(self, tmp_path):
        bus, tp = self._bus(tmp_path)
        try:
            log = bus.log(tp)
            with LogCursor(bus, tp, 0) as cursor:
                log.truncate_below(350)
                # Nothing below the cursor may vanish: the next read
                # must still see offset 0.
                assert log.start_offset == 0
                assert cursor.read(10)[0].offset == 0
                # Reading advances the pin; truncation reclaims behind
                # the cursor but never past it.
                while cursor.position < 200:
                    cursor.read(50)
                start = log.truncate_below(350)
                assert 0 < start <= cursor.position
                assert bus.read(tp, cursor.position, 1)
            # Cursor closed: the pin is gone, retention catches up.
            assert log.truncate_below(350) > 200
        finally:
            bus.close()

    def test_torn_down_cursor_never_leaks_a_pin(self, tmp_path):
        bus, tp = self._bus(tmp_path)
        try:
            log = bus.log(tp)
            cursor = LogCursor(bus, tp, 0)
            cursor.close()
            cursor.close()  # idempotent
            assert log.pinned_floor is None
            log.truncate_below(400)
            assert log.start_offset > 0
        finally:
            bus.close()


class TestRemoteBackfill:
    def test_backfill_over_the_tcp_front_door(self):
        """The DDL frame round trip: a client defines the metric after
        the fact over TCP; the server settles the backfill and reports
        completion through ``backfill_status``."""
        from repro.server.client import RailgunClient
        from repro.server.server import serve_cluster

        cluster = make_cluster("single")
        cluster.create_stream("tx", ["c"], partitions=2, schema=SCHEMA)
        cluster.send_batch("tx", ordered_events(30))
        cluster.run_until_quiet()
        handle = serve_cluster(cluster)
        host, port = handle.address
        try:
            with RailgunClient(host, port) as client:
                metric_id = client.backfill_metric(QUERY)
                for _ in range(2_000):
                    if client.backfill_status(metric_id) == "complete":
                        break
                assert client.backfill_status(metric_id) == "complete"
        finally:
            handle.stop()
        try:
            values = cluster.metric_values(metric_id)
            assert values and all(
                group["count(*)"] > 0 for group in values.values()
            )
        finally:
            cluster.close()


class TestCutMigration:
    def test_export_import_round_trip(self, tmp_path):
        """A consistent cut of a durable cluster — including a metric
        that only ever existed as a backfill — reopens on the other
        side with identical values and keeps ingesting."""
        source_dir = str(tmp_path / "source")
        dest_dir = str(tmp_path / "copy")
        events = ordered_events(90)
        source = make_cluster("process", durable_dir=source_dir)
        try:
            source.create_stream("tx", ["c"], partitions=2, schema=SCHEMA)
            live_id = source.create_metric(QUERY)
            source.send_batch("tx", events[:60])
            back_id = source.backfill_metric(QUERY)
            source.send_batch("tx", events[60:])
            assert settle_backfill(source, back_id) == "complete"
            want_live = source.metric_values(live_id)
            want_back = source.metric_values(back_id)
            assert want_live and want_live == want_back
            export_cut(source, dest_dir)
        finally:
            source.close()
        ends = import_cut(dest_dir)
        assert all(
            end > 0 for tp, end in ends.items() if tp.topic == "tx.c"
        ), ends
        migrated = make_cluster("process", durable_dir=dest_dir)
        try:
            migrated.run_until_quiet()
            assert migrated.metric_values(live_id) == want_live
            assert migrated.metric_values(back_id) == want_back
            # The copy is a live cluster, not a snapshot: new traffic
            # (fresh ids — reused ones would dedupe) moves the windows.
            migrated.send_batch("tx", [
                Event(f"x{i}", events[-1].timestamp + (i + 1) * 100,
                      {"c": f"c{i % 4}", "amount": 50.0})
                for i in range(20)
            ])
            migrated.run_until_quiet()
            assert migrated.metric_values(live_id) != want_live
        finally:
            migrated.close()

    def test_export_requires_a_durable_cluster(self, tmp_path):
        cluster = make_cluster("single")
        try:
            with pytest.raises(ReplayError, match="durable"):
                export_cut(cluster, str(tmp_path / "nope"))
        finally:
            cluster.close()
