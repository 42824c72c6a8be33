"""Durable-bus recovery across the cluster topologies.

The acceptance bar for the durable segmented log bus:

- ``create_cluster("process", ..., durable_dir=...)`` keeps replies
  byte-identical (asserted in ``tests/test_batch_equivalence.py``);
- a **coordinator restart** (a fresh ``ParallelCluster`` over the same
  directory) recovers catalogue, logs and checkpoint store from disk
  with **bounded replay** — strictly fewer events than the log holds;
- segments wholly below every stored checkpoint offset are
  **verifiably deleted** from disk;
- a **frontend kill mid-append** (sharded topology) recovers by
  reopening the on-disk log: the journal acts as a write-ahead buffer,
  pruned once the frontend reports its durable cut, and every reply
  still completes correctly.
"""

from __future__ import annotations

import os

from repro.common.timesource import default_time_source
from repro.engine.cluster import create_cluster
from repro.engine.processor import ACTIVE_GROUP
from repro.events.event import Event
from repro.messaging.durable import DurableBus
from repro.shard import wire

STREAM_KW = dict(partitions=2, schema={"cardId": "string", "amount": "float"})
METRIC = (
    "SELECT sum(amount), count(*) FROM tx GROUP BY cardId "
    "OVER sliding 500 minutes"
)


def make_events(count, prefix="e", start_ts=1000):
    return [
        Event(f"{prefix}{i}", start_ts + i, {"cardId": f"c{i % 3}", "amount": float(i)})
        for i in range(count)
    ]


def event_task_lengths(bus):
    return {
        tp: bus.end_offset(tp)
        for topic in ("tx.cardId",)
        for tp in bus.topic_partitions(topic)
    }


class TestCoordinatorRestart:
    def test_reopen_recovers_with_bounded_replay(self, tmp_path):
        durable = str(tmp_path / "cluster")
        events = make_events(120)
        with create_cluster(
            "process", workers=2, durable_dir=durable, checkpoint_every=None
        ) as cluster:
            cluster.create_stream("tx", ["cardId"], **STREAM_KW)
            metric = cluster.create_metric(METRIC)
            first = cluster.send_batch("tx", events[:100])
            cluster.checkpoint_now()
            # A tail past the checkpoint: the reopen must replay exactly it.
            cluster.send_batch("tx", events[100:])
            log_lengths = event_task_lengths(cluster.bus)
            checkpoint_offsets = dict(cluster.supervisor.checkpoints.offsets())
        total_logged = sum(log_lengths.values())
        assert total_logged == len(events)

        with create_cluster(
            "process", workers=2, durable_dir=durable, checkpoint_every=None
        ) as reopened:
            # Catalogue came back from the operations log — no DDL re-run.
            assert "tx" in reopened.catalog.streams
            assert reopened.catalog.metrics[metric].query_text == METRIC
            reopened.run_until_quiet()
            replayed = reopened.total_messages_processed()
            expected_tail = sum(
                log_lengths[tp] - checkpoint_offsets.get(tp, 0)
                for tp in log_lengths
            )
            # Bounded replay: exactly the uncheckpointed tail, strictly
            # fewer events than the log holds.
            assert replayed == expected_tail
            assert replayed < total_logged
            # Continuity: new events fold into the recovered state.
            reply = reopened.send(
                "tx", {"cardId": "c0", "amount": 1.0}, timestamp=5000
            )
            per_key = sum(1 for e in events if e.get("cardId") == "c0")
            assert reply.value(metric, "count(*)") == per_key + 1
            assert reply.value(metric, "sum(amount)") == (
                sum(e.get("amount") for e in events if e.get("cardId") == "c0")
                + 1.0
            )
            del first

    def test_metric_created_mid_stream_keeps_its_cut_through_reopen(
        self, tmp_path
    ):
        """A metric created after a checkpoint activates at its DDL cut
        on the reopened cluster too: the operations log must carry
        ``CreateMetricOp.activations``, or the task restored from the
        older checkpoint folds the whole replayed tail into the
        newcomer (it answered 21 where the uncrashed run answers 7)."""
        late = "SELECT count(*) FROM tx GROUP BY cardId OVER sliding 400 minutes"
        events = make_events(120)
        probe = dict(fields={"cardId": "c0", "amount": 1.0}, timestamp=5000)

        def drive(cluster):
            cluster.create_stream("tx", ["cardId"], **STREAM_KW)
            cluster.create_metric(METRIC)
            cluster.send_batch("tx", events[:60])
            cluster.checkpoint_now()
            cluster.send_batch("tx", events[60:100])
            cluster.create_metric(late)
            cluster.send_batch("tx", events[100:])

        with create_cluster("process", workers=2, checkpoint_every=None) as ref:
            drive(ref)
            expected = ref.send("tx", **probe).results

        durable = str(tmp_path / "cluster")
        kwargs = dict(workers=2, durable_dir=durable, checkpoint_every=None)
        with create_cluster("process", **kwargs) as cluster:
            drive(cluster)
        with create_cluster("process", **kwargs) as reopened:
            reopened.run_until_quiet()
            assert reopened.send("tx", **probe).results == expected
        late_id = max(expected)
        assert expected[late_id] == {"count(*)": 7}

    def test_watermarks_survive_restart(self, tmp_path):
        """Replies already delivered are suppressed through the reopen:
        the replayed tail must not re-answer them (no pending fan-in
        exists, but the committed watermark keeps workers silent too)."""
        durable = str(tmp_path / "cluster")
        with create_cluster(
            "process", workers=1, durable_dir=durable, checkpoint_every=None
        ) as cluster:
            cluster.create_stream("tx", ["cardId"], **STREAM_KW)
            cluster.create_metric(METRIC)
            cluster.send_batch("tx", make_events(40))
            watermarks = dict(cluster._watermarks)
        with create_cluster(
            "process", workers=1, durable_dir=durable, checkpoint_every=None
        ) as reopened:
            for tp, offset in watermarks.items():
                assert reopened.bus.committed_offset(ACTIVE_GROUP, tp) == offset
                assert reopened._watermarks.get(tp, 0) == offset

    def test_checkpoint_store_persists_and_reloads(self, tmp_path):
        durable = str(tmp_path / "cluster")
        with create_cluster(
            "process", workers=2, durable_dir=durable, checkpoint_every=None
        ) as cluster:
            cluster.create_stream("tx", ["cardId"], **STREAM_KW)
            cluster.create_metric(METRIC)
            cluster.send_batch("tx", make_events(60))
            offsets = cluster.checkpoint_now()
        ckpt_dir = os.path.join(durable, "checkpoints")
        names = [n for n in os.listdir(ckpt_dir) if n.endswith(".ckpt")]
        assert len(names) == len([o for o in offsets.values()])
        with create_cluster(
            "process", workers=2, durable_dir=durable, checkpoint_every=None
        ) as reopened:
            store = reopened.supervisor.checkpoints
            assert store.loaded == len(names)
            for tp, offset in offsets.items():
                assert store.offset(tp) == offset


class TestCheckpointTruncation:
    def test_segments_below_checkpoint_are_deleted(self, tmp_path):
        durable = str(tmp_path / "cluster")
        with create_cluster(
            "process", workers=2, durable_dir=durable, checkpoint_every=None
        ) as cluster:
            cluster.bus.config.segment_bytes = 2048  # observable rolls
            cluster.create_stream("tx", ["cardId"], **STREAM_KW)
            cluster.create_metric(METRIC)
            for start in range(0, 900, 300):
                cluster.send_batch(
                    "tx", make_events(300, prefix=f"b{start}-", start_ts=start)
                )
            before = cluster.bus.disk_bytes()
            offsets = cluster.checkpoint_now()
            after = cluster.bus.disk_bytes()
            assert after < before
            spans = cluster.bus.segment_spans()
            for tp, offset in offsets.items():
                task_spans = spans[tp]
                # Something below the checkpoint was deleted...
                assert task_spans[0][0] > 0, (tp, task_spans)
                # ...and nothing at or above it: every surviving
                # completed segment reaches past the stored offset.
                assert all(end > offset for _, end in task_spans[:-1]), (
                    tp, offset, task_spans,
                )

    def test_periodic_cadence_truncates_without_explicit_checkpoint(self, tmp_path):
        durable = str(tmp_path / "cluster")
        with create_cluster(
            "process", workers=2, durable_dir=durable, checkpoint_every=128
        ) as cluster:
            cluster.bus.config.segment_bytes = 2048
            cluster.create_stream("tx", ["cardId"], **STREAM_KW)
            cluster.create_metric(METRIC)
            for start in range(0, 600, 200):
                cluster.send_batch(
                    "tx", make_events(200, prefix=f"c{start}-", start_ts=start)
                )
            starts: list[int] = []

            def heads_truncated():
                cluster.run_until_quiet()
                spans = cluster.bus.segment_spans()
                starts[:] = [
                    spans[tp][0][0]
                    for tp in cluster.bus.topic_partitions("tx.cardId")
                ]
                return all(start > 0 for start in starts)

            default_time_source().wait_until(heads_truncated, timeout=30.0, poll=0.0)
            assert all(start > 0 for start in starts), starts


class TestShardedFrontendDurability:
    def build(self, durable, **kwargs):
        cluster = create_cluster(
            "process", workers=2, frontends=2, durable_dir=durable, **kwargs
        )
        cluster.create_stream("tx", ["cardId"], **STREAM_KW)
        cluster.create_metric(METRIC)
        return cluster

    def expected_results(self, events):
        single = create_cluster("single", nodes=1, processor_units=2)
        single.create_stream("tx", ["cardId"], **STREAM_KW)
        single.create_metric(METRIC)
        single.run_until_quiet()
        return [single.send("tx", event=e).results for e in events]

    def test_journal_is_pruned_once_frames_are_durable(self, tmp_path):
        events = make_events(60)
        with self.build(str(tmp_path / "router")) as cluster:
            cluster.send_batch("tx", events)
            for _ in range(200):
                cluster.pump()
                if all(
                    handle.durable_seq > 0
                    for handle in cluster._frontends.values()
                ):
                    break
            for handle in cluster._frontends.values():
                # WAL contract: every fsynced ingest frame left the
                # journal; only control frames (and any not-yet-reported
                # tail) remain.
                assert handle.durable_seq > 0
                ingest_left = [s for s, _ in handle.journal if s >= 0]
                assert all(s >= handle.durable_seq for s in ingest_left)
                assert handle.ingest_seq > len(ingest_left)

    def test_frontend_kill_recovers_by_reopening_log(self, tmp_path):
        events = make_events(80)
        expected = self.expected_results(events)
        with self.build(str(tmp_path / "router")) as cluster:
            replies = cluster.send_batch("tx", events[:50])
            victim = cluster.frontend_ids()[0]
            assert cluster._frontends[victim].durable_seq > 0
            cluster.kill_frontend(victim)
            replies += cluster.send_batch("tx", events[50:])
            assert cluster._frontends[victim].restarts == 1
        assert [r.results for r in replies] == expected

    def test_kill_mid_append_replays_write_ahead_journal(self, tmp_path):
        """Crash a frontend *between append and fsync*: the unsynced
        ingest frames replay from the router's journal into the
        reopened log, and every reply still completes.

        Replies settled before the crash and sent after it are
        byte-identical; the crash-window requests follow the documented
        in-flight contract — they complete (at-least-once) with
        read-only replies computed against post-recovery state, so
        their running counts are at least the crash-free values.
        """
        events = make_events(90)
        expected = self.expected_results(events)
        with self.build(str(tmp_path / "router")) as cluster:
            replies = cluster.send_batch("tx", events[:30])
            victim = cluster.frontend_ids()[0]
            handle = cluster._frontends[victim]
            synced_before = handle.durable_seq
            assert synced_before > 0
            # Ship a run of ingest frames and the crash order in one
            # socket write burst: the frontend appends them and dies at
            # the Crash before its durable sync runs.
            correlations = cluster._ship("tx", events[30:60])
            handle.conn.send_bytes(wire.encode(wire.Crash()))
            default_time_source().wait_until(
                lambda: (cluster.pump(), not cluster.pending)[1],
                timeout=30.0,
                poll=0.0,
            )
            assert not cluster.pending, "mid-append crash lost replies"
            window = [cluster.completed.pop(c) for c in correlations]
            assert handle.restarts == 1
            tail = cluster.send_batch("tx", events[60:])
        assert [r.results for r in replies] == expected[:30]
        assert [r.results for r in tail] == expected[60:]
        for got, want in zip(window, expected[30:60]):
            assert set(got.results) == set(want)
            for metric_id, values in want.items():
                assert got.results[metric_id]["count(*)"] >= values["count(*)"]

    def test_truncation_reaches_frontend_logs(self, tmp_path):
        durable = str(tmp_path / "router")
        with self.build(
            durable, checkpoint_every=64, durable_segment_bytes=2048
        ) as cluster:
            for start in range(0, 600, 200):
                cluster.send_batch(
                    "tx", make_events(200, prefix=f"f{start}-", start_ts=start)
                )
            def logs_truncated():
                cluster.run_until_quiet()
                cluster.drain()
                return self._frontend_logs_truncated(durable)

            assert default_time_source().wait_until(
                logs_truncated, timeout=30.0, poll=0.0
            )

    @staticmethod
    def _frontend_logs_truncated(durable):
        """True when every *owned* (non-empty) frontend log dropped its
        head segments. Each frontend's bus also hosts empty logs for the
        partitions it does not own — those never truncate and don't
        count."""
        starts = []
        frontends_root = os.path.join(durable, "frontends")
        for frontend_id in os.listdir(frontends_root):
            root = os.path.join(frontends_root, frontend_id)
            for entry in os.listdir(root):
                if not entry.startswith("tx.cardId-"):
                    continue
                log_dir = os.path.join(root, entry)
                segments = [
                    name
                    for name in os.listdir(log_dir)
                    if name.endswith(".log")
                ]
                if not any(
                    os.path.getsize(os.path.join(log_dir, name))
                    for name in segments
                ):
                    continue  # unowned partition: empty placeholder log
                starts.append(min(int(name[4:-4]) for name in segments))
        return bool(starts) and all(start > 0 for start in starts)


class TestSingleModeDurable:
    def test_logs_survive_and_truncate(self, tmp_path):
        durable = str(tmp_path / "single")
        cluster = create_cluster(
            "single", nodes=1, processor_units=1, durable_dir=durable
        )
        cluster.bus.config.segment_bytes = 1024
        cluster.create_stream("tx", ["cardId"], **STREAM_KW)
        metric = cluster.create_metric(METRIC)
        replies = cluster.send_batch("tx", make_events(300))
        assert replies[-1].value(metric, "count(*)") == 100
        cluster.truncate_logs_below_committed()
        cluster.close()
        # The logs (events + operations) are on disk and reopenable.
        bus = DurableBus(os.path.join(durable))
        assert bus.recovered
        ops = bus.topic_partitions("__operations")[0]
        assert bus.end_offset(ops) == 2  # create_stream + create_metric
        for tp in bus.topic_partitions("tx.cardId"):
            spans = bus.segment_spans()[tp]
            assert spans[0][0] > 0  # committed prefix truncated
            assert bus.end_offset(tp) > 0
