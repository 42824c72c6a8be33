"""Shard runtime tests: wire protocol, worker, supervisor, ParallelCluster.

The process-parallel engine must be observably identical to the
single-process engine: same reply values for the same events, same
aggregate stats — through worker crashes (checkpointed restart + replay
of only the uncheckpointed tail, no duplicated client reply), rebalances
(workers added/removed mid-stream, with checkpoint handoff), schema
evolution across the process boundary, and checkpoint shipping. The
cases every process topology shares live in
``tests/test_cluster_contract.py``; this file keeps the worker, the
supervisor and what only ``ParallelCluster`` does.
"""

from __future__ import annotations

import multiprocessing
from multiprocessing.connection import Client

import pytest

from repro.common.errors import EngineError
from repro.common.timesource import default_time_source
from repro.engine.catalog import CreateMetricOp, CreateStreamOp, MetricDef, StreamDef
from repro.engine.cluster import RailgunCluster
from repro.engine.processor import UnitConfig
from repro.events.event import Event
from repro.messaging.broker import MessageBus
from repro.messaging.consumer import PartitionView
from repro.messaging.log import TopicPartition
from repro.reservoir.reservoir import ReservoirConfig
from repro.shard import columnar, wire
from repro.shard.parallel import ParallelCluster
from repro.shard.supervisor import CheckpointStore, ShardSupervisor
from repro.shard.worker import ShardWorker, shard_worker_main

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


def single_process_results(events, metrics=(METRIC,), evolve_at=None):
    """Ground truth: the cooperative engine, one event at a time."""
    cluster = RailgunCluster(nodes=1, processor_units=2)
    cluster.create_stream("tx", ["cardId"], **STREAM_KW)
    for metric in metrics:
        cluster.create_metric(metric)
    cluster.run_until_quiet()
    results = []
    for index, event in enumerate(events):
        if evolve_at is not None and index == evolve_at:
            cluster.evolve_schema("tx", {"country": "string"})
            cluster.run_until_quiet()
        results.append(cluster.send("tx", event=event).results)
    return results


# -- wire protocol ------------------------------------------------------------


class TestWireProtocol:
    def roundtrip(self, msg):
        return wire.decode(wire.encode(msg))

    def test_checkpoint_frames_roundtrip(self):
        """A full TaskCheckpoint survives the wire in both directions."""
        worker, tp = TestShardWorker().worker_with_stream()
        worker.handle_work(wire.WorkBatch(tp, 0, list(enumerate(make_events(50)))))
        frame = worker.build_checkpoints()[0]
        ack = wire.CheckpointAck(3, {tp: 50}, [frame])
        decoded = self.roundtrip(ack)
        assert decoded.request_id == 3
        assert decoded.offsets == {tp: 50}
        restored = decoded.frames[0].checkpoint
        original = frame.checkpoint
        assert restored.tp == tp and restored.offset == 50
        assert restored.reservoir_meta == original.reservoir_meta
        assert restored.reservoir_files == original.reservoir_files
        assert restored.reservoir_sealed == original.reservoir_sealed
        assert restored.state_checkpoint == original.state_checkpoint
        assert restored.state_files == original.state_files
        assert restored.iterator_positions == original.iterator_positions
        assert restored.metric_ids == original.metric_ids
        restore = self.roundtrip(wire.RestoreTask(frame))
        assert restore.frame.checkpoint == original

    def test_work_batch_roundtrip_preserves_events(self):
        records = [
            (10, Event("a", 5, {"cardId": "c1", "amount": 2.5})),
            (11, Event("b", 6, {"cardId": None, "amount": -17})),
            (12, Event("ç🚂", 7, {"amount": 1e-9, "flag": True, "blob": b"\x00\xff"})),
        ]
        decoded = self.roundtrip(wire.WorkBatch(TopicPartition("t", 1), 11, records))
        assert decoded.tp == TopicPartition("t", 1)
        assert decoded.reply_from == 11
        assert [(o, e) for o, e in decoded.records] == records
        # Field insertion order survives the string-table interning.
        assert decoded.records[2][1].field_names() == ["amount", "flag", "blob"]

    def test_batch_done_roundtrip_preserves_results(self):
        replies = [
            (4, {0: {"sum(amount)": 1.5, "count(*)": 2}, 1: {"max(amount)": None}}),
            (5, None),
            (6, {0: {"sum(amount)": -3, "count(*)": 0}}),
        ]
        msg = wire.BatchDone(TopicPartition("t", 0), 7, 3, replies)
        decoded = self.roundtrip(msg)
        assert decoded.next_offset == 7
        assert decoded.processed == 3
        assert decoded.replies == replies

    def test_unknown_tag_rejected(self):
        from repro.common.errors import SerdeError

        with pytest.raises(SerdeError):
            wire.decode(b"\xee")
        with pytest.raises(SerdeError):
            wire.decode(b"")


# -- worker (in-process) ------------------------------------------------------


class TestShardWorker:
    def worker_with_stream(self):
        worker = ShardWorker("w0")
        stream = StreamDef(
            "tx", (("cardId", "string"), ("amount", "float")), ("cardId",), 2
        )
        worker.handle_control(CreateStreamOp(stream))
        worker.handle_control(
            CreateMetricOp(MetricDef(0, METRIC, "tx", "tx.cardId", False))
        )
        tp = TopicPartition("tx.cardId", 0)
        worker.handle_control(wire.AssignPartitions((tp,)))
        return worker, tp

    def test_work_produces_replies_above_watermark(self):
        worker, tp = self.worker_with_stream()
        records = list(enumerate(make_events(10)))
        done = worker.handle_work(wire.WorkBatch(tp, 4, records))
        assert done.next_offset == 10
        assert done.processed == 10
        assert [offset for offset, _ in done.replies] == [4, 5, 6, 7, 8, 9]
        assert all(results is not None for _, results in done.replies)

    def test_unknown_topic_raises(self):
        worker = ShardWorker("w0")
        with pytest.raises(KeyError):
            worker.handle_work(
                wire.WorkBatch(TopicPartition("nope", 0), 0, [(0, Event("x", 1, {}))])
            )

    def test_revoked_tasks_dropped(self):
        worker, tp = self.worker_with_stream()
        worker.handle_work(wire.WorkBatch(tp, 0, list(enumerate(make_events(5)))))
        assert tp in worker.task_processors
        worker.handle_control(wire.AssignPartitions(()))
        assert not worker.task_processors

    def test_checkpoint_offsets(self):
        worker, tp = self.worker_with_stream()
        worker.handle_work(wire.WorkBatch(tp, 0, list(enumerate(make_events(7)))))
        assert worker.checkpoint_offsets() == {tp: 7}

    def test_install_at_end_of_inflight_run_splices_without_more_work(self):
        """An install stashed while the partition's last run is still
        queued must splice and ack when that run ends exactly at the
        cut — no later batch may ever arrive to trigger it."""
        worker, tp = self.worker_with_stream()
        events = make_events(30)
        late = MetricDef(
            1, "SELECT max(amount) FROM tx GROUP BY cardId OVER sliding 5 minutes",
            "tx", "tx.cardId", False,
        )
        shadow, _ = self.worker_with_stream()
        shadow.handle_control(CreateMetricOp(late))
        shadow.handle_work(wire.WorkBatch(tp, 0, list(enumerate(events))))
        state = shadow.task_processors[tp].export_backfill(late.metric_id)
        worker.handle_work(wire.WorkBatch(tp, 0, list(enumerate(events))[:12]))
        stale = worker.handle_backfill_install(
            wire.BackfillInstall(
                tp, 30, late, state.state_rows, state.distinct_rows,
                state.iterator_positions,
            )
        )
        assert stale is None and not worker.outbox
        worker.handle_work(wire.WorkBatch(tp, 0, list(enumerate(events))[12:]))
        assert worker.outbox == [wire.BackfillInstalled(tp, late.metric_id)]
        processor = worker.task_processors[tp]
        assert processor.metric_values(late.metric_id) == (
            shadow.task_processors[tp].metric_values(late.metric_id)
        )

    def test_restore_task_resumes_at_checkpoint_offset(self):
        worker, tp = self.worker_with_stream()
        events = make_events(80)
        worker.handle_work(wire.WorkBatch(tp, 0, list(enumerate(events))))
        frame = worker.build_checkpoints()[0]
        fresh, _ = self.worker_with_stream()
        fresh.restore_task(frame)
        assert fresh.task_processors[tp].next_offset == 80
        probe = Event("probe", 5000, {"cardId": "c1", "amount": 3.0})
        original = worker.handle_work(wire.WorkBatch(tp, 0, [(80, probe)]))
        restored = fresh.handle_work(wire.WorkBatch(tp, 0, [(80, probe)]))
        assert restored.replies == original.replies

    def test_delta_frames_omit_known_files(self):
        """Steady-state checkpoints ship only files the store lacks."""
        config = UnitConfig(
            reservoir=ReservoirConfig(chunk_max_events=8, file_max_chunks=2)
        )
        worker = ShardWorker("w0", config)
        stream = StreamDef(
            "tx", (("cardId", "string"), ("amount", "float")), ("cardId",), 2
        )
        worker.handle_control(CreateStreamOp(stream))
        worker.handle_control(
            CreateMetricOp(MetricDef(0, METRIC, "tx", "tx.cardId", False))
        )
        tp = TopicPartition("tx.cardId", 0)
        worker.handle_control(wire.AssignPartitions((tp,)))
        events = make_events(200)
        worker.handle_work(wire.WorkBatch(tp, 0, list(enumerate(events[:120]))))
        store = CheckpointStore()
        first = worker.build_checkpoints()[0]
        assert first.checkpoint.reservoir_sealed  # tiny chunks force seals
        first_files = set(first.checkpoint.reservoir_files) | set(
            first.checkpoint.state_files
        )
        assert store.ingest(first)
        worker.handle_work(
            wire.WorkBatch(
                tp, 0, [(120 + i, e) for i, e in enumerate(events[120:])]
            )
        )
        known = {tp: frozenset(store.known_files(tp))}
        second = worker.build_checkpoints(known)[0]
        shipped = set(second.checkpoint.reservoir_files) | set(
            second.checkpoint.state_files
        )
        # Immutable files already held by the store were omitted ...
        held_immutables = set(store.known_files(tp))
        omitted = (
            second.checkpoint.reservoir_sealed
            | second.checkpoint.state_checkpoint.all_files()
        ) - shipped
        assert omitted  # the delta actually omitted something
        assert omitted <= held_immutables
        assert shipped != first_files
        # ... and the store still materializes a full, restorable state.
        assert store.ingest(second)
        stored = store.get(tp)
        assert stored.offset == 200
        assert stored.reservoir_sealed <= set(stored.reservoir_files)
        assert stored.state_checkpoint.all_files() <= set(stored.state_files)
        fresh = ShardWorker("w1", config)
        fresh.handle_control(CreateStreamOp(stream))
        fresh.handle_control(
            CreateMetricOp(MetricDef(0, METRIC, "tx", "tx.cardId", False))
        )
        fresh.handle_control(wire.AssignPartitions((tp,)))
        fresh.restore_task(wire.TaskCheckpointFrame(stored))
        probe = Event("probe", 9000, {"cardId": "c2", "amount": 1.5})
        original = worker.handle_work(wire.WorkBatch(tp, 0, [(200, probe)]))
        restored = fresh.handle_work(wire.WorkBatch(tp, 0, [(200, probe)]))
        assert restored.replies == original.replies

    def test_checkpoint_store_rejects_unmaterializable_frame(self):
        """A delta frame whose base files are missing is refused; the
        previous checkpoint stays authoritative."""
        worker, tp = self.worker_with_stream()
        worker.handle_work(wire.WorkBatch(tp, 0, list(enumerate(make_events(30)))))
        frame = worker.build_checkpoints()[0]
        store = CheckpointStore()
        assert store.ingest(frame)
        worker.handle_work(
            wire.WorkBatch(
                tp, 0, [(30 + i, e) for i, e in enumerate(make_events(30, "f"))]
            )
        )
        # Pretend the store held files it does not have: the worker
        # omits them, and ingest must reject the hole.
        bogus = {tp: frozenset({"sst-aggstate-L9-99999999.sst"})}
        broken = worker.build_checkpoints(bogus)[0]
        broken.checkpoint.state_files = {}
        broken.checkpoint.state_checkpoint.files.setdefault("aggstate", [[]])[
            0
        ].append("sst-aggstate-L9-99999999.sst")
        assert not store.ingest(broken)
        assert store.offset(tp) == 30  # previous checkpoint retained


# -- supervisor ---------------------------------------------------------------


class TestShardSupervisor:
    def test_sticky_assignment_across_worker_changes(self):
        with ShardSupervisor(workers=2) as supervisor:
            tasks = [TopicPartition("t", i) for i in range(8)]
            first = supervisor.assign(tasks)
            assert sorted(len(owned) for owned in first.values()) == [4, 4]
            supervisor.add_worker()
            second = supervisor.assign(tasks)
            # Sticky: at most the rebalanced-away tasks moved.
            for worker_id, owned in first.items():
                assert len(owned & second[worker_id]) >= 2
            assert set().union(*second.values()) == set(tasks)

    def test_worker_error_is_captured_and_worker_restarted(self):
        with ShardSupervisor(workers=1) as supervisor:
            tp = TopicPartition("ghost", 0)
            supervisor.assign([tp])
            supervisor.submit(tp, [(0, Event("x", 1, {}))], 0)
            default_time_source().wait_until(
                lambda: (supervisor.poll(timeout=0.05), supervisor.restarts)[1],
                timeout=10.0,
                poll=0.0,
            )
            assert supervisor.restarts == 1
            assert any("ghost" in err for err in supervisor.worker_errors)

    def _stream_controls(self, supervisor):
        stream = StreamDef(
            "tx", (("cardId", "string"), ("amount", "float")), ("cardId",), 4
        )
        supervisor.broadcast_control(CreateStreamOp(stream))
        supervisor.broadcast_control(
            CreateMetricOp(MetricDef(0, METRIC, "tx", "tx.cardId", False))
        )

    def test_remove_worker_purges_buffered_frames_and_owners(self):
        """Satellite regression: a retired handle leaves nothing behind.

        A ``BatchDone`` parked in the internal buffer while
        ``request_checkpoints`` drained the pipes must not be delivered
        by a later ``poll`` (it would mutate a dead handle's counters),
        and ``_owners`` must stop routing at the removed worker — an
        interleaved ``submit`` gets a clean "not assigned" error, not
        "unknown shard worker".
        """
        with ShardSupervisor(workers=1) as supervisor:
            self._stream_controls(supervisor)
            tp = TopicPartition("tx.cardId", 0)
            supervisor.assign([tp])
            victim = supervisor.worker_ids()[0]
            supervisor.submit(tp, list(enumerate(make_events(10))), 0)
            # Pipe FIFO: the BatchDone precedes the ack, so by the time
            # the ack lands the BatchDone has been drained and parked.
            supervisor.request_checkpoints()
            assert any(
                isinstance(msg, wire.BatchDone) for msg, _ in supervisor._buffered
            )
            supervisor.add_worker()
            supervisor.remove_worker(victim)
            assert supervisor.poll() == []  # parked frame was purged
            assert supervisor.owner_of(tp) is None
            with pytest.raises(EngineError, match="not assigned"):
                supervisor.submit(tp, [(10, make_events(1, "y")[0])], 0)
            # ... and was never credited to any worker.
            records = supervisor.telemetry.counter_labels(
                "supervisor_worker_records_total"
            )
            assert sum(records.values()) == 0

    def test_request_checkpoints_reaps_dead_worker_without_timeout(self):
        """Satellite regression: a crash during the wait costs one reap,
        not the full timeout, and no EngineError."""
        with ShardSupervisor(workers=2) as supervisor:
            self._stream_controls(supervisor)
            tasks = [TopicPartition("tx.cardId", i) for i in range(4)]
            supervisor.assign(tasks)
            victim = supervisor.handles[supervisor.worker_ids()[0]]
            victim.process.kill()
            victim.process.join(timeout=5.0)
            clock = default_time_source()
            started = clock.monotonic()
            offsets = supervisor.request_checkpoints(timeout=30.0)
            elapsed = clock.monotonic() - started
            assert elapsed < 20.0  # did not burn the timeout
            assert supervisor.restarts == 1
            assert offsets == {}  # no worker had processed anything yet

    def test_late_checkpoint_acks_are_counted_and_stored(self):
        """Satellite regression: a checkpoint ack answering a request
        nobody waits for still lands in the store, and is counted."""
        with ShardSupervisor(workers=1) as supervisor:
            self._stream_controls(supervisor)
            tp = TopicPartition("tx.cardId", 0)
            supervisor.assign([tp])
            supervisor.submit(tp, list(enumerate(make_events(25))), 0)
            worker_id = supervisor.worker_ids()[0]
            handle = supervisor.handles[worker_id]
            # A with-state request with an id the supervisor never
            # registered: its ack is by definition late.
            handle.conn.send_bytes(
                wire.encode(wire.CheckpointRequest(999, with_state=True))
            )
            default_time_source().wait_until(
                lambda: (supervisor.poll(timeout=0.05), len(supervisor.checkpoints))[1],
                timeout=10.0,
                poll=0.0,
            )
            assert supervisor.checkpoints.offset(tp) == 25
            assert supervisor.late_checkpoint_acks == 1
            assert supervisor.telemetry.counter_value(
                "supervisor_checkpoint_acks_late_total", worker_id
            ) == 1

    def test_periodic_checkpoint_cadence_fills_the_store(self):
        """checkpoint_interval drives fire-and-forget with-state
        requests through poll(); acks are counted as expected, not late."""
        with ShardSupervisor(workers=1, checkpoint_interval=20) as supervisor:
            self._stream_controls(supervisor)
            tp = TopicPartition("tx.cardId", 0)
            supervisor.assign([tp])
            supervisor.submit(tp, list(enumerate(make_events(30))), 0)
            default_time_source().wait_until(
                lambda: (supervisor.poll(timeout=0.05), len(supervisor.checkpoints))[1],
                timeout=10.0,
                poll=0.0,
            )
            worker_id = supervisor.worker_ids()[0]
            assert supervisor.checkpoints.offset(tp) == 30
            assert supervisor.telemetry.counter_value(
                "supervisor_checkpoint_acks_total", worker_id
            ) >= 1
            assert supervisor.late_checkpoint_acks == 0


# -- PartitionView ------------------------------------------------------------


class TestPartitionView:
    def test_poll_commit_seek(self):
        bus = MessageBus()
        bus.create_topic("t", partitions=1)
        tp = TopicPartition("t", 0)
        for i in range(5):
            bus.publish("t", key=None, value=i, timestamp=i)
        view = PartitionView(bus, "g")
        view.set_assignment([tp])
        messages = view.poll_one(tp, 3)
        assert [m.value for m in messages] == [0, 1, 2]
        assert view.position(tp) == 3
        view.commit(tp, 3)
        assert view.committed(tp) == 3
        assert view.lag() == 2
        view.seek(tp, 0)
        assert [m.value for m in view.poll_one(tp, 10)] == [0, 1, 2, 3, 4]
        # A fresh view starts at the committed offset (cross-restart).
        fresh = PartitionView(bus, "g")
        fresh.set_assignment([tp])
        assert fresh.position(tp) == 3


# -- ParallelCluster ----------------------------------------------------------


class TestParallelClusterEquivalence:
    def test_delete_metric_applies_to_workers(self):
        with ParallelCluster(workers=2) as cluster:
            cluster.create_stream("tx", ["cardId"], **STREAM_KW)
            metric_id = cluster.create_metric(METRIC)
            keep = cluster.create_metric(
                "SELECT count(*) FROM tx GROUP BY cardId OVER sliding 1 minutes"
            )
            cluster.send_batch("tx", make_events(20))
            cluster.delete_metric(metric_id)
            reply = cluster.send(
                "tx", event=Event("after", 5000, {"cardId": "c0", "amount": 1.0})
            )
            assert metric_id not in reply.results
            assert keep in reply.results


class TestParallelClusterFailures:
    def test_fault_injected_crash_is_equivalent(self):
        events = make_events(150)
        expected = single_process_results(events)
        with ParallelCluster(workers=2) as cluster:
            cluster.create_stream("tx", ["cardId"], **STREAM_KW)
            cluster.create_metric(METRIC)
            results = [r.results for r in cluster.send_batch("tx", events[:70])]
            cluster.supervisor.crash_worker(cluster.worker_ids()[1])
            results += [r.results for r in cluster.send_batch("tx", events[70:])]
            assert results == expected
            assert cluster.supervisor.restarts == 1

    def test_schema_evolution_across_process_boundary(self):
        plain = make_events(40)
        evolved = [
            Event(f"n{i}", 5000 + i,
                  {"cardId": f"c{i % 5}", "amount": 2.0, "country": "PT"})
            for i in range(40)
        ]
        expected = single_process_results(plain + evolved, evolve_at=40)
        with ParallelCluster(workers=2) as cluster:
            cluster.create_stream("tx", ["cardId"], **STREAM_KW)
            cluster.create_metric(METRIC)
            results = [r.results for r in cluster.send_batch("tx", plain)]
            cluster.evolve_schema("tx", {"country": "string"})
            results += [r.results for r in cluster.send_batch("tx", evolved)]
            assert results == expected

    def test_checkpoint_offsets_cover_every_event(self):
        events = make_events(90)
        with ParallelCluster(workers=3) as cluster:
            cluster.create_stream("tx", ["cardId"], **STREAM_KW)
            cluster.create_metric(METRIC)
            cluster.send_batch("tx", events)
            offsets = cluster.checkpoint_offsets()
            assert sum(offsets.values()) == len(events)
            assert {tp.topic for tp in offsets} == {"tx.cardId"}


class TestCheckpointedRecovery:
    """The recovery matrix: every path restarts from a checkpoint."""

    ONE_PARTITION = dict(partitions=1, schema={"cardId": "string", "amount": "float"})

    def ground_truth(self, events):
        """Single-process engine on a one-partition stream."""
        cluster = RailgunCluster(nodes=1, processor_units=2)
        cluster.create_stream("tx", ["cardId"], **self.ONE_PARTITION)
        cluster.create_metric(METRIC)
        cluster.run_until_quiet()
        return [cluster.send("tx", event=event).results for event in events]

    def await_restart(self, cluster, count=1, timeout=30.0):
        default_time_source().wait_until(
            lambda: (cluster.pump(), cluster.supervisor.restarts >= count)[1],
            timeout=timeout,
            poll=0.0,
        )
        assert cluster.supervisor.restarts == count
        cluster.run_until_quiet()

    def test_crash_mid_checkpoint_falls_back_to_previous_checkpoint(self):
        """A crash racing an in-flight checkpoint request recovers from
        whichever checkpoint last made it into the store — never worse
        than the previous one, never wrong."""
        events = make_events(100)
        probe = Event("probe", 9000, {"cardId": "c3", "amount": 1.0})
        expected = self.ground_truth(events + [probe])
        tp = TopicPartition("tx.cardId", 0)
        with ParallelCluster(workers=1, checkpoint_every=None) as cluster:
            cluster.create_stream("tx", ["cardId"], **self.ONE_PARTITION)
            cluster.create_metric(METRIC)
            results = [r.results for r in cluster.send_batch("tx", events[:40])]
            assert cluster.checkpoint_now() == {tp: 40}
            results += [r.results for r in cluster.send_batch("tx", events[40:])]
            cluster.supervisor.begin_checkpoint()  # in flight ...
            cluster.kill_worker(cluster.worker_ids()[0])  # ... and crash
            self.await_restart(cluster)
            # The store holds the old checkpoint (the ack died with the
            # worker) or the new one (it won the race); recovery works
            # from either and replay is bounded by the older one.
            assert cluster.supervisor.checkpoints.offset(tp) in (40, 100)
            replayed = cluster.total_messages_processed() - len(events)
            assert 0 <= replayed <= 60
            # The interrupted request does not leak its in-flight entry:
            # the restart stopped expecting the dead worker's ack.
            assert cluster.supervisor._inflight_checkpoints == {}
            results.append(cluster.send("tx", event=probe).results)
            assert results == expected

    def test_rebalance_handoff_replays_nothing(self):
        """Grow/shrink hands task state over through the checkpoint
        store: byte-identical replies and zero replayed records."""
        events = make_events(160)
        expected = single_process_results(events)
        with ParallelCluster(workers=1) as cluster:
            cluster.create_stream("tx", ["cardId"], **STREAM_KW)
            cluster.create_metric(METRIC)
            results = [r.results for r in cluster.send_batch("tx", events[:80])]
            grown = cluster.add_worker()
            # Handoff restored from checkpoints: nothing replayed.
            assert cluster.total_messages_processed() == 80
            results += [
                r.results for r in cluster.send_batch("tx", events[80:120])
            ]
            cluster.remove_worker(grown)
            assert cluster.total_messages_processed() == 120
            results += [r.results for r in cluster.send_batch("tx", events[120:])]
            assert results == expected
            assert cluster.total_messages_processed() == len(events)

    def test_periodic_cadence_bounds_crash_replay(self):
        """With the cadence on, a crash never replays the whole log."""
        events = make_events(300)
        expected = single_process_results(events)
        with ParallelCluster(workers=2, checkpoint_every=64) as cluster:
            cluster.create_stream("tx", ["cardId"], **STREAM_KW)
            cluster.create_metric(METRIC)
            results = [r.results for r in cluster.send_batch("tx", events)]
            assert results == expected
            # The cadence fired; pump until its acks filled the store.
            default_time_source().wait_until(
                lambda: (cluster.pump(), len(cluster.supervisor.checkpoints))[1],
                timeout=10.0,
                poll=0.0,
            )
            stored = sum(
                cluster.supervisor.checkpoints.offset(tp)
                for tp in cluster._watermarks
            )
            assert stored > 0
            cluster.kill_worker(cluster.worker_ids()[0])
            self.await_restart(cluster)
            replayed = cluster.total_messages_processed() - len(events)
            # Bounded replay: at most the uncheckpointed remainder.
            assert replayed <= len(events) - stored


def test_worker_drops_a_link_whose_peer_hung_up(tmp_path):
    """A frontend that re-dials can hang up on a worker before its first
    frame, or with a reply still owed (chaos seed 9108): the worker must
    drop that link, keep answering its control pipe, and serve the next
    link."""
    ctx = multiprocessing.get_context("fork")
    control, child = ctx.Pipe(duplex=True)
    addr = str(tmp_path / "w.sock")
    process = ctx.Process(
        target=shard_worker_main, args=(child, "shard-0", None, addr), daemon=True
    )
    process.start()
    child.close()

    def checkpoint_ack(request_id):
        control.send_bytes(
            wire.encode(wire.CheckpointRequest(request_id, False, ()))
        )
        assert control.poll(10.0)
        ack = wire.decode(control.recv_bytes())
        assert isinstance(ack, wire.CheckpointAck)
        assert ack.request_id == request_id

    tp = TopicPartition("tx.cardId", 0)

    def send_work(link, offset):
        batch = wire.WorkBatch(tp, 0, [(offset, make_events(1)[0])])
        link.send_bytes(columnar.encode(batch))

    def round_trip(link, offset):
        send_work(link, offset)
        assert link.poll(10.0)
        done = columnar.decode(link.recv_bytes())
        assert isinstance(done, wire.BatchDone) and done.next_offset == offset + 1

    try:
        stream = StreamDef(
            "tx", (("cardId", "string"), ("amount", "float")), ("cardId",), 2
        )
        for frame in (CreateStreamOp(stream), wire.AssignPartitions((tp,))):
            control.send_bytes(wire.encode(frame))
        checkpoint_ack(1)  # the listener is bound once this answers
        Client(addr, family="AF_UNIX").close()  # before the first frame
        checkpoint_ack(2)
        link = Client(addr, family="AF_UNIX")
        round_trip(link, 0)
        send_work(link, 1)
        link.close()  # mid-stream: the reply to offset 1 has nowhere to go
        checkpoint_ack(3)
        link = Client(addr, family="AF_UNIX")
        round_trip(link, 2)  # both earlier runs were processed
        link.close()
        assert process.is_alive()
    finally:
        control.send_bytes(wire.encode(wire.Shutdown()))
        process.join(timeout=10.0)
        alive = process.is_alive()
        if alive:
            process.kill()
        control.close()
    assert not alive
