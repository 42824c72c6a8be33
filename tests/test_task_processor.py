"""Task processor tests: processing, replay, checkpoint/restore."""

import pytest

from repro.engine.catalog import MetricDef, StreamDef, topic_name
from repro.engine.task import TaskProcessor
from repro.events.event import Event
from repro.messaging.log import TopicPartition

STREAM = StreamDef(
    "payments",
    (("cardId", "string"), ("amount", "float")),
    ("cardId",),
    partitions=2,
)
TP = TopicPartition(topic_name("payments", "cardId"), 0)
METRIC = MetricDef(
    0,
    "SELECT sum(amount), count(*) FROM payments GROUP BY cardId OVER sliding 5 minutes",
    "payments",
    topic_name("payments", "cardId"),
)


def _event(i, ts=None, card="c1", amount=1.0):
    return Event(f"e{i}", ts if ts is not None else (i + 1) * 1_000,
                 {"cardId": card, "amount": amount})


def _processor():
    processor = TaskProcessor(TP, STREAM)
    processor.add_metric(METRIC)
    return processor


class TestProcessing:
    def test_processes_in_offset_order(self):
        processor = _processor()
        for i in range(5):
            replies = processor.process(i, _event(i))
        assert replies[0]["count(*)"] == 5
        assert processor.next_offset == 5

    def test_replay_skips_mutation_but_replies(self):
        processor = _processor()
        processor.process(0, _event(0))
        processor.process(1, _event(1))
        replayed = processor.process(0, _event(0))
        assert replayed is not None
        assert replayed[0]["count(*)"] == 2  # state unchanged
        assert processor.replays_skipped == 1

    def test_duplicate_event_id_not_double_counted(self):
        processor = _processor()
        processor.process(0, _event(0))
        replies = processor.process(1, _event(0))  # same event id, new offset
        assert replies[0]["count(*)"] == 1

    def test_add_metric_idempotent(self):
        processor = _processor()
        processor.add_metric(METRIC)
        assert processor.metric_ids() == (0,)

    def test_remove_metric(self):
        processor = _processor()
        processor.remove_metric(0)
        assert processor.metric_ids() == ()
        replies = processor.process(0, _event(0))
        assert replies == {}

    def test_schema_evolution(self):
        processor = _processor()
        processor.process(0, _event(0))
        evolved = StreamDef(
            "payments",
            (("cardId", "string"), ("amount", "float"), ("extra", "int")),
            ("cardId",),
            2,
        )
        processor.evolve_schema(evolved)
        replies = processor.process(
            1, Event("new", 2_000, {"cardId": "c1", "amount": 1.0, "extra": 7})
        )
        assert replies[0]["count(*)"] == 2


class TestCheckpointRestore:
    def test_restore_continues_identically(self):
        original = _processor()
        twin = _processor()
        for i in range(30):
            original.process(i, _event(i))
            twin.process(i, _event(i))
        checkpoint = original.checkpoint()
        restored = TaskProcessor.restore(checkpoint, STREAM, [METRIC])
        assert restored.next_offset == 30
        for i in range(30, 45):
            expected = twin.process(i, _event(i))
            got = restored.process(i, _event(i))
            assert got == expected

    def test_checkpoint_with_dirty_resident_state_restores_exactly(self):
        # The checkpoint is taken while every touched aggregator is
        # resident and dirty (nothing has reached the LSM yet): the
        # write-back barrier must land all of it in the snapshot.
        events = [
            _event(i, ts=(i + 1) * 20_000, card=f"c{i % 7}", amount=float(i % 5))
            for i in range(60)
        ]
        straight, interrupted = _processor(), _processor()
        for i, event in enumerate(events[:40]):
            assert straight.process(i, event) == interrupted.process(i, event)
        assert interrupted.state._dirty and interrupted.state.db.stats.puts == 0
        restored = TaskProcessor.restore(interrupted.checkpoint(), STREAM, [METRIC])
        assert not restored.state._resident
        for i, event in enumerate(events[40:], start=40):
            assert straight.process(i, event) == restored.process(i, event)
        assert restored.state.export_metric_rows(0) == straight.state.export_metric_rows(0)
        assert restored.metric_values(0) == straight.metric_values(0)

    def test_checkpoint_releases_the_pin_it_supersedes(self):
        processor = _processor()
        for i in range(40):
            processor.process(i, _event(i, card=f"c{i % 3}"))
            processor.checkpoint()
        db = processor.state.db
        assert len(db._live_checkpoints) == 1
        live = {t.name for cf in db._cfs.values() for t in cf.runs}
        tables = {name for name in db.storage.list() if name.endswith(".sst")}
        assert tables == live | db._live_checkpoints[0].all_files()

    def test_checkpoint_reports_its_cost_to_an_attached_registry(self):
        from repro.telemetry import MetricsRegistry

        observed, plain = _processor(), _processor()
        observed.telemetry = registry = MetricsRegistry("worker:t", enabled=True)
        for round_no in range(4):
            for i in range(round_no * 6, round_no * 6 + 6):
                event = _event(i, card=f"c{i % 3}")
                assert observed.process(i, event) == plain.process(i, event)
            assert observed.checkpoint() == plain.checkpoint()  # observation only
        snapshot = registry.snapshot()
        assert snapshot["histograms"]["worker_checkpoint_ms"]["count"] == 4
        # 3 cards x (sum, count) dirtied before each of the 4 checkpoints
        assert snapshot["counters"]["worker_checkpoint_dirty_entries_total"] == 24
        stats = observed.state.db.stats
        assert stats.compactions == 1  # the fourth similar run
        assert snapshot["counters"]["worker_lsm_compactions_total"] == 1

    def test_plan_turns_report_their_time_per_fresh_run(self, monkeypatch):
        from repro.common.timesource import DeterministicTimeSource
        from repro.plan.dag import TaskPlan
        from repro.reservoir.reservoir import EventReservoir
        from repro.telemetry import MetricsRegistry

        # Virtual time moves only inside the two timed regions: 1 ms per
        # reservoir batch append, 2 ms per plan turn — a fresh run enters
        # the plan once, so its entry is charged per event of the run.
        clock = DeterministicTimeSource()

        def costing(method, seconds, per_event=False):
            def wrapper(self, events, *args, **kwargs):
                clock.advance(seconds * (len(events) if per_event else 1))
                return method(self, events, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            EventReservoir, "append_batch", costing(EventReservoir.append_batch, 0.001)
        )
        monkeypatch.setattr(
            TaskPlan, "process_run", costing(TaskPlan.process_run, 0.002, per_event=True)
        )
        observed, plain = _processor(), _processor()
        observed.telemetry = registry = MetricsRegistry(
            "worker:t", time_source=clock, enabled=True
        )
        records = [(i, _event(i, card=f"c{i % 3}")) for i in range(8)]
        # A re-sent id splits the batch into two fresh runs (5 and 3
        # events) around one per-event fallback, which is not a run.
        records.insert(5, (8, _event(2, card="c2")))
        records = [(i, event) for i, (_, event) in enumerate(records)]
        assert observed.process_batch(records) == plain.process_batch(records)
        histograms = registry.snapshot()["histograms"]
        plan_ms = histograms["worker_plan_ms"]
        assert plan_ms["count"] == 2
        assert plan_ms["sum_ms"] == pytest.approx(2.0 * 8)
        assert (plan_ms["min_ms"], plan_ms["max_ms"]) == pytest.approx((6.0, 10.0))
        append_ms = histograms["worker_reservoir_append_ms"]
        assert append_ms["count"] == 2
        assert append_ms["sum_ms"] == pytest.approx(2.0)

    def test_restore_preserves_window_expiry(self):
        original = _processor()
        offset = 0
        for i in range(10):
            original.process(offset, _event(i, ts=(i + 1) * 10_000))
            offset += 1
        checkpoint = original.checkpoint()
        restored = TaskProcessor.restore(checkpoint, STREAM, [METRIC])
        # 6 minutes later everything has expired.
        replies = restored.process(offset, _event(99, ts=460_000))
        assert replies[0]["count(*)"] == 1

    def test_checkpoint_data_bytes_delta(self):
        from repro.reservoir.reservoir import ReservoirConfig

        processor = TaskProcessor(
            TP, STREAM, reservoir_config=ReservoirConfig(chunk_max_events=8)
        )
        processor.add_metric(METRIC)
        for i in range(50):
            processor.process(i, _event(i))
        checkpoint = processor.checkpoint()
        full = checkpoint.data_bytes()
        # A receiver holding every reservoir file is shipped none of it.
        held = {name: len(data) for name, data in checkpoint.reservoir_files.items()}
        delta = processor.checkpoint(held).data_bytes()
        assert 0 < delta < full

    def test_restore_with_local_files_delta(self):
        processor = _processor()
        for i in range(50):
            processor.process(i, _event(i))
        checkpoint = processor.checkpoint()
        # Receiver already has all sealed reservoir files.
        local = {
            name: data
            for name, data in checkpoint.reservoir_files.items()
            if name in checkpoint.reservoir_sealed
        }
        checkpoint.reservoir_files = {
            name: data
            for name, data in checkpoint.reservoir_files.items()
            if name not in checkpoint.reservoir_sealed
        }
        restored = TaskProcessor.restore(
            checkpoint, STREAM, [METRIC], local_files=local
        )
        replies = restored.process(50, _event(50))
        assert replies[0]["count(*)"] >= 1

    def test_restore_missing_files_raises(self):
        from repro.common.errors import CheckpointError

        processor = TaskProcessor(TP, STREAM)
        processor.add_metric(METRIC)
        # Force at least one sealed file.
        from repro.reservoir.reservoir import ReservoirConfig

        small = TaskProcessor(
            TP, STREAM,
            reservoir_config=ReservoirConfig(chunk_max_events=2, file_max_chunks=1),
        )
        small.add_metric(METRIC)
        for i in range(10):
            small.process(i, _event(i))
        checkpoint = small.checkpoint()
        checkpoint.reservoir_files = {}
        with pytest.raises(CheckpointError):
            TaskProcessor.restore(checkpoint, STREAM, [METRIC])

    def test_restored_metrics_use_catalog_ids(self):
        processor = _processor()
        processor.process(0, _event(0))
        checkpoint = processor.checkpoint()
        second_metric = MetricDef(
            7,
            "SELECT max(amount) FROM payments GROUP BY cardId OVER sliding 5 minutes",
            "payments",
            topic_name("payments", "cardId"),
        )
        restored = TaskProcessor.restore(
            checkpoint, STREAM, [METRIC, second_metric]
        )
        replies = restored.process(1, _event(1, amount=9.0))
        assert replies[0]["count(*)"] == 2
        assert replies[7]["max(amount)"] == 9.0
