"""The durable segmented log store: format, recovery, truncation.

Covers the disk layer bottom-up:

- segment/record framing round-trips, sparse-index reads, segment rolls;
- **torn-write fuzz**: the active segment truncated at *every* byte
  boundary, and corrupted at every byte, must reopen to exactly the
  prefix of whole records — no exception, no torn record surfaced;
- checkpoint-aware truncation (``truncate_below``) and consistent-cut
  rollback (``truncate_to``);
- the value codec (events, envelopes, DDL ops) and the ``DurableBus``
  reopen path (topics, logs, committed offsets, ``messages_published``).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import Phase, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.common import serde
from repro.common.storage import FileStorage, MemoryStorage
from repro.engine.catalog import (
    AddPartitionerOp,
    CreateMetricOp,
    CreateStreamOp,
    DeleteMetricOp,
    EvolveSchemaOp,
    MetricDef,
    StreamDef,
)
from repro.engine.envelope import EventEnvelope, ReplyEnvelope
from repro.events.event import Event
from repro.messaging.durable import (
    DurableBus,
    DurableLog,
    read_cut,
    read_payload,
    write_cut,
    write_payload,
)
from repro.messaging.log import TopicPartition
from repro.messaging.segments import FsyncPolicy, SegmentConfig, SegmentedLog

TP = TopicPartition("tx.cardId", 0)


def small_config(**overrides) -> SegmentConfig:
    defaults = dict(
        segment_bytes=400, flush_bytes=64, index_interval=4,
        fsync=FsyncPolicy.BATCH,
    )
    defaults.update(overrides)
    return SegmentConfig(**defaults)


class TestSegmentedLog:
    def test_append_read_roundtrip_across_segments(self, tmp_path):
        log = SegmentedLog(FileStorage(str(tmp_path / "log")), small_config())
        payloads = [f"payload-{i:04d}".encode() for i in range(100)]
        for index, payload in enumerate(payloads):
            assert log.append(payload) == index
        log.flush()
        assert len(log.segment_spans()) > 1  # rolled at least once
        assert [p for _, p in log.records(0)] == payloads
        # Mid-stream reads hit the sparse index, not a full scan.
        assert [p for _, p in log.records(73)] == payloads[73:]
        assert [p for _, p in log.records(73, max_records=5)] == payloads[73:78]

    def test_reopen_recovers_counts_and_contents(self, tmp_path):
        root = str(tmp_path / "log")
        log = SegmentedLog(FileStorage(root), small_config())
        for i in range(57):
            log.append(f"r{i}".encode())
        log.close()
        reopened = SegmentedLog(FileStorage(root), small_config())
        assert reopened.end_offset == 57
        assert [p for _, p in reopened.records(50)] == [
            f"r{i}".encode() for i in range(50, 57)
        ]
        # Appends continue at the recovered end offset.
        assert reopened.append(b"next") == 57

    def test_index_is_advisory(self, tmp_path):
        root = str(tmp_path / "log")
        log = SegmentedLog(FileStorage(root), small_config())
        for i in range(40):
            log.append(f"r{i}".encode())
        log.close()
        for name in os.listdir(root):
            if name.endswith(".idx"):
                os.remove(os.path.join(root, name))
        reopened = SegmentedLog(FileStorage(root), small_config())
        assert [p for _, p in reopened.records(31)] == [
            f"r{i}".encode() for i in range(31, 40)
        ]

    def test_truncate_below_deletes_whole_segments_only(self, tmp_path):
        log = SegmentedLog(FileStorage(str(tmp_path / "log")), small_config())
        for i in range(100):
            log.append(f"r{i}".encode())
        log.flush()
        spans = log.segment_spans()
        target = spans[2][0] + 1  # inside the third segment
        start = log.truncate_below(target)
        assert start == spans[2][0]  # partial segments survive whole
        assert [o for o, _ in log.records(0)][0] == start
        # Records at and above the offset are always retained.
        assert dict(log.records(target))[target] == f"r{target}".encode()
        # Disk agrees: the deleted segments' files are gone.
        bases = sorted(
            int(name[4:-4])
            for name in os.listdir(str(tmp_path / "log"))
            if name.endswith(".log")
        )
        assert bases[0] == start

    def test_truncate_to_rolls_back_the_tail(self, tmp_path):
        root = str(tmp_path / "log")
        log = SegmentedLog(FileStorage(root), small_config())
        for i in range(90):
            log.append(f"r{i}".encode())
        log.flush()
        log.truncate_to(41)
        assert log.end_offset == 41
        assert [o for o, _ in log.records(38)] == [38, 39, 40]
        assert log.append(b"new") == 41
        log.flush()
        reopened = SegmentedLog(FileStorage(root), small_config())
        records = dict(reopened.records(0))
        assert records[41] == b"new" and max(records) == 41

    def test_truncate_to_segment_boundary_and_zero(self, tmp_path):
        log = SegmentedLog(FileStorage(str(tmp_path / "log")), small_config())
        for i in range(60):
            log.append(f"r{i}".encode())
        log.flush()
        boundary = log.segment_spans()[1][0]
        log.truncate_to(boundary)
        assert log.end_offset == boundary
        log.truncate_to(0)
        assert log.end_offset == 0
        assert log.append(b"fresh") == 0


def _frame_ends(data: bytes) -> list[int]:
    """End positions of the complete frames inside ``data``."""
    ends = []
    position = 0
    while position < len(data):
        crc, after = serde.read_u32(data, position)
        length, body_start = serde.read_varint(data, after)
        end = body_start + length
        if end > len(data):
            break
        ends.append(end)
        position = end
    return ends


class TestTornWriteFuzz:
    """Truncate/corrupt a live segment at every byte boundary."""

    def build(self, tmp_path):
        cfg = small_config(segment_bytes=4096)  # one (active) segment
        root = str(tmp_path / "log")
        log = SegmentedLog(FileStorage(root), cfg)
        payloads = [f"record-{i:03d}-{'x' * (i % 7)}".encode() for i in range(24)]
        for payload in payloads:
            log.append(payload)
        log.close()
        (seg_file,) = [
            os.path.join(root, name)
            for name in os.listdir(root)
            if name.endswith(".log")
        ]
        with open(seg_file, "rb") as handle:
            original = handle.read()
        return cfg, root, payloads, seg_file, original

    def test_truncation_at_every_byte_boundary(self, tmp_path):
        cfg, root, payloads, seg_file, original = self.build(tmp_path)
        ends = _frame_ends(original)
        for cut in range(len(original) + 1):
            with open(seg_file, "wb") as handle:
                handle.write(original[:cut])
            reopened = SegmentedLog(FileStorage(root), cfg)
            expected = sum(1 for end in ends if end <= cut)
            recovered = [payload for _, payload in reopened.records(0)]
            assert recovered == payloads[:expected], f"cut at byte {cut}"
            assert reopened.end_offset == expected
            # The file itself was truncated to the last whole record.
            assert os.path.getsize(seg_file) == (
                ends[expected - 1] if expected else 0
            )

    def test_corruption_at_every_byte(self, tmp_path):
        cfg, root, payloads, seg_file, original = self.build(tmp_path)
        ends = _frame_ends(original)
        for position in range(len(original)):
            corrupted = bytearray(original)
            corrupted[position] ^= 0x5A
            with open(seg_file, "wb") as handle:
                handle.write(bytes(corrupted))
            reopened = SegmentedLog(FileStorage(root), cfg)
            # Recovery stops at the frame containing the flipped byte:
            # exactly the frames wholly before it survive.
            expected = sum(1 for end in ends if end <= position)
            recovered = [payload for _, payload in reopened.records(0)]
            assert recovered == payloads[:expected], f"flip at byte {position}"

    def test_torn_append_after_recovery_continues_cleanly(self, tmp_path):
        cfg, root, payloads, seg_file, original = self.build(tmp_path)
        with open(seg_file, "wb") as handle:
            handle.write(original[:-3])  # torn final record
        reopened = SegmentedLog(FileStorage(root), cfg)
        offset = reopened.append(b"after-recovery")
        assert offset == len(payloads) - 1  # replaces the torn record
        reopened.flush()
        final = SegmentedLog(FileStorage(root), cfg)
        assert dict(final.records(0))[offset] == b"after-recovery"


class SegmentedLogMachine(RuleBasedStateMachine):
    """``SegmentedLog`` over ``MemoryStorage`` against a list of
    payloads. Segments of a few records, a two-record index interval and
    payloads of varied length make rolls, index seeks, retention and
    rollbacks collide constantly."""

    @initialize(policy=st.sampled_from(list(FsyncPolicy)))
    def open(self, policy):
        self.config = SegmentConfig(
            segment_bytes=64, flush_bytes=24, index_interval=2, fsync=policy
        )
        self.storage = MemoryStorage()
        self.log = SegmentedLog(self.storage, self.config)
        self.model = []  # payload per offset
        #: the rollback primitives (truncate_to, torn-tail recovery)
        #: sync the segment they cut under every policy, NEVER included.
        self.rollback_syncs = 0

    @rule(payloads=st.lists(st.binary(max_size=12), min_size=1, max_size=8))
    def append(self, payloads):
        for payload in payloads:
            assert self.log.append(payload) == len(self.model)
            self.model.append(payload)

    @rule()
    def flush(self):
        self.log.flush()

    @rule(data=st.data())
    def truncate_below(self, data):
        target = data.draw(st.integers(0, len(self.model) + 2))
        spans = self.log.segment_spans()
        # Whole segments below the target go; the active one never does.
        expected = next((base for base, end in spans[:-1] if end > target), spans[-1][0])
        assert self.log.truncate_below(target) == expected

    @rule(data=st.data())
    def truncate_to(self, data):
        target = data.draw(st.integers(self.log.start_offset, len(self.model)))
        bases = {base for base, _ in self.log.segment_spans()}
        if target < len(self.model) and target not in bases:
            self.rollback_syncs += 1  # the cut lands inside a segment
        self.log.truncate_to(target)
        del self.model[target:]

    @rule()
    def reopen(self):
        self.log.close()
        self.log = SegmentedLog(self.storage, self.config)

    @rule(data=st.data())
    def tear_the_tail(self, data):
        """Crash mid-write: cut inside the active segment's last frame."""
        self.log.flush()
        name = "seg-%020d.log" % self.log.segment_spans()[-1][0]
        frames = list(serde.iter_frames(self.storage.read_all(name)))
        if not frames:
            return
        start, end, _ = frames[-1]
        self.storage.truncate(name, data.draw(st.integers(start + 1, end - 1)))
        self.log = SegmentedLog(self.storage, self.config)  # no close: a crash
        self.model.pop()
        self.rollback_syncs += 1

    @invariant()
    def records_match_the_model(self):
        start = self.log.start_offset
        assert self.log.end_offset == len(self.model)
        assert list(self.log.records(0)) == list(enumerate(self.model))[start:]
        for offset in range(start, len(self.model)):  # every index seek
            assert list(self.log.records(offset, 1)) == [(offset, self.model[offset])]

    @invariant()
    def syncs_follow_the_policy(self):
        syncs = self.storage.stats.syncs
        if self.config.fsync is FsyncPolicy.NEVER:
            assert self.log.fsyncs == 0
            assert syncs == self.rollback_syncs
        else:
            assert syncs >= self.log.fsyncs + self.rollback_syncs
        if self.config.fsync is FsyncPolicy.ALWAYS:
            assert self.log.fsyncs >= self.log.appends


MACHINE_SETTINGS = settings(max_examples=100, stateful_step_count=50, deadline=None)
TestSegmentedLogMachine = SegmentedLogMachine.TestCase
TestSegmentedLogMachine.settings = MACHINE_SETTINGS


class TestSegmentedLogMachineCatchesMutants:
    """The machine is only worth its run time if it fails on the
    retention and rollback bugs it exists for."""

    HUNT = settings(
        MACHINE_SETTINGS, max_examples=400, derandomize=True, database=None,
        phases=[Phase.generate], report_multiple_bugs=False,
    )

    def test_truncate_to_keeping_the_stale_index(self, monkeypatch):
        truncate = SegmentedLog._truncate_active_at

        def keep_index(log, end_offset):
            log._remove_index = lambda: None
            try:
                truncate(log, end_offset)
            finally:
                del log._remove_index

        monkeypatch.setattr(SegmentedLog, "_truncate_active_at", keep_index)
        with pytest.raises(AssertionError):
            run_state_machine_as_test(SegmentedLogMachine, settings=self.HUNT)

    def test_truncate_below_one_past_the_offset(self, monkeypatch):
        truncate_below = SegmentedLog.truncate_below
        monkeypatch.setattr(
            SegmentedLog, "truncate_below", lambda log, offset: truncate_below(log, offset + 1)
        )
        with pytest.raises(AssertionError):
            run_state_machine_as_test(SegmentedLogMachine, settings=self.HUNT)


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            -42,
            3.5,
            "text",
            b"bytes",
            ("unit-1", "node-0", "tx.cardId-0", 17),
            Event("e1", 123, {"cardId": "c1", "amount": 4.5, "flag": None}),
            EventEnvelope(
                "tx", Event("e2", 5, {"k": 1}), "node-0", 77, 2
            ),
            ReplyEnvelope(
                9, "e3", TP, {0: {"sum(amount)": 10.0, "count(*)": 3}}
            ),
            CreateStreamOp(
                StreamDef("tx", (("cardId", "string"),), ("cardId",), 4)
            ),
            CreateMetricOp(MetricDef(1, "SELECT count(*) FROM tx", "tx", "t", True)),
            DeleteMetricOp(3),
            EvolveSchemaOp("tx", (("country", "string"),)),
            AddPartitionerOp("tx", "country"),
            CreateMetricOp(
                MetricDef(2, "SELECT count(*) FROM tx", "tx", "t"),
                ((TP, 40), (TopicPartition("tx.cardId", 1), 0)),
            ),
        ],
    )
    def test_roundtrip(self, value):
        buf = bytearray()
        write_payload(buf, value)
        decoded, end = read_payload(memoryview(bytes(buf)), 0)
        assert decoded == value
        assert end == len(buf)

    #: DDL payloads exactly as commit a2a7e7d (the last one with a
    #: hand-written op codec) wrote them to the operations log.
    PARENT_OPS = [
        (
            b"\x05\x02tx\x02\x06cardId\x06string\x06amount\x05float"
            b"\x02\x06cardId\x07__all__\x04",
            CreateStreamOp(
                StreamDef(
                    "tx",
                    (("cardId", "string"), ("amount", "float")),
                    ("cardId", "__all__"),
                    4,
                )
            ),
        ),
        (b"\x07\x07", DeleteMetricOp(7)),
        (b"\x08\x02tx\x01\x07country\x06string",
         EvolveSchemaOp("tx", (("country", "string"),))),
        (b"\t\x02tx\x07country", AddPartitionerOp("tx", "country")),
    ]
    #: tag 6: a metric op without its activation cuts (the layout that
    #: dropped them); no longer written, must stay readable.
    PARENT_METRIC = (
        b"\x06\x03>SELECT count(*) FROM tx GROUP BY cardId OVER sliding 5 "
        b"minutes\x02tx\ttx.cardId\x01"
    )

    def test_parent_written_ops_keep_decoding(self):
        for payload, op in self.PARENT_OPS:
            assert read_payload(memoryview(payload), 0) == (op, len(payload))
            buf = bytearray()
            write_payload(buf, op)
            assert bytes(buf) == payload
        metric = MetricDef(
            3,
            "SELECT count(*) FROM tx GROUP BY cardId OVER sliding 5 minutes",
            "tx",
            "tx.cardId",
            True,
        )
        decoded, end = read_payload(memoryview(self.PARENT_METRIC), 0)
        assert decoded == CreateMetricOp(metric, activations=())
        assert end == len(self.PARENT_METRIC)
        buf = bytearray()
        write_payload(buf, decoded)
        assert buf[0] == 10 and buf[1:-1] == self.PARENT_METRIC[1:]


class TestDurableLog:
    def test_reopen_rebuilds_messages(self, tmp_path):
        root = str(tmp_path / "tp")
        log = DurableLog(TP, root, config=small_config())
        events = [Event(f"e{i}", i, {"amount": float(i)}) for i in range(30)]
        for index, event in enumerate(events):
            assert log.append(index, event, event.timestamp) == index
        log.close()
        reopened = DurableLog(TP, root, config=small_config())
        assert reopened.end_offset == 30
        message = reopened.read(12, 1)[0]
        assert message.offset == 12 and message.key == 12
        assert message.value == events[12]

    def test_reads_clamp_to_retention_start(self, tmp_path):
        log = DurableLog(TP, str(tmp_path / "tp"), config=small_config())
        for i in range(80):
            log.append(None, ("v", i), i)
        start = log.truncate_below(50)
        assert 0 < start <= 50
        records = log.read(0, 10)
        assert records[0].offset == start
        assert log.read(60, 3)[0].value == ("v", 60)


class TestConsistentCut:
    def test_cut_roundtrip_and_missing(self, tmp_path):
        root = str(tmp_path)
        storage = FileStorage(root)
        assert read_cut(storage) == (0, {})
        write_cut(storage, 7, {TP: 31})
        assert read_cut(storage) == (7, {TP: 31})
        write_cut(storage, 9, {TP: 40})  # atomically replaced
        assert read_cut(storage) == (9, {TP: 40})
        assert storage.list() == ["cut.meta"]  # no tmp left behind

    def test_torn_cut_is_ignored(self, tmp_path):
        root = str(tmp_path)
        storage = FileStorage(root)
        write_cut(storage, 7, {TP: 31})
        path = os.path.join(root, "cut.meta")
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 2)
        assert read_cut(storage) == (0, {})


class TestDurableBus:
    def test_reopen_recovers_topics_logs_and_commits(self, tmp_path):
        root = str(tmp_path / "bus")
        bus = DurableBus(root, segment_bytes=512)
        bus.create_topic("tx.cardId", 2)
        bus.create_topic("__operations", 1)
        for i in range(60):
            bus.publish(
                "tx.cardId", f"c{i % 5}",
                Event(f"e{i}", i, {"cardId": f"c{i % 5}"}), i,
            )
        bus.commit_offset("railgun-active", TP, 11)
        bus.close()

        reopened = DurableBus(root)
        assert reopened.recovered
        assert reopened.partitions_for("tx.cardId") == 2
        assert reopened.partitions_for("__operations") == 1
        total = sum(
            reopened.end_offset(tp)
            for tp in reopened.topic_partitions("tx.cardId")
        )
        assert total == 60
        assert reopened.committed_offset("railgun-active", TP) == 11
        assert reopened.messages_published == 60
        # DDL re-runs against a recovered bus are no-ops, not duplicates.
        reopened.create_topic("tx.cardId", 2)
        third = DurableBus(root)
        assert third.partitions_for("tx.cardId") == 2

    def test_truncate_below_bounds_disk(self, tmp_path):
        root = str(tmp_path / "bus")
        bus = DurableBus(root, segment_bytes=512)
        bus.create_topic("tx.cardId", 1)
        for i in range(300):
            bus.publish("tx.cardId", None, ("r", i), i)
        bus.flush()
        before = bus.disk_bytes()
        bus.truncate_below({TP: 250})
        after = bus.disk_bytes()
        assert after < before
        spans = bus.segment_spans()[TP]
        assert spans[0][0] > 0
        # Every completed segment reaches past the truncation offset.
        assert all(end > 250 for _, end in spans[:-1])

    def test_unsupported_value_is_rejected(self, tmp_path):
        from repro.common.errors import MessagingError

        bus = DurableBus(str(tmp_path / "bus"))
        bus.create_topic("t", 1)
        with pytest.raises(MessagingError):
            bus.publish("t", None, object(), 1)
