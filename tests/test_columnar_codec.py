"""The column rows of the shard links — ``WorkBatch``, ``BatchDone``
and ``BackfillRecords`` through :mod:`repro.shard.columnar`'s codecs in
:data:`repro.shard.wire.TABLE`: round trips (as a property too), the
tag bytes seen on the supervisor pipes and the frontend↔worker data
sockets, hostile row counts, and the wire tag table.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import serde
from repro.common.errors import SerdeError
from repro.events.event import Event
from repro.messaging.log import TopicPartition
from repro.shard import columnar, wire


def _random_event(rng: random.Random, index: int) -> Event:
    shapes = [
        ("cardId", "amount"),
        ("cardId", "amount", "country"),
        ("amount",),
        (),
    ]
    values = [
        lambda: rng.randrange(-(2**63), 2**63),
        lambda: rng.random() * 1e6,
        lambda: "v" * rng.randrange(0, 12),
        lambda: "naïve-ünicode-" + str(rng.randrange(100)),
        lambda: None,
        lambda: rng.random() < 0.5,
        lambda: rng.randbytes(5),
    ]
    fields = {
        name: rng.choice(values)() for name in rng.choice(shapes)
    }
    return Event(f"ev-{index}", rng.randrange(0, 2**40), fields)


class TestColumnarCodec:
    def test_work_batch_roundtrip_fuzz(self):
        rng = random.Random(1234)
        for round_index in range(30):
            tp = TopicPartition(f"t{round_index % 3}", rng.randrange(4))
            records = [
                (100 + i, _random_event(rng, i))
                for i in range(rng.randrange(0, 40))
            ]
            msg = wire.WorkBatch(tp, rng.randrange(0, 200), records)
            decoded = wire.decode(wire.encode(msg))
            assert decoded == msg
            # Field insertion order survives (dict order is semantic).
            for (_, original), (_, copy) in zip(msg.records, decoded.records):
                assert list(original._fields) == list(copy._fields)
                assert [type(v) for v in original._fields.values()] == [
                    type(v) for v in copy._fields.values()
                ]

    def test_batch_done_roundtrip_fuzz(self):
        rng = random.Random(99)
        for round_index in range(30):
            replies = []
            for i in range(rng.randrange(0, 30)):
                if rng.random() < 0.2:
                    replies.append((200 + i, None))
                    continue
                results = {
                    metric_id: {
                        "sum(amount)": rng.random(),
                        "count(*)": rng.randrange(1000),
                    }
                    for metric_id in range(rng.randrange(1, 4))
                }
                replies.append((200 + i, results))
            msg = wire.BatchDone(
                TopicPartition("t", 0), 500, len(replies), replies
            )
            assert wire.decode(wire.encode(msg)) == msg

    def test_non_batch_messages_pass_through(self):
        msg = wire.DrainRequest(7)
        assert columnar.decode(columnar.encode(msg)) == msg

    def test_columnar_frames_interoperate_with_wire_frames(self):
        """``columnar.encode``/``decode`` (the bench ladder's names) are
        wire's own entry points: one codec, one frame per message."""
        assert columnar.encode is wire.encode
        assert columnar.decode is wire.decode

    def test_backfill_records_roundtrip(self):
        rng = random.Random(5)
        entries = [(40 + i, _random_event(rng, i)) for i in range(20)]
        msg = wire.BackfillRecords(TopicPartition("t", 2), 40, entries, 32, 90)
        frame = wire.encode(msg)
        assert frame[0] == wire.MSG_BACKFILL_RECORDS
        assert wire.decode(frame) == msg


# -- round trips, as a property -----------------------------------------------

_FIELD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),  # beyond i64 too
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.binary(max_size=6),
)
_SHAPES = st.sampled_from(
    [(), ("amount",), ("cardId", "amount"), ("amount", "cardId"), ("a", "b", "c")]
)
#: contiguous runs, gapped runs, and gapped offsets past i64 (refused)
_OFFSETS = st.one_of(
    st.builds(lambda first, n: list(range(first, first + n)),
              st.integers(0, 2**40), st.integers(0, 12)),
    st.lists(st.integers(0, 2**66), max_size=12),
)
_TRACE = st.none() | st.tuples(
    st.text(max_size=6),
    st.lists(
        st.tuples(st.text(max_size=6), st.floats(allow_nan=False)), max_size=3
    ).map(tuple),
)
_TP = st.builds(TopicPartition, st.text(max_size=5), st.integers(0, 7))


@st.composite
def _work_batches(draw):
    offsets = draw(_OFFSETS)
    # Few shapes and few value kinds per batch, so one batch holds both
    # pure (packed) and mixed (tagged) columns.
    shapes = draw(st.lists(_SHAPES, min_size=1, max_size=3))
    events = [
        Event(
            draw(st.text(max_size=6)),
            draw(st.integers(0, 2**40) | st.integers(2**63, 2**66)),
            {name: draw(_FIELD_VALUES) for name in draw(st.sampled_from(shapes))},
        )
        for _ in offsets
    ]
    return wire.WorkBatch(
        draw(_TP), draw(st.integers(0, 2**40)),
        list(zip(offsets, events)), draw(_TRACE),
    )


@st.composite
def _batch_dones(draw):
    offsets = draw(_OFFSETS)
    results = st.none() | st.dictionaries(
        st.integers(-1, 4),  # a negative metric id is an encode error
        st.dictionaries(
            st.sampled_from(["sum(a)", "count(*)", "max(a)"]), _FIELD_VALUES,
            max_size=3,
        ),
        max_size=3,
    )
    return wire.BatchDone(
        draw(_TP), draw(st.integers(0, 2**40)), draw(st.integers(0, 2**20)),
        [(offset, draw(results)) for offset in offsets],
        draw(_TRACE), draw(st.none() | st.binary(max_size=12)),
    )


def _typed(value):
    """``value`` with every scalar paired with its exact type (``1``,
    ``1.0`` and ``True`` compare equal; the codecs must not swap them)."""
    if isinstance(value, Event):
        return ("Event", value.event_id, value.timestamp, _typed(value._fields))
    if isinstance(value, dict):
        return [(_typed(k), _typed(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_typed(v) for v in value]
    return (type(value).__name__, value)


def _representable(offsets, metric_ids=()) -> bool:
    """What the column rows refuse: a gapped offset run outside i64, a
    negative metric id."""
    contiguous = bool(offsets) and offsets[0] >= 0 and offsets == list(
        range(offsets[0], offsets[0] + len(offsets))
    )
    in_i64 = all(-(2**63) <= offset < 2**63 for offset in offsets)
    return (contiguous or in_i64) and all(m >= 0 for m in metric_ids)


def _assert_round_trip(msg, representable: bool) -> None:
    """Same decoded value and exact types — or, for a message the rows
    cannot carry, a ``SerdeError`` on encode."""
    if not representable:
        with pytest.raises(SerdeError):
            wire.encode(msg)
        return
    decoded = wire.decode(wire.encode(msg))
    assert _typed(dataclasses.astuple(decoded)) == _typed(dataclasses.astuple(msg))


class TestColumnRowsRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(_work_batches())
    def test_work_batch(self, msg):
        offsets = [offset for offset, _ in msg.records]
        _assert_round_trip(msg, _representable(offsets))

    @settings(max_examples=150, deadline=None)
    @given(_batch_dones())
    def test_batch_done(self, msg):
        offsets = [offset for offset, _ in msg.replies]
        metric_ids = [m for _, results in msg.replies for m in results or ()]
        _assert_round_trip(msg, _representable(offsets, metric_ids))


class TestHostileCounts:
    """A frame from outside (the front door decodes every client frame
    with ``wire.decode``) may claim any row count: the readers refuse a
    count the frame cannot hold before sizing a list from it."""

    TP = TopicPartition("t", 0)

    @staticmethod
    def _frame(tag: int, *parts) -> bytes:
        """The tag, the TP, then each part: an int as a varint, bytes
        as themselves."""
        buf = bytearray((tag,))
        wire.TP.write(buf, TestHostileCounts.TP)
        for part in parts:
            if isinstance(part, int):
                serde.write_varint(buf, part)
            else:
                buf += part
        return bytes(buf)

    @staticmethod
    def _refused(frame: bytes, match: str) -> None:
        tracemalloc.start()
        try:
            with pytest.raises(SerdeError, match=match):
                wire.decode(frame)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @pytest.mark.parametrize("count", [2**16 + 1, 2**40, 2**62])
    def test_reply_count_past_the_cap(self, count):
        # next_offset, processed, count, offsets contiguous from 0, one
        # group of ``count`` None rows: a few bytes claiming them all.
        frame = self._frame(
            wire.MSG_BATCH_DONE, 0, 0, count, b"\x01", 0, 1, count, b"\x00"
        )
        self._refused(frame, "exceeds the frame")

    def test_reply_group_larger_than_its_batch(self):
        # Three replies, one group claiming 2**40 rows of one metric
        # without columns.
        frame = self._frame(
            wire.MSG_BATCH_DONE, 0, 0, 3, b"\x01", 0, 1, 2**40, b"\x01", 1, 0, 0
        )
        self._refused(frame, "reply group")

    @pytest.mark.parametrize("count", [64, 2**16, 2**40])
    def test_record_count_past_the_frame(self, count):
        # reply_from, count, offsets contiguous from 0, and no columns.
        frame = self._frame(wire.MSG_WORK_BATCH, 0, count, b"\x01", 0)
        self._refused(frame, "exceeds the frame")

    def test_encoders_refuse_what_readers_refuse(self):
        replies = [(i, None) for i in range(columnar.MAX_ROWS + 1)]
        with pytest.raises(SerdeError):
            wire.encode(wire.BatchDone(self.TP, 0, len(replies), replies))
        replies.pop()
        done = wire.BatchDone(self.TP, 0, len(replies), replies)
        assert wire.decode(wire.encode(done)) == done


#: the per-field WorkBatch / BatchDone / BackfillRecords tags
RETIRED_BATCH_TAGS = {6, 16, 42}


class TestOneCodecOnEveryLink:
    """The supervisor pipes and the frontend↔worker data sockets carry
    the same column rows."""

    @staticmethod
    def _tags_sent(monkeypatch, tmp_path, **topology):
        """Run a small cluster with every ``Connection.send_bytes`` in
        every (forked) process logging ``<process name> <tag byte>``;
        returns ``{process name: {tags it sent}}``."""
        from multiprocessing.connection import Connection

        from repro.engine.cluster import create_cluster

        log = tmp_path / "frames.log"
        original = Connection.send_bytes

        def send_bytes(self, buf, *args):
            with open(log, "ab") as handle:
                name = multiprocessing.current_process().name
                handle.write(f"{name} {buf[0]}\n".encode())
            return original(self, buf, *args)

        monkeypatch.setattr(Connection, "send_bytes", send_bytes)
        with create_cluster("process", **topology) as cluster:
            cluster.create_stream(
                "tx", ["cardId"], partitions=4,
                schema={"cardId": "string", "amount": "float"},
            )
            cluster.create_metric(
                "SELECT sum(amount) FROM tx GROUP BY cardId OVER sliding 5 minutes"
            )
            replies = cluster.send_batch(
                "tx", [{"cardId": f"c{i % 5}", "amount": 1.0} for i in range(40)]
            )
            assert len(replies) == 40
        sent: dict[str, set[int]] = {}
        for line in log.read_text().splitlines():
            name, tag = line.rsplit(" ", 1)
            sent.setdefault(name, set()).add(int(tag))
        return sent

    def test_supervisor_pipe(self, monkeypatch, tmp_path):
        sent = self._tags_sent(monkeypatch, tmp_path, workers=2)
        workers = set().union(
            *(tags for name, tags in sent.items() if name.startswith("railgun-shard"))
        )
        assert wire.MSG_WORK_BATCH in sent["MainProcess"]
        assert wire.MSG_BATCH_DONE in workers
        everyone = set().union(*sent.values())
        assert not everyone & RETIRED_BATCH_TAGS

    def test_frontend_worker_data_sockets(self, monkeypatch, tmp_path):
        sent = self._tags_sent(monkeypatch, tmp_path, workers=2, frontends=2)
        frontends = set().union(
            *(tags for name, tags in sent.items() if name.startswith("railgun-fe"))
        )
        workers = set().union(
            *(tags for name, tags in sent.items() if name.startswith("railgun-shard"))
        )
        # Work leaves the frontends (never the router, whose supervisor
        # pipes carry control only) and comes back from the workers.
        assert wire.MSG_WORK_BATCH in frontends
        assert wire.MSG_WORK_BATCH not in sent["MainProcess"]
        assert wire.MSG_BATCH_DONE in workers
        everyone = set().union(*sent.values())
        assert not everyone & RETIRED_BATCH_TAGS


def test_wire_tags_are_unique_and_retired_ones_stay_retired():
    """First brick of the golden-bytes gate: the tag bytes themselves."""
    tags = {
        name: value for name, value in vars(wire).items() if name.startswith("MSG_")
    }
    assert len(set(tags.values())) == len(tags), sorted(tags.items())
    assert not any(name.startswith("MSG_") for name in vars(columnar))
    # Retired, never reassigned: 6/16/42 the per-field batch rows, 7/17
    # the whole-file checkpoint pair, 27/28 the removed shared-memory
    # ring transport (ShmHello / ShmDoorbell).
    retired = {6, 7, 16, 17, 27, 28, 42}
    assert not retired & set(tags.values())
    for tag in sorted(retired):
        with pytest.raises(SerdeError):
            wire.decode(bytes((tag,)))
