"""Shared-memory data plane units: rings, columnar codec, quarantine.

The cluster-level equivalence of ``transport="shm"`` is covered by the
transport-parametrized suites (``test_shard_runtime``,
``test_sharded_frontends``, ``test_batch_equivalence``); this module
pins the building blocks — the SPSC ring's wraparound and backpressure
contracts, heartbeat-based peer policing, the columnar WorkBatch /
BatchDone codec (every transport's batch encoding: equal to the wire
reference codec as a property, and the tag bytes seen on socket links)
— and the frontend's quarantine-on-stale-heartbeat state transition in
isolation.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.timesource import default_time_source
from repro.events.event import Event
from repro.messaging.log import TopicPartition
from repro.shard import columnar, shm, wire
from repro.shard.router import FrontendEngine
from repro.shard.shm import ShmError, ShmPeerDead, ShmRing


@pytest.fixture
def ring_pair():
    name = shm.ring_name("rgshm-test")
    producer = ShmRing.create("producer", slot_count=8, slot_bytes=64, name=name)
    consumer = ShmRing.attach(name, "consumer")
    yield producer, consumer
    consumer.close()
    producer.close(unlink=True)


class TestShmRing:
    def test_roundtrip_and_wraparound(self, ring_pair):
        """Frames of every size cross the byte-level wrap intact."""
        producer, consumer = ring_pair
        rng = random.Random(7)
        outstanding: list[bytes] = []
        for _ in range(1000):
            # Keep lag under capacity so the single-threaded driver
            # never blocks; sizes span sub-slot to multi-slot frames.
            payload = rng.randbytes(rng.randrange(0, 150))
            producer.send(payload, timeout=1.0)
            outstanding.append(payload)
            # Max 2 frames x 3 slots in flight fits the 8-slot ring.
            while len(outstanding) > 1:
                assert consumer.try_recv() == outstanding.pop(0)
        assert consumer.drain() == outstanding
        assert consumer.try_recv() is None

    def test_full_ring_blocks_producer_no_drop(self, ring_pair):
        """Backpressure: a full ring blocks the producer; nothing drops."""
        producer, consumer = ring_pair
        payloads = [bytes([i]) * 40 for i in range(8)]  # one slot each
        for payload in payloads:
            producer.send(payload)
        with pytest.raises(ShmError):
            producer.send(b"overflow", timeout=0.05)
        # A concurrent consumer unblocks the same send, and every frame
        # (including the one that was blocked) arrives in order.
        received: list[bytes] = []

        def consume():
            def drain():
                frame = consumer.try_recv()
                if frame is not None:
                    received.append(frame)
                return len(received) >= 9

            default_time_source().wait_until(drain, timeout=5.0, poll=0.001)

        thread = threading.Thread(target=consume)
        thread.start()
        producer.send(b"overflow", timeout=5.0)
        thread.join()
        assert received == payloads + [b"overflow"]

    def test_oversized_frame_rejected(self, ring_pair):
        producer, _ = ring_pair
        with pytest.raises(ShmError):
            producer.send(b"x" * (8 * 64))

    def test_peer_closed_fails_send(self, ring_pair):
        producer, consumer = ring_pair
        consumer.close()
        with pytest.raises(ShmPeerDead):
            producer.send(b"into the void")

    def test_stale_heartbeat_detected(self, ring_pair):
        producer, consumer = ring_pair
        consumer.beat()
        assert not producer.peer_stale(10.0)
        assert producer.peer_stale(
            0.01, now_ns=default_time_source().monotonic_ns() + int(0.05 * 1e9)
        )

    def test_unattached_peer_is_never_stale(self):
        """Heartbeat zero means "never attached", not "stale" — link
        setup has its own timeout."""
        name = shm.ring_name("rgshm-test")
        producer = ShmRing.create(
            "producer", slot_count=8, slot_bytes=64, name=name
        )
        try:
            assert producer.peer_heartbeat_ns() == 0
            assert not producer.peer_stale(0.0)
        finally:
            producer.close(unlink=True)

    def test_crc_rejects_corruption(self, ring_pair):
        producer, consumer = ring_pair
        producer.send(b"A" * 50)
        # Flip a payload byte behind the producer's back.
        consumer._buf[shm.HEADER_BYTES + 20] ^= 0xFF
        with pytest.raises(ShmError):
            consumer.try_recv()

    def test_sweep_and_orphans(self):
        name = shm.ring_name("rgshm-orphtest")
        ring = ShmRing.create("producer", name=name)
        ring.close(unlink=False)  # leak deliberately
        assert name in shm.orphans("rgshm-orphtest")
        assert shm.sweep("rgshm-orphtest") == [name]
        assert shm.orphans("rgshm-orphtest") == []


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
            decoded = columnar.decode(columnar.encode(msg))
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
            assert columnar.decode(columnar.encode(msg)) == msg

    def test_non_batch_messages_pass_through(self):
        msg = wire.ShmHello("a-work", "a-reply")
        assert columnar.decode(columnar.encode(msg)) == msg

    def test_columnar_frames_interoperate_with_wire_frames(self):
        """decode() dispatches on the tag byte, so both encodings coexist."""
        msg = wire.WorkBatch(
            TopicPartition("t", 1), 0, [(0, Event("e", 1, {"k": 1}))]
        )
        assert columnar.decode(wire.encode(msg)) == msg
        assert wire.decode(wire.encode(msg)) == columnar.decode(
            columnar.encode(msg)
        )


# -- columnar == wire, as a property ------------------------------------------

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
#: contiguous runs, gapped runs and offsets/timestamps only wire can carry
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


def _through(codec, msg):
    try:
        decoded = codec.decode(codec.encode(msg))
    except Exception as exc:  # the failure is part of the contract
        return type(exc).__name__
    return _typed(dataclasses.astuple(decoded))


class TestColumnarEqualsWire:
    """The link codec and the reference codec agree on every message —
    same decoded value and types, or the same refusal."""

    @settings(max_examples=150, deadline=None)
    @given(_work_batches())
    def test_work_batch(self, msg):
        assert _through(columnar, msg) == _through(wire, msg)

    @settings(max_examples=150, deadline=None)
    @given(_batch_dones())
    def test_batch_done(self, msg):
        assert _through(columnar, msg) == _through(wire, msg)


class TestOneCodecOnEveryLink:
    """Socket links carry the same columnar frames the rings do."""

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
        with create_cluster("process", transport="socket", **topology) as cluster:
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
        assert columnar.MSG_WORK_BATCH_COLUMNAR in sent["MainProcess"]
        assert columnar.MSG_BATCH_DONE_COLUMNAR in workers
        everyone = set().union(*sent.values())
        assert not everyone & {wire.MSG_WORK_BATCH, wire.MSG_BATCH_DONE}

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
        assert columnar.MSG_WORK_BATCH_COLUMNAR in frontends
        assert columnar.MSG_WORK_BATCH_COLUMNAR not in sent["MainProcess"]
        assert columnar.MSG_BATCH_DONE_COLUMNAR in workers
        everyone = set().union(*sent.values())
        assert not everyone & {wire.MSG_WORK_BATCH, wire.MSG_BATCH_DONE}


class TestFrontendQuarantine:
    def test_stale_worker_link_is_quarantined(self):
        """A worker that stops beating is treated like a dead socket."""
        engine = FrontendEngine("fe-test", transport="shm")
        name_work = shm.ring_name("rgshm-quart")
        name_reply = shm.ring_name("rgshm-quart")
        work = ShmRing.create("producer", name=name_work)
        reply = ShmRing.create("consumer", name=name_reply)
        # The "worker" attaches and beats once, then goes silent.
        worker_work = ShmRing.attach(name_work, "consumer")
        worker_reply = ShmRing.attach(name_reply, "producer")
        worker_work.beat()
        worker_reply.beat()
        conn, other = multiprocessing.Pipe()
        engine.rings["w-0"] = (work, reply)
        engine.conns["w-0"] = conn
        engine.outstanding["w-0"] = 1
        try:
            engine.drain_rings(stale_after=60.0)
            assert "w-0" not in engine.down
            default_time_source().sleep(0.05)
            engine.drain_rings(stale_after=0.01)
            assert "w-0" in engine.down
            assert "w-0" not in engine.conns
            assert "w-0" not in engine.rings
            assert engine.outstanding["w-0"] == 0
        finally:
            worker_work.close()
            worker_reply.close()
            other.close()
            shm.sweep("rgshm-quart")

    def test_closed_peer_is_quarantined(self):
        engine = FrontendEngine("fe-test", transport="shm")
        name_work = shm.ring_name("rgshm-quart2")
        name_reply = shm.ring_name("rgshm-quart2")
        work = ShmRing.create("producer", name=name_work)
        reply = ShmRing.create("consumer", name=name_reply)
        worker_work = ShmRing.attach(name_work, "consumer")
        worker_work.close()  # worker shut down cleanly
        conn, other = multiprocessing.Pipe()
        engine.rings["w-0"] = (work, reply)
        engine.conns["w-0"] = conn
        try:
            engine.drain_rings()
            assert "w-0" in engine.down
        finally:
            other.close()
            shm.sweep("rgshm-quart2")


def test_hello_for_rings_already_torn_down_is_a_dead_link(tmp_path):
    """A frontend that re-dials tears its fresh rings down before the
    worker reads the first ``ShmHello`` (chaos seed 9108): the worker
    must drop that link, not die in ``ShmRing.attach``."""
    from multiprocessing.connection import Client

    from repro.shard.worker import shard_worker_main

    ctx = multiprocessing.get_context("fork")
    control, child = ctx.Pipe(duplex=True)
    addr = str(tmp_path / "w.sock")
    process = ctx.Process(
        target=shard_worker_main, args=(child, "shard-0", None, addr), daemon=True
    )
    process.start()
    child.close()
    try:
        control.send_bytes(wire.encode(wire.CheckpointRequest(1, False, ())))
        assert control.poll(10.0)  # the listener is bound once this answers
        control.recv_bytes()
        link = Client(addr, family="AF_UNIX")
        link.send_bytes(
            wire.encode(wire.ShmHello("rgshm-gone-work", "rgshm-gone-reply"))
        )
        assert link.poll(10.0)
        with pytest.raises(EOFError):
            link.recv_bytes()  # hung up on: the link was dropped
        link.close()
        control.send_bytes(wire.encode(wire.CheckpointRequest(2, False, ())))
        assert control.poll(10.0)
        ack = wire.decode(control.recv_bytes())
        assert isinstance(ack, wire.CheckpointAck) and ack.request_id == 2
        assert process.is_alive()
    finally:
        control.send_bytes(wire.encode(wire.Shutdown()))
        process.join(timeout=10.0)
        alive = process.is_alive()
        if alive:
            process.kill()
        control.close()
    assert not alive


def test_add_partitioner_router_regression():
    """``ClusterRouter.add_partitioner`` used to NameError on the
    (unimported) ``validate_new_partitioner`` helper."""
    from repro.engine.cluster import create_cluster

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
