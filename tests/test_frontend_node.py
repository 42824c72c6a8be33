"""Front-end and node-level tests (Figure 3 steps 1-2 and 5-6)."""

import pytest

from repro.common.errors import EngineError
from repro.common.timesource import ManualClock
from repro.engine.catalog import (
    CreateStreamOp,
    OPERATIONS_TOPIC,
    StreamDef,
)
from repro.engine.envelope import EventEnvelope
from repro.engine.frontend import FrontEnd
from repro.engine import RailgunCluster
from repro.events.event import Event
from repro.messaging.broker import MessageBus


def _world():
    clock = ManualClock(1)
    bus = MessageBus()
    bus.create_topic(OPERATIONS_TOPIC, 1)
    stream = StreamDef(
        "payments",
        (("cardId", "string"), ("merchantId", "string"), ("amount", "float")),
        ("cardId", "merchantId"),
        partitions=2,
    )
    bus.create_topic("payments.cardId", 2)
    bus.create_topic("payments.merchantId", 2)
    bus.publish(OPERATIONS_TOPIC, None, CreateStreamOp(stream), clock.now())
    frontend = FrontEnd("n1", bus, clock)
    return clock, bus, frontend


class TestFanOut:
    def test_event_published_to_every_partitioner_topic(self):
        _, bus, frontend = _world()
        frontend.send_batch(
            "payments",
            [Event("e1", 10, {"cardId": "c1", "merchantId": "m1", "amount": 1.0})],
        )
        card_total = sum(
            bus.end_offset(tp) for tp in bus.topic_partitions("payments.cardId")
        )
        merchant_total = sum(
            bus.end_offset(tp) for tp in bus.topic_partitions("payments.merchantId")
        )
        assert card_total == 1
        assert merchant_total == 1

    def test_envelope_carries_fanout_and_origin(self):
        _, bus, frontend = _world()
        frontend.send_batch(
            "payments",
            [Event("e1", 10, {"cardId": "c1", "merchantId": "m1", "amount": 1.0})],
        )
        tp = next(
            tp for tp in bus.topic_partitions("payments.cardId")
            if bus.end_offset(tp) > 0
        )
        envelope = bus.read(tp, 0, 1)[0].value
        assert isinstance(envelope, EventEnvelope)
        assert envelope.fanout == 2
        assert envelope.origin_node == "n1"

    def test_unknown_stream_rejected(self):
        _, _, frontend = _world()
        with pytest.raises(EngineError):
            frontend.send_batch("ghost", [Event("e", 1, {})])

    def test_schema_validated_at_entry(self):
        from repro.common.errors import SchemaError

        _, _, frontend = _world()
        with pytest.raises(SchemaError):
            frontend.send_batch("payments", [Event("e", 1, {"bogus": 1})])


    def test_invalid_event_rejects_the_whole_batch(self):
        """A schema-invalid event at position k used to leave events
        0..k-1 published and pending, with no caller waiting for them."""
        from repro.common.errors import SchemaError

        _, bus, frontend = _world()
        good = {"cardId": "c1", "merchantId": "m1", "amount": 1.0}
        batch = [
            Event("e0", 10, good),
            Event("e1", 11, good),
            Event("e2", 12, dict(good, amount="NaN")),
            Event("e3", 13, good),
        ]
        published = bus.messages_published
        with pytest.raises(SchemaError):
            frontend.send_batch("payments", batch)
        assert not frontend.pending
        assert frontend.events_received == 0
        assert bus.messages_published == published
        for topic in ("payments.cardId", "payments.merchantId"):
            assert all(
                bus.end_offset(tp) == 0 for tp in bus.topic_partitions(topic)
            )
        # ...and the frontend is unharmed: the valid events go through.
        assert frontend.send_batch("payments", batch[:2]) == [0, 1]

    @pytest.mark.parametrize(
        "topology",
        [
            {"execution": "single"},
            {"execution": "process", "workers": 2},
            {"execution": "process", "workers": 2, "frontends": 2},
        ],
        ids=["single", "process", "process-2f"],
    )
    def test_rejected_batch_reaches_no_task_on_any_topology(self, topology):
        from repro.common.errors import SchemaError
        from repro.engine import create_cluster

        cluster = create_cluster(**topology)
        try:
            cluster.create_stream(
                "tx", ["cardId"], partitions=2,
                schema={"cardId": "string", "amount": "float"},
            )
            cluster.create_metric(
                "SELECT count(*) FROM tx GROUP BY cardId OVER sliding 5 minutes"
            )
            good = [
                Event(f"e{i}", 1_000 + i, {"cardId": "c1", "amount": 1.0})
                for i in range(4)
            ]
            bad = Event("bad", 1_004, {"cardId": "c1", "amount": "1.0"})
            with pytest.raises(SchemaError):
                cluster.send_batch("tx", [*good[:2], bad, *good[2:]])
            if "frontends" in topology:
                assert not cluster.pending  # the router's own fan-in table
            # Had e0/e1 been published, they would dedup away here and
            # the counts would stop at 2.
            replies = cluster.send_batch("tx", good)
            counts = [
                value
                for reply in replies
                for columns in reply.results.values()
                for value in columns.values()
            ]
            assert counts == [1, 2, 3, 4]
        finally:
            cluster.close()


class TestFanIn:
    """Task replies reach the frontend in process, through its inbox."""

    def test_reply_completes_after_all_tasks_answer(self):
        clock, bus, frontend = _world()
        (correlation,) = frontend.send_batch(
            "payments",
            [Event("e1", 10, {"cardId": "c1", "merchantId": "m1", "amount": 1.0})],
        )
        frontend.inbox.append((correlation, "payments.cardId", {0: {"count(*)": 1}}))
        assert frontend.poll_replies() == []
        assert correlation in frontend.pending
        frontend.inbox.append(
            (correlation, "payments.merchantId", {1: {"avg(amount)": 1.0}})
        )
        completed = frontend.poll_replies()
        assert len(completed) == 1
        assert completed[0].results == {0: {"count(*)": 1}, 1: {"avg(amount)": 1.0}}
        assert not frontend.inbox

    def test_duplicate_replies_ignored(self):
        # A topic answering twice (a replayed reply) must not stand in
        # for the topic still owed: the request completes only once
        # every topic answered, with every topic's results.
        clock, bus, frontend = _world()
        (correlation,) = frontend.send_batch(
            "payments",
            [Event("e1", 10, {"cardId": "c1", "merchantId": "m1", "amount": 1.0})],
        )
        for _ in range(2):
            frontend.inbox.append(
                (correlation, "payments.cardId", {0: {"count(*)": 1}})
            )
        assert frontend.poll_replies() == []
        frontend.inbox.append((correlation, "payments.merchantId", {1: {"count(*)": 1}}))
        frontend.inbox.append((correlation, "payments.cardId", {0: {"count(*)": 1}}))
        completed = frontend.poll_replies()
        assert len(completed) == 1
        assert completed[0].results == {0: {"count(*)": 1}, 1: {"count(*)": 1}}
        assert not frontend.pending

    def test_latency_measured_from_send(self):
        clock, bus, frontend = _world()
        (correlation,) = frontend.send_batch(
            "payments",
            [Event("e1", 10, {"cardId": "c1", "merchantId": "m1", "amount": 1.0})],
        )
        clock.advance(25)
        for topic in ("payments.cardId", "payments.merchantId"):
            frontend.inbox.append((correlation, topic, {}))
        completed = frontend.poll_replies()
        assert completed[0].latency_ms == 25


class TestNodeLifecycle:
    def test_dead_node_does_no_work(self):
        cluster = RailgunCluster(nodes=2, processor_units=1)
        cluster.create_stream(
            "s", partitioners=["k"], partitions=2, schema=[("k", "string")]
        )
        cluster.create_metric("SELECT count(*) FROM s GROUP BY k OVER infinite")
        cluster.kill_node("node-1")
        node = cluster.nodes["node-1"]
        assert node.pump() == 0

    def test_reply_struct_helpers(self):
        cluster = RailgunCluster(nodes=1, processor_units=1)
        cluster.create_stream(
            "s", partitioners=["k"], partitions=1, schema=[("k", "string")]
        )
        metric = cluster.create_metric("SELECT count(*) FROM s GROUP BY k OVER infinite")
        reply = cluster.send("s", {"k": "a"}, timestamp=5)
        assert reply.metric(metric) == {"count(*)": 1}
        assert reply.value(metric, "count(*)") == 1
        assert reply.value(99, "missing") is None
        assert reply.stream == "s"

    def test_send_requires_fields_or_event(self):
        cluster = RailgunCluster(nodes=1, processor_units=1)
        with pytest.raises(EngineError):
            cluster.send("s")

    def test_cluster_requires_nodes(self):
        with pytest.raises(EngineError):
            RailgunCluster(nodes=0)

    def test_node_requires_units(self):
        with pytest.raises(ValueError):
            RailgunCluster(nodes=1, processor_units=0)
