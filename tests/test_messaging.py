"""Messaging layer tests: bus, consumer, group membership, installed assignments."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import MessagingError
from repro.common.timesource import ManualClock
from repro.messaging import Consumer, GroupCoordinator, MessageBus, TopicPartition


@pytest.fixture()
def world():
    clock = ManualClock()
    bus = MessageBus()
    bus.create_topic("t", partitions=4)
    coordinator = GroupCoordinator(session_timeout_ms=5_000)
    return clock, bus, coordinator


def _joined(world, member_id="m1", topics=("t",)):
    """A subscribed consumer that owns every partition of ``topics``."""
    clock, bus, coordinator = world
    consumer = Consumer(bus, coordinator, "g", member_id, clock)
    consumer.subscribe(topics)
    coordinator.tick(clock.now())
    coordinator.set_assignment(
        "g", {member_id: {tp for topic in topics for tp in bus.topic_partitions(topic)}}
    )
    return consumer


def _polled_values(consumer, max_records):
    return [
        message.value
        for _tp, messages in consumer.poll_batches(max_records)
        for message in messages
    ]


class TestBus:
    def test_keyed_routing_is_sticky(self, world):
        _, bus, _ = world
        partitions = {bus.publish("t", "key-A", i, 0)[0] for i in range(20)}
        assert len(partitions) == 1

    def test_unkeyed_routing_round_robins(self, world):
        _, bus, _ = world
        partitions = {bus.publish("t", None, i, 0)[0] for i in range(8)}
        assert len(partitions) == 4

    def test_offsets_monotonic_per_partition(self, world):
        _, bus, _ = world
        tp, first = bus.publish("t", "k", "a", 0)
        _, second = bus.publish("t", "k", "b", 0)
        assert second == first + 1
        messages = bus.read(tp, first, 10)
        assert [m.value for m in messages] == ["a", "b"]

    def test_topic_growth_allowed_shrink_rejected(self, world):
        _, bus, _ = world
        bus.create_topic("t", partitions=6)
        assert bus.partitions_for("t") == 6
        with pytest.raises(MessagingError):
            bus.create_topic("t", partitions=2)

    def test_unknown_topic(self, world):
        _, bus, _ = world
        with pytest.raises(MessagingError):
            bus.publish("nope", "k", 1, 0)

    def test_committed_offsets_per_group(self, world):
        _, bus, _ = world
        tp = TopicPartition("t", 0)
        bus.commit_offset("g1", tp, 5)
        assert bus.committed_offset("g1", tp) == 5
        assert bus.committed_offset("g2", tp) == 0


class TestConsumerFlow:
    def test_poll_reads_assigned_partitions(self, world):
        clock, bus, _ = world
        consumer = _joined(world)
        for i in range(40):
            bus.publish("t", f"k{i}", i, clock.now())
        values = []
        while True:
            batches = consumer.poll_batches(16)
            if not batches:
                break
            for tp, messages in batches:
                assert [m.offset for m in messages] == list(
                    range(messages[0].offset, messages[-1].offset + 1)
                )
                values.extend(m.value for m in messages)
        assert sorted(values) == list(range(40))

    def test_seek_rewinds(self, world):
        clock, bus, _ = world
        consumer = _joined(world)
        tp, _ = bus.publish("t", "k", "v", clock.now())
        assert _polled_values(consumer, 10) == ["v"]
        consumer.seek(tp, 0)
        assert _polled_values(consumer, 10) == ["v"]

    def test_commit_and_lag(self, world):
        clock, bus, _ = world
        consumer = _joined(world)
        for i in range(10):
            bus.publish("t", "k", i, clock.now())

        def lag():
            return sum(
                bus.end_offset(tp) - consumer.position(tp) for tp in consumer.assignment()
            )

        assert lag() == 10
        consumer.poll_batches(100)
        assert lag() == 0
        consumer.commit()
        # All messages went to key "k"'s partition; its committed offset
        # (group-scoped) must have advanced.
        assert any(
            bus.committed_offset("g", tp) > 0 for tp in consumer.assignment()
        )

    def test_double_subscribe_rejected(self, world):
        clock, bus, coordinator = world
        consumer = Consumer(bus, coordinator, "g", "m1", clock)
        consumer.subscribe(["t"])
        with pytest.raises(MessagingError):
            consumer.subscribe(["t"])

    def test_close_leaves_group(self, world):
        clock, bus, coordinator = world
        consumer = Consumer(bus, coordinator, "g", "m1", clock)
        consumer.subscribe(["t"])
        coordinator.tick(clock.now())
        consumer.close()
        assert coordinator.members_of("g") == []


def _split(partitions, members):
    """Deal ``partitions`` over ``members`` round-robin, as an authority would."""
    assignment = {member: set() for member in members}
    for index, tp in enumerate(partitions):
        assignment[members[index % len(members)]].add(tp)
    return assignment


class TestGroupSemantics:
    """Membership and fencing; every assignment comes from ``set_assignment``."""

    def test_exactly_one_owner_per_partition(self, world):
        clock, bus, coordinator = world
        consumers = [Consumer(bus, coordinator, "g", f"m{i}", clock) for i in range(3)]
        for consumer in consumers:
            consumer.subscribe(["t"])
        coordinator.tick(clock.now())
        assert all(not consumer.assignment() for consumer in consumers)
        coordinator.set_assignment(
            "g", _split(bus.topic_partitions("t"), [c.member_id for c in consumers])
        )
        owned = [tp for consumer in consumers for tp in consumer.assignment()]
        assert sorted(owned, key=str) == sorted(bus.topic_partitions("t"), key=str)
        assert len(owned) == len(set(owned))

    def test_more_members_than_partitions(self, world):
        clock, bus, coordinator = world
        consumers = [Consumer(bus, coordinator, "g", f"m{i}", clock) for i in range(6)]
        for consumer in consumers:
            consumer.subscribe(["t"])
        coordinator.tick(clock.now())
        coordinator.set_assignment(
            "g", _split(bus.topic_partitions("t"), [c.member_id for c in consumers[:4]])
        )
        empty = [c for c in consumers if not c.assignment()]
        assert len(empty) == 2  # 4 partitions, 6 members
        assert coordinator.members_of("g") == sorted(c.member_id for c in consumers)

    def test_heartbeat_expiry_triggers_rebalance(self, world):
        clock, bus, coordinator = world
        notified = []
        coordinator.external_authority = notified.append
        alive = Consumer(bus, coordinator, "g", "alive", clock)
        dead = Consumer(bus, coordinator, "g", "dead", clock)
        alive.subscribe(["t"])
        dead.subscribe(["t"])
        coordinator.tick(clock.now())
        coordinator.set_assignment("g", _split(bus.topic_partitions("t"), ["alive", "dead"]))
        kept = alive.assignment()
        assert len(kept) == 2
        notified.clear()
        clock.advance(6_000)
        alive.heartbeat()
        coordinator.tick(clock.now())
        assert not dead.is_member()
        assert notified == ["g"]
        assert alive.assignment() == kept  # the survivor keeps its installed set
        coordinator.set_assignment("g", {"alive": set(bus.topic_partitions("t"))})
        assert len(alive.assignment()) == 4

    def test_generation_increments_on_rebalance(self, world):
        clock, bus, coordinator = world
        consumer = Consumer(bus, coordinator, "g", "m1", clock)
        consumer.subscribe(["t"])
        coordinator.tick(clock.now())
        first = coordinator.generation_of("g")
        other = Consumer(bus, coordinator, "g", "m2", clock)
        other.subscribe(["t"])
        coordinator.tick(clock.now())
        assert coordinator.generation_of("g") > first

    def test_fenced_consumer_polls_nothing(self, world):
        clock, bus, coordinator = world
        consumer = _joined(world)
        bus.publish("t", "k", "v", clock.now())
        clock.advance(10_000)
        coordinator.tick(clock.now())  # expired
        assert consumer.poll_batches(10) == []
        assert consumer.assignment() == []

    def test_rejoin_after_expiry(self, world):
        clock, bus, coordinator = world
        consumer = _joined(world)
        clock.advance(10_000)
        coordinator.tick(clock.now())
        assert not consumer.is_member()
        consumer.rejoin(["t"])
        coordinator.tick(clock.now())
        assert consumer.is_member()
        assert consumer.assignment() == []  # nothing until the authority installs
        coordinator.set_assignment("g", {"m1": set(bus.topic_partitions("t"))})
        assert len(consumer.assignment()) == 4

    def test_update_subscription(self, world):
        clock, bus, coordinator = world
        bus.create_topic("t2", partitions=2)
        consumer = _joined(world, topics=("t", "t2"))
        assert {tp.topic for tp in consumer.assignment()} == {"t", "t2"}
        consumer.update_subscription(["t"])
        coordinator.tick(clock.now())
        # The rebalance keeps only partitions of subscribed topics.
        assert {tp.topic for tp in consumer.assignment()} == {"t"}

    def test_duplicate_join_rejected(self, world):
        clock, bus, coordinator = world
        coordinator.join("g", "m1", ["t"], clock.now())
        with pytest.raises(MessagingError):
            coordinator.join("g", "m1", ["t"], clock.now())


class TestAssignors:
    """The coordinator installs the authority's assignments and keeps
    them sticky across membership rebalances: survivors keep their sets,
    and nothing moves until the authority installs again."""

    def _group(self, world, members):
        clock, bus, coordinator = world
        for member in members:
            coordinator.join("g", member, ["t"], clock.now())
        coordinator.tick(clock.now())
        installed = _split(bus.topic_partitions("t"), members)
        coordinator.set_assignment("g", installed)
        return installed

    def test_sticky_preserves_ownership(self, world):
        clock, _, coordinator = world
        installed = self._group(world, ["a", "b"])
        coordinator.join("g", "c", ["t"], clock.now())
        coordinator.tick(clock.now())
        for member in ("a", "b"):
            assert coordinator.assignment_of("g", member) == installed[member]
        assert coordinator.assignment_of("g", "c") == set()

    def test_sticky_moves_minimum_on_member_loss(self, world):
        clock, _, coordinator = world
        installed = self._group(world, ["a", "b", "c"])
        coordinator.leave("g", "c")
        coordinator.tick(clock.now())
        for member in ("a", "b"):
            assert coordinator.assignment_of("g", member) == installed[member]
        assert coordinator.members_of("g") == ["a", "b"]

    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=8),
        st.data(),
    )
    @settings(max_examples=50)
    def test_sticky_properties(self, partition_count, member_count, data):
        clock = ManualClock()
        bus = MessageBus()
        bus.create_topic("t", partitions=partition_count)
        coordinator = GroupCoordinator(session_timeout_ms=5_000)
        members = [f"m{i}" for i in range(member_count)]
        installed = self._group((clock, bus, coordinator), members)
        leaving = data.draw(st.sets(st.sampled_from(members)))
        for member in leaving:
            coordinator.leave("g", member)
        coordinator.tick(clock.now())
        survivors = [m for m in members if m not in leaving]
        assert coordinator.members_of("g") == sorted(survivors)
        owned = [tp for m in survivors for tp in coordinator.assignment_of("g", m)]
        assert len(owned) == len(set(owned))
        for member in survivors:
            assert coordinator.assignment_of("g", member) == installed[member]

    def test_set_assignment_rejects_duplicates(self, world):
        clock, bus, coordinator = world
        coordinator.join("g", "m1", ["t"], clock.now())
        coordinator.join("g", "m2", ["t"], clock.now())
        tp = TopicPartition("t", 0)
        with pytest.raises(MessagingError):
            coordinator.set_assignment("g", {"m1": {tp}, "m2": {tp}})

    def test_set_assignment_rejects_unknown_member(self, world):
        clock, bus, coordinator = world
        coordinator.join("g", "m1", ["t"], clock.now())
        with pytest.raises(MessagingError):
            coordinator.set_assignment("g", {"ghost": {TopicPartition("t", 0)}})
