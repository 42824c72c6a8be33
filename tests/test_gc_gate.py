"""The data path makes no reference cycles.

``TaskProcessor.checkpoint`` freezes everything alive out of the cyclic
collector's reach after its barrier (``gc.freeze()``). That reclaims
nothing less only while the steady-state data path creates no cyclic
garbage — everything it drops must die by reference counting. These
tests pin that: with the collector off and ``DEBUG_SAVEALL`` on, a
collection after steady and messy traffic across several checkpoints
finds no unreachable object at all.
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.engine import create_cluster
from repro.engine.catalog import MetricDef, StreamDef
from repro.engine.processor import UnitConfig
from repro.engine.task import TaskProcessor
from repro.events.event import Event
from repro.messaging.log import TopicPartition
from repro.reservoir.reservoir import ReservoirConfig
# imported up front: the enum classes its imports build are cyclic, and
# the fixture's baseline collection must clear them before a count.
from repro.server.server import serve_cluster  # noqa: F401
from repro.shard import wire

#: the three windows and six aggregations of the bench's FRAUD3 set
FRAUD3 = (
    "SELECT sum(amount), count(*) FROM tx GROUP BY cardId OVER sliding 5 minutes",
    "SELECT avg(amount), max(amount) FROM tx GROUP BY cardId OVER sliding 1 minutes",
    "SELECT min(amount), stddev(amount) FROM tx GROUP BY cardId OVER sliding 20 minutes",
)
SCHEMA = {"cardId": "string", "amount": "float"}


class Traffic:
    """100 ms of event time per event over 300 cards; messy traffic
    re-sends 2 %, stamps 10 % late and ties 20 % to their predecessor."""

    def __init__(self, seed: int, messy: bool) -> None:
        self._rng = random.Random(seed)
        self._messy = messy
        self._index = 0
        self._sent: list[Event] = []

    def take(self, count: int) -> list[Event]:
        rng, events = self._rng, []
        for _ in range(count):
            index = self._index
            self._index += 1
            stamp = 10_000 + index * 100
            if self._messy and self._sent:
                draw = rng.random()
                if draw < 0.02:
                    events.append(rng.choice(self._sent[-64:]))
                    continue
                if draw < 0.12:
                    stamp -= rng.randint(1, 5_000)
                elif draw < 0.32:
                    stamp = self._sent[-1].timestamp
            event = Event(
                f"g{index}", stamp,
                {"cardId": f"card-{rng.randrange(300)}", "amount": rng.uniform(1, 500)},
            )
            events.append(event)
            self._sent.append(event)
        return events


@pytest.fixture
def cyclic_garbage(monkeypatch):
    """Counts what a collection finds unreachable, with the collector
    off and nothing frozen (a freeze would hide earlier garbage from
    the count: the barrier's freezes are recorded instead). Restores
    the collector's state afterwards."""
    freezes: list[int] = []
    monkeypatch.setattr(gc, "freeze", lambda: freezes.append(1))
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)

    def collect() -> int:
        gc.collect()
        found = len(gc.garbage)
        gc.garbage.clear()
        return found

    try:
        yield collect, freezes
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if enabled:
            gc.enable()


@pytest.mark.parametrize("messy", [False, True], ids=["steady", "messy"])
def test_single_cluster_data_path_makes_no_cycles(cyclic_garbage, messy):
    collect, freezes = cyclic_garbage
    cluster = create_cluster(
        "single", unit_config=UnitConfig(reservoir=ReservoirConfig(cache_capacity=4))
    )
    cluster.create_stream("tx", ["cardId"], partitions=4, schema=SCHEMA)
    for query in FRAUD3:
        cluster.create_metric(query)
    traffic = Traffic(seed=5, messy=messy)
    for _ in range(4):  # windows full and expiring before the count starts
        cluster.send_batch("tx", traffic.take(256))
    collect()
    freezes.clear()
    for _ in range(16):
        replies = cluster.send_batch("tx", traffic.take(256))
        assert len(replies) == 256
    del replies
    # 4 096 events over 4 partitions at one checkpoint per 200 messages
    assert len(freezes) >= 16
    assert collect() == 0


@pytest.mark.parametrize("messy", [False, True], ids=["steady", "messy"])
def test_worker_batches_make_no_cycles(cyclic_garbage, messy):
    # The shard worker's path: columnar-decoded WorkBatch records into a
    # bare task processor, a checkpoint per batch.
    collect, freezes = cyclic_garbage
    tp = TopicPartition("tx.cardId", 0)
    stream = StreamDef("tx", tuple(SCHEMA.items()), ("cardId",), 1)
    processor = TaskProcessor.build(
        tp, stream, [MetricDef(i, q, "tx", tp.topic, False) for i, q in enumerate(FRAUD3)]
    )
    traffic = Traffic(seed=9, messy=messy)
    offset = 0

    def ship(count: int) -> None:
        nonlocal offset
        records = list(enumerate(traffic.take(count), start=offset))
        offset += count
        frame = wire.encode(wire.WorkBatch(tp, 0, records))
        del records
        batch = wire.decode(frame)
        assert len(processor.process_batch(batch.records)) == count
        processor.checkpoint()

    for _ in range(8):
        ship(256)
    collect()
    freezes.clear()
    for _ in range(16):
        ship(256)
    assert len(freezes) == 16
    assert collect() == 0


def test_a_dropped_task_processor_makes_no_cycles(cyclic_garbage):
    # A revoked, replaced or shadow task processor is dropped while the
    # barrier has frozen it: it must die by reference counting alone.
    collect, _ = cyclic_garbage
    tp = TopicPartition("tx.cardId", 0)
    stream = StreamDef("tx", tuple(SCHEMA.items()), ("cardId",), 1)
    processor = TaskProcessor.build(
        tp, stream, [MetricDef(i, q, "tx", tp.topic, False) for i, q in enumerate(FRAUD3)]
    )
    records = list(enumerate(Traffic(seed=13, messy=True).take(2_048)))
    processor.process_batch(records)
    restored = TaskProcessor.restore(
        processor.checkpoint(), stream,
        [MetricDef(i, q, "tx", tp.topic, False) for i, q in enumerate(FRAUD3)],
    )
    restored.process_batch(records[-64:])
    collect()
    del processor, restored
    assert collect() == 0


def test_a_dropped_single_cluster_makes_no_cycles(cyclic_garbage):
    # An application may drop an engine without close() after a barrier
    # has frozen it: the whole cluster (bus, nodes, units, task
    # processors) must die by reference counting alone.
    collect, _ = cyclic_garbage
    cluster = create_cluster(
        "single", unit_config=UnitConfig(reservoir=ReservoirConfig(cache_capacity=4))
    )
    cluster.create_stream("tx", ["cardId"], partitions=4, schema=SCHEMA)
    for query in FRAUD3:
        cluster.create_metric(query)
    traffic = Traffic(seed=17, messy=False)
    for _ in range(8):
        assert len(cluster.send_batch("tx", traffic.take(256))) == 256
    collect()
    del cluster
    assert collect() == 0


def test_a_closed_served_single_cluster_makes_no_cycles(cyclic_garbage):
    # The front door holds the cluster and the cluster its server handle:
    # close() stops the server and drops the handle, so a closed, served
    # engine still dies by reference counting alone.
    collect, _ = cyclic_garbage
    cluster = create_cluster("single", serve="tcp://127.0.0.1:0")
    cluster.create_stream("tx", ["cardId"], partitions=4, schema=SCHEMA)
    for query in FRAUD3:
        cluster.create_metric(query)
    assert len(cluster.send_batch("tx", Traffic(seed=19, messy=False).take(256))) == 256
    cluster.close()
    collect()
    del cluster
    assert collect() == 0
