"""End-to-end cluster tests: routing, correctness, failure handling."""

import math
import random

import pytest
from bench.gen import Traffic
from bench.workloads import FRAUD3

from repro.common.errors import EngineError
from repro.common.timesource import MINUTES
from repro.engine import RailgunCluster, create_cluster
from repro.engine.processor import UnitConfig


def _cluster(**kwargs):
    defaults = dict(nodes=2, processor_units=2, replication_factor=1)
    defaults.update(kwargs)
    return RailgunCluster(**defaults)


def _payments(cluster, partitioners=("cardId",), partitions=4, **kwargs):
    cluster.create_stream(
        "payments",
        partitioners=list(partitioners),
        partitions=partitions,
        schema=[
            ("cardId", "string"),
            ("merchantId", "string"),
            ("amount", "float"),
            ("channel", "string"),
        ],
        **kwargs,
    )


class TestBasicFlow:
    def test_single_event_reply(self):
        cluster = _cluster()
        _payments(cluster)
        metric = cluster.create_metric(
            "SELECT sum(amount) FROM payments GROUP BY cardId OVER sliding 5 minutes"
        )
        reply = cluster.send(
            "payments",
            {"cardId": "c1", "merchantId": "m1", "amount": 7.0, "channel": "pos"},
            timestamp=1_000,
        )
        assert reply.value(metric, "sum(amount)") == 7.0

    def test_windowed_correctness_against_brute_force(self):
        cluster = _cluster()
        _payments(cluster)
        metric = cluster.create_metric(
            "SELECT sum(amount), count(*) FROM payments "
            "GROUP BY cardId OVER sliding 5 minutes"
        )
        rng = random.Random(3)
        history = []
        ts = 0
        for i in range(60):
            ts += rng.randrange(1, 60_000)
            card = f"c{rng.randrange(3)}"
            amount = float(rng.randrange(1, 50))
            reply = cluster.send(
                "payments",
                {"cardId": card, "merchantId": "m", "amount": amount, "channel": "pos"},
                timestamp=ts,
            )
            history.append((ts, card, amount))
            window = [
                (t, c, a) for t, c, a in history
                if c == card and t > ts - 5 * MINUTES
            ]
            assert reply.value(metric, "count(*)") == len(window)
            assert reply.value(metric, "sum(amount)") == pytest.approx(
                sum(a for _, _, a in window)
            )

    def test_multi_partitioner_fanout(self):
        cluster = _cluster()
        _payments(cluster, partitioners=("cardId", "merchantId"))
        card_metric = cluster.create_metric(
            "SELECT count(*) FROM payments GROUP BY cardId OVER sliding 5 minutes"
        )
        merchant_metric = cluster.create_metric(
            "SELECT avg(amount) FROM payments GROUP BY merchantId OVER sliding 5 minutes"
        )
        cluster.send(
            "payments",
            {"cardId": "c1", "merchantId": "m1", "amount": 10.0, "channel": "pos"},
            timestamp=1_000,
        )
        reply = cluster.send(
            "payments",
            {"cardId": "c2", "merchantId": "m1", "amount": 20.0, "channel": "pos"},
            timestamp=2_000,
        )
        assert reply.value(card_metric, "count(*)") == 1  # c2's first event
        assert reply.value(merchant_metric, "avg(amount)") == pytest.approx(15.0)

    def test_metric_without_groupby_needs_global_partitioner(self):
        cluster = _cluster()
        _payments(cluster, with_global_partitioner=True)
        metric = cluster.create_metric(
            "SELECT count(*) FROM payments OVER sliding 5 minutes"
        )
        for i in range(3):
            reply = cluster.send(
                "payments",
                {"cardId": f"c{i}", "merchantId": "m", "amount": 1.0, "channel": "pos"},
                timestamp=(i + 1) * 1_000,
            )
        assert reply.value(metric, "count(*)") == 3

    def test_filtered_metric(self):
        cluster = _cluster()
        _payments(cluster)
        metric = cluster.create_metric(
            "SELECT count(*) FROM payments WHERE channel == 'ecom' "
            "GROUP BY cardId OVER sliding 5 minutes"
        )
        cluster.send(
            "payments",
            {"cardId": "c1", "merchantId": "m", "amount": 1.0, "channel": "ecom"},
            timestamp=1_000,
        )
        reply = cluster.send(
            "payments",
            {"cardId": "c1", "merchantId": "m", "amount": 1.0, "channel": "pos"},
            timestamp=2_000,
        )
        assert reply.value(metric, "count(*)") == 1

    def test_round_robin_over_frontends(self):
        cluster = _cluster()
        _payments(cluster)
        cluster.create_metric(
            "SELECT count(*) FROM payments GROUP BY cardId OVER sliding 5 minutes"
        )
        for i in range(4):
            cluster.send(
                "payments",
                {"cardId": "c", "merchantId": "m", "amount": 1.0, "channel": "pos"},
                timestamp=(i + 1) * 1_000,
            )
        received = [node.frontend.events_received for node in cluster.alive_nodes()]
        assert all(count > 0 for count in received)


class TestDDL:
    def test_duplicate_stream_rejected(self):
        cluster = _cluster()
        _payments(cluster)
        with pytest.raises(EngineError):
            _payments(cluster)

    def test_unknown_stream_metric_rejected(self):
        cluster = _cluster()
        with pytest.raises(EngineError):
            cluster.create_metric("SELECT count(*) FROM ghost OVER infinite")

    def test_partitioner_must_be_schema_field(self):
        cluster = _cluster()
        with pytest.raises(EngineError):
            cluster.create_stream(
                "s", partitioners=["nope"], schema=[("a", "int")]
            )

    def test_metric_fields_validated(self):
        cluster = _cluster()
        _payments(cluster)
        with pytest.raises(EngineError):
            cluster.create_metric(
                "SELECT sum(ghost) FROM payments GROUP BY cardId OVER infinite"
            )
        with pytest.raises(EngineError):
            cluster.create_metric(
                "SELECT count(*) FROM payments GROUP BY ghost OVER infinite"
            )
        with pytest.raises(EngineError):
            cluster.create_metric(
                "SELECT count(*) FROM payments WHERE ghost > 1 "
                "GROUP BY cardId OVER infinite"
            )

    def test_metric_needs_matching_partitioner(self):
        from repro.common.errors import QueryError

        cluster = _cluster()
        _payments(cluster)  # partitioner: cardId only
        with pytest.raises(QueryError):
            cluster.create_metric(
                "SELECT count(*) FROM payments GROUP BY merchantId OVER infinite"
            )

    def test_subset_partitioner_routing(self):
        cluster = _cluster()
        _payments(cluster)
        # group by card+merchant can ride the card topic (§4).
        metric = cluster.create_metric(
            "SELECT count(*) FROM payments GROUP BY cardId, merchantId OVER infinite"
        )
        assert cluster.catalog.metrics[metric].topic == "payments.cardId"

    def test_delete_metric(self):
        cluster = _cluster()
        _payments(cluster)
        metric = cluster.create_metric(
            "SELECT count(*) FROM payments GROUP BY cardId OVER sliding 5 minutes"
        )
        cluster.delete_metric(metric)
        reply = cluster.send(
            "payments",
            {"cardId": "c", "merchantId": "m", "amount": 1.0, "channel": "pos"},
            timestamp=1_000,
        )
        assert reply.metric(metric) == {}

    def test_add_partitioner_later(self):
        cluster = _cluster()
        _payments(cluster)
        cluster.add_partitioner("payments", "merchantId")
        metric = cluster.create_metric(
            "SELECT count(*) FROM payments GROUP BY merchantId OVER sliding 5 minutes"
        )
        reply = cluster.send(
            "payments",
            {"cardId": "c", "merchantId": "m1", "amount": 1.0, "channel": "pos"},
            timestamp=1_000,
        )
        assert reply.value(metric, "count(*)") == 1

    def test_schema_evolution_end_to_end(self):
        cluster = _cluster()
        _payments(cluster)
        metric = cluster.create_metric(
            "SELECT count(*) FROM payments GROUP BY cardId OVER sliding 5 minutes"
        )
        cluster.send(
            "payments",
            {"cardId": "c", "merchantId": "m", "amount": 1.0, "channel": "pos"},
            timestamp=1_000,
        )
        cluster.evolve_schema("payments", [("newField", "int")])
        reply = cluster.send(
            "payments",
            {"cardId": "c", "merchantId": "m", "amount": 1.0, "channel": "pos",
             "newField": 9},
            timestamp=2_000,
        )
        assert reply.value(metric, "count(*)") == 2


class TestFailureHandling:
    def _loaded_cluster(self):
        cluster = _cluster(
            nodes=3, unit_config=UnitConfig(checkpoint_interval=10)
        )
        _payments(cluster, partitions=6)
        metric = cluster.create_metric(
            "SELECT sum(amount), count(*) FROM payments "
            "GROUP BY cardId OVER sliding 30 minutes"
        )
        for i in range(40):
            cluster.send(
                "payments",
                {"cardId": f"c{i % 4}", "merchantId": "m", "amount": 1.0,
                 "channel": "pos"},
                timestamp=(i + 1) * 1_000,
            )
        return cluster, metric

    def test_state_survives_node_failure(self):
        cluster, metric = self._loaded_cluster()
        cluster.fail_node("node-0")
        cluster.run_until_quiet()
        reply = cluster.send(
            "payments",
            {"cardId": "c0", "merchantId": "m", "amount": 1.0, "channel": "pos"},
            timestamp=41_000,
        )
        assert reply.value(metric, "count(*)") == 11  # 10 before + this one

    def test_all_tasks_owned_after_failure(self):
        cluster, _ = self._loaded_cluster()
        cluster.fail_node("node-1")
        cluster.run_until_quiet()
        snapshot = cluster.assignment_snapshot()
        assert len(snapshot) == 6
        for owners in snapshot.values():
            assert not owners["active"][0].startswith("node-1")

    def test_replicas_respect_node_exclusivity(self):
        cluster, _ = self._loaded_cluster()
        for owners in cluster.assignment_snapshot().values():
            active_node = owners["active"][0].split("/")[0]
            replica_nodes = {r.split("/")[0] for r in owners["replicas"]}
            assert active_node not in replica_nodes

    def test_revived_node_rejoins_and_serves(self):
        cluster, metric = self._loaded_cluster()
        cluster.fail_node("node-2")
        cluster.run_until_quiet()
        cluster.revive_node("node-2")
        cluster.run_until_quiet()
        reply = cluster.send(
            "payments",
            {"cardId": "c1", "merchantId": "m", "amount": 1.0, "channel": "pos"},
            timestamp=42_000,
            node_id="node-2",
        )
        assert reply.value(metric, "count(*)") >= 1

    def test_send_to_dead_node_rejected(self):
        cluster, _ = self._loaded_cluster()
        cluster.fail_node("node-0")
        with pytest.raises(EngineError):
            cluster.send(
                "payments",
                {"cardId": "c", "merchantId": "m", "amount": 1.0, "channel": "pos"},
                node_id="node-0",
            )

    def test_add_node_then_failure_uses_it(self):
        # Sticky assignment deliberately leaves a fresh node idle while
        # the budget is respected (no gratuitous data shuffle, §4.2);
        # it must take over when capacity is actually needed.
        cluster, metric = self._loaded_cluster()
        new_node = cluster.add_node(processor_units=2)
        cluster.run_until_quiet()
        cluster.fail_node("node-0")
        cluster.fail_node("node-1")
        cluster.run_until_quiet()
        owners = {
            o["active"][0].split("/")[0]
            for o in cluster.assignment_snapshot().values()
        }
        assert new_node in owners
        reply = cluster.send(
            "payments",
            {"cardId": "c1", "merchantId": "m", "amount": 1.0, "channel": "pos"},
            timestamp=60_000,
        )
        assert reply.value(metric, "count(*)") >= 1

    def test_promotions_avoid_data_transfer(self):
        cluster, _ = self._loaded_cluster()
        before = cluster.recovery_stats()
        cluster.fail_node("node-0")
        cluster.run_until_quiet()
        after = cluster.recovery_stats()
        # Replica promotion handles most reassignments without copying.
        assert after["promotions"] > before["promotions"]


class TestReplicaRecoveryAnswers:
    """A cold batch on a replicated cluster: the first rebalance runs
    inside it, and an active task must not recover from a replica that
    already consumed past the offsets its group replied to (it would
    re-answer those records from state holding later events)."""

    @staticmethod
    def _replies(**topology):
        cluster = create_cluster("single", **topology)
        cluster.create_stream(
            "tx", ["cardId"], partitions=4,
            schema={"cardId": "string", "amount": "float"},
        )
        for query in FRAUD3:
            cluster.create_metric(query)
        events = Traffic(1).take(50)
        replies = cluster.send_batch("tx", [e.fields for e in events])
        cluster.close()
        return [reply.results for reply in replies]

    @pytest.mark.parametrize(
        "topology",
        [
            dict(nodes=3, processor_units=2, replication_factor=1),
            dict(nodes=2, processor_units=1, replication_factor=1),
        ],
    )
    def test_cold_batch_matches_single(self, topology):
        assert self._replies(**topology) == self._replies()


class TestBackfillEndToEnd:
    def test_backfilled_metric_matches(self):
        cluster = _cluster(nodes=1)
        _payments(cluster)
        original = cluster.create_metric(
            "SELECT sum(amount) FROM payments GROUP BY cardId OVER sliding 10 minutes"
        )
        for i in range(20):
            cluster.send(
                "payments",
                {"cardId": "c1", "merchantId": "m", "amount": float(i),
                 "channel": "pos"},
                timestamp=(i + 1) * 1_000,
            )
        late = cluster.create_metric(
            "SELECT sum(amount) FROM payments GROUP BY cardId OVER sliding 10 minutes",
            backfill=True,
        )
        reply = cluster.send(
            "payments",
            {"cardId": "c1", "merchantId": "m", "amount": 1.0, "channel": "pos"},
            timestamp=21_000,
        )
        assert reply.value(late, "sum(amount)") == reply.value(original, "sum(amount)")


class TestCheckpointPins:
    def test_lsm_files_stay_bounded_over_many_checkpoints(self):
        # Each checkpoint pins its LSM tables; the next one releases
        # that pin, or every table ever compacted away stays in storage.
        from repro.engine import create_cluster

        cluster = create_cluster(
            "single", unit_config=UnitConfig(checkpoint_interval=20)
        )
        cluster.create_stream(
            "payments", partitioners=["cardId"], partitions=1,
            schema=[("cardId", "string"), ("amount", "float")],
        )
        cluster.create_metric(
            "SELECT sum(amount), max(amount) FROM payments GROUP BY cardId "
            "OVER sliding 5 minutes"
        )
        for i in range(50 * 20):
            cluster.send("payments", {"cardId": f"c{i % 9}", "amount": float(i)},
                         timestamp=(i + 1) * 1_000)
        units = [unit for node in cluster.nodes.values() for unit in node.units]
        assert sum(unit.stats.checkpoints_taken for unit in units) >= 50
        (processor,) = [p for unit in units for p in unit.task_processors.values()]
        db = processor.state.db
        assert len(db._live_checkpoints) == 1
        runs = db.run_sizes("aggstate")
        assert not db.run_sizes("distinct")
        tables = [name for name in db.storage.list() if name.endswith(".sst")]
        # at most the live tables plus those only the one pin still holds
        assert len(tables) <= len(runs) + len(db._live_checkpoints[0].all_files())
        # the size-tier bound on live runs (width per power-of-two size
        # class), and the pin is of the same family one checkpoint ago
        width = db.config.l0_compaction_threshold
        bound = width * (1 + math.ceil(math.log2(sum(runs) / min(runs))))
        assert len(runs) <= bound and len(tables) <= 2 * bound

    def test_a_run_without_eviction_builds_no_aggstate_filter(self):
        # New keys keep arriving after checkpoints, but every row the
        # LSM holds is resident: no miss reads it, so no table ever
        # builds its bloom filter.
        from repro.engine import create_cluster

        cluster = create_cluster(
            "single", unit_config=UnitConfig(checkpoint_interval=20)
        )
        cluster.create_stream(
            "payments", partitioners=["cardId"], partitions=1,
            schema=[("cardId", "string"), ("amount", "float")],
        )
        cluster.create_metric(
            "SELECT sum(amount), max(amount) FROM payments GROUP BY cardId "
            "OVER sliding 5 minutes"
        )
        for i in range(1000):
            cluster.send("payments", {"cardId": f"c{i // 3}", "amount": float(i)},
                         timestamp=(i + 1) * 1_000)
        units = [unit for node in cluster.nodes.values() for unit in node.units]
        assert sum(unit.stats.checkpoints_taken for unit in units) >= 40
        (processor,) = [p for unit in units for p in unit.task_processors.values()]
        state = processor.state
        assert state.epoch == 0  # nothing left the resident set
        assert sum(state.db.run_sizes("aggstate")) >= 300
        assert state.db.stats.gets == 0
        assert state.db.stats.bloom_builds == 0


class TestPeriodicCheckpoints:
    def test_build_no_payload_while_full_checkpoints_still_restore(self, monkeypatch):
        # `single` keeps only a periodic checkpoint's offset: the barrier
        # runs (state write-back, LSM snapshot, pin) but no reservoir
        # metadata is encoded and no segment or table is read.
        from repro.engine import create_cluster
        from repro.engine.task import TaskProcessor
        from repro.events.event import Event
        from repro.reservoir.reservoir import EventReservoir

        encoded = []
        metadata = EventReservoir.checkpoint_metadata
        monkeypatch.setattr(
            EventReservoir, "checkpoint_metadata",
            lambda self: encoded.append(self) or metadata(self),
        )
        read_bytes = []
        checkpoint = TaskProcessor.checkpoint

        def measured(self, *args, **kwargs):
            storages = (self.reservoir.storage, self.state.db.storage)
            before = [storage.stats.read_bytes for storage in storages]
            taken = checkpoint(self, *args, **kwargs)
            read_bytes.append(
                [s.stats.read_bytes - b for s, b in zip(storages, before)]
            )
            return taken

        monkeypatch.setattr(TaskProcessor, "checkpoint", measured)
        cluster = create_cluster(
            "single", unit_config=UnitConfig(checkpoint_interval=20)
        )
        cluster.create_stream(
            "payments", partitioners=["cardId"], partitions=1,
            schema=[("cardId", "string"), ("amount", "float")],
        )
        cluster.create_metric(
            "SELECT sum(amount), avg(amount), max(amount), min(amount), "
            "stddev(amount) FROM payments GROUP BY cardId OVER sliding 5 minutes"
        )
        for i in range(1200):
            cluster.send("payments", {"cardId": f"c{i % 7}", "amount": float(i % 13)},
                         timestamp=(i + 1) * 1_000)
        units = [unit for node in cluster.nodes.values() for unit in node.units]
        taken = sum(unit.stats.checkpoints_taken for unit in units)
        assert taken >= 50 and len(read_bytes) == taken
        assert read_bytes == [[0, 0]] * taken
        assert encoded == []
        monkeypatch.undo()

        ((unit, tp, processor),) = [
            (unit, tp, processor)
            for unit in units
            for tp, processor in unit.task_processors.items()
        ]
        reservoir_storage = processor.reservoir.storage
        assert reservoir_storage.list()  # segments the periodic checkpoints did not read
        full = processor.checkpoint()
        donated = unit.donate_checkpoint(tp, set())
        for copy in (full, donated):
            assert copy.offset == processor.next_offset == 1200
            assert copy.reservoir_files and copy.state_files
        stream = unit.catalog.stream_of_topic(tp.topic)
        metrics = unit.catalog.metrics_for_topic(tp.topic)
        restored = [TaskProcessor.restore(copy, stream, metrics) for copy in (full, donated)]
        records = [
            (1200 + k, Event(f"next{k}", (1201 + k) * 1_000,
                             {"cardId": f"c{k % 7}", "amount": float(k)}))
            for k in range(60)
        ]
        expected = processor.process_batch(records)
        for copy in restored:
            assert copy.process_batch(records) == expected
