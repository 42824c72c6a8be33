"""The process-parallel Railgun cluster with one in-process frontend.

``ParallelCluster`` is the ``frontends=1`` topology of
``create_cluster("process")``: the shared front layer
(:class:`~repro.shard.cluster.ShardCluster`) over one
:class:`~repro.shard.frontend.FrontendEngine` running in the
coordinator's own process (:class:`LocalFrontend`). The engine owns
every partition, appends into the coordinator's bus (``cluster.bus``) —
the same :class:`~repro.engine.envelope.EventEnvelope` records
``create_cluster("single")`` writes — and dispatches ``WorkBatch``
frames over the workers' data sockets. Nothing between the front layer
and the engine is encoded or journaled: a frame is a method call, and
one pass of the frontend loop runs inline in every pump round.

The coordinator's bus doubles as the cluster's durable record: with
``durable_dir`` it is a :class:`~repro.messaging.durable.DurableBus`
whose ``__operations`` topic logs every DDL op, next to the persisted
checkpoint store. Only this topology survives a coordinator restart:
reopened over the same directory it replays the operations log into
catalogue, workers and frontend, ships the stored checkpoints, and
replays each task's uncheckpointed tail silently — every record the log
holds was owed to a client of the dead incarnation, so each task's
replied watermark starts at its log end
(:meth:`ParallelCluster._recover_from_disk`). The engine keeps no
write-ahead cut over this bus: the cut is a child-process frontend's,
cut against the router's journal (:mod:`repro.shard.router`).

Each partition's records are processed in log order by exactly one
worker, with the same ``TaskProcessor.process_batch`` code the
single-process engine runs — so replies and stats match it exactly.
"""

from __future__ import annotations

import multiprocessing.connection
import os

from repro.common.timesource import TimeSource
from repro.engine.catalog import CATALOG_OPS, OPERATIONS_TOPIC
from repro.engine.processor import UnitConfig
from repro.messaging.broker import MessageBus
from repro.messaging.durable import DurableBus
from repro.messaging.log import TopicPartition
from repro.shard import wire
from repro.shard.cluster import ShardCluster
from repro.shard.frontend import FrontendEngine
from repro.telemetry import decode_snapshot


class LocalFrontend:
    """The in-process frontend link: every frame is a method call.

    The coordinator's own :class:`FrontendEngine` over ``cluster.bus``,
    recording into the cluster's registry (so only the workers'
    snapshots need forwarding). It never restarts. Catalogue ops are
    also logged to the bus's operations topic — the record a reopen
    replays.
    """

    frontend_id = "fe-0"
    restarts = 0

    def __init__(self, cluster: "ParallelCluster") -> None:
        self.owned: set[TopicPartition] = set()
        self.engine = FrontendEngine(
            self.frontend_id,
            time_source=cluster._time,
            unit_config=cluster.supervisor.unit_config,
            bus=cluster.bus,
            telemetry=cluster.metrics,
        )

    def send(self, msg: object) -> None:
        self.engine.handle(msg)
        if isinstance(msg, CATALOG_OPS):
            # Stamped 0, not with the facade clock: the clock moves once
            # per pump round, so its reading would depend on process
            # timing, and a reopen reads only the op itself.
            self.engine.bus.publish(OPERATIONS_TOPIC, None, msg, 0)

    def poll(self) -> list:
        conns = list(self.engine.conns.values())
        ready = multiprocessing.connection.wait(conns, 0) if conns else ()
        return self.engine.turn(ready)

    def waitables(self) -> list:
        engine = self.engine
        if any(engine.outstanding.values()):
            return list(engine.conns.values())
        return []

    def idle(self) -> bool:
        return self.engine.idle()

    def snapshots(self) -> list[dict]:
        snapshots = []
        for blob in self.engine.worker_snapshots.values():
            try:
                snapshots.append(decode_snapshot(blob))
            except Exception:
                continue  # torn/foreign snapshot: observation only, skip
        return snapshots

    def close(self) -> None:
        engine = self.engine
        for worker_id in list(engine.conns):
            engine._close_conn(worker_id)
        if isinstance(engine.bus, DurableBus):
            engine.bus.close()


class ParallelCluster(ShardCluster):
    """N shard worker processes behind a RailgunCluster-compatible facade."""

    def __init__(
        self,
        workers: int = 2,
        unit_config: UnitConfig | None = None,
        checkpoint_every: int | None = 2048,
        durable_dir: str | None = None,
        durable_fsync: str = "batch",
        time_source: TimeSource | None = None,
    ) -> None:
        super().__init__(
            "coordinator", workers, unit_config, checkpoint_every, durable_dir,
            time_source,
        )
        if self.durable_dir is not None:
            self.bus = DurableBus(
                os.path.join(self.durable_dir, "bus"), fsync=durable_fsync
            )
        else:
            self.bus = MessageBus()
        self.bus.create_topic(OPERATIONS_TOPIC, partitions=1)
        frontend = LocalFrontend(self)
        self._frontends[frontend.frontend_id] = frontend
        if self.durable_dir is not None and self.bus.recovered:
            self._recover_from_disk(frontend.engine)

    send_batch = ShardCluster.send_batch

    def _recover_from_disk(self, engine: FrontendEngine) -> None:
        """Coordinator restart: rebuild the world from the durable state.

        The operations log replays into the catalogue and (as control
        frames) into every worker and the frontend. Every record the
        logs hold was owed to a client of the dead incarnation, so each
        task's replied watermark starts at its log end — the replay
        answers no one, and no reply of the old incarnation can land in
        a new request that reuses its correlation id. The rebalance then
        ships the persisted checkpoint store into the fresh workers and
        seeks each task to its checkpointed offset — replay is bounded
        by the uncheckpointed tail, never the log length.
        """
        ops_tp = TopicPartition(OPERATIONS_TOPIC, 0)
        for message in self.bus.read(ops_tp, 0, self.bus.end_offset(ops_tp)):
            op = message.value
            self.catalog.apply(op)
            self.supervisor.broadcast_control(op)
            engine.handle(op)
        self._published = self.bus.messages_published
        self._watermarks = {
            tp: self.bus.end_offset(tp) for tp in self._event_tasks()
        }
        engine.handle(wire.RestoreWatermarks(tuple(self._watermarks.items())))
        self._rebalance()
