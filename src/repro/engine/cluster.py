"""The Railgun cluster harness and the one client facade.

:class:`ClusterFacade` is the client surface of every topology — DDL,
backfill, ``send`` — written once; :class:`RailgunCluster` (``single``)
and :class:`~repro.shard.cluster.ShardCluster` (``process``) inherit it.

:class:`RailgunCluster` owns the world: the message bus, the group
coordinator, all nodes, the rebalance authority (running the Figure 7
strategy across the active and replica consumer groups) and the
recovery brokerage between processor units. The harness is cooperative/step-driven: ``pump()`` advances the
whole cluster by one loop iteration per component, which keeps every
multi-node test deterministic.
"""

from __future__ import annotations

import gc
import inspect
import weakref
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.common.errors import EngineError
from repro.common.timesource import ManualClock
from repro.engine.assignment import (
    Assignment,
    PreviousState,
    ProcessorInfo,
    StickyAssignmentStrategy,
)
from repro.engine.catalog import (
    OPERATIONS_TOPIC,
    AddPartitionerOp,
    Catalog,
    CreateMetricOp,
    CreateStreamOp,
    DeleteMetricOp,
    EvolveSchemaOp,
    MetricDef,
    StreamDef,
    normalize_fields,
    topic_name,
)
from repro.engine.frontend import client_event, deliver_batch
from repro.engine.node import RailgunNode
from repro.engine.processor import ACTIVE_GROUP, UnitConfig, replica_group
from repro.engine.task import TaskCheckpoint
from repro.events.event import Event
from repro.messaging.broker import MessageBus
from repro.messaging.groups import GroupCoordinator
from repro.messaging.log import TopicPartition
from repro.telemetry import StageLaps

if TYPE_CHECKING:
    from repro.engine.frontend import Reply


def create_cluster(execution: str = "single", **kwargs):
    """Cluster factory: ``single`` (cooperative) or ``process`` (parallel).

    ``single`` returns the step-driven :class:`RailgunCluster`.
    ``process`` runs the back-end in shard worker processes with
    byte-identical reply semantics; the ``frontends`` keyword picks the
    coordinator topology:

    - ``frontends=1`` (default): one coordinator running its frontend
      in process — a :class:`~repro.shard.parallel.ParallelCluster`.
    - ``frontends=N >= 2``: the frontends run as N processes behind a
      :class:`~repro.shard.router.ClusterRouter`, each owning a sticky
      slice of the partition space (see ``docs/ARCHITECTURE.md``).

    Either way work batches and replies cross only the frontend↔worker
    data sockets, their rows as columns (:mod:`repro.shard.columnar`); the
    supervisor's pipes to the workers carry control only.

    Every topology accepts ``durable_dir=<path>``: partition logs then
    live in disk-backed segment files
    (:class:`~repro.messaging.durable.DurableBus`), the shard
    topologies persist their checkpoint store next to them, and
    checkpoint-aware truncation deletes segments below every stored
    checkpoint offset. Reopening a single-coordinator ``process``-mode
    cluster (``frontends=1``) over the same directory recovers
    catalogue, logs and checkpoints from disk and replays only each
    task's uncheckpointed tail; in the sharded-frontend topology the
    durable recovery unit is the *frontend process* (crashed frontends
    reopen their on-disk logs), while a full ``ClusterRouter`` reopen
    still requires re-issuing DDL (see the "Durability" section of
    ``docs/ARCHITECTURE.md``).

    Every topology also accepts ``serve="tcp://host:port"`` (port 0 for
    an ephemeral port): the cluster is then additionally exposed over
    TCP through the asyncio front door
    (:func:`repro.server.server.serve_cluster`); the handle is attached
    as ``cluster.server``, and the facade's own ``close()`` stops it
    first and drops it.

    Unknown keyword arguments raise :class:`ValueError` naming the bad
    keywords and the full matrix of valid ones for each topology —
    a silently ignored typo (``checkpoint_evry=...``) is a misconfigured
    cluster that looks healthy until it isn't.
    """
    serve = kwargs.pop("serve", None)
    if execution == "single":
        cls, label = RailgunCluster, 'execution="single"'
    elif execution == "process":
        frontends = kwargs.get("frontends", 1)
        if frontends is not None and frontends < 1:
            raise EngineError(f"need at least one frontend: {frontends}")
        if frontends is not None and frontends > 1:
            from repro.shard.router import ClusterRouter

            cls, label = ClusterRouter, 'execution="process", frontends>=2'
        else:
            from repro.shard.parallel import ParallelCluster

            kwargs.pop("frontends", None)
            cls, label = ParallelCluster, 'execution="process", frontends=1'
    else:
        raise EngineError(f"unknown execution mode {execution!r}")
    valid = [
        name
        for name in inspect.signature(cls.__init__).parameters
        if name != "self"
    ]
    unknown = sorted(set(kwargs) - set(valid))
    if unknown:
        raise ValueError(
            f"unknown create_cluster keyword(s) {', '.join(map(repr, unknown))} "
            f"for {label} ({cls.__name__}); valid keywords are: "
            f"{', '.join(valid)} "
            "(plus 'frontends' to pick the process-mode topology and "
            "'serve' to expose the cluster over TCP)"
        )
    cluster = cls(**kwargs)
    if serve is not None:
        from repro.server.server import serve_cluster

        try:
            cluster.server = serve_cluster(cluster, serve)
        except Exception:
            cluster.close()
            raise
    return cluster


class ClusterFacade:
    """The client surface every topology shares (§3.1, Figure 3).

    DDL, backfill, the one-event ``send`` and ``pump`` are written here
    once for :class:`RailgunCluster` and
    :class:`~repro.shard.cluster.ShardCluster`; the rules the DDL
    enforces are the :class:`~repro.engine.catalog.Catalog`'s. A facade
    brings ``catalog``, ``clock``, ``metrics``, ``_backfills``,
    ``_published`` (records published so far — the base of auto-minted
    ``client-…`` ids, so one call sequence mints the same event ids on
    every topology), ``send_batch``, ``_round`` and ``close``, and the
    hooks where the topologies differ:

    - ``_publish_op(op)`` — apply one DDL op and replicate it;
    - ``_add_topics(op, stream, partitioners)`` — publish an op that
      adds event topics and give the new tasks owners;
    - ``_activations(metric)`` — a new metric's activation cuts;
    - ``_backfill_job(metric)`` — start the topology's backfill job.
    """

    # -- DDL ------------------------------------------------------------------

    def create_stream(
        self,
        name: str,
        partitioners: Iterable[str],
        partitions: int = 4,
        schema: object = (),
        with_global_partitioner: bool = False,
    ) -> None:
        """Register a stream: schema + partitioners + topic creation."""
        stream = self.catalog.build_stream_def(
            name, partitioners, partitions, schema, with_global_partitioner
        )
        self._add_topics(CreateStreamOp(stream), stream, stream.partitioners)

    def create_metric(self, query_text: str, backfill: bool = False) -> int:
        """Register a metric from a Figure 4 statement; returns metric id."""
        metric = self.catalog.build_metric_def(query_text, backfill)
        self._publish_op(CreateMetricOp(metric, self._activations(metric)))
        return metric.metric_id

    def delete_metric(self, metric_id: int) -> None:
        """Remove a metric cluster-wide."""
        self._publish_op(DeleteMetricOp(metric_id))

    def evolve_schema(self, stream: str, new_fields: object) -> None:
        """Append fields to a stream schema (old chunks stay readable)."""
        self._publish_op(EvolveSchemaOp(stream, normalize_fields(new_fields)))

    def add_partitioner(self, stream: str, partitioner: str) -> None:
        """Add a top-level partitioner after stream creation (§4).

        A partitioner the stream already has is a no-op. The new topic's
        tasks are placed stickily: existing topics' processing is
        unaffected.
        """
        stream_def = self.catalog.validate_new_partitioner(stream, partitioner)
        if stream_def is not None:
            self._add_topics(
                AddPartitionerOp(stream, partitioner), stream_def, (partitioner,)
            )

    def _metric(self, metric_id: int) -> MetricDef:
        metric = self.catalog.metrics.get(metric_id)
        if metric is None:
            raise EngineError(f"unknown metric id {metric_id}")
        return metric

    # -- replay & backfill ----------------------------------------------------

    def backfill_metric(self, query_text: str) -> int:
        """Define a metric *after the fact* and materialize it from the log.

        The metric id is reserved immediately; a background job, stepped
        from :meth:`pump` so ingest never pauses, replays each
        partition's log through a shadow and splices the result into
        the live tasks at exact offsets. Once every task is spliced the
        ``CreateMetricOp`` goes out and the metric behaves like any
        other; :meth:`backfill_status` observes completion.
        """
        metric = self.catalog.build_metric_def(query_text)
        self.catalog.apply(CreateMetricOp(metric))
        self._backfills.append(self._backfill_job(metric))
        return metric.metric_id

    def backfill_status(self, metric_id: int) -> str:
        """``"running"``, ``"complete"``, or ``"unknown"`` for an id."""
        for job in self._backfills:
            if job.metric.metric_id == metric_id:
                return "complete" if job.done else "running"
        return "unknown"

    # -- the data path --------------------------------------------------------

    def send(
        self,
        stream: str,
        fields: Mapping[str, Any] | None = None,
        timestamp: int | None = None,
        event: Event | None = None,
        event_id: str | None = None,
        max_rounds: int = 2000,
        **route: Any,
    ) -> Reply:
        """Send one event and pump until its reply completes; ``route``
        passes on to ``send_batch`` (``node_id`` on ``single``)."""
        event = client_event(
            self.clock, self._published, fields, timestamp, event, event_id
        )
        return self.send_batch(stream, [event], max_rounds=max_rounds, **route)[0]

    def pump(self) -> int:
        """One cooperative round of every component; returns work count."""
        return self._round(StageLaps(self.metrics))

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class RailgunCluster(ClusterFacade):
    """N equal Railgun nodes over one message bus (Figure 3)."""

    def __init__(
        self,
        nodes: int = 1,
        processor_units: int = 2,
        replication_factor: int = 0,
        unit_config: UnitConfig | None = None,
        assignment_strategy: object | None = None,
        durable_dir: str | None = None,
        durable_fsync: str = "batch",
    ) -> None:
        if nodes <= 0:
            raise EngineError(f"need at least one node: {nodes}")
        from repro.telemetry import MetricsRegistry

        #: single-process registry; :meth:`telemetry` is the merged
        #: (here: merge-of-one) stable-schema view all facades share.
        self.metrics = MetricsRegistry("engine")
        self.clock = ManualClock(start_ms=1)
        self.durable_dir = durable_dir
        if durable_dir is not None:
            from repro.messaging.durable import DurableBus

            self.bus = DurableBus(durable_dir, fsync=durable_fsync)
        else:
            self.bus = MessageBus()
        self.coordinator = GroupCoordinator()
        # Held weakly, like the units' back-references: no cycle keeps a
        # dropped cluster alive.
        on_group_change = weakref.WeakMethod(self._on_group_change)
        self.coordinator.external_authority = lambda group_id: on_group_change()(group_id)
        # Any object with .assign(tasks, processors, previous) works —
        # the ablation bench swaps in the non-sticky baseline here.
        self.strategy = (
            assignment_strategy
            if assignment_strategy is not None
            else StickyAssignmentStrategy(replication_factor)
        )
        self.replication_factor = replication_factor
        self.unit_config = unit_config if unit_config is not None else UnitConfig()
        self.catalog = Catalog()
        self.nodes: dict[str, RailgunNode] = {}
        self._backfills: list = []
        self._assignment_dirty = False
        self._last_assignment: Assignment | None = None
        self._next_node = 0
        self._rr_cursor = 0
        self.rebalance_count = 0
        #: the front-door handle when served (``create_cluster(serve=…)``).
        self.server = None

        self.bus.create_topic(OPERATIONS_TOPIC, partitions=1)
        for _ in range(nodes):
            self.add_node(processor_units)

    # -- topology -------------------------------------------------------------------

    def add_node(self, processor_units: int = 2) -> str:
        """Add (and start) a node; returns its id."""
        if processor_units <= 0:
            # A cooperative node must do back-end work.
            raise ValueError(f"need at least one processor unit: {processor_units}")
        node_id = f"node-{self._next_node}"
        self._next_node += 1
        node = RailgunNode(
            node_id,
            self.bus,
            self.coordinator,
            self.clock,
            processor_units,
            cluster=self,
            unit_config=self.unit_config,
        )
        self.nodes[node_id] = node
        node.subscribe_units(self._event_topics())
        self._assignment_dirty = True
        return node_id

    def kill_node(self, node_id: str) -> None:
        """Fail-stop a node; detection happens via heartbeat expiry."""
        self._node(node_id).kill()

    def fail_node(self, node_id: str) -> None:
        """Kill a node and advance past the session timeout + rebalance."""
        self.kill_node(node_id)
        self.advance(self.coordinator.session_timeout_ms + 1)
        self.pump()

    def revive_node(self, node_id: str) -> None:
        """Bring a failed node back; it rejoins groups on next pump."""
        self._node(node_id).revive()
        self._assignment_dirty = True

    def alive_nodes(self) -> list[RailgunNode]:
        """Nodes currently up."""
        return [node for node in self.nodes.values() if node.alive]

    def _node(self, node_id: str) -> RailgunNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise EngineError(f"unknown node {node_id!r}") from None

    # -- DDL hooks --------------------------------------------------------------------

    def _add_topics(self, op: object, stream: StreamDef, partitioners) -> None:
        """Create the bus topics, publish ``op``, subscribe every unit
        and let the next round rebalance (Figure 7)."""
        for partitioner in partitioners:
            self.bus.create_topic(
                topic_name(stream.name, partitioner),
                stream.partition_count(partitioner),
            )
        self._publish_op(op)
        self._sync_subscriptions()
        self._assignment_dirty = True

    def _activations(self, metric: MetricDef) -> tuple:
        # Only shard workers read activation cuts; units do not.
        return ()

    def _backfill_job(self, metric: MetricDef):
        from repro.replay.backfill import CooperativeBackfill

        return CooperativeBackfill(self, metric)

    def _publish_op(self, op: object) -> None:
        self.catalog.apply(op)
        self.bus.publish(OPERATIONS_TOPIC, None, op, self.clock.now())

    @property
    def _published(self) -> int:
        return self.bus.messages_published

    def _event_topics(self) -> list[str]:
        return sorted(
            topic
            for stream in self.catalog.streams.values()
            for topic in stream.topics()
        )

    def _sync_subscriptions(self) -> None:
        topics = self._event_topics()
        for node in self.alive_nodes():
            for unit in node.units:
                if unit.active_consumer.is_member():
                    unit.active_consumer.update_subscription(topics)
                if unit.replica_consumer.is_member():
                    unit.replica_consumer.update_subscription(topics)

    # -- reads ------------------------------------------------------------------------

    def metric_values(self, metric_id: int) -> dict[tuple, dict[str, Any]]:
        """A metric's current per-group values, merged across partitions.

        Per partition the furthest-ahead holder answers (the active
        owner, or its equal after a quiesce).
        """
        metric = self._metric(metric_id)
        merged: dict[tuple, dict[str, Any]] = {}
        for tp in self.bus.topic_partitions(metric.topic):
            best = None
            for node in self.alive_nodes():
                for unit in node.units:
                    processor = unit.task_processors.get(tp)
                    if processor is None or not processor.has_metric(metric_id):
                        continue
                    if best is None or processor.next_offset > best.next_offset:
                        best = processor
            if best is not None:
                merged.update(best.metric_values(metric_id))
        return merged

    def query_as_of(self, metric_id: int, as_of: int):
        """Time-travel read: the metric's values at event time ``as_of``
        (:func:`repro.replay.asof.as_of_values` over this cluster's bus)."""
        from repro.replay.asof import as_of_values, read_page

        metric = self._metric(metric_id)
        return as_of_values(
            lambda tp, begin, limit: read_page(self.bus, tp, begin, limit),
            self.bus.topic_partitions(metric.topic),
            self.catalog.streams[metric.stream],
            self.catalog.metrics_for_topic(metric.topic),
            metric_id,
            as_of,
            reservoir_config=self.unit_config.reservoir,
            lsm_config=self.unit_config.lsm,
        )

    # -- the data path --------------------------------------------------------------------

    def send_batch(
        self,
        stream: str,
        batch: Iterable[Mapping[str, Any] | Event],
        node_id: str | None = None,
        max_rounds: int = 2000,
    ) -> list[Reply]:
        """Send a batch through one frontend and pump until all replies land.

        ``batch`` items are either :class:`Event` instances or field
        mappings (timestamped with the current clock). Returns replies in
        input order. This is the client-side mirror of the engine's
        batched ingestion path: the fan-out is published in one shot and
        the cluster then pumps until every fan-in completes.
        """
        frontend = self._pick_node(node_id).frontend
        return deliver_batch(
            self, batch, self.bus.messages_published,
            lambda events: frontend.send_batch(stream, events),
            frontend.completed, max_rounds,
        )

    def _pick_node(self, node_id: str | None) -> RailgunNode:
        if node_id is not None:
            node = self._node(node_id)
            if not node.alive:
                raise EngineError(f"node {node_id!r} is down")
            return node
        alive = self.alive_nodes()
        if not alive:
            raise EngineError("no alive nodes")
        node = alive[self._rr_cursor % len(alive)]
        self._rr_cursor += 1
        return node

    # -- the world loop ----------------------------------------------------------------------

    def _round(self, laps: StageLaps) -> int:
        self.clock.advance(1)  # one virtual millisecond per round
        self.coordinator.tick(self.clock.now())
        self._ensure_membership()
        if self._assignment_dirty:
            self._rebalance()
        handled = 0
        # Backfills step first: no unit is mid-batch here, so processor
        # offsets are exact splice points.
        for job in self._backfills:
            if not job.done:
                handled += job.step()
        for node in self.alive_nodes():
            handled += node.pump()
        # One cooperative step is dispatch and processing in one: the
        # single-process engine has no finer per-hop boundary to time.
        laps.lap("engine_dispatch_ms")
        return handled

    def run_until_quiet(self, max_rounds: int = 300, quiet_rounds: int = 3) -> int:
        """Pump until nothing happens for ``quiet_rounds`` consecutive steps."""
        total = 0
        quiet = 0
        for _ in range(max_rounds):
            handled = self.pump()
            total += handled
            pending = sum(len(n.frontend.pending) for n in self.alive_nodes())
            if handled == 0 and pending == 0:
                quiet += 1
                if quiet >= quiet_rounds:
                    return total
            else:
                quiet = 0
        return total

    def advance(self, ms: int) -> None:
        """Advance the virtual clock (e.g. past the session timeout)."""
        self.clock.advance(ms)

    def _ensure_membership(self) -> None:
        """Revived nodes rejoin their groups; dead nodes stay out."""
        topics = self._event_topics()
        for node in self.alive_nodes():
            for unit in node.units:
                if not unit.active_consumer.is_member():
                    unit.active_consumer.rejoin(topics)
                    self._assignment_dirty = True
                if not unit.replica_consumer.is_member():
                    unit.replica_consumer.rejoin(topics)

    # -- the Figure 7 authority ---------------------------------------------------------------

    def _on_group_change(self, group_id: str) -> None:
        if group_id == ACTIVE_GROUP or group_id.startswith("railgun-replica."):
            self._assignment_dirty = True

    def _rebalance(self) -> None:
        self._assignment_dirty = False
        tasks = [
            tp
            for topic in self._event_topics()
            for tp in self.bus.topic_partitions(topic)
        ]
        processors: list[ProcessorInfo] = []
        units_by_id = {}
        for node in self.alive_nodes():
            for unit in node.units:
                if unit.active_consumer.is_member():
                    processors.append(ProcessorInfo(unit.unit_id, node.node_id))
                    units_by_id[unit.unit_id] = unit
        if not processors or not tasks:
            self._last_assignment = None
            return
        previous = PreviousState()
        for info in processors:
            unit = units_by_id[info.processor_id]
            previous.active[info.processor_id] = self.coordinator.assignment_of(
                ACTIVE_GROUP, info.processor_id
            )
            previous.replica[info.processor_id] = self.coordinator.assignment_of(
                replica_group(info.processor_id), info.processor_id
            )
            # Any local data counts as leftovers for stickiness: revoked
            # tasks (stale dict) and still-live processors whose group
            # membership was lost (e.g. after a mass heartbeat expiry).
            previous.stale[info.processor_id] = set(unit.stale) | set(
                unit.task_processors
            )
        assignment = self.strategy.assign(tasks, processors, previous)
        self._last_assignment = assignment
        self.rebalance_count += 1
        self.coordinator.set_assignment(
            ACTIVE_GROUP,
            {info.processor_id: assignment.active.get(info.processor_id, set())
             for info in processors},
        )
        for info in processors:
            self.coordinator.set_assignment(
                replica_group(info.processor_id),
                {info.processor_id: assignment.replica.get(info.processor_id, set())},
            )

    # -- recovery brokerage ----------------------------------------------------------------------

    def request_recovery_data(
        self,
        tp: TopicPartition,
        exclude_unit: str,
        held: dict[str, int],
        limit: int | None = None,
    ) -> TaskCheckpoint | None:
        """Find the best donor for a task and fetch its checkpoint (§4.2).

        Donors are ranked by how far their data reaches (highest next
        offset) without passing ``limit``: a task that will answer from
        its seek point (an active one, capped at its group's committed
        offset) must not start from state that already holds later
        records. With no donor left the caller starts fresh. The
        immutable files the receiver holds (``held``: name -> size) are
        left out of the payload (delta copy for stale holders).
        """
        best_unit = None
        best_offset = -1
        for node in self.alive_nodes():
            for unit in node.units:
                if unit.unit_id == exclude_unit:
                    continue
                offset = unit.data_offset_for(tp)
                if offset is None or (limit is not None and offset > limit):
                    continue
                if offset > best_offset:
                    best_offset = offset
                    best_unit = unit
        if best_unit is None:
            return None
        return best_unit.donate_checkpoint(tp, held)

    # -- introspection ------------------------------------------------------------------------------

    def assignment_snapshot(self) -> dict[str, dict[str, list[str]]]:
        """Human-readable owner/replica map per task (for tests/examples)."""
        snapshot: dict[str, dict[str, list[str]]] = {}
        assignment = self._last_assignment
        if assignment is None:
            return snapshot
        tasks = {
            tp
            for tps in list(assignment.active.values()) + list(assignment.replica.values())
            for tp in tps
        }
        for tp in sorted(tasks, key=str):
            snapshot[str(tp)] = {
                "active": [assignment.owner_of(tp) or "?"],
                "replicas": assignment.replicas_of(tp),
            }
        return snapshot

    # -- durability -----------------------------------------------------------------

    def truncate_logs_below_committed(self) -> None:
        """Checkpoint-aware retention for the cooperative topology.

        Deletes whole segments below the active group's committed offset
        per event task. Deliberately explicit (not wired to a cadence):
        the cooperative engine's replica consumers may still rewind
        further than the committed offset, so truncation is a policy the
        embedder opts into.
        """
        if self.durable_dir is None:
            return
        self.bus.flush()
        offsets = {}
        from repro.engine.processor import ACTIVE_GROUP

        for topic in self._event_topics():
            for tp in self.bus.topic_partitions(topic):
                committed = self.bus.committed_offset(ACTIVE_GROUP, tp)
                if committed:
                    offsets[tp] = committed
        self.bus.truncate_below(offsets)

    def close(self) -> None:
        """Stop the front door when served, flush and release the
        durable bus (no-op when in-memory), and hand what checkpoint
        barriers froze back to the collector (``gc.unfreeze()``): the
        engine's own reference cycles are then collected once the
        caller drops it."""
        server, self.server = self.server, None
        if server is not None:
            server.stop()
        for job in self._backfills:
            job.close()
        if self.durable_dir is not None:
            self.bus.close()
        gc.unfreeze()

    def total_messages_processed(self) -> int:
        """Sum over all units (actives + replicas double-count by design)."""
        return sum(
            unit.messages_processed
            for node in self.nodes.values()
            for unit in node.units
        )

    def telemetry(self) -> dict:
        """One merged, stable-schema telemetry snapshot (merge of one:
        every component runs in this process). Same schema as the
        parallel facades — see docs/OBSERVABILITY.md."""
        from repro.telemetry import merge_snapshots

        return merge_snapshots([self.metrics.snapshot()])

    def recovery_stats(self) -> dict[str, int]:
        """Aggregated recovery counters across all units."""
        totals = {
            "recoveries": 0,
            "delta_recoveries": 0,
            "fresh_starts": 0,
            "promotions": 0,
            "bytes_transferred": 0,
            "checkpoints_taken": 0,
        }
        for node in self.nodes.values():
            for unit in node.units:
                totals["recoveries"] += unit.stats.recoveries
                totals["delta_recoveries"] += unit.stats.delta_recoveries
                totals["fresh_starts"] += unit.stats.fresh_starts
                totals["promotions"] += unit.stats.promotions
                totals["bytes_transferred"] += unit.stats.bytes_transferred
                totals["checkpoints_taken"] += unit.stats.checkpoints_taken
        return totals
