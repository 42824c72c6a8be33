"""The Railgun cluster harness and client facade.

Owns the world: the message bus, the group coordinator, all nodes, the
rebalance authority (running the Figure 7 strategy across the active and
replica consumer groups) and the recovery brokerage between processor
units. The harness is cooperative/step-driven: ``pump()`` advances the
whole cluster by one loop iteration per component, which keeps every
multi-node test deterministic.
"""

from __future__ import annotations

import inspect
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.common.clock import ManualClock
from repro.common.errors import EngineError
from repro.engine.assignment import (
    Assignment,
    PreviousState,
    ProcessorInfo,
    StickyAssignmentStrategy,
)
from repro.engine.catalog import (
    CHECKPOINTS_TOPIC,
    GLOBAL_PARTITIONER,
    OPERATIONS_TOPIC,
    REPLY_TOPIC_PREFIX,
    AddPartitionerOp,
    Catalog,
    CreateMetricOp,
    CreateStreamOp,
    DeleteMetricOp,
    EvolveSchemaOp,
    MetricDef,
    StreamDef,
    topic_name,
)
from repro.engine.frontend import client_event, deliver_batch
from repro.engine.node import RailgunNode
from repro.engine.processor import ACTIVE_GROUP, UnitConfig, replica_group
from repro.engine.task import TaskCheckpoint
from repro.events.event import Event
from repro.events.schema import Schema
from repro.messaging.broker import MessageBus
from repro.messaging.groups import GroupCoordinator
from repro.messaging.log import TopicPartition
from repro.messaging.producer import Producer
from repro.query.parser import parse_query
from repro.telemetry import StageLaps

if TYPE_CHECKING:
    from repro.engine.frontend import Reply


def _normalize_fields(schema: object) -> tuple[tuple[str, str], ...]:
    """Accept a Schema, mapping, or (name, type) iterable."""
    if isinstance(schema, Schema):
        return tuple((f.name, f.field_type.value) for f in schema.fields)
    if isinstance(schema, Mapping):
        return tuple((name, str(type_name)) for name, type_name in schema.items())
    return tuple((name, str(type_name)) for name, type_name in schema)


def build_stream_def(
    catalog: Catalog,
    name: str,
    partitioners: Iterable[str],
    partitions: int,
    schema: object,
    with_global_partitioner: bool,
) -> StreamDef:
    """Validate and build a stream definition against a catalogue.

    Shared by the cooperative single-process cluster and the
    process-parallel cluster so both enforce identical DDL rules.
    """
    if name in catalog.streams:
        raise EngineError(f"stream {name!r} already exists")
    partitioner_list = list(partitioners)
    if with_global_partitioner:
        partitioner_list.append(GLOBAL_PARTITIONER)
    if not partitioner_list:
        raise EngineError("a stream needs at least one partitioner")
    fields = _normalize_fields(schema)
    declared = {field_name for field_name, _ in fields}
    for partitioner in partitioner_list:
        if partitioner != GLOBAL_PARTITIONER and partitioner not in declared:
            raise EngineError(f"partitioner {partitioner!r} is not a schema field")
    return StreamDef(name, fields, tuple(partitioner_list), partitions)


def build_metric_def(
    catalog: Catalog, query_text: str, backfill: bool = False
) -> MetricDef:
    """Parse, validate and route a Figure 4 metric against a catalogue.

    Shared by every cluster facade (cooperative, process-parallel,
    sharded frontends) so all three enforce identical metric rules and
    routing; the caller applies the returned definition to its
    catalogue and replicates it to its back-end.
    """
    query = parse_query(query_text)
    if query.as_of is not None:
        raise EngineError(
            "AS OF is a read-time clause; a metric definition has no "
            "read instant — use query_as_of() on the spliced metric"
        )
    if query.stream not in catalog.streams:
        raise EngineError(f"unknown stream {query.stream!r}")
    validate_metric_fields(catalog, query)
    return MetricDef(
        metric_id=catalog.next_metric_id,
        query_text=query_text,
        stream=query.stream,
        topic=catalog.route_metric(query),
        backfill=backfill,
    )


def validate_new_partitioner(
    catalog: Catalog, stream: str, partitioner: str
) -> StreamDef | None:
    """Validate a §4 post-creation partitioner addition.

    Shared by every cluster facade so all three enforce identical DDL
    rules. Returns the stream definition, or ``None`` when the
    partitioner is already present (the addition is an idempotent
    no-op); raises for unknown streams and undeclared fields.
    """
    stream_def = catalog.streams.get(stream)
    if stream_def is None:
        raise EngineError(f"unknown stream {stream!r}")
    if partitioner in stream_def.partitioners:
        return None
    declared = {name for name, _ in stream_def.fields}
    if partitioner != GLOBAL_PARTITIONER and partitioner not in declared:
        raise EngineError(f"partitioner {partitioner!r} is not a schema field")
    return stream_def


def validate_metric_fields(catalog: Catalog, query) -> None:
    """Reject metrics referencing fields their stream does not declare."""
    stream = catalog.streams[query.stream]
    declared = {name for name, _ in stream.fields}
    for agg in query.aggregations:
        if agg.field is not None and agg.field not in declared:
            raise EngineError(
                f"aggregation field {agg.field!r} not in stream {query.stream!r}"
            )
    for field_name in query.group_by:
        if field_name not in declared:
            raise EngineError(
                f"group-by field {field_name!r} not in stream {query.stream!r}"
            )
    if query.where is not None:
        for field_name in query.where.referenced_fields():
            if field_name not in declared:
                raise EngineError(
                    f"filter field {field_name!r} not in stream {query.stream!r}"
                )


def create_cluster(execution: str = "single", **kwargs):
    """Cluster factory: ``single`` (cooperative) or ``process`` (parallel).

    ``single`` returns the step-driven :class:`RailgunCluster`.
    ``process`` runs the back-end in shard worker processes with
    byte-identical reply semantics; the ``frontends`` keyword picks the
    coordinator topology:

    - ``frontends=1`` (default): one in-process coordinator — a
      :class:`~repro.shard.parallel.ParallelCluster`.
    - ``frontends=N >= 2``: the coordinator itself is sharded over N
      frontend processes behind a
      :class:`~repro.shard.router.ClusterRouter`, each owning a sticky
      slice of the partition space and shipping work to the workers
      over its own data sockets (see ``docs/ARCHITECTURE.md``).

    Work batches and replies cross every worker link — the supervisor
    pipes and the frontend↔worker data sockets — as the same columnar
    frames (:mod:`repro.shard.columnar`).

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
    as ``cluster.server`` and stopped automatically by
    ``cluster.close()``.

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
        original_close = cluster.close

        def _close_with_server(*args, **close_kwargs):
            cluster.server.stop()
            original_close(*args, **close_kwargs)

        cluster.close = _close_with_server
    return cluster


class RailgunCluster:
    """N equal Railgun nodes over one message bus (Figure 3)."""

    def __init__(
        self,
        nodes: int = 1,
        processor_units: int = 2,
        replication_factor: int = 0,
        brokers: int = 1,
        session_timeout_ms: int = 10_000,
        unit_config: UnitConfig | None = None,
        tick_ms: int = 1,
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

            self.bus = DurableBus(durable_dir, brokers=brokers, fsync=durable_fsync)
        else:
            self.bus = MessageBus(brokers=brokers)
        self.coordinator = GroupCoordinator(self.bus, session_timeout_ms)
        self.coordinator.external_authority = self._on_group_change
        # Any object with .assign(tasks, processors, previous) works —
        # the ablation bench swaps in the non-sticky baseline here.
        self.strategy = (
            assignment_strategy
            if assignment_strategy is not None
            else StickyAssignmentStrategy(replication_factor)
        )
        self.replication_factor = replication_factor
        self.unit_config = unit_config if unit_config is not None else UnitConfig()
        self.tick_ms = tick_ms
        self.catalog = Catalog()
        self.nodes: dict[str, RailgunNode] = {}
        self._backfills: list = []
        self._assignment_dirty = False
        self._last_assignment: Assignment | None = None
        self._next_node = 0
        self._rr_cursor = 0
        self.rebalance_count = 0

        self.bus.create_topic(OPERATIONS_TOPIC, partitions=1)
        self.bus.create_topic(CHECKPOINTS_TOPIC, partitions=1)
        self._ops_producer = Producer(self.bus, self.clock)
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
        self.bus.create_topic(REPLY_TOPIC_PREFIX + node_id, partitions=1)
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

    # -- DDL ----------------------------------------------------------------------------

    def create_stream(
        self,
        name: str,
        partitioners: Iterable[str],
        partitions: int = 4,
        schema: object = (),
        replication: int = 1,
        with_global_partitioner: bool = False,
    ) -> None:
        """Register a stream: schema + partitioners + topic creation."""
        stream = build_stream_def(
            self.catalog, name, partitioners, partitions, schema,
            with_global_partitioner,
        )
        for partitioner in stream.partitioners:
            self.bus.create_topic(
                topic_name(name, partitioner),
                partitions=stream.partition_count(partitioner),
                replication=min(self.bus.broker_count, 1 + self.replication_factor),
            )
        self._publish_op(CreateStreamOp(stream))
        self._sync_subscriptions()
        self._assignment_dirty = True

    def create_metric(self, query_text: str, backfill: bool = False) -> int:
        """Register a metric from a Figure 4 statement; returns metric id."""
        metric = build_metric_def(self.catalog, query_text, backfill)
        self._publish_op(CreateMetricOp(metric))
        return metric.metric_id

    def delete_metric(self, metric_id: int) -> None:
        """Remove a metric cluster-wide."""
        self._publish_op(DeleteMetricOp(metric_id))

    # -- replay & backfill ----------------------------------------------------------

    def backfill_metric(self, query_text: str) -> int:
        """Define a metric *after the fact* and materialize it from the log.

        The metric id is reserved immediately; a background
        :class:`~repro.replay.backfill.CooperativeBackfill` job (stepped
        from :meth:`pump`, so ingest never pauses) replays each
        partition's log through a shadow processor and splices the
        result into the live task processors at their exact consumption
        offsets. Once every holder is spliced the ``CreateMetricOp``
        goes out on the operations topic and the metric behaves like any
        other. Use :meth:`backfill_status` to observe completion.
        """
        from repro.replay.backfill import CooperativeBackfill

        metric = build_metric_def(self.catalog, query_text)
        self.catalog.apply(CreateMetricOp(metric))
        self._backfills.append(CooperativeBackfill(self, metric))
        return metric.metric_id

    def backfill_status(self, metric_id: int) -> str:
        """``"running"``, ``"complete"``, or ``"unknown"`` for an id."""
        for job in self._backfills:
            if job.metric.metric_id == metric_id:
                return "complete" if job.done else "running"
        return "unknown"

    def metric_values(self, metric_id: int) -> dict[tuple, dict[str, Any]]:
        """A metric's current per-group values, merged across partitions.

        Per partition the furthest-ahead holder answers (the active
        owner, or its equal after a quiesce).
        """
        metric = self.catalog.metrics.get(metric_id)
        if metric is None:
            raise EngineError(f"unknown metric id {metric_id}")
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

        metric = self.catalog.metrics.get(metric_id)
        if metric is None:
            raise EngineError(f"unknown metric id {metric_id}")
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

    def evolve_schema(self, stream: str, new_fields: object) -> None:
        """Append fields to a stream schema (old chunks stay readable)."""
        self._publish_op(EvolveSchemaOp(stream, _normalize_fields(new_fields)))

    def add_partitioner(self, stream: str, partitioner: str) -> None:
        """Add a top-level partitioner after stream creation (§4).

        Creates the new topic and triggers a rebalance; existing topics'
        processing is unaffected thanks to sticky assignment.
        """
        stream_def = validate_new_partitioner(self.catalog, stream, partitioner)
        if stream_def is None:
            return
        self.bus.create_topic(
            topic_name(stream, partitioner),
            partitions=stream_def.partition_count(partitioner),
        )
        self._publish_op(AddPartitionerOp(stream, partitioner))
        self._sync_subscriptions()
        self._assignment_dirty = True

    def _publish_op(self, op: object) -> None:
        self.catalog.apply(op)
        self._ops_producer.send(OPERATIONS_TOPIC, key=None, value=op)

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

    # -- the data path --------------------------------------------------------------------

    def send(
        self,
        stream: str,
        fields: Mapping[str, Any] | None = None,
        timestamp: int | None = None,
        event: Event | None = None,
        event_id: str | None = None,
        node_id: str | None = None,
        max_rounds: int = 500,
    ) -> Reply:
        """Send one event and pump the world until its reply completes."""
        event = client_event(
            self.clock, self.bus.messages_published, fields, timestamp,
            event, event_id,
        )
        return self.send_batch(stream, [event], node_id, max_rounds)[0]

    def send_async(
        self,
        stream: str,
        fields: Mapping[str, Any] | None = None,
        timestamp: int | None = None,
        event: Event | None = None,
        event_id: str | None = None,
        node_id: str | None = None,
    ):
        """Publish an event without waiting; returns (corr_id, frontend)."""
        event = client_event(
            self.clock, self.bus.messages_published, fields, timestamp,
            event, event_id,
        )
        node = self._pick_node(node_id)
        correlation = node.frontend.send(stream, event)
        return correlation, node.frontend

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

    def pump(self) -> int:
        """One cooperative step of every component; returns work count."""
        return self._round(StageLaps(self.metrics))

    def _round(self, laps: StageLaps) -> int:
        self.clock.advance(self.tick_ms)
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
        from repro.engine.processor import _keep_previous_assignor

        for node in self.alive_nodes():
            for unit in node.units:
                if not unit.active_consumer.is_member():
                    unit.active_consumer.rejoin(topics, strategy=_keep_previous_assignor)
                    self._assignment_dirty = True
                if not unit.replica_consumer.is_member():
                    unit.replica_consumer.rejoin(topics, strategy=_keep_previous_assignor)

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
        local_sealed: set[str],
    ) -> TaskCheckpoint | None:
        """Find the best donor for a task and fetch its checkpoint (§4.2).

        Donors are ranked by how far their data reaches (highest next
        offset); the receiver's sealed files are excluded from the
        payload (delta copy for stale holders).
        """
        best_unit = None
        best_offset = -1
        for node in self.alive_nodes():
            for unit in node.units:
                if unit.unit_id == exclude_unit:
                    continue
                offset = unit.data_offset_for(tp)
                if offset is not None and offset > best_offset:
                    best_offset = offset
                    best_unit = unit
        if best_unit is None:
            return None
        return best_unit.donate_checkpoint(tp, exclude_files=local_sealed)

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

    def flush_logs(self) -> None:
        """Write out the durable bus's buffers (no-op without ``durable_dir``)."""
        if self.durable_dir is not None:
            self.bus.flush()

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
        """Flush and release the durable bus (no-op when in-memory)."""
        for job in self._backfills:
            job.close()
        if self.durable_dir is not None:
            self.bus.close()

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
