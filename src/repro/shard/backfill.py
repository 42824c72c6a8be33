"""The backfill splice of the shard topologies, written once.

The process-parallel counterpart of
:class:`~repro.replay.backfill.CooperativeBackfill`: nothing outside a
worker can splice into its :class:`~repro.engine.task.TaskProcessor`
directly, so the frontend that holds a partition's log replays it
through a :class:`~repro.replay.backfill.ShadowReplay` (the shared
:class:`~repro.replay.backfill.ShadowSet` chase loop), exports the
state at a **cut offset** — the task's dispatch frontier, the
frontend's :class:`~repro.messaging.consumer.PartitionView` position —
and ships it to the owning worker as a
:class:`~repro.shard.wire.BackfillInstall` on the task's own data link
(:func:`install_frame`). The install lands (socket FIFO) between the
batches below the cut and those above it: the cut is always reachable
by the worker (every record below it was shipped) and never behind it
(a record is only processed after it was shipped). The worker stashes
the install until its ``next_offset`` reaches the cut, splitting a work
batch mid-run when the cut lands inside one, then splices and acks with
:class:`~repro.shard.wire.BackfillInstalled` through the supervisor
control pipe. A worker whose frontier already passed the cut (possible
when a restarted frontend's restored snapshot lags it) answers
:class:`~repro.shard.wire.BackfillStale`, and the frontend re-splices
at or above that floor. Ingest never pauses.

Two halves:

- :class:`BackfillJob` — the cluster's: it starts the frontends' halves
  (``BackfillStart``), watches the acks and owns completion;
- :class:`FrontendBackfill` — a frontend's: shadows + in-line installs.

Recovery is by reset: when a worker restarts or a rebalance moves
tasks, the cluster calls :meth:`BackfillJob.reset` for the affected
tasks and the frontends forget their installs there — acks (and
in-flight installs) are forgotten and the shadow re-exports at the
restored frontier. Re-installing onto a worker that already spliced is
a harmless identity overwrite (the worker just re-acks), because shadow
state at a given offset is a deterministic function of the arrival
sequence.

Completion ordering is load-bearing: a synchronous with-state
checkpoint runs *before* the ``CreateMetricOp`` broadcast enters the
replayable control log. The stored checkpoints then already contain the
spliced state, so a crash after the broadcast restores the metric with
its history; a crash before the broadcast restores tasks without the
metric def and the reset re-splices them. The reverse order would let a
restart register the def against an empty state — silently wrong
values.
"""

from __future__ import annotations

from repro.common.errors import EngineError
from repro.engine.catalog import CreateMetricOp, MetricDef
from repro.messaging.log import TopicPartition
from repro.replay.backfill import ShadowReplay, ShadowSet
from repro.shard import wire


def install_frame(shadow: ShadowReplay) -> wire.BackfillInstall:
    """The splice of ``shadow``'s metric at the offset it sits at."""
    state = shadow.export()
    return wire.BackfillInstall(
        shadow.tp,
        shadow.position,
        shadow.metric,
        state.state_rows,
        state.distinct_rows,
        state.iterator_positions,
    )


class BackfillJob:
    """The cluster half of one backfill: start the frontends' halves,
    watch the acks, own completion.

    Construction broadcasts the :class:`~repro.shard.wire.BackfillStart`
    — the metric, its topic's other metrics and each task's stored
    checkpoint as seeds — so the owning frontends start replaying;
    :meth:`close` (on completion or shutdown) stops them. Worker acks
    land in
    :attr:`~repro.shard.supervisor.ShardSupervisor.backfill_installed`;
    once every task of the metric's topic acked, :meth:`step` completes
    the job checkpoint-then-broadcast (see the module docstring).
    """

    def __init__(self, cluster, metric: MetricDef) -> None:
        self.cluster = cluster
        self.metric = metric
        self.done = False
        peers = tuple(
            m
            for m in cluster.catalog.metrics_for_topic(metric.topic)
            if m.metric_id != metric.metric_id
        )
        store = cluster.supervisor.checkpoints
        seeds = tuple(
            (tp, checkpoint)
            for tp in cluster._metric_tasks(metric)
            if (checkpoint := store.get(tp)) is not None
        )
        self._running = True
        cluster._broadcast(wire.BackfillStart(metric, peers, seeds))

    def step(self) -> int:
        """Complete once every task acked its splice; 1 when it did."""
        if self.done:
            return 0
        cluster = self.cluster
        acked = cluster.supervisor.backfill_installed
        metric_id = self.metric.metric_id
        tasks = cluster._metric_tasks(self.metric)
        if not tasks or any((tp, metric_id) not in acked for tp in tasks):
            return 0
        try:
            cluster.supervisor.request_checkpoints(with_state=True)
        except EngineError:
            return 0
        if any((tp, metric_id) not in acked for tp in tasks):
            return 0  # a worker restarted mid-checkpoint: re-splice first
        cluster._publish_op(CreateMetricOp(self.metric))
        for key in [k for k in acked if k[1] == metric_id]:
            acked.discard(key)
        self.done = True
        self.close()
        return 1

    def reset(self, tasks: set[TopicPartition] | None = None) -> None:
        """Forget acks — all, or just for ``tasks``. Called after a
        worker restart or a rebalance: the targeted workers were rebuilt
        from checkpoints that may predate the splice, so those tasks
        re-replay and re-install. Harmless when the splice actually
        survived — the worker re-acks the duplicate install without
        applying it."""
        if self.done:
            return
        acked = self.cluster.supervisor.backfill_installed
        for tp, metric_id in list(acked):
            if metric_id == self.metric.metric_id and (tasks is None or tp in tasks):
                acked.discard((tp, metric_id))

    def close(self) -> None:
        """Stop the frontends' halves; idempotent."""
        if self._running:
            self._running = False
            self.cluster._broadcast(wire.BackfillStop(self.metric.metric_id))


class FrontendBackfill:
    """One backfill job's frontend half: shadows + in-line installs.

    The frontend owns its tasks' partition logs *and* their dispatch
    position, so the splice point is decided in the loop that also
    ships the work: when a shadow catches the task's
    :meth:`~repro.messaging.consumer.PartitionView.position`, nothing
    past that offset has been dispatched yet. A worker restart or a
    route move calls :meth:`forget` for the affected tasks (the fresh
    worker restored from a checkpoint that may predate the splice), and
    the next :meth:`step` re-replays to the restored frontier and
    re-installs.
    """

    def __init__(self, engine, start: wire.BackfillStart) -> None:
        self.engine = engine
        self.metric = start.metric
        self.peers = start.peers
        self.seeds = dict(start.seeds)
        self.stream = engine.catalog.streams[start.metric.stream]
        self.shadows = ShadowSet()
        self.installed: set[TopicPartition] = set()
        #: per-task minimum splice offset, raised by BackfillStale nacks
        self.floor: dict[TopicPartition, int] = {}
        self.batch = 512

    def step(self) -> int:
        engine = self.engine
        config = engine.unit_config
        work = 0
        for tp in engine.view.assignment():
            if tp.topic != self.metric.topic or tp in self.installed:
                continue
            worker_id = engine.routes.get(tp)
            if worker_id is None or worker_id in engine.down:
                continue  # quarantined; WorkerRestarted re-authorizes
            replayed, shadow = self.shadows.chase(
                tp, engine.view.position(tp), self.batch,
                lambda: ShadowReplay(
                    engine.bus, tp, self.stream, self.metric,
                    reservoir_config=config.reservoir,
                    lsm_config=config.lsm,
                    seed_checkpoint=self.seeds.get(tp),
                    seed_metrics=self.peers,
                ),
            )
            work += replayed
            if shadow is None or shadow.position < self.floor.get(tp, 0):
                continue  # behind, or the worker nacked this cut
            conn = engine._link(worker_id)
            if conn is None:
                continue
            try:
                conn.send_bytes(wire.encode(install_frame(shadow)))
            except OSError:
                engine.link_down(worker_id)
                continue
            self.installed.add(tp)
            self.shadows.drop(tp)
            work += 1
        return work

    def forget(self, tasks: set[TopicPartition]) -> None:
        """Un-install + drop shadows for ``tasks``; they re-replay."""
        for tp in tasks:
            self.installed.discard(tp)
            self.shadows.drop(tp)

    def close(self) -> None:
        """Release every shadow's retention pin; idempotent."""
        self.shadows.close()
