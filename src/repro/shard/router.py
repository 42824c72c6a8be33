"""Sharded frontends: the front layer's frontends in N child processes.

One frontend's loop — appends, dispatch, reply merge — is the
single-coordinator ceiling. ``create_cluster("process", frontends=N)``
shards it the way the engine shards tasks: :class:`ClusterRouter` is
the shared front layer (:class:`~repro.shard.cluster.ShardCluster`)
over N :class:`ChildFrontend` links, each a frontend process
(:func:`~repro.shard.frontend.shard_frontend_main`) behind a duplex pipe
that owns a sticky slice of the partition space (Figure 7 strategy) and
ships ``WorkBatch`` frames straight to the workers over its own data
sockets. A partition is owned by one frontend and the router routes in
client order over FIFO channels, so every partition's log order — and
every reply — equals the single-process engine's.

Frontend crash recovery is journal-based: a :class:`ChildFrontend`
keeps its ordered control+ingest frame journal, and the router keeps
the replied watermarks (they ride every ``ReplyBatch``). A respawned
frontend gets ``RestoreWatermarks`` then the journal verbatim,
rebuilding its logs with identical offsets, and re-dispatches only
offsets at or past the watermark; workers answer re-shipped offsets
below their frontier read-only, so in-flight requests complete and
settled ones are never re-answered. A durable frontend fsyncs behind
its write-ahead cut, and the journal is pruned to the ingest frames
past the cut it reported.
"""

from __future__ import annotations

import os

from repro.common.errors import EngineError
from repro.common.timesource import TimeSource
from repro.engine.catalog import CATALOG_OPS
from repro.engine.processor import UnitConfig
from repro.messaging.log import TopicPartition
from repro.shard import wire
from repro.shard.cluster import ShardCluster
from repro.shard.frontend import shard_frontend_main
from repro.shard.supervisor import default_context
from repro.telemetry import decode_bundle


class ChildFrontend:
    """The link to one frontend process, and the router's half of its
    recovery: the journal, the respawn and the durable prune point."""

    def __init__(self, router: "ClusterRouter", frontend_id: str) -> None:
        self.router = router
        self.frontend_id = frontend_id
        self.owned: set[TopicPartition] = set()
        #: ordered ``(ingest_seq, frame)`` entries (-1 for control
        #: frames) — replayed into a respawn to rebuild byte-identical
        #: partition logs. Durable mode prunes ingest frames below the
        #: frontend's reported cut (control frames stay: catalogue and
        #: routes live only in frontend memory).
        self.journal: list[tuple[int, bytes]] = []
        #: sequence the next IngestBatch frame will carry.
        self.ingest_seq = 0
        #: ingest frames the frontend reported durably applied.
        self.durable_seq = 0
        self.restarts = 0
        #: the latest telemetry bundle the frontend shipped.
        self.bundle: bytes | None = None
        #: running backfill -> its journaled BackfillStart frame.
        self._backfill_frames: dict[int, bytes] = {}
        self._reviving = False
        self._spawn()

    def _spawn(self) -> None:
        router = self.router
        parent_conn, child_conn = router._ctx.Pipe(duplex=True)
        frontend_dir = None
        if router.durable_dir is not None:
            frontend_dir = os.path.join(
                router.durable_dir, "frontends", self.frontend_id
            )
            os.makedirs(frontend_dir, exist_ok=True)
        self.process = router._ctx.Process(
            target=shard_frontend_main,
            args=(
                child_conn, self.frontend_id, 2, frontend_dir,
                router.durable_fsync, router.durable_segment_bytes,
                router.supervisor.unit_config,
            ),
            name=f"railgun-{self.frontend_id}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def send(self, msg: object) -> None:
        """Journal (what a respawn must replay) and send one frame.

        Ingest, DDL and running backfills are journaled; a
        ``FrontendAssign`` journals seek-stripped — its seeks are only
        meaningful at the moment of the rebalance.
        """
        frame = wire.encode(msg)
        if isinstance(msg, wire.IngestBatch):
            self.journal.append((self.ingest_seq, frame))
            self.ingest_seq += 1
        elif isinstance(msg, wire.FrontendAssign):
            self.journal.append((-1, wire.encode(wire.FrontendAssign(msg.routes))))
        elif isinstance(msg, (*CATALOG_OPS, wire.BackfillStart)):
            self.journal.append((-1, frame))
            if isinstance(msg, wire.BackfillStart):
                self._backfill_frames[msg.metric.metric_id] = frame
        elif isinstance(msg, wire.BackfillStop):
            start = self._backfill_frames.pop(msg.metric_id, None)
            self.journal = [entry for entry in self.journal if entry[1] is not start]
        try:
            self.conn.send_bytes(frame)
        except OSError:
            pass  # dead frontend; the respawn replays the journal

    def poll(self) -> list:
        """Frames from the frontend; a dead one is respawned first."""
        if not self.alive and not self._reviving:
            self._reviving = True
            try:
                self._respawn()
            finally:
                self._reviving = False
            return []
        return self._drain()

    def _drain(self) -> list:
        out = []
        try:
            while self.conn.poll(0):
                msg = wire.decode(self.conn.recv_bytes())
                if isinstance(msg, wire.ReplyBatch):
                    if msg.stats is not None:
                        self.bundle = msg.stats
                    if msg.durable_seq > self.durable_seq:
                        # The frontend's consistent cut covers these
                        # frames: their appends are fsynced, so the
                        # journal's write-ahead copies are dead weight.
                        self.durable_seq = msg.durable_seq
                        self.journal = [
                            entry
                            for entry in self.journal
                            if entry[0] < 0 or entry[0] >= msg.durable_seq
                        ]
                out.append(msg)
        except (EOFError, OSError):
            pass  # dead frontend; respawned by the next poll
        return out

    def waitables(self) -> list:
        return [self.conn]

    def idle(self) -> bool:
        # Everything a frontend process owes is in the router's pending map.
        return True

    def snapshots(self) -> list[dict]:
        if self.bundle is None:
            return []
        try:
            return decode_bundle(self.bundle)
        except Exception:
            return []  # torn bundle: observation only, skipped

    def close(self) -> None:
        try:
            self.conn.send_bytes(wire.encode(wire.Shutdown()))
        except (OSError, ValueError):
            pass
        self.process.join(timeout=2.0)
        if self.alive:
            self.process.kill()
            self.process.join(timeout=2.0)
        try:
            self.conn.close()
        except OSError:
            pass

    def _respawn(self) -> None:
        """Crash recovery for a frontend: respawn + journal replay.

        Buffered frames from the dead incarnation are salvaged first
        (their replies and watermarks are valid). The fresh process gets
        ``RestoreWatermarks`` (so replayed dispatch suppresses settled
        replies and skips straight to the unreplied tail) and then the
        journal verbatim, rebuilding its partition logs with identical
        offsets. Workers replay-skip everything their state already
        holds, so the only client-visible effect is that replies which
        were in flight at the crash complete read-only.
        """
        router = self.router
        for msg in self._drain():
            router._on_frontend_msg(self, msg)
        self.process.join(timeout=1.0)
        try:
            self.conn.close()
        except OSError:
            pass
        self._spawn()
        self.restarts += 1
        router.metrics.counter_add(
            "router_frontend_restarts_total", label=self.frontend_id
        )
        watermarks = router._watermarks
        # A task whose worker frontier fell below the replied watermark
        # (a worker restarted from a stale checkpoint, and this frontend
        # died before replaying its tail) must re-ship from the frontier
        # or the gap never reaches the fresh worker's state. Ask the
        # workers for their actual frontiers so only genuinely-behind
        # tasks replay. A task absent from the acks has no processor
        # anywhere — a restarted worker still waiting for its replay —
        # so its frontier is the checkpoint-store offset (zero when no
        # checkpoint exists: full re-ship, which is exactly what a
        # stateless worker needs).
        try:
            offsets = router.supervisor.request_checkpoints()
        except EngineError:
            offsets = {}
        store_offset = router.supervisor.checkpoints.offset
        owned = sorted(self.owned, key=str)
        seeks = tuple(
            (tp, frontier)
            for tp in owned
            if (frontier := offsets.get(tp, store_offset(tp)))
            < watermarks.get(tp, 0)
        )
        # ingest_base aligns the fresh engine's frame numbering with the
        # pruned journal: retained ingest frames start exactly at the
        # durable cut the frontend last reported (0 when in-memory).
        self.conn.send_bytes(
            wire.encode(
                wire.RestoreWatermarks(
                    tuple((tp, watermarks.get(tp, 0)) for tp in owned),
                    seeks,
                    self.durable_seq,
                )
            )
        )
        for _seq, frame in self.journal:
            self.conn.send_bytes(frame)
            # Keep the reply direction drained mid-replay (same
            # wedge-avoidance as the ingest path).
            router._drain_replies()


class ClusterRouter(ShardCluster):
    """N frontend processes + W shard workers behind the cluster API.

    ``create_cluster("process", workers=W, frontends=F)`` returns this
    facade for ``F >= 2`` (and the single-coordinator
    :class:`~repro.shard.parallel.ParallelCluster` otherwise); the bench
    harness constructs it directly with ``frontends=1`` to measure the
    routed architecture's single-frontend baseline. The client API is
    :class:`~repro.shard.cluster.ShardCluster`'s, shared with
    ``ParallelCluster``, and replies are byte-identical to both
    ``ParallelCluster`` and ``RailgunCluster``.
    """

    def __init__(
        self,
        workers: int = 2,
        frontends: int = 2,
        unit_config: UnitConfig | None = None,
        checkpoint_every: int | None = 2048,
        durable_dir: str | None = None,
        durable_fsync: str = "batch",
        durable_segment_bytes: int = 1 << 20,
        time_source: TimeSource | None = None,
    ) -> None:
        if frontends <= 0:
            raise EngineError(f"need at least one frontend: {frontends}")
        self._ctx = default_context()
        super().__init__(
            "router", workers, unit_config, checkpoint_every, durable_dir,
            time_source,
        )
        self.durable_fsync = durable_fsync
        self.durable_segment_bytes = durable_segment_bytes
        for index in range(frontends):
            link = ChildFrontend(self, f"fe-{index}")
            self._frontends[link.frontend_id] = link

    def frontend_ids(self) -> list[str]:
        """Current frontend processes, in spawn order."""
        return list(self._frontends)

    def kill_frontend(self, frontend_id: str) -> None:
        """SIGKILL a frontend process (fault injection for tests)."""
        try:
            link = self._frontends[frontend_id]
        except KeyError:
            raise EngineError(f"unknown frontend {frontend_id!r}") from None
        link.process.kill()
