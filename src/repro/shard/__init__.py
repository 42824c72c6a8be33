"""The process-parallel shard runtime.

Runs Railgun's back-end work — the batched ``poll_batches`` →
``process_batch`` path — in separate OS processes so ingestion scales
past one core. The layers:

- :mod:`repro.shard.wire` — serde-based framing for work units, replies,
  checkpoints and control/routing messages crossing process boundaries;
- :mod:`repro.shard.worker` / :mod:`repro.shard.supervisor` — the worker
  entrypoint and the process that spawns, routes to, monitors, restarts
  and checkpoints workers;
- :mod:`repro.shard.cluster` — :class:`ShardCluster`, the front layer
  both facades share: the RailgunCluster-compatible client API and the
  worker half of rebalance and recovery, over a fixed set of transport
  hooks (:mod:`repro.shard.backfill` is its backfill splice);
- :mod:`repro.shard.parallel` — :class:`ParallelCluster`, that layer
  over one in-process coordinator and the supervisor pipes;
- :mod:`repro.shard.router` — :class:`ClusterRouter` +
  :func:`shard_frontend_main`, the sharded-frontend topology: N frontend
  processes each owning a sticky slice of the partition space, shipping
  work to workers over their own data sockets so no single coordinator
  loop sits on the hot path.

Both facades produce byte-identical replies to the single-process
engine; ``docs/ARCHITECTURE.md`` documents the data path, the wire
protocol and the recovery state machines end-to-end.
"""

from repro.shard.parallel import ParallelCluster
from repro.shard.router import ClusterRouter, FrontendEngine, shard_frontend_main
from repro.shard.supervisor import ShardSupervisor
from repro.shard.worker import ShardWorker, shard_worker_main

__all__ = [
    "ClusterRouter",
    "FrontendEngine",
    "ParallelCluster",
    "ShardSupervisor",
    "ShardWorker",
    "shard_frontend_main",
    "shard_worker_main",
]
