"""The process-parallel shard runtime.

Runs Railgun's back-end work — the batched ``process_batch`` path — in
separate OS processes so ingestion scales past one core. The layers:

- :mod:`repro.shard.wire` — the framing of work units, replies,
  checkpoints and control/routing messages crossing process
  boundaries (:mod:`repro.shard.columnar` holds its batch rows' column
  codecs);
- :mod:`repro.shard.worker` / :mod:`repro.shard.supervisor` — the worker
  entrypoint and the process that spawns, assigns, monitors, restarts
  and checkpoints workers over control-only pipes;
- :mod:`repro.shard.frontend` — :class:`FrontendEngine`, one slice of
  the front layer: partition logs, dispatch over the workers' data
  sockets, reply merge (:mod:`repro.shard.backfill` is its backfill
  splice);
- :mod:`repro.shard.cluster` — :class:`ShardCluster`, the front layer
  both facades share: the RailgunCluster-compatible client API, the
  protocol with the frontends and the worker half of rebalance and
  recovery, over one frontend link type per facade;
- :mod:`repro.shard.parallel` — :class:`ParallelCluster`, that layer
  over one in-process frontend;
- :mod:`repro.shard.router` — :class:`ClusterRouter`, that layer over N
  frontend processes (:func:`shard_frontend_main`), each owning a
  sticky slice of the partition space, so no single frontend loop sits
  on the hot path.

Both facades produce byte-identical replies to the single-process
engine; ``docs/ARCHITECTURE.md`` documents the data path, the wire
protocol and the recovery state machines end-to-end.
"""

from repro.shard.frontend import FrontendEngine, shard_frontend_main
from repro.shard.parallel import ParallelCluster
from repro.shard.router import ClusterRouter
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
