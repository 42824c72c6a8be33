"""The async multi-client front door (paper §2, §5).

Railgun's premise is many concurrent client systems scoring against one
cluster under MAD latency SLAs — the paper's fraud-detection deployment
serves "thousands of transactions per second" from independent client
services, each holding a sub-50ms budget. Until now every client of
this reproduction embedded its own cluster facade in-process; this
package turns the cluster into a *service*:

- :mod:`repro.server.server` — an asyncio TCP server multiplexing
  thousands of connections onto one shared cluster facade. Its loop
  thread calls the blocking facades itself and drives the pipelined
  ``ClusterRouter`` from a task (a trip crosses no thread boundary).
- :mod:`repro.server.client` — one sans-IO :class:`ClientProtocol`
  driven by :class:`AsyncRailgunClient` (asyncio streams) and
  :class:`RailgunClient` (a blocking socket, no thread), speaking
  length-prefixed ``shard.wire`` frames: DDL, ``send``/``send_batch``,
  byte-identical :class:`~repro.engine.cluster.Reply` objects.
- :mod:`repro.server.admission` — token-bucket per-tenant quotas,
  connection/in-flight caps, shedding with explicit ``ServerBusy``
  frames, and per-tenant :class:`LatencyBudget` targets
  with observed p50/p99 exported via ``stats()``.
"""

from repro.server.admission import (
    AdmissionController,
    Decision,
    LatencyBudget,
    TenantQuota,
    TokenBucket,
)
from repro.server.client import AsyncRailgunClient, RailgunClient, ServerBusyError
from repro.server.server import RailgunServer, ServerHandle, serve_cluster

__all__ = [
    "AdmissionController",
    "Decision",
    "LatencyBudget",
    "TenantQuota",
    "TokenBucket",
    "AsyncRailgunClient",
    "RailgunClient",
    "ServerBusyError",
    "RailgunServer",
    "ServerHandle",
    "serve_cluster",
]
