"""Consistent-cut export/import: cluster-to-cluster migration.

A durable cluster's whole history lives under its ``durable_dir`` —
partition segment files, the operations log, committed offsets and (in
the shard topologies) the persisted checkpoint store. ``export_cut``
quiesces the cluster, flushes every buffer, stamps the bus directory
with a consistent cut (per-partition end offsets, written atomically
*after* the data they describe is on disk) and copies the directory.
``import_cut`` validates a copy by rolling every log back to the
recorded cut — any tail torn mid-copy is discarded — after which
``create_cluster(..., durable_dir=<copy>)`` over the copy *is* the
migrated cluster: the single-coordinator ``process`` topology recovers
catalogue, logs and checkpoints entirely from the directory.
"""

from __future__ import annotations

import os
import shutil

from repro.common.storage import FileStorage
from repro.messaging.durable import DurableBus, read_cut, write_cut
from repro.messaging.log import TopicPartition
from repro.replay.backfill import ReplayError


def export_cut(cluster, dest: str) -> str:
    """Snapshot a quiesced durable cluster's directory into ``dest``.

    ``dest`` must not exist yet; returns it, ready to hand to
    ``create_cluster(..., durable_dir=dest)`` (after :func:`import_cut`)
    on the destination host.
    """
    durable_dir = getattr(cluster, "durable_dir", None)
    if durable_dir is None:
        raise ReplayError(
            "consistent-cut export needs a durable cluster "
            "(create_cluster(..., durable_dir=...))"
        )
    cluster.run_until_quiet()
    if hasattr(cluster, "checkpoint_now"):
        cluster.checkpoint_now()
    bus = cluster.bus
    bus.flush()
    ends = {tp: bus.log(tp).end_offset for tp in bus.all_partitions()}
    write_cut(bus.storage, 0, ends)
    shutil.copytree(durable_dir, dest)
    return dest


def import_cut(root: str) -> dict[TopicPartition, int]:
    """Validate an exported copy; returns the cut's end offsets.

    Opens the copied bus, rolls every partition back to the cut's
    recorded end (dropping anything torn past it) and closes it again —
    the directory is then a faithful durable state for a fresh cluster.
    """
    bus_root = os.path.join(root, "bus")
    if not os.path.isdir(bus_root):
        bus_root = root
    _, ends = read_cut(FileStorage(bus_root))
    if not ends:
        raise ReplayError(f"no consistent cut found under {root!r}")
    bus = DurableBus(bus_root)
    try:
        for tp, end in ends.items():
            bus.log(tp).truncate_to(end)
    finally:
        bus.close()
    return ends
