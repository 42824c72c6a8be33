"""Write a golden durable directory of the single-coordinator topology.

``tests/data/durable_golden/`` pins the on-disk state a
``create_cluster("process")`` coordinator leaves behind — partition
logs, the operations log, committed offsets and the checkpoint store —
so every later build must keep reopening a directory an older one wrote
(``tests/test_durable_recovery.py::TestGoldenDurableDir``). The
scenario is fixed: a stream with a global partitioner and one metric,
100 events, ``checkpoint_now``, a metric created mid-stream, 20 more
events, a schema evolution and an added partitioner, then 20 events
published but never answered.

Run from the repository root with the build whose format the directory
pins; it refuses to overwrite an existing directory::

    PYTHONPATH=src python tools/durable_golden.py tests/data/durable_golden
"""

from __future__ import annotations

import os
import sys

from repro.engine.cluster import create_cluster
from repro.events.event import Event

STREAM = dict(
    partitions=2,
    schema={"cardId": "string", "amount": "float"},
    with_global_partitioner=True,
)
METRIC = (
    "SELECT sum(amount), count(*) FROM tx GROUP BY cardId "
    "OVER sliding 500 minutes"
)
MID_METRIC = "SELECT count(*), max(amount) FROM tx OVER sliding 400 minutes"


def events(start: int, count: int, country: bool = False) -> list[Event]:
    """Deterministic traffic: three cards, a timestamp per second."""
    out = []
    for i in range(start, start + count):
        fields = {"cardId": f"c{i % 3}", "amount": float(i % 7)}
        if country:
            fields["country"] = ("pt", "es")[i % 2]
        out.append(Event(f"g{i}", 1_000 + i * 1_000, fields))
    return out


def write(dest: str) -> None:
    if os.path.exists(dest):
        raise SystemExit(f"{dest} exists; refusing to overwrite it")
    with create_cluster(
        "process", workers=2, durable_dir=dest, checkpoint_every=None
    ) as cluster:
        cluster.create_stream("tx", ["cardId"], **STREAM)
        cluster.create_metric(METRIC)
        cluster.send_batch("tx", events(0, 100))
        cluster.checkpoint_now()
        cluster.create_metric(MID_METRIC)
        cluster.send_batch("tx", events(100, 20))
        cluster.evolve_schema("tx", {"country": "string"})
        cluster.add_partitioner("tx", "country")
        # Logged, never answered: the client that sent these is gone by
        # the time the directory reopens.
        cluster._ship("tx", events(120, 20, country=True))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: durable_golden.py <dest dir>")
    write(sys.argv[1])
