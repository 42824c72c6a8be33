"""CI gate: the shm data plane leaks no shared-memory segments.

Every ring the cluster creates lives in ``/dev/shm`` until someone
unlinks it, so a missed unlink survives the process tree and eats the
host's tmpfs one test run at a time.  This gate drives the shm
transport through the lifecycles where an unlink is easiest to lose
and asserts ``/dev/shm`` ends each scenario empty of ``rgshm-*``
segments:

1. **Clean shutdown** (supervisor topology): ``create_cluster("process",
   transport="shm")`` ingests a batch, closes; supervisor-owned rings
   must be unlinked.
2. **Worker crash + restart** (supervisor topology): SIGKILL a worker
   mid-stream — the old incarnation's rings are replaced by fresh ones
   on respawn and both generations must be gone after close.
3. **Sharded frontends + worker crash** (router topology): frontends own
   their per-link rings; a killed worker quarantines the link, the
   replacement link allocates new rings, and ``close()`` sweeps the
   prefix.

The check is global, not prefix-scoped: *any* surviving ``rgshm-*``
segment fails, including strays from earlier scenarios in this run.

Run from the repository root (CI's ``shm-data-plane`` job)::

    PYTHONPATH=src python tools/shm_gate.py

Exit code 1 if any segment survives, with the orphans named.
"""

from __future__ import annotations

import sys
import time

from repro.engine.cluster import create_cluster
from repro.events.event import Event
from repro.shard import shm

EVENTS = 200


def _events(prefix: str) -> list[Event]:
    return [
        Event(
            f"{prefix}-{i}", i + 1,
            {"cardId": f"c{i % 5}", "amount": float(i)},
        )
        for i in range(EVENTS)
    ]


def _setup(cluster) -> None:
    cluster.create_stream(
        "tx", ["cardId"], partitions=4,
        schema={"cardId": "string", "amount": "float"},
    )
    cluster.create_metric(
        "SELECT sum(amount), count(*) FROM tx GROUP BY cardId "
        "OVER sliding 500 minutes"
    )


def _orphan_failures(scenario: str) -> list[str]:
    orphans = shm.orphans("rgshm-")
    return [f"{scenario}: leaked segment {name}" for name in orphans]


def scenario_clean_shutdown() -> list[str]:
    with create_cluster("process", workers=2, transport="shm") as cluster:
        _setup(cluster)
        replies = cluster.send_batch("tx", _events("clean"))
        assert len(replies) == EVENTS
    return _orphan_failures("clean shutdown")


def scenario_worker_crash() -> list[str]:
    with create_cluster("process", workers=2, transport="shm") as cluster:
        _setup(cluster)
        correlations = cluster.frontend.send_batch("tx", _events("crash"))
        while len(cluster.frontend.completed) < EVENTS // 4:
            cluster.pump()
        cluster.kill_worker(cluster.worker_ids()[0])
        deadline = time.monotonic() + 30.0
        # Salvaged reply-ring frames can complete the batch before the
        # supervisor reaps the corpse: wait for the restart as well.
        while (
            len(cluster.frontend.completed) < len(correlations)
            or cluster.supervisor.restarts < 1
        ) and time.monotonic() < deadline:
            cluster.pump()
        assert cluster.supervisor.restarts == 1
    return _orphan_failures("worker crash")


def scenario_router_worker_crash() -> list[str]:
    with create_cluster(
        "process", workers=2, frontends=2, transport="shm"
    ) as cluster:
        _setup(cluster)
        correlations = cluster._route_and_ship("tx", _events("router"))
        while len(cluster.completed) < EVENTS // 4:
            cluster.pump()
        cluster.kill_worker(cluster.worker_ids()[0])
        deadline = time.monotonic() + 30.0
        while (
            len(cluster.completed) < len(correlations)
            or cluster.supervisor.restarts < 1
        ) and time.monotonic() < deadline:
            cluster.pump()
        assert cluster.supervisor.restarts == 1
    return _orphan_failures("router worker crash")


def run_gate() -> list[str]:
    failures: list[str] = []
    for scenario in (
        scenario_clean_shutdown,
        scenario_worker_crash,
        scenario_router_worker_crash,
    ):
        leaked = scenario()
        failures.extend(leaked)
        print(f"{scenario.__name__}: {'LEAK' if leaked else 'clean'}")
        # A leak in one scenario must not cascade into the next report.
        shm.sweep("rgshm-")
    return failures


def main() -> int:
    failures = run_gate()
    for failure in failures:
        print(f"SHM GATE: {failure}", file=sys.stderr)
    if not failures:
        print("shm gate: no shared-memory segments survive cluster "
              "shutdown or worker crashes")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
