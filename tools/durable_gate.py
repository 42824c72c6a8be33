"""CI gate: checkpoint-aware truncation keeps durable logs bounded.

Drives a durable ``create_cluster("process")`` through several ingest
rounds with a tight checkpoint cadence and tiny segments, then asserts
the truncation contract on the bytes actually left on disk:

1. **Deletion happened**: no completed segment survives wholly below
   the truncation horizon (whole segments under it must be removed).
2. **Nothing above the horizon was deleted**: the record *at* the
   horizon is still readable.
3. **Bounded footprint**: per partition, on-disk bytes are at most the
   bytes of the segments above the horizon — measured as
   ``ceil(retained_records / records_per_segment) + 1`` segments' worth
   (the "+1" is the open active segment).

The *horizon* is the stored checkpoint offset — **unless a replay
cursor pins retention**. A backfill materializing a late-defined metric
reads the log from behind the live writer; its unreplayed segments are
legitimately held below the minimum checkpoint until the cursor passes
them (``DurableLog.pin``), so the horizon is ``min(checkpoint,
pinned_floor)``. Phase two of the gate exercises exactly that: a
backfill is left mid-flight while a checkpoint truncates, the pinned
history must survive, and once the backfill completes the pins must be
gone and reclamation must catch back up.

A last phase serves a durable ``create_cluster("single")`` over the TCP
front door with tiny segments. Its frontend is the only reader of its
reply topic, so no completed ``__reply.*`` segment may survive wholly
below the frontend's read offset; the event topics, which ``single``
replays from offset 0, must keep every record.

Run from the repository root (CI's ``durable-bus`` job)::

    PYTHONPATH=src python tools/durable_gate.py

Exit code 1 on any violated bound, with the offending partition named.
"""

from __future__ import annotations

import shutil
import sys
import tempfile

from repro.engine.cluster import create_cluster
from repro.events.event import Event
from repro.server.client import RailgunClient

SEGMENT_BYTES = 2048
ROUNDS = 4
EVENTS_PER_ROUND = 300
BACKFILL_QUERY = (
    "SELECT avg(amount) FROM tx GROUP BY cardId OVER sliding 500 minutes"
)


def check_bounds(cluster, tasks, offsets, failures, phase) -> None:
    """Assert the on-disk truncation contract for every event task."""
    spans_map = cluster.bus.segment_spans()
    for tp in tasks:
        checkpoint = offsets.get(tp, 0)
        if checkpoint <= 0:
            failures.append(f"{phase} {tp}: no checkpoint stored")
            continue
        floor = cluster.bus.log(tp).pinned_floor
        horizon = checkpoint if floor is None else min(checkpoint, floor)
        task_spans = spans_map[tp]
        end = cluster.bus.end_offset(tp)
        for base, seg_end in task_spans[:-1]:
            if seg_end <= horizon:
                failures.append(
                    f"{phase} {tp}: segment [{base},{seg_end}) survives "
                    f"wholly below horizon {horizon}"
                )
        if not cluster.bus.read(tp, horizon, 1) and horizon < end:
            failures.append(
                f"{phase} {tp}: record at horizon {horizon} is "
                f"unreadable after truncation"
            )
        # Bounded footprint: retained records fit the segments above
        # the horizon plus the active one.
        records_per_segment = max(
            seg_end - base for base, seg_end in task_spans
        )
        retained = end - horizon
        allowed_segments = (
            retained + records_per_segment - 1
        ) // records_per_segment + 1
        if len(task_spans) > allowed_segments:
            failures.append(
                f"{phase} {tp}: {len(task_spans)} segments on disk for "
                f"{retained} retained records above horizon {horizon} "
                f"(allowed {allowed_segments})"
            )
        print(
            f"{phase} {tp}: end={end} checkpoint={checkpoint} "
            f"pin={floor} segments={task_spans}"
        )


def run_gate() -> list[str]:
    failures: list[str] = []
    root = tempfile.mkdtemp(prefix="railgun-durable-gate-")
    try:
        with create_cluster(
            "process", workers=2, durable_dir=root, checkpoint_every=256
        ) as cluster:
            cluster.bus.config.segment_bytes = SEGMENT_BYTES
            cluster.create_stream(
                "tx", ["cardId"], partitions=2,
                schema={"cardId": "string", "amount": "float"},
            )
            cluster.create_metric(
                "SELECT sum(amount), count(*) FROM tx GROUP BY cardId "
                "OVER sliding 500 minutes"
            )
            for round_index in range(ROUNDS):
                cluster.send_batch(
                    "tx",
                    [
                        Event(
                            f"r{round_index}-{i}",
                            round_index * EVENTS_PER_ROUND + i + 1,
                            {"cardId": f"c{i % 5}", "amount": float(i)},
                        )
                        for i in range(EVENTS_PER_ROUND)
                    ],
                )
            tasks = cluster.bus.topic_partitions("tx.cardId")

            # Phase 1: steady state, no readers behind — the horizon is
            # the checkpoint and deletion must reach it.
            offsets = cluster.checkpoint_now()
            for tp in tasks:
                if cluster.bus.log(tp).pinned_floor is not None:
                    failures.append(
                        f"steady {tp}: unexpected retention pin with no "
                        f"replay in flight"
                    )
                if cluster.bus.segment_spans()[tp][0][0] == 0:
                    failures.append(
                        f"steady {tp}: no segment deleted below "
                        f"checkpoint {offsets.get(tp, 0)}"
                    )
            check_bounds(cluster, tasks, offsets, failures, "steady")

            # Phase 2: pile on fresh history, then leave a backfill
            # mid-replay — its cursors must pin segments *below* the
            # next checkpoint until the replay passes them.
            for round_index in range(ROUNDS, ROUNDS + 2):
                cluster.send_batch(
                    "tx",
                    [
                        Event(
                            f"r{round_index}-{i}",
                            round_index * EVENTS_PER_ROUND + i + 1,
                            {"cardId": f"c{i % 5}", "amount": float(i)},
                        )
                        for i in range(EVENTS_PER_ROUND)
                    ],
                )
            backfill_id = cluster.backfill_metric(BACKFILL_QUERY)
            # Small replay steps so a single pump leaves the cursors
            # strictly behind the live frontier (same spirit as the
            # tiny segment_bytes override above). The shadows run in
            # the cluster's in-process frontend.
            for link in cluster._frontends.values():
                for job in link.engine.backfills.values():
                    job.batch = 64
            cluster.pump()  # opens the shadow cursors mid-replay
            pinned = {
                tp: cluster.bus.log(tp).pinned_floor for tp in tasks
            }
            offsets = cluster.checkpoint_now()
            for tp in tasks:
                floor = pinned[tp]
                if floor is None:
                    failures.append(
                        f"backfill {tp}: replay in flight but no "
                        f"retention pin open"
                    )
                    continue
                if floor >= offsets.get(tp, 0):
                    failures.append(
                        f"backfill {tp}: pin {floor} not below the "
                        f"checkpoint {offsets.get(tp, 0)} — the phase "
                        f"exercises nothing"
                    )
                first_base = cluster.bus.segment_spans()[tp][0][0]
                if first_base > floor:
                    failures.append(
                        f"backfill {tp}: truncation deleted pinned "
                        f"history (first base {first_base} > pin {floor})"
                    )
                if floor < cluster.bus.end_offset(tp) and not (
                    cluster.bus.read(tp, floor, 1)
                ):
                    failures.append(
                        f"backfill {tp}: pinned record {floor} unreadable"
                    )
            check_bounds(cluster, tasks, offsets, failures, "backfill")

            # Phase 3: the backfill completes, pins release, and the
            # next checkpoint reclaims everything it was holding.
            for _ in range(10_000):
                if cluster.backfill_status(backfill_id) != "running":
                    break
                cluster.pump()
            if cluster.backfill_status(backfill_id) != "complete":
                failures.append("backfill never completed")
            offsets = cluster.checkpoint_now()
            for tp in tasks:
                if cluster.bus.log(tp).pinned_floor is not None:
                    failures.append(
                        f"released {tp}: backfill complete but a "
                        f"retention pin leaked"
                    )
            check_bounds(cluster, tasks, offsets, failures, "released")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return failures


def run_single_phase() -> list[str]:
    """Serve a durable ``single`` cluster: its reply topic is truncated
    behind the frontend, its event topics keep everything."""
    failures: list[str] = []
    root = tempfile.mkdtemp(prefix="railgun-durable-gate-single-")
    cluster = create_cluster(
        "single", durable_dir=root, serve="tcp://127.0.0.1:0"
    )
    try:
        cluster.bus.config.segment_bytes = SEGMENT_BYTES
        host, port = cluster.server.address
        sent = 0
        with RailgunClient(host, port, tenant="gate") as client:
            client.create_stream(
                "tx", ["cardId"], partitions=2,
                schema={"cardId": "string", "amount": "float"},
            )
            client.create_metric(
                "SELECT sum(amount), count(*) FROM tx GROUP BY cardId "
                "OVER sliding 500 minutes"
            )
            for round_index in range(ROUNDS):
                replies = client.send_batch(
                    "tx",
                    [
                        {"cardId": f"c{i % 5}", "amount": float(i)}
                        for i in range(EVENTS_PER_ROUND)
                    ],
                    timestamp=round_index + 1,
                )
                sent += len(replies)
        frontend = cluster.nodes["node-0"].frontend
        reply_tp = frontend._reply_tp
        read_offset = frontend._reply_offset
        spans = cluster.bus.segment_spans()
        if read_offset != sent:
            failures.append(
                f"single {reply_tp}: frontend read {read_offset} of "
                f"{sent} replies"
            )
        if spans[reply_tp][-1][0] == 0:
            failures.append(
                f"single {reply_tp}: never rolled a segment — the phase "
                f"exercises nothing"
            )
        for base, seg_end in spans[reply_tp][:-1]:
            if seg_end <= read_offset:
                failures.append(
                    f"single {reply_tp}: segment [{base},{seg_end}) survives "
                    f"wholly below the read offset {read_offset}"
                )
        events = 0
        for tp in cluster.bus.topic_partitions("tx.cardId"):
            log = cluster.bus.log(tp)
            events += log.end_offset
            if log.start_offset != 0 or spans[tp][0][0] != 0:
                failures.append(
                    f"single {tp}: event topic lost records (start "
                    f"{log.start_offset}, first segment {spans[tp][0]})"
                )
            if len(log.read(0, log.end_offset)) != log.end_offset:
                failures.append(f"single {tp}: event records unreadable")
        if events != sent:
            failures.append(f"single: {events} event records for {sent} sent")
        print(
            f"single {reply_tp}: replies={sent} read={read_offset} "
            f"segments={spans[reply_tp]}"
        )
    finally:
        cluster.close()
        shutil.rmtree(root, ignore_errors=True)
    return failures


def main() -> int:
    failures = run_gate() + run_single_phase()
    for failure in failures:
        print(f"TRUNCATION GATE: {failure}", file=sys.stderr)
    if not failures:
        print(
            "truncation gate: on-disk bytes bounded by segments above "
            "the horizon (checkpoint offsets, clamped to open replay "
            "pins); pins released on backfill completion; a served "
            "single cluster's reply topic truncated behind its frontend"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
