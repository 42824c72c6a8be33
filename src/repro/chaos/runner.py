"""Run a chaos scenario against a topology and check THE invariant.

The invariant is the repo's one global correctness statement (ROADMAP
north star, held since PR 3): whatever the topology — cooperative
single-process, shard worker processes, sharded frontends, durable
logs — and whatever faults land mid-stream, every
reply must be byte-identical to what ``create_cluster("single")``
produces for the same traffic. The runner computes the reference
replies once, replays the identical scenario on the target, and
compares ``reply.event`` / ``reply.results`` pairwise.

Faults are applied through the same facade the failover tests and
``examples/cluster_failover.py`` use (``kill_worker``,
``kill_frontend``, ``checkpoint_now``, ``drain``); a fault kind the
target topology does not support is skipped, not an error — the
schedule is shared across topologies on purpose so one seed replays
everywhere. Post-crash settling waits ride the shared
:class:`~repro.common.timesource.TimeSource`, so ``$RAILGUN_TIME_SCALE``
compresses chaos runs exactly like the fault suites.
"""

from __future__ import annotations

import tempfile
import threading
import traceback
from dataclasses import dataclass, field

from repro.common.timesource import default_time_source
from repro.engine.cluster import create_cluster

from .scenario import Scenario, generate_scenario

#: Topology name -> create_cluster arguments. ``single`` as a *target*
#: re-runs the reference engine (catching nondeterminism in the engine
#: itself); ``single-r1`` adds replicas, so cold batches drive the
#: Figure 7 recovery path (an active task initialised from a donor);
#: the process topologies are where the faults bite.
TOPOLOGIES = {
    "single": dict(execution="single", nodes=2, processor_units=2),
    "single-r1": dict(execution="single", nodes=2, processor_units=1, replication_factor=1),
    "process": dict(execution="process", workers=2),
    "process-2f": dict(execution="process", workers=2, frontends=2),
}

#: Per-worker/frontend crash settle wait: generous because it is
#: virtual-time-compressible, not because restarts are slow.
_SETTLE_TIMEOUT = 30.0


@dataclass
class ChaosResult:
    seed: int
    topology: str
    ok: bool
    detail: str = ""
    scenario: str = ""
    replies: int = 0
    faults_applied: list[str] = field(default_factory=list)
    #: the target cluster's merged telemetry snapshot, captured after
    #: the run settles (printed next to the replay command on FAIL).
    telemetry: dict | None = None

    @property
    def replay_command(self) -> str:
        return (
            f"PYTHONPATH=src python -m repro.chaos "
            f"--seed {self.seed} --topology {self.topology}"
        )


def _build(topology: str, *, durable_dir: str | None):
    kwargs = dict(TOPOLOGIES[topology])
    execution = kwargs.pop("execution")
    if execution == "process" and durable_dir is not None:
        kwargs["durable_dir"] = durable_dir
    return create_cluster(execution, **kwargs)


def _apply_ddl(cluster, scenario: Scenario) -> None:
    for spec in scenario.streams:
        cluster.create_stream(
            spec.name,
            list(spec.partitioners),
            partitions=spec.partitions,
            schema=dict(spec.schema),
        )
    for _stream, query in scenario.metrics:
        cluster.create_metric(query)


def _apply_fault(cluster, fault, applied: list[str]) -> None:
    time_source = default_time_source()
    if fault.kind == "crash_worker" and hasattr(cluster, "kill_worker"):
        workers = cluster.worker_ids()
        if not workers:
            return
        victim = workers[fault.target % len(workers)]
        before = cluster.supervisor.restarts
        cluster.kill_worker(victim)
        applied.append(f"crash_worker:{victim}")
        if fault.settle:
            time_source.wait_until(
                lambda: cluster.supervisor.restarts > before,
                timeout=_SETTLE_TIMEOUT,
            )
    elif fault.kind == "crash_frontend" and hasattr(cluster, "kill_frontend"):
        frontends = cluster.frontend_ids()
        if not frontends:
            return
        victim = frontends[fault.target % len(frontends)]
        cluster.kill_frontend(victim)
        applied.append(f"crash_frontend:{victim}")
        # No settle wait: the router repairs dead frontends lazily on
        # the next send touching their slice; traffic-while-down is the
        # interesting path.
    elif fault.kind == "add_worker" and hasattr(cluster, "add_worker"):
        worker_id = cluster.add_worker()
        applied.append(f"add_worker:{worker_id}")
    elif fault.kind == "remove_worker" and hasattr(cluster, "remove_worker"):
        workers = cluster.worker_ids()
        if len(workers) <= 1:
            return  # never drain the pool to zero
        victim = workers[fault.target % len(workers)]
        cluster.remove_worker(victim)
        applied.append(f"remove_worker:{victim}")
    elif fault.kind == "checkpoint" and hasattr(cluster, "checkpoint_now"):
        cluster.checkpoint_now()
        applied.append("checkpoint")
    elif fault.kind == "drain" and hasattr(cluster, "drain"):
        cluster.drain()
        applied.append("drain")


def _arm_mid_batch_kill(cluster, fault, applied: list[str]):
    """SIGKILL a worker from a side thread while ``send_batch`` runs.

    The victim handle is resolved on the caller's thread; the side
    thread only sleeps briefly (virtual-time-scaled) and kills the
    process — no facade state is touched concurrently. Landing after
    the batch is fine: the invariant must hold either way.
    """
    if not hasattr(cluster, "worker_ids"):
        return None
    workers = cluster.worker_ids()
    if not workers:
        return None
    victim = workers[fault.target % len(workers)]
    handle = cluster.supervisor.handles.get(victim)
    if handle is None or not handle.alive:
        return None
    process = handle.process
    time_source = default_time_source()

    def kill() -> None:
        time_source.sleep(0.002 * (fault.target % 4 + 1))
        try:
            process.kill()
        except (ProcessLookupError, OSError):
            pass  # already dead; the schedule shrugs

    thread = threading.Thread(
        target=kill, name="chaos-mid-batch-kill", daemon=True
    )
    thread.start()
    applied.append(f"crash_mid_batch:{victim}")
    return thread


def _collect_replies(
    cluster, scenario: Scenario, *, faults: bool, applied: list[str]
) -> list:
    """Replay the scenario's batches (and faults, if asked) in order."""
    schedule: dict[int, list] = {}
    if faults:
        for fault in scenario.faults:
            schedule.setdefault(fault.at_batch, []).append(fault)
    mid_ddl: dict[int, list[str]] = {}
    for at, query in scenario.mid_metrics:
        mid_ddl.setdefault(at, []).append(query)
    replies = []
    for index, (stream, events) in enumerate(scenario.batches):
        for query in mid_ddl.get(index, ()):
            cluster.create_metric(query)
        killers = []
        for fault in schedule.get(index, ()):
            if fault.kind == "crash_mid_batch":
                thread = _arm_mid_batch_kill(cluster, fault, applied)
                if thread is not None:
                    killers.append(thread)
            else:
                _apply_fault(cluster, fault, applied)
        replies.extend(cluster.send_batch(stream, events))
        for thread in killers:
            thread.join()
    cluster.run_until_quiet()
    return replies


def _first_mismatch(reference: list, candidate: list) -> str:
    if len(reference) != len(candidate):
        return (
            f"reply count diverged: reference={len(reference)} "
            f"target={len(candidate)}"
        )
    for index, (ref, got) in enumerate(zip(reference, candidate)):
        if ref.event != got.event:
            return (
                f"reply[{index}] event diverged: "
                f"reference={ref.event!r} target={got.event!r}"
            )
        if ref.results != got.results:
            return (
                f"reply[{index}] (event {ref.event.event_id!r}) results "
                f"diverged:\n  reference={ref.results!r}\n  "
                f"target={got.results!r}"
            )
    return ""


def run_seed(
    seed: int,
    topology: str = "process",
    *,
    durable: bool = False,
    max_events: int = 500,
) -> ChaosResult:
    """Generate the scenario for ``seed``, run it, verdict.

    Never raises for a target-side failure — crashes, hangs surfaced as
    exceptions and reply mismatches all come back as ``ok=False`` with
    the replaying command line in :attr:`ChaosResult.replay_command`.
    """
    if topology not in TOPOLOGIES:
        raise ValueError(
            f"unknown topology {topology!r}; pick from {sorted(TOPOLOGIES)}"
        )
    scenario = generate_scenario(seed, max_events=max_events)
    result = ChaosResult(
        seed=seed, topology=topology, ok=False, scenario=scenario.describe()
    )

    reference_cluster = create_cluster("single", nodes=2, processor_units=2)
    try:
        _apply_ddl(reference_cluster, scenario)
        reference = _collect_replies(
            reference_cluster, scenario, faults=False, applied=[]
        )
    finally:
        reference_cluster.close()

    tmp = tempfile.TemporaryDirectory(prefix="chaos-") if durable else None
    try:
        cluster = _build(topology, durable_dir=tmp.name if tmp else None)
        try:
            _apply_ddl(cluster, scenario)
            replies = _collect_replies(
                cluster, scenario, faults=True, applied=result.faults_applied
            )
            # Snapshot before close(): worker/frontend registries merge
            # from snapshots piggybacked on reply traffic, so this is
            # the freshest view the coordinator will ever hold.
            try:
                result.telemetry = cluster.telemetry()
            except Exception:
                result.telemetry = None
        finally:
            cluster.close()
    except Exception:
        result.detail = (
            f"target raised:\n{traceback.format_exc(limit=8)}"
        )
        return result
    finally:
        if tmp is not None:
            tmp.cleanup()

    result.replies = len(replies)
    mismatch = _first_mismatch(reference, replies)
    if mismatch:
        result.detail = mismatch
        return result
    mismatch = _telemetry_mismatch(result.telemetry)
    if mismatch:
        result.detail = mismatch
        return result
    result.ok = True
    return result


def _telemetry_mismatch(telemetry: dict | None) -> str:
    """The telemetry plane's own invariant: once a run settles, the
    facade has answered every event it accepted — the merged counters
    must agree, whatever faults landed mid-stream."""
    if not telemetry:
        return ""
    counters = telemetry.get("counters", {})
    events_in = counters.get("engine_events_in_total", 0)
    replies_out = counters.get("engine_replies_out_total", 0)
    if events_in != replies_out:
        return (
            f"telemetry invariant violated after settling: "
            f"engine_events_in_total={events_in} != "
            f"engine_replies_out_total={replies_out}"
        )
    return ""
